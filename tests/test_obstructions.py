"""Obstruction certificates, q selection, sweeps, and the 12m+1 spiders."""

import random
import time
import tracemalloc

import pytest

import support
from epolab import obstructions
from epolab.graphs import CutProfile, spider, has_connected_partition
from epolab.obstructions import (
    MissingTypeCertificate,
    PartBudgetError,
    SixmConstruction,
    _c40_scan_c,
    _uncovered,
    analysis_q,
    check_c_range,
    check_partsums_obstruction,
    q_interval,
    sixm_connected_partition,
    sixm_full_check,
    sixm_rearrangement,
    spider4_classify,
    strategy_check,
    sweep_c40,
    sweep_c500,
    theorem_decide,
)
from epolab.partitions import interval_partition, partial_sums, partitions_of
from epolab.symfunc import is_e_positive


def test_obstruction_interval_examples():
    # the window [b+1, b+c] forced by the cut vertex is q_interval at q = 1
    for profile, window in [
        (CutProfile(6, 4, (1, 1)), (5, 6)),
        (CutProfile(1, 1, (1, 1, 1)), (2, 4)),
        (CutProfile(5, 3, (2,)), (4, 5)),
    ]:
        assert q_interval(profile.b, profile.c, 1) == window


def test_check_partsums_examples():
    assert check_partsums_obstruction(((2, 3),), CutProfile(1, 1, (1, 1, 1)))
    assert check_partsums_obstruction(((2, 2),), CutProfile(1, 1, (1,)))
    assert not check_partsums_obstruction(((13, 1),), CutProfile(6, 4, (1, 1)))


def test_check_partsums_size_mismatch():
    with pytest.raises(ValueError, match=r"^type \(\(3, 2\), \(1, 1\)\) does not sum to profile size 6$"):
        check_partsums_obstruction(((3, 2), (1, 1)), CutProfile(2, 2, (1,)))
    with pytest.raises(ValueError, match=r"^type \(3, 3, 1\) does not sum to profile size 6$"):
        support.check_partsums_by_parts((1, 3, 3), CutProfile(2, 2, (1,)))


def test_check_partsums_vs_full_enumeration():
    """The prefix-sum check on runs agrees with a blind scan over all orderings, in
    either order of the runs, and the part-by-part oracle agrees with it on each
    type as a shuffled tuple."""
    rng = random.Random(13)

    def check(lam, profile):
        shuffled = list(lam)
        rng.shuffle(shuffled)
        runs = support.runs_of(lam)
        got = check_partsums_obstruction(runs, profile)
        assert check_partsums_obstruction(runs[::-1], profile) == got, (profile, runs)
        assert support.check_partsums_by_parts(tuple(shuffled), profile) == got, (profile, lam, shuffled)
        return got

    profiles = [
        CutProfile(1, 1, (1,)),
        CutProfile(3, 2, (2, 1)),
        CutProfile(4, 3, (2, 2)),
        CutProfile(5, 4, (2, 1, 1)),
    ]
    from support import count_rearrangements

    for profile in profiles:
        lo, hi = profile.b + 1, profile.b + profile.c
        for lam in partitions_of(profile.n):
            if count_rearrangements(lam) > 20000:
                continue
            got = check(lam, profile)
            if any(p < profile.c1 + 1 for p in lam):
                assert not got
            else:
                assert got == support.all_rearrangements_hit(lam, lo, hi), (
                    profile,
                    lam,
                )
    for _ in range(40):
        b = rng.randint(1, 8)
        cs = sorted((rng.randint(1, min(3, b)) for _ in range(rng.randint(1, 3))), reverse=True)
        a = rng.randint(b, b + 6)
        profile = CutProfile(a, b, cs)
        if profile.n > 24:
            continue
        lam = rng.choice(
            [
                p
                for p in partitions_of(profile.n)
                if count_rearrangements(p) <= 20000
            ]
        )
        got = check(lam, profile)
        lo, hi = profile.b + 1, profile.b + profile.c
        expected = all(p >= profile.c1 + 1 for p in lam) and support.all_rearrangements_hit(
            lam, lo, hi
        )
        assert got == expected, (profile, lam)


def test_q_interval_examples():
    assert q_interval(5, 3, 2) == (3, 4)
    assert q_interval(4, 2, 1) == (5, 6)
    assert q_interval(10, 2, 7) is None
    with pytest.raises(ValueError):
        q_interval(5, 3, 0)


def test_compressed_interval_types_are_obstructed():
    """Any type inside a valid q-interval is rejected by the prefix-sum check."""
    rng = random.Random(29)
    for _ in range(200):
        b = rng.randint(2, 14)
        c = rng.randint(2, 8)
        a = rng.randint(b, b + 12)
        c1 = rng.randint(1, min(b, c - 1)) if c > 1 else 1
        cs = [c1]
        rest = c - c1
        while rest:
            nxt = rng.randint(1, min(c1, rest))
            cs.append(nxt)
            rest -= nxt
        profile = CutProfile(a, b, sorted(cs, reverse=True))
        if profile.n > 40:
            continue
        q = rng.randint(1, max(1, b // max(profile.c1, 1)))
        window = q_interval(b, profile.c, q)
        if window is None or window[0] < profile.c1 + 1:
            continue
        runs = interval_partition(profile.n, *window)
        if runs is None:
            continue
        lam = support.parts_of(runs)
        assert check_partsums_obstruction(runs, profile), (profile, q, lam)
        from support import count_rearrangements

        if count_rearrangements(lam) <= 20000:
            assert support.all_rearrangements_hit(lam, b + 1, b + profile.c)


def test_q_certificate_search_examples():
    # the window at q = 1 is [b+1, b+c] itself
    cert = theorem_decide(CutProfile(1, 1, (1, 1, 1)))
    assert cert is not None and cert.window == q_interval(1, 3, 1) and cert.verified
    # the certified type really is missing in the five-leaf star
    G = spider((1, 1, 1, 1, 1))
    assert has_connected_partition(G, cert.lam) is None

    # the middle regime scans q down from floor(b/c1) = 2, whose window (7, 8) holds 36
    cert = theorem_decide(CutProfile(18, 12, (5,)))
    assert (cert.kind, cert.q, cert.window) == ("q-interval", 2, (7, 8))

    assert theorem_decide(CutProfile(6, 4, (1, 1))) is None
    assert theorem_decide(CutProfile(5, 3, (2,))) is None


def test_strategy_check_examples():
    assert not strategy_check(5, 3, 2)  # x = 3 < c+1 = 4
    assert strategy_check(82, 41, 2)  # x = 42, y = 61, ceil(41/19)*42 = 126 <= 206
    assert not strategy_check(10, 41, 1)  # total function, just False here
    with pytest.raises(ValueError):
        strategy_check(5, 3, 0)


def test_one_value_windows_are_windows():
    # x = y: q_interval keeps the window, and strategy_check refuses it (its tail test
    # divides by y - x) instead of failing
    assert q_interval(4, 2, 3) == (2, 2)
    assert q_interval(10, 2, 4) == (3, 3) and not strategy_check(10, 2, 4)


def test_arm_3_scans_q_below_c_500_and_selects_in_closed_form_from_it():
    for c in (50, 499, 500):
        b = 2 * c + 1
        cert = theorem_decide(CutProfile(b, b, (c,)))
        assert (cert.kind, cert.q) == ("q-interval", 2), c  # the scan's first q = b // c1
    assert analysis_q(1001, 500).q == 2


def test_analysis_q_examples():
    t = analysis_q(125000, 500)
    assert t.case == 4 and t.internals["q0"] == 188 and t.q in (188, 187)
    t = analysis_q(1000, 500)
    assert t.case == 1 and t.q == 2
    t = analysis_q(60000, 500)
    assert t.case == 3 and t.q == 112


def test_analysis_q_case_4_keeps_q0_at_equality():
    # 100*r0 == 38*q0 == 5700: the boundary keeps q0, one below would be q0 - 1
    t = analysis_q(78806, 500)
    assert t.case == 4 and (t.internals["q0"], t.internals["r0"]) == (150, 57) and t.q == 150


def test_analysis_q_case_3_holds_at_its_threshold():
    # 17b == 5c^2 == 1300500 is still b <= c^2/3.4: case 3's q, where case 4 would pick 147
    t = analysis_q(76500, 510)
    assert (t.case, t.q) == (3, 127)


def test_analysis_q_preconditions():
    with pytest.raises(ValueError):
        analysis_q(1000, 499)
    with pytest.raises(ValueError):
        analysis_q(999, 500)  # b < 2c
    with pytest.raises(ValueError):
        analysis_q(125001, 500)  # 2b > c^2


def test_analysis_q_grid_invariants():
    rng = random.Random(3)
    for _ in range(400):
        c = rng.randint(500, 2000)
        b = rng.randint(2 * c, c * c // 2)
        t = analysis_q(b, c)
        assert t.x >= c + 1
        assert t.x < t.y
        assert (-(-(t.x - 1) // (t.y - t.x))) * t.x <= 2 * b + c + 1
        if t.case == 4:
            assert t.y - t.x >= 2
        else:
            assert t.y - t.x >= 1
        assert strategy_check(b, c, t.q)


def test_analysis_q_case_thresholds_match_exact_rationals():
    """Scaled-integer case selection agrees with Fraction arithmetic at boundaries."""
    from fractions import Fraction

    rng = random.Random(99)
    cs = [500, 501, 997, 1500, 2000] + [rng.randint(500, 2000) for _ in range(20)]
    for c in cs:
        boundaries = [
            Fraction(c * c, 20),
            Fraction(5 * c * c, 21),  # c^2 / 4.2
            Fraction(5 * c * c, 17),  # c^2 / 3.4
        ]
        for base in boundaries:
            for delta in (-2, -1, 0, 1, 2):
                b = int(base) + delta
                if not (2 * c <= b and 2 * b <= c * c):
                    continue
                t = analysis_q(b, c)
                if Fraction(b) <= Fraction(c * c, 20):
                    expected = 1
                elif Fraction(b) <= Fraction(5 * c * c, 21):
                    expected = 2
                elif Fraction(b) <= Fraction(5 * c * c, 17):
                    expected = 3
                else:
                    expected = 4
                assert t.case == expected, (b, c)
                # square-root selections are the exact maximal integers
                if t.case == 3:
                    assert 10000 * t.q**2 <= 2116 * b < 10000 * (t.q + 1) ** 2
                if t.case == 4:
                    q0 = t.internals["q0"]
                    assert 7 * q0**2 <= 2 * b < 7 * (q0 + 1) ** 2


def test_theorem_decide_remark_profiles_absent():
    assert theorem_decide(CutProfile(1, 1, (1,))) is None  # c = 1
    assert theorem_decide(CutProfile(5, 3, (2,))) is None  # b = 2c-1 but c = c1
    assert theorem_decide(CutProfile(6, 4, (1, 1))) is None
    # the theorem is one-directional: S(1,1,1) is still not e-positive
    assert not is_e_positive(spider((1, 1, 1))).positive


def test_theorem_decide_c_one_always_absent():
    for a in range(1, 6):
        for b in range(1, a + 1):
            assert theorem_decide(CutProfile(a, b, (1,))) is None


def test_theorem_decide_example_certificate():
    prof = CutProfile(2, 2, (2, 2, 2))
    cert = theorem_decide(prof)
    assert cert is not None and cert.verified
    assert all(3 <= p <= 8 for p in cert.lam)
    G = spider((2, 2, 2, 2, 2))
    assert has_connected_partition(G, cert.lam) is None


def test_theorem_decide_arm_coverage():
    # arm 2, c = 2: needs cs = (1,1) and b = 3
    cert = theorem_decide(CutProfile(3, 3, (1, 1)))
    assert cert is not None and cert.kind == "special-b-2c-1"
    # arm 2, c >= 3
    cert = theorem_decide(CutProfile(5, 5, (2, 1)))
    assert cert is not None and cert.kind == "q-interval" and cert.q == 2
    # arm 3
    cert = theorem_decide(CutProfile(8, 8, (2, 1, 1)))
    assert cert is not None and cert.kind == "q-interval"
    # arm 4: c >= c1+2 and 2b >= c^2
    cert = theorem_decide(CutProfile(9, 8, (1, 1, 1)))
    assert cert is not None and cert.kind == "parts-c-c1"
    assert set(cert.lam) <= {2, 3}


def test_theorem_decide_guards_each_arms_part_count(monkeypatch):
    # each arm's count is the length of the type it then builds: at that budget the
    # certificate is built, one part below it PartBudgetError comes first
    for profile in (CutProfile(10, 2, (1, 1)), CutProfile(10, 3, (1, 1)), CutProfile(11, 3, (1, 1)),
                    CutProfile(20, 5, (2, 1)), CutProfile(30, 8, (2, 1, 1)), CutProfile(30, 10, (2, 2))):
        parts = len(theorem_decide(profile).lam)
        monkeypatch.setattr(obstructions, "PART_BUDGET", parts)
        assert len(theorem_decide(profile).lam) == parts
        monkeypatch.setattr(obstructions, "PART_BUDGET", parts - 1)
        with pytest.raises(PartBudgetError, match=f"{parts} parts > {parts - 1}"):
            theorem_decide(profile)
        monkeypatch.undo()


def test_certificate_validation():
    prof = CutProfile(2, 2, (2, 2, 2))
    with pytest.raises(ValueError):
        MissingTypeCertificate(profile=prof, runs=((6, 1), (5, 1)), kind="nonsense")
    with pytest.raises(ValueError):
        MissingTypeCertificate(profile=prof, runs=((6, 1), (4, 1)), kind="explicit-interval")
    # (6, 5) lies in the q = 1 window [3, 8] but not in the q = 2 window [2, 4]
    assert MissingTypeCertificate(profile=prof, runs=((6, 1), (5, 1)), kind="q-interval", q=1).window == (3, 8)
    with pytest.raises(ValueError):
        MissingTypeCertificate(profile=prof, runs=((6, 1), (5, 1)), kind="q-interval", q=2)
    # only a q-interval certificate carries q, and it needs one
    for kind, q in (("q-interval", None), ("q-interval", 0), ("explicit-interval", 1)):
        with pytest.raises(ValueError):
            MissingTypeCertificate(profile=prof, runs=((6, 1), (5, 1)), kind=kind, q=q)
    # an explicit-interval part outside [b+1, b+c] = [3, 8] is refused before the prefix-sum check
    with pytest.raises(ValueError, match="outside its window"):
        MissingTypeCertificate(profile=prof, runs=((9, 1), (2, 1)), kind="explicit-interval")


def test_certificate_constructor_checks_the_window():
    # (13,) sums to n and its part exceeds c1, but its one ordering has no
    # prefix sum in [5, 6], so it certifies nothing
    with pytest.raises(ValueError):
        MissingTypeCertificate(CutProfile(6, 4, (1, 1)), ((13, 1),), "explicit-interval")
    cert = MissingTypeCertificate(CutProfile(2, 2, (2, 2, 2)), ((6, 1), (5, 1)), "explicit-interval")
    assert cert.verified is True and cert.to_json_dict()["verified"] is True


def test_certificate_check_cost_does_not_grow_with_b():
    # arm 1 at b = 10^10: a two-part type whose other part alone exceeds b
    profile = CutProfile(10**10, 10**10, (10**10, 10**10))
    start = time.perf_counter()
    cert = theorem_decide(profile)
    assert time.perf_counter() - start < 1
    assert cert.lam == (2 * 10**10 + 1, 2 * 10**10) and cert.kind == "explicit-interval"


def test_certificate_check_makes_no_copy_of_the_type():
    # 10^6 parts of 7 and 6 in the window [5, 7]: counting the parts per value
    # allocates a few small objects, where a sorted copy of the type alone is 8 MB
    profile = CutProfile(7 * 10**6 - 10, 4, (2, 1))
    runs = interval_partition(profile.n, 5, 7)
    assert sum(m for _, m in runs) == 10**6
    tracemalloc.start()
    try:
        MissingTypeCertificate(profile, runs, "explicit-interval")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_certificate_constructor_counts_the_parts_before_the_window_and_the_check(monkeypatch):
    # 10^7 + 1 parts of 4 neither fit the window [3, 4]'s profile nor sum to its n,
    # yet the part budget refuses them first, from the runs alone
    with pytest.raises(PartBudgetError, match=r"^size guard, a type of 10000001 parts > 10000000$"):
        MissingTypeCertificate(CutProfile(6, 2, (1, 1)), ((4, 10**7 + 1),), "explicit-interval")
    # a malformed type is refused before the budget is read
    monkeypatch.setattr(obstructions, "PART_BUDGET", 0)
    with pytest.raises(ValueError, match="runs need"):
        MissingTypeCertificate(CutProfile(6, 2, (1, 1)), ((4, 2), (3, 0)), "explicit-interval")
    with pytest.raises(PartBudgetError, match="3 parts > 0"):
        MissingTypeCertificate(CutProfile(6, 2, (1, 1)), ((4, 2), (3, 1)), "explicit-interval")


def test_each_arm_builds_a_huge_type_as_runs(monkeypatch):
    # with the budget lifted, each arm certifies 10^11 or more parts in runs alone:
    # no per-part tuple is built, by the arms or by the certificate's checks
    monkeypatch.setattr(obstructions, "PART_BUDGET", 10**13)
    a = 10**12
    for profile, kind in ((CutProfile(a, 2, (1, 1)), "explicit-interval"),
                          (CutProfile(a, 3, (1, 1)), "special-b-2c-1"),
                          (CutProfile(a, 8, (2, 1, 1)), "q-interval"),
                          (CutProfile(a, 6, (1, 1, 1)), "parts-c-c1")):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            cert = theorem_decide(profile)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.kind == kind and elapsed < 1 and peak < 1 << 20, (profile, elapsed, peak)
        assert sum(v * m for v, m in cert.runs) == profile.n and sum(m for _, m in cert.runs) > 10**11
        assert len(cert.runs) <= 2 and cert.runs[-1][0] > profile.c1


def test_check_on_runs_matches_the_part_by_part_oracle_on_random_types():
    # one to three part values and up to about 10^5 parts, each type shuffled for the oracle
    rng = random.Random(28)
    verdicts = set()
    for _ in range(400):
        values = sorted(rng.sample(range(1, 60), rng.randint(1, 3)), reverse=True)
        runs = tuple((v, rng.randint(1, 10 ** rng.randint(0, 5) // len(values) or 1)) for v in values)
        n = sum(v * m for v, m in runs)
        if n < 4:
            continue
        c1 = rng.randint(1, min(values[-1] + 1, (n - 1) // 3))
        c = rng.randint(c1, min(3 * c1, n - 1 - 2 * c1))
        b = rng.randint(c1, min(3000, (n - 1 - c) // 2))
        profile = CutProfile(n - 1 - c - b, b, (c1,) * (c // c1) + ((c % c1,) if c % c1 else ()))
        lam = list(support.parts_of(runs))
        rng.shuffle(lam)
        got = check_partsums_obstruction(runs, profile)
        assert got == support.check_partsums_by_parts(lam, profile), (runs, profile)
        verdicts.add(got)
    assert verdicts == {False, True}


def test_check_on_runs_matches_the_part_by_part_oracle_on_every_certificate_to_n_60():
    # theorem_decide reads a profile through b, c, c1 and n only, so one cs per (c1, c)
    certs = 0
    for n in range(4, 61):
        for c in range(1, n - 2):
            for c1 in range(1, c + 1):
                cs = (c1,) * (c // c1) + ((c % c1,) if c % c1 else ())
                for b in range(c1, (n - 1 - c) // 2 + 1):
                    profile = CutProfile(n - 1 - c - b, b, cs)
                    cert = theorem_decide(profile)
                    if cert is not None:
                        assert check_partsums_obstruction(cert.runs, profile)
                        assert support.check_partsums_by_parts(cert.lam[::-1], profile), (profile, cert)
                        certs += 1
    assert certs == 84942


def test_every_profile_with_c_at_least_c1_plus_2_gets_an_arm_certificate_to_n_60():
    # the reduction behind trees-scan's open trees: a vertex of degree >= 5, or of degree 4 with
    # no leaf neighbour, has k >= 3 or c2 >= 2, so c >= c1 + 2; one cs per (c1, c), as above
    profiles = 0
    for n in range(6, 61):
        for c in range(3, n - 2):
            for c1 in range(1, c - 1):
                cs = (c1,) * (c // c1) + ((c % c1,) if c % c1 else ())
                for b in range(c1, (n - 1 - c) // 2 + 1):
                    assert theorem_decide(CutProfile(n - 1 - c - b, b, cs)) is not None, (n - 1 - c - b, b, cs)
                    profiles += 1
    assert profiles == 78400


def test_certificate_json():
    cert = MissingTypeCertificate(CutProfile(1, 1, (1, 1, 1)), ((3, 2),), "q-interval", q=1)
    d = cert.to_json_dict()
    assert d["lambda"] == [3, 3] and cert.lam == (3, 3)
    assert d["profile"] == {"a": 1, "b": 1, "cs": [1, 1, 1]}
    assert d["kind"] == "q-interval"
    assert d["verified"] is True
    assert set(d) == {"profile", "lambda", "kind", "q", "x", "y", "verified"}


def test_theorem_soundness_small_spiders():
    for n in range(4, 13):
        for legs in partitions_of(n - 1):
            if len(legs) < 3:
                continue
            G = spider(legs)
            from epolab.graphs import cut_profiles

            (_, prof), = cut_profiles(G)
            cert = theorem_decide(prof)
            if cert is not None:
                assert has_connected_partition(G, cert.lam) is None, (
                    legs,
                    cert.lam,
                )


def test_obstructed_types_are_absent_in_spiders():
    """Whenever the prefix-sum check certifies a type missing, the search agrees."""
    from epolab.graphs import cut_profiles

    for n in range(4, 11):
        for legs in partitions_of(n - 1):
            if len(legs) < 3:
                continue
            G = spider(legs)
            (_, profile), = cut_profiles(G)
            for lam in partitions_of(n):
                if check_partsums_obstruction(support.runs_of(lam), profile):
                    assert has_connected_partition(G, lam) is None, (legs, lam)


def test_spider4_examples():
    v = spider4_classify((6, 4, 1, 1))
    assert not v.e_positive and v.method == "external:zheng-cor-4.6"
    assert "13" in v.note and "7" in v.note
    assert not is_e_positive(spider((6, 4, 1, 1))).positive

    v = spider4_classify((2, 2, 2, 2))
    assert v.method == "obstruction-certificate"
    assert has_connected_partition(spider((2, 2, 2, 2)), v.certificate.lam) is None

    v = spider4_classify((1, 1, 1, 1))
    assert v.method == "obstruction-certificate"
    assert has_connected_partition(spider((1, 1, 1, 1)), v.certificate.lam) is None


def test_spider4_certifies_at_2b_equal_to_c_squared():
    # b = 8, c = 4: 2b = c^2 is still b <= c^2/2, so an arm certifies it and no citation is needed
    v = spider4_classify((8, 8, 2, 2))
    assert (v.profile.b, v.profile.c) == (8, 4)
    assert v.method == "obstruction-certificate" and v.certificate.verified
    assert has_connected_partition(spider((8, 8, 2, 2)), v.certificate.lam) is None


def test_spider4_never_e_positive():
    for total in range(4, 12):
        for legs in partitions_of(total):
            if len(legs) != 4:
                continue
            v = spider4_classify(legs)
            assert not v.e_positive
            assert not is_e_positive(spider(legs)).positive
            if v.certificate is not None:
                assert v.certificate.verified


def test_spider4_needs_four_legs():
    with pytest.raises(ValueError):
        spider4_classify((2, 1, 1))


def test_sixm_examples():
    rec = sixm_rearrangement((6, 6, 1), 1)
    assert rec.alpha == (1, 6, 6)
    assert partial_sums(rec.alpha) == {1, 7}

    rec = sixm_rearrangement((13,), 1)
    assert rec.alpha == (13,)

    rec = sixm_rearrangement((2, 2, 2, 2, 2, 2, 1), 1)
    assert rec.case == "all-twos-one" and rec.alpha is None

    rec = sixm_rearrangement((3, 1, 1, 2, 2, 2, 2), 1)
    assert rec.case == "two-ones" and rec.alpha is None

    # one type per move of the largest part
    for lam, alpha, case in [
        ((5, 2, 2, 2, 2), (2, 5, 2, 2, 2), "two-between"),
        ((5, 3, 3, 2), (3, 5, 3, 2), "three-between-big"),
        ((6, 2, 2, 2, 1), (2, 2, 6, 1, 2), "two-between-flat-reversed"),
    ]:
        rec = sixm_rearrangement(lam, 1)
        assert (rec.alpha, rec.case) == (alpha, case)


def test_sixm_rearrangement_window_free():
    for m in (1, 2):
        w1, w2 = 6 * m - 1, 6 * m
        for lam in partitions_of(12 * m + 1):
            rec = sixm_rearrangement(lam, m)
            if rec.alpha is not None:
                sums = partial_sums(rec.alpha)
                assert w1 not in sums and w2 not in sums
                assert tuple(sorted(rec.alpha, reverse=True)) == lam


def test_sixm_full_check_counts():
    rep = sixm_full_check(1)
    assert rep.total == 101 and not rep.failures and rep.materialized == 101
    rep = sixm_full_check(2)
    assert rep.total == 1958 and not rep.failures
    with pytest.raises(ValueError):
        sixm_full_check(4)


def test_sixm_materialization_validates():
    G = spider((6, 4, 1, 1))
    for lam in partitions_of(13):
        rec = sixm_rearrangement(lam, 1)
        cp = sixm_connected_partition(rec)
        cp.validate(G, lam)
    # an ordering whose prefix sums hit 6m-1 = 5 leaves no run for the leaves
    with pytest.raises(RuntimeError, match="do not end at the end of P"):
        sixm_connected_partition(SixmConstruction(1, (8, 5), "identity", (5, 8)))


def test_sixm_cross_check_against_search():
    G = spider((6, 4, 1, 1))
    for lam in partitions_of(13):
        assert has_connected_partition(G, lam) is not None


def test_sweep_c40_restricted_slice():
    rep = sweep_c40(2, 10)
    assert rep.ok and rep.cells > 0
    assert rep.to_json_dict()["failures"] == []


def test_sweep_c40_agrees_with_search_on_cells():
    """Spot-check the sweep against theorem_decide's q scan on the same cells."""
    rng = random.Random(37)
    for _ in range(60):
        c = rng.randint(4, 12)
        if 2 * c > c * c // 2:
            continue
        b = rng.randint(2 * c, c * c // 2)
        n_lo = 2 * b + c + 1
        n_hi = (-(-b // (c - 1))) * (b + 1)
        n = rng.randint(n_lo, n_hi)
        profile = CutProfile(n - b - c - 1, b, (c,))
        cert = theorem_decide(profile)
        assert cert is not None, (b, c, n)
        assert cert.window[0] >= c + 1


def test_sweep_single_cell_record():
    profile = CutProfile(36 - 12 - 5 - 1, 12, (5,))
    cert = theorem_decide(profile)
    assert cert is not None
    assert cert.q >= 1 and sum(cert.lam) == 36


def test_sweep_c500_single_column():
    rep = sweep_c500(41, 41)
    assert rep.ok and rep.cells == 41 * 41 // 2 - 2 * 41 + 1


def test_sweep_c500_top_column_full():
    rep = sweep_c500(500, 500, mode="full")
    assert rep.ok and rep.cells == 500 * 500 // 2 - 2 * 500 + 1


def test_sixm_materialization_every_type_m2():
    G = spider((12, 10, 1, 1))
    for lam in partitions_of(25):
        rec = sixm_rearrangement(lam, 2)
        cp = sixm_connected_partition(rec)
        cp.validate(G, lam)


def test_sweep_determinism_across_jobs():
    rows_a, rows_b = [], []
    a = sweep_c40(2, 12, jobs=1, rows=rows_a.extend)
    b = sweep_c40(2, 12, jobs=2, rows=rows_b.extend)
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("wall_time_ms")
    db.pop("wall_time_ms")
    assert da == db
    assert rows_a == rows_b


def test_sweep_range_validation():
    with pytest.raises(ValueError):
        sweep_c40(2, 41)
    with pytest.raises(ValueError):
        sweep_c500(40, 100)
    with pytest.raises(ValueError):
        sweep_c500(41, 501)
    with pytest.raises(ValueError):
        sweep_c500(41, 50, mode="other")


def test_sweep_c_bounds_meet_at_40_and_41():
    # each kind's whole range passes and every c from 2 to 500 is in exactly one of them
    check_c_range("c40", 2, 40)
    check_c_range("c500", 41, 500)
    check_c_range("c500", 41, 41)
    for kind, lo, hi in (("c40", 1, 40), ("c40", 5, 4), ("c500", 40, 500), ("c500", 41, 501)):
        with pytest.raises(ValueError):
            check_c_range(kind, lo, hi)


def test_sweep_c40_matches_cell_by_cell_oracle():
    per_cell = []
    report = sweep_c40(2, 8, rows=per_cell.extend)
    failures, rows = support.c40_cells_bruteforce(2, 8)
    assert per_cell == rows
    assert report.failures == failures
    assert report.cells == sum(row[4] for row in rows)


def test_c40_interval_union_matches_bitmask_scan():
    for c in range(2, 41):
        assert _c40_scan_c(c) == support.c40_scan_c_bitmask(c), c


def test_uncovered_lists_the_gaps_a_window_leaves():
    # n = 5..30 with window (3, 4) alone: t = 2 covers 6..8, t = 3 covers 9..12,
    # and from t0 = ceil(2/1) = 2 on the ranges touch, so only 5 is missed
    assert _uncovered(5, 30, [(3, 4)]) == [5]
    assert _uncovered(5, 30, [(5, 5)]) == [n for n in range(6, 31) if n % 5]
    assert _uncovered(7, 9, []) == [7, 8, 9]
    assert _uncovered(7, 9, [(7, 9)]) == []
    # (3, 4)'s tail starts at 6 and one-point (5, 5) has none, yet t = 1 of (5, 5) fills in 5
    assert _uncovered(5, 30, [(3, 4), (5, 5)]) == []
    assert _uncovered(5, 30, [(5, 5), (3, 4)]) == []
    # the real grid with q = floor(b/c) alone: gaps the full sweep fills with smaller q
    missed = 0
    for c in (5, 9, 12):
        for b in range(2 * c, c * c // 2 + 1):
            n_lo, n_hi = 2 * b + c + 1, -(-b // (c - 1)) * (b + 1)
            window = q_interval(b, c, b // c)
            gaps = _uncovered(n_lo, n_hi, [window] if window else [])
            expected = [n for n in range(n_lo, n_hi + 1)
                        if not (window and any(t * window[0] <= n <= t * window[1]
                                               for t in range(1, n // window[0] + 1)))]
            assert gaps == expected, (b, c)
            missed += len(gaps)
    assert missed > 0


def test_worker_count_is_clamped(monkeypatch):
    import os

    from epolab.obstructions import worker_count

    # the cores this process may run on: its affinity mask, where the OS has one
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    cores = 3
    assert worker_count(1, 100) == 1
    assert worker_count(10**6, 3) == min(3, cores)
    assert worker_count(10**6, 10**6) == cores
    assert worker_count(4, 0) == 1
    assert worker_count(2, 1) == 1


def test_worker_count_falls_back_to_the_hosts_cores(monkeypatch):
    import os

    from epolab.obstructions import worker_count

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert worker_count(10**6, 10**6) == 5 and worker_count(3, 10) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # the count is unknown
    assert worker_count(10**6, 10**6) == 1


def test_parallel_map_submits_one_item_per_task_and_keeps_two_per_worker_in_flight(monkeypatch):
    import concurrent.futures

    events = []

    class Done:
        def __init__(self, value):
            self.value = value

        def result(self):
            events.append(("taken", self.value))
            return self.value

    class Pool:  # runs each task at submit, and records when its result is taken
        def __init__(self, max_workers):
            events.append(("workers", max_workers))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, item):
            events.append(("submitted", item))
            return Done(fn(item))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(obstructions, "worker_count", lambda jobs, items: 3)
    assert list(obstructions.parallel_map(lambda x: -x, list(range(20)), 3)) == [-x for x in range(20)]
    assert events[0] == ("workers", 3)
    assert [item for kind, item in events if kind == "submitted"] == list(range(20))
    in_flight = [sum(1 if kind == "submitted" else -1 for kind, _ in events[1 : i + 1])
                 for i in range(1, len(events))]
    assert max(in_flight) == 6  # two items per worker
