"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every assertion is exact (integer arithmetic, zero
tolerance); the stated runtime budgets are asserted where the criterion
fixes one.
"""

import time

import support
from epolab.graphs import (
    Graph,
    cut_profiles,
    enumerate_free_trees,
    has_connected_partition,
    max_degree,
    missing_types,
    spider,
)
from epolab.obstructions import (
    analysis_q,
    sixm_connected_partition,
    sixm_full_check,
    sixm_rearrangement,
    sweep_c40,
    sweep_c500,
    theorem_decide,
)
from epolab.partitions import partitions_of
from epolab.symfunc import csf_e, is_e_positive
from support import chromatic_polynomial, specialize_e


def report(num: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.1f}s) - {detail}")


def test_criterion_1_figure_reproduction():
    """Exact e-expansions for S(1,1,1), S(3,2,1), S(4,1,1)."""
    t0 = time.perf_counter()
    expected = {
        (1, 1, 1): {(2, 1, 1): 1, (2, 2): -2, (3, 1): 5, (4,): 4},
        (3, 2, 1): {
            (2, 2, 2, 1): 1, (3, 2, 1, 1): 2, (3, 2, 2): 5, (3, 3, 1): 4,
            (4, 2, 1): 12, (4, 3): 5, (5, 1, 1): 4, (5, 2): 13, (6, 1): 11, (7,): 7,
        },
        (4, 1, 1): {
            (2, 2, 2, 1): 1, (3, 2, 1, 1): 4, (3, 2, 2): -3, (3, 3, 1): 10,
            (4, 2, 1): 10, (4, 3): 17, (5, 1, 1): 4, (5, 2): 3, (6, 1): 11, (7,): 7,
        },
    }
    for legs, coeffs in expected.items():
        assert csf_e(spider(legs)).coeffs == coeffs, legs
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, elapsed, "three spider expansions match coefficient for coefficient")


def test_criterion_2_connected_partition_completeness():
    """S(6,4,1,1) has all 101 types; S(1,1,1) is missing (2,2)."""
    t0 = time.perf_counter()
    assert sum(1 for _ in partitions_of(13)) == 101
    assert missing_types(spider((6, 4, 1, 1))) == []
    assert (2, 2) in missing_types(spider((1, 1, 1)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, elapsed, "all 101 types present in S(6,4,1,1); (2,2) missing in S(1,1,1)")


def test_criterion_3_degree_four_tree_scan():
    """Every tree on <= 12 vertices with max degree >= 4 is not e-positive."""
    t0 = time.perf_counter()
    total_trees = 0
    qualifying = 0
    counterexamples = []
    per_n = {}
    for n in range(1, 13):
        count_n = 0
        for g in enumerate_free_trees(n):
            count_n += 1
            if max_degree(g) >= 4:
                qualifying += 1
                if is_e_positive(g).positive:
                    counterexamples.append(g)
        per_n[n] = count_n
        total_trees += count_n
    assert per_n[12] == 551
    assert counterexamples == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        3,
        elapsed,
        f"{qualifying} qualifying trees among {total_trees} (551 at n=12), zero counterexamples",
    )


def test_criterion_4_theorem_soundness_desk_scale():
    """Certificates for spider profiles n <= 16 all confirmed by brute force."""
    t0 = time.perf_counter()
    certified = 0
    for n in range(4, 17):
        for legs in partitions_of(n - 1):
            if len(legs) < 3:
                continue
            g = spider(legs)
            (_, profile), = cut_profiles(g)
            cert = theorem_decide(profile)
            if cert is None:
                continue
            certified += 1
            assert cert.verified
            assert has_connected_partition(g, cert.lam) is None, (
                legs,
                cert.lam,
            )
    assert certified > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(4, elapsed, f"{certified} certificates, 100% confirmed missing by search")


def test_criterion_5_sweep_c40_full_grid():
    """Full (b, c, n) grid for 2 <= c <= 40: zero failure cells."""
    t0 = time.perf_counter()
    rep = sweep_c40(2, 40)
    assert rep.failures == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(5, elapsed, f"{rep.cells} cells over the full c<=40 grid, zero failures")


def test_criterion_6_sweep_c500():
    """Full grid 41 <= c <= 120, then sampled lattice up to c = 500."""
    t0 = time.perf_counter()
    full = sweep_c500(41, 120, mode="full")
    assert full.failures == []
    t_full = time.perf_counter() - t0
    assert t_full < 300.0

    t1 = time.perf_counter()
    sampled = sweep_c500(41, 500, mode="sampled")
    assert sampled.failures == []
    t_sampled = time.perf_counter() - t1
    assert t_sampled < 600.0
    report(
        6,
        t_full + t_sampled,
        f"full 41..120: {full.cells} pairs; sampled 41..500: {sampled.cells} pairs; zero failures",
    )


def test_criterion_7_q_selection_grid():
    """10^4 deterministic (b, c) pairs: every trace satisfies the window bounds."""
    t0 = time.perf_counter()
    checked = 0
    for i in range(100):
        c = 500 + (1500 * i) // 99
        b_lo, b_hi = 2 * c, c * c // 2
        for j in range(100):
            b = b_lo + ((b_hi - b_lo) * j) // 99
            trace = analysis_q(b, c)
            assert trace.x >= c + 1
            assert trace.x < trace.y
            assert (-(-(trace.x - 1) // (trace.y - trace.x))) * trace.x <= 2 * b + c + 1
            checked += 1
    assert checked == 10000
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(7, elapsed, "10000 q-selection traces, all window conditions hold")


def test_criterion_8_sixm_checks():
    """All types of 13 and 25 realized; m=1 agrees with the search oracle."""
    t0 = time.perf_counter()
    rep1 = sixm_full_check(1)
    assert rep1.total == 101 and rep1.failures == [] and rep1.materialized == 101
    rep2 = sixm_full_check(2)
    assert rep2.total == 1958 and rep2.failures == []

    g = spider((6, 4, 1, 1))
    for lam in partitions_of(13):
        rec = sixm_rearrangement(lam, 1)
        cp = sixm_connected_partition(rec)
        cp.validate(g, lam)
        assert has_connected_partition(g, lam) is not None  # oracle agreement
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(8, elapsed, "101/101 at m=1 (oracle agrees), 1958/1958 at m=2")


def test_criterion_9_engine_self_consistency():
    """Specialization identity, coloring oracle, and the missing-type filter."""
    t0 = time.perf_counter()

    # specialization identity on every tree with n <= 10, all 0 <= k <= n
    trees_checked = 0
    for n in range(1, 11):
        for g in enumerate_free_trees(n):
            X = csf_e(g)
            for k in range(0, n + 1):
                assert specialize_e(X, k) == chromatic_polynomial(g, k)
            trees_checked += 1

    # coloring-oracle equivalence on every connected graph with n <= 6
    colored_checked = 0
    for n in range(2, 7):
        for edges in support.connected_graph_classes(n):
            g = Graph(n, edges)
            X = csf_e(g)
            tally = support.coloring_multiset_tally(g)
            for mu in support.partitions_recursive(n):
                padded = mu + (0,) * (n - len(mu))
                coeff = sum(
                    c * support.zero_one_matrix_count(lam, padded)
                    for lam, c in X.coeffs.items()
                )
                assert tally.get(mu, 0) == coeff * support.distinct_orderings(mu, n)
            colored_checked += 1

    # missing type => not e-positive, on every connected graph with n <= 8
    graphs_checked = 0
    with_missing = 0
    for n in range(2, 9):
        for edges in support.connected_graph_classes(n):
            g = Graph(n, edges)
            graphs_checked += 1
            if missing_types(g):
                with_missing += 1
                assert not is_e_positive(g).positive, edges
    elapsed = time.perf_counter() - t0
    report(
        9,
        elapsed,
        f"specialization on {trees_checked} trees; coloring oracle on {colored_checked} graphs; "
        f"{with_missing}/{graphs_checked} graphs with a missing type, all non-e-positive",
    )
