"""Compositions, partitions, prefix sums, and interval representability."""

import random

import pytest

import support
from epolab.partitions import (
    format_parts,
    interval_partition,
    packed_partitions,
    parse_partition,
    partial_sums,
    partitions_of,
    two_coin_representation,
)
from support import (
    Composition,
    count_rearrangements,
    frobenius_interval_bound,
    rearrangements,
    reverse,
)


def test_composition_validation():
    assert Composition((3, 4, 2, 4)).total == 13
    with pytest.raises(ValueError):
        Composition(())
    with pytest.raises(ValueError):
        Composition((3, 0, 1))
    with pytest.raises(ValueError):
        parse_partition("(2,3)")


def test_partial_sums_examples():
    assert partial_sums(Composition((3, 4, 2, 4))) == {3, 7, 9}
    assert partial_sums(Composition((5,))) == frozenset()
    assert partial_sums(Composition((1, 6, 6))) == {1, 7}


def test_partial_sums_below_total():
    rng = random.Random(7)
    for _ in range(200):
        length = rng.randint(1, 8)
        parts = tuple(rng.randint(1, 9) for _ in range(length))
        alpha = Composition(parts)
        assert max(partial_sums(alpha) | {0}) < alpha.total


def test_reverse_examples():
    assert reverse(Composition((3, 4, 2, 4))).parts == (4, 2, 4, 3)
    assert reverse(Composition((5,))).parts == (5,)
    rev = reverse(Composition((1, 6, 6)))
    assert rev.parts == (6, 6, 1)
    assert partial_sums(rev) == {6, 12} == {13 - 7, 13 - 1}


def test_reversal_identity_random():
    rng = random.Random(11)
    for _ in range(300):
        parts = []
        budget = rng.randint(1, 60)
        while budget:
            p = rng.randint(1, min(9, budget))
            parts.append(p)
            budget -= p
        alpha = Composition(parts)
        expected = frozenset(alpha.total - s for s in partial_sums(alpha))
        assert partial_sums(reverse(alpha)) == expected


def test_rearrangements_examples():
    out = list(rearrangements((4, 4, 3, 2)))
    assert len(out) == 12 == count_rearrangements((4, 4, 3, 2))
    assert [c.parts for c in rearrangements((2, 2, 2))] == [(2, 2, 2)]
    assert [c.parts for c in rearrangements((6, 6, 1))] == [
        (1, 6, 6),
        (6, 1, 6),
        (6, 6, 1),
    ]


def test_rearrangements_distinct_lex_and_multiset():
    for lam in [(3, 1, 1), (5, 4, 4, 2), (2, 2, 1, 1)]:
        seen = [c.parts for c in rearrangements(lam)]
        assert len(seen) == len(set(seen)) == count_rearrangements(lam)
        assert seen == sorted(seen)
        assert all(tuple(sorted(s, reverse=True)) == lam for s in seen)


def test_partitions_of_counts_and_order():
    assert sum(1 for _ in partitions_of(4)) == 5
    # the recursive generator partitions_of replaced is the oracle, order included
    for n in range(1, 31):
        assert list(partitions_of(n)) == list(support.partitions_recursive(n)), n
    # p(n) from OEIS A000041
    assert [sum(1 for _ in partitions_of(n)) for n in (7, 13, 37, 40)] == [15, 101, 21637, 37338]
    stream = list(partitions_of(8))
    assert stream == sorted(stream, reverse=True)
    assert stream[0] == (8,) and stream[-1] == (1,) * 8
    assert len(set(stream)) == len(stream)


def test_packed_partitions_decode_to_the_partitions_in_order():
    # every n <= 31 packs (each multiplicity < 32); parts 26..31 use the top fields
    for n in range(1, 32):
        table = packed_partitions(n)
        assert [lam for lam, _ in table] == list(partitions_of(n)), n
        # distinct keys, each decoding to its own partition
        assert list(support.unpack_tally({key: 1 for _, key in table})) == list(partitions_of(n)), n


def test_interval_partition_examples():
    assert interval_partition(17, 7, 9) == (9, 8)
    assert interval_partition(13, 7, 9) is None
    assert interval_partition(7, 7, 9) == (7,)
    for x, y in ((0, 3), (4, 3)):
        with pytest.raises(ValueError):
            interval_partition(7, x, y)


def test_interval_partition_against_dp_oracle():
    for lo in range(1, 12):
        for hi in range(lo, 14):
            for n in range(1, 80):
                got = interval_partition(n, lo, hi)
                expected = support.interval_sum_exists_dp(n, lo, hi)
                assert (got is not None) == expected, (n, lo, hi)
                if got is not None:
                    assert sum(got) == n
                    assert all(lo <= p <= hi for p in got)


def test_frobenius_interval_bound_examples():
    assert frobenius_interval_bound(7, 9) == 21
    assert frobenius_interval_bound(2, 3) == 2
    c = 9
    assert frobenius_interval_bound(c, (3 * c - 1) // 2) == 18
    with pytest.raises(ValueError):
        frobenius_interval_bound(5, 5)


def test_frobenius_bound_sufficiency():
    for lo in range(1, 10):
        for hi in range(lo + 1, 13):
            bound = frobenius_interval_bound(lo, hi)
            for n in range(1, 4 * max(bound, 1) + 1):
                if n >= bound:
                    assert interval_partition(n, lo, hi) is not None, (n, lo, hi)


def test_two_coin_examples():
    assert two_coin_representation(12, 5) == (0, 3)
    assert two_coin_representation(11, 5) is None
    assert two_coin_representation(5, 5) == (1, 0)


def test_two_coin_valid_and_guaranteed():
    for c in range(3, 61):
        threshold = (c - 1) * (c - 2)
        for n in range(1, c * c + 1):
            rep = two_coin_representation(n, c)
            # brute force: the smallest a1 of any pair, or None when no pair exists
            a1s = [a1 for a1 in range(n // c + 1) if (n - a1 * c) % (c - 1) == 0]
            if rep is None:
                assert not a1s, (n, c)
            else:
                a1, a2 = rep
                assert a1 >= 0 and a2 >= 0 and a1 * c + a2 * (c - 1) == n
                assert a1 == a1s[0], (n, c)
            if n >= threshold:
                assert rep is not None, (n, c)


def test_render_and_parse():
    assert format_parts((4, 4, 3, 2)) == "(4,4,3,2)"
    assert parse_partition("(4, 4, 3 , 2)") == (4, 4, 3, 2)
    assert parse_partition("7") == (7,)
    assert format_parts((2, 1)) == "(2,1)"
    with pytest.raises(ValueError):
        parse_partition("()")
    with pytest.raises(ValueError):
        parse_partition("(3,x)")
