"""Chromatic symmetric functions, power-sum conversion, and the oracles."""

import random
import tracemalloc

import pytest

import support
from support import (
    _subset_type_tally,
    chromatic_polynomial,
    disjoint_union,
    multiply_e,
    specialize_e,
    unpack_tally,
)
from epolab.graphs import Graph, path_graph, spider
from epolab.partitions import packed_partitions
from epolab.symfunc import (
    ESymExpansion,
    _type_tally,
    _waring,
    csf_e,
    is_e_positive,
)


def p_in_e(k: int) -> ESymExpansion:
    """p_k in the e-basis, read off _waring's packed keys."""
    return ESymExpansion(k, unpack_tally(_waring(k)))


def test_p_in_e_small_degrees():
    assert unpack_tally(_waring(1)) == {(1,): 1}
    assert unpack_tally(_waring(2)) == {(1, 1): 1, (2,): -2}
    assert unpack_tally(_waring(3)) == {(1, 1, 1): 1, (2, 1): -3, (3,): 3}


def test_p_in_e_guard():
    with pytest.raises(ValueError):
        _waring(0)
    with pytest.raises(ValueError):
        _waring(26)


def test_newton_correctness_by_evaluation():
    # the power sum at v ones equals v, for any number of variables
    for k in range(1, 9):
        for v in range(1, 9):
            assert specialize_e(p_in_e(k), v) == v


def test_multiply_e_examples():
    a = ESymExpansion(2, {(2,): 1})
    assert multiply_e(a, a).coeffs == {(2, 2): 1}
    b = ESymExpansion(1, {(1,): 1})
    c = ESymExpansion(2, {(2,): -2})
    assert multiply_e(b, c).coeffs == {(2, 1): -2}
    prod = multiply_e(p_in_e(2), p_in_e(1))
    for v in range(1, 6):
        assert specialize_e(prod, v) == v * v


def test_figure_expansions_exact():
    assert csf_e(spider((1, 1, 1))).coeffs == {
        (2, 1, 1): 1,
        (2, 2): -2,
        (3, 1): 5,
        (4,): 4,
    }
    assert csf_e(spider((3, 2, 1))).coeffs == {
        (2, 2, 2, 1): 1,
        (3, 2, 1, 1): 2,
        (3, 2, 2): 5,
        (3, 3, 1): 4,
        (4, 2, 1): 12,
        (4, 3): 5,
        (5, 1, 1): 4,
        (5, 2): 13,
        (6, 1): 11,
        (7,): 7,
    }
    assert csf_e(spider((4, 1, 1))).coeffs == {
        (2, 2, 2, 1): 1,
        (3, 2, 1, 1): 4,
        (3, 2, 2): -3,
        (3, 3, 1): 10,
        (4, 2, 1): 10,
        (4, 3): 17,
        (5, 1, 1): 4,
        (5, 2): 3,
        (6, 1): 11,
        (7,): 7,
    }


def test_csf_k2_and_guard():
    assert csf_e(Graph(2, [(0, 1)])).coeffs == {(2,): 2}
    with pytest.raises(ValueError):
        csf_e(path_graph(21))


def test_csf_memory_is_bounded_by_the_call():
    # with _waring and the packed table warm, the p->e walk allocates only its
    # stack and the result and keeps nothing past the call; a product kept
    # per type would hold about 10 MB here
    for k in range(1, 21):
        _waring(k)
    packed_partitions(20)
    tracemalloc.start()
    try:
        csf_e(spider((8, 7, 4)))
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert left < 500_000


def test_csf_homogeneous():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(2, 7)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        X = csf_e(Graph(n, edges))
        assert all(sum(lam) == n for lam in X.coeffs)


def test_is_e_positive_examples():
    v = is_e_positive(spider((4, 1, 1)))
    assert not v.positive and v.negatives == (((3, 2, 2), -3),)
    assert is_e_positive(spider((5, 3, 2))).positive
    v = is_e_positive(spider((1, 1, 1)))
    assert not v.positive and v.negatives == (((2, 2), -2),)


def test_disjoint_union_multiplicativity():
    rng = random.Random(17)
    for _ in range(8):
        n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
        g1 = Graph(
            n1, [(u, v) for u in range(n1) for v in range(u + 1, n1) if rng.random() < 0.5]
        )
        g2 = Graph(
            n2, [(u, v) for u in range(n2) for v in range(u + 1, n2) if rng.random() < 0.5]
        )
        assert csf_e(disjoint_union(g1, g2)) == multiply_e(csf_e(g1), csf_e(g2))


def test_tree_fast_path_matches_subset_enumeration():
    from epolab.graphs import enumerate_free_trees

    for n in range(2, 9):
        for g in enumerate_free_trees(n):
            fast = unpack_tally(_type_tally(g))
            slow = _subset_type_tally(g.n, sorted(g.edges))
            assert {k: v for k, v in fast.items() if v} == {
                k: v for k, v in slow.items() if v
            }


def test_chromatic_polynomial_known_values():
    assert chromatic_polynomial(Graph(2, [(0, 1)]), 3) == 6
    assert chromatic_polynomial(spider((1, 1, 1)), 2) == 2
    for n in range(2, 8):
        g = path_graph(n)
        for k in range(0, 6):
            assert chromatic_polynomial(g, k) == k * (k - 1) ** (n - 1)
    # cycles: (k-1)^n + (-1)^n (k-1)
    for n in range(3, 7):
        cyc = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        for k in range(0, 6):
            assert chromatic_polynomial(cyc, k) == (k - 1) ** n + (-1) ** n * (k - 1)


def test_chromatic_polynomial_all_trees():
    from epolab.graphs import enumerate_free_trees

    for n in range(1, 9):
        for g in enumerate_free_trees(n):
            for k in range(0, 6):
                expected = k * (k - 1) ** (n - 1) if n > 1 else k
                assert chromatic_polynomial(g, k) == expected


def test_specialize_examples():
    assert specialize_e(csf_e(Graph(2, [(0, 1)])), 2) == 2
    assert specialize_e(csf_e(spider((1, 1, 1))), 2) == 2
    assert specialize_e(csf_e(path_graph(3)), 0) == 0


def test_specialization_identity_trees():
    from epolab.graphs import enumerate_free_trees

    for n in range(1, 10):
        for g in enumerate_free_trees(n):
            X = csf_e(g)
            for k in range(0, n + 1):
                assert specialize_e(X, k) == chromatic_polynomial(g, k)


def test_specialization_identity_random_graphs():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(2, 7)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45
        ]
        g = Graph(n, edges)
        X = csf_e(g)
        for k in range(0, n + 1):
            assert specialize_e(X, k) == chromatic_polynomial(g, k)


def test_coloring_oracle_equivalence_small():
    """Monomial coefficients recovered from the e-expansion match brute force."""
    for n in range(2, 6):
        for edges in support.connected_graph_classes(n):
            g = Graph(n, edges)
            X = csf_e(g)
            tally = support.coloring_multiset_tally(g)
            for mu in support.partitions_recursive(n):
                padded = mu + (0,) * (n - len(mu))
                monomial_coeff = sum(
                    c * support.zero_one_matrix_count(lam, padded)
                    for lam, c in X.coeffs.items()
                )
                colorings = monomial_coeff * support.distinct_orderings(mu, n)
                assert tally.get(mu, 0) == colorings, (edges, mu)


def test_expansion_rendering():
    X = csf_e(Graph(2, [(0, 1)]))
    assert X.to_text() == "2 * e_(2)"
    assert X.to_json_dict() == {"degree": 2, "terms": [{"lambda": [2], "coeff": "2"}]}


def test_expansion_validation():
    with pytest.raises(ValueError):
        ESymExpansion(3, {(2,): 1})  # key does not sum to the degree
    with pytest.raises(ValueError):
        ESymExpansion(3, {(1, 2): 1})  # not weakly decreasing
    assert ESymExpansion(2, {(2,): 0}).coeffs == {}  # zeros dropped
