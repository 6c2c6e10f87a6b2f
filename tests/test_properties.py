"""Property tests of the e-expansion route on random small graphs.

The frontier DP is checked against the 2^|E| subset tally, the expansion
against the deletion-contraction chromatic polynomial and (on every free tree
up to 10 vertices too) against products of Newton's recurrence summed over the
subset tally, the connected-partition search against a blind set-partition
enumeration, missing_types against one search per type, the cut profiles
against one component count per deleted vertex (and so on every
free tree up to 11 vertices), the tree DP's keys and signs against that
search, and missing-type certificates on random trees against that search
and a scan of every ordering.  On random trees up to 20 vertices a missing
type must mean not e-positive.  The c500 window test's floor-division forms
are checked against its statement in exact rationals, and the c40 sweep's
gap finder against a per-n scan of random window lists.  Hypothesis runs
derandomized, so every run draws the same examples.
"""

import math

import pytest

import support
from epolab.graphs import (
    Graph,
    _tree_type_tally,
    cut_profiles,
    enumerate_free_trees,
    has_connected_partition,
    is_connected,
    missing_types,
    spider,
)
from epolab.obstructions import _uncovered, strategy_check, theorem_decide
from epolab.partitions import partitions_of
from epolab.symfunc import _type_tally, csf_e, is_e_positive
from support import chromatic_polynomial, specialize_e

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@st.composite
def small_graphs(draw):
    """Graphs on n <= 8 vertices with at most 14 edges, possibly disconnected."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=14, unique=True)) if pairs else []
    return Graph(n, edges)


@st.composite
def connected_graphs(draw, max_n=8):
    """Connected graphs on n <= max_n vertices: a random spanning tree plus chords."""
    n = draw(st.integers(1, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    return Graph(n, edges)


@st.composite
def random_trees(draw):
    """Trees on n <= 14 vertices: three to five random subtrees hung from vertex 0."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=3, max_size=5).filter(lambda s: sum(s) <= 13))
    edges, root = [], 1
    for size in sizes:
        edges.append((0, draw(st.integers(root, root + size - 1))))
        edges += [(draw(st.integers(root, v - 1)), v) for v in range(root + 1, root + size)]
        root += size
    return Graph(root, edges)


@st.composite
def recursive_trees(draw, min_n, max_n):
    """Trees on min_n..max_n vertices, each vertex v > 0 joined to a random earlier one."""
    n = draw(st.integers(min_n, max_n))
    return Graph(n, [(draw(st.integers(0, v - 1)), v) for v in range(1, n)])


def _nonzero(tally) -> dict:
    return {key: c for key, c in tally.items() if c}


@PROPERTY
@given(small_graphs())
def test_type_tally_matches_subset_oracle(G):
    assert _nonzero(support.unpack_tally(_type_tally(G))) == _nonzero(support._subset_type_tally(G.n, sorted(G.edges)))


@PROPERTY
@given(small_graphs())
def test_specialization_matches_chromatic_polynomial(G):
    X = csf_e(G)
    for k in range(5):
        assert specialize_e(X, k) == chromatic_polynomial(G, k)


@PROPERTY
@given(small_graphs())
def test_csf_e_matches_p_to_e_by_type(G):
    tally = support._subset_type_tally(G.n, sorted(G.edges))
    assert csf_e(G) == support.p_to_e_by_type(tally)


def test_csf_e_of_every_free_tree_and_a_spider_matches_p_to_e_by_type():
    # all 201 trees with n <= 10, and S(6,4,1,1), which has every type
    for G in [G for n in range(1, 11) for G in enumerate_free_trees(n)] + [spider((6, 4, 1, 1))]:
        tally = support._subset_type_tally(G.n, sorted(G.edges))
        assert csf_e(G) == support.p_to_e_by_type(tally), sorted(G.edges)


@PROPERTY
@given(connected_graphs())
def test_connected_partition_search_matches_bruteforce(G):
    assert is_connected(G)
    for lam in partitions_of(G.n):
        witness = has_connected_partition(G, lam)
        assert (witness is None) == (not support.connected_partition_exists_bruteforce(G, lam)), lam
        if witness is not None:
            witness.validate(G, lam)


@PROPERTY
@given(connected_graphs(9))
# a 4-cycle with three pendant vertices, whose DFS tree lacks (5,2), (3,2,2)
# and (2,2,2,1): the search finds (5,2) in the graph and not the other two
@example(Graph(7, [(0, 6), (1, 6), (2, 5), (3, 5), (3, 6), (4, 5), (4, 6)]))
def test_missing_types_match_per_type_search(G):
    assert missing_types(G) == support.missing_types_bruteforce(G)


@PROPERTY
@given(connected_graphs(10))
@example(spider((2, 2, 1, 1)))
def test_cut_profiles_match_per_vertex_components(G):
    assert cut_profiles(G) == support.cut_profiles_bruteforce(G)


def test_cut_profiles_of_every_free_tree_match_per_vertex_components():
    # all 436 free trees with n <= 11, where each DFS child of a vertex roots one of its components
    for n in range(1, 12):
        for G in enumerate_free_trees(n):
            assert cut_profiles(G) == support.cut_profiles_bruteforce(G), sorted(G.edges)


@PROPERTY
@given(recursive_trees(1, 14))
def test_tree_tally_keys_are_the_realizable_types_with_one_sign(G):
    tally = support.unpack_tally(_tree_type_tally(G.adj, 1))
    realizable = {lam for lam in partitions_of(G.n) if has_connected_partition(G, lam) is not None}
    assert set(tally) == realizable
    for lam, c in tally.items():
        assert c * (-1) ** (G.n - len(lam)) > 0, (lam, c)


@settings(PROPERTY, max_examples=40)
@given(recursive_trees(13, 20))
@example(spider((4, 4, 4, 4, 3)))  # n = 20, a degree-5 vertex: some type is missing
def test_missing_type_implies_not_e_positive_on_trees(G):
    if missing_types(G):
        assert not is_e_positive(G).positive


@PROPERTY
@given(random_trees())
# profile (5, 5, (1, 1, 1)), the only q-interval arm within reach of n <= 14,
# with two branching components
@example(Graph(14, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (0, 7), (6, 7), (7, 8), (7, 9),
                    (9, 10), (0, 11), (0, 12), (0, 13)]))
def test_certificates_hold_on_random_trees(G):
    # a certificate depends on the profile alone, not on the components' shapes
    for _, profile in cut_profiles(G):
        cert = theorem_decide(profile)
        if cert is None:
            continue
        assert has_connected_partition(G, cert.lam) is None, (profile, cert.lam)
        if support.count_rearrangements(cert.lam) <= 20000:
            assert support.all_rearrangements_hit(cert.lam, profile.b + 1, profile.b + profile.c)


@st.composite
def c500_cells(draw):
    """(b, c, q) as the c500 sweep tries them: 2c <= b <= c^2/2 and 1 <= q <= b/c."""
    c = draw(st.integers(4, 600))
    b = draw(st.integers(2 * c, c * c // 2))
    return b, c, draw(st.integers(1, b // c))


@settings(PROPERTY, max_examples=1000)
@given(st.one_of(c500_cells(), st.tuples(st.integers(-10**6, 10**6), st.integers(-10**3, 10**3),
                                         st.integers(1, 10**3))))
@example((82, 41, 2))  # x = 42, y = 61: passes
@example((5, 3, 2))  # x = 3 < c+1
@example((1300, 50, 25))  # x = 53, y = 54: y - x = 1
def test_strategy_check_matches_exact_rationals(cell):
    assert strategy_check(*cell) == support.strategy_check_exact(*cell)


@st.composite
def window_lists(draw):
    """0 to 6 windows (x, y) with x <= y, one-point and x = 1 ones among them, and an
    n range [n_lo, n_hi] that may lie above every range t = 1 reaches or be empty."""
    windows = []
    for _ in range(draw(st.integers(0, 6))):
        x = draw(st.integers(1, 30))
        windows.append((x, x + draw(st.one_of(st.just(0), st.integers(0, 30)))))
    n_lo = draw(st.integers(1, 300))
    return n_lo, n_lo + draw(st.integers(-1, 200)), windows


@PROPERTY
@given(window_lists())
@example((5, 30, [(3, 4)]))  # the tail starts at 6, one above n_lo
@example((6, 30, [(3, 4)]))  # the tail starts at n_lo
@example((5, 30, [(3, 4), (5, 5)]))  # the union covers, no one tail does
@example((5, 30, [(5, 5), (3, 4)]))
@example((7, 40, [(1, 1)]))  # x = 1, one-point: every n
@example((7, 40, [(1, 3), (6, 6)]))  # x = 1: the tail starts at 0
@example((90, 140, [(2, 2), (40, 41)]))  # n_lo above t = 1's ranges
def test_uncovered_matches_a_per_n_scan(case):
    n_lo, n_hi, windows = case
    expected = [n for n in range(n_lo, n_hi + 1)
                if not any(t * x <= n <= t * y for x, y in windows for t in range(1, n // x + 1))]
    assert _uncovered(n_lo, n_hi, windows) == expected


def test_complete_graph_closed_form():
    # a proper coloring of K_n uses n distinct colors: X_{K_n} = n! e_n
    for n in range(1, 10):
        K = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        assert csf_e(K).coeffs == {(n,): math.factorial(n)}
