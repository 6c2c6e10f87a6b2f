"""Property tests of the e-expansion route on random small graphs.

The frontier DP is checked against the 2^|E| subset tally, the expansion
against the deletion-contraction chromatic polynomial, Waring's formula
against Newton's recurrence, and the connected-partition search against a
blind set-partition enumeration.  Hypothesis runs derandomized, so every run
draws the same examples.
"""

import math

import pytest

import support
from epolab.graphs import Graph, has_connected_partition, is_connected
from epolab.partitions import partitions_of
from epolab.symfunc import _type_tally, csf_e, p_in_e, specialize_e
from support import chromatic_polynomial

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@st.composite
def small_graphs(draw):
    """Graphs on n <= 8 vertices with at most 14 edges, possibly disconnected."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=14, unique=True)) if pairs else []
    return Graph(n, edges)


@st.composite
def connected_graphs(draw):
    """Connected graphs on n <= 8 vertices: a random spanning tree plus chords."""
    n = draw(st.integers(1, 8))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    return Graph(n, edges)


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
@given(st.integers(1, 14))
def test_waring_matches_newton_recurrence(k):
    assert p_in_e(k).coeffs == support.p_in_e_recurrence(k)


@PROPERTY
@given(connected_graphs())
def test_connected_partition_search_matches_bruteforce(G):
    assert is_connected(G)
    for lam in partitions_of(G.n):
        witness = has_connected_partition(G, lam)
        assert (witness is None) == (not support.connected_partition_exists_bruteforce(G, lam)), lam
        if witness is not None:
            witness.validate(G, lam)


def test_complete_graph_closed_form():
    # a proper coloring of K_n uses n distinct colors: X_{K_n} = n! e_n
    for n in range(1, 10):
        K = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        assert csf_e(K).coeffs == {(n,): math.factorial(n)}
