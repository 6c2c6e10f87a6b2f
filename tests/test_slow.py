"""Long-running exhaustive variants, excluded by default (pytest -m slow)."""

from collections import Counter

import pytest

import support
from epolab.graphs import Graph, enumerate_free_trees, missing_types, tree_canonical_key
from epolab.obstructions import sixm_rearrangement
from epolab.partitions import partial_sums, partitions_of
from epolab.symfunc import is_e_positive


@pytest.mark.slow
def test_missing_type_implies_not_e_positive_nine_vertices():
    """Missing type implies not e-positive, across all connected 9-vertex graphs."""
    classes = support.connected_graph_classes(9)
    assert len(classes) == 261080
    for edges in classes:
        g = Graph(9, edges)
        if missing_types(g):
            assert not is_e_positive(g).positive, edges


@pytest.mark.slow
def test_free_trees_match_labeled_dedup_to_nine():
    """Generator output equals sequence-decoded labeled-tree classes at n = 8, 9."""
    for n in (8, 9):
        oracle = {tree_canonical_key(Graph(n, e)) for e in support.labeled_trees(n)}
        mine = {tree_canonical_key(g) for g in enumerate_free_trees(n)}
        assert mine == oracle


@pytest.mark.slow
def test_sixm_rearrangement_every_type_m4():
    """Past the CLI's m <= 3 guard: every type of 49 orders around {23, 24}."""
    cases = Counter()
    for lam in partitions_of(49):
        rec = sixm_rearrangement(lam, 4)
        cases[rec.case] += 1
        if rec.kind == "rearrangement":
            assert not {23, 24} & partial_sums(rec.alpha), lam
            assert tuple(sorted(rec.alpha, reverse=True)) == lam
    assert sum(cases.values()) == 173525
    assert set(cases) == {
        "identity",
        "reversal",
        "two-between",
        "three-between-big",
        "two-between-flat-reversed",
        "two-ones",
        "all-twos-one",
    }
