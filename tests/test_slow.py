"""Long-running exhaustive variants, excluded by default (pytest -m slow)."""

from collections import Counter

import pytest

import support
from epolab import cli
from epolab.graphs import Graph, enumerate_free_trees, missing_types, open_trees, spider, tree_canonical_key
from epolab.obstructions import sixm_connected_partition, sixm_rearrangement
from epolab.partitions import partial_sums, partitions_of
from epolab.symfunc import csf_e, is_e_positive


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
def test_csf_e_matches_p_to_e_by_type_on_every_free_tree_eleven_to_thirteen():
    """csf_e against Newton products over the 2^|E| subset tally, on all 2,087
    free trees with 11 <= n <= 13."""
    checked = 0
    for n in (11, 12, 13):
        for G in enumerate_free_trees(n):
            tally = support._subset_type_tally(G.n, sorted(G.edges))
            assert csf_e(G) == support.p_to_e_by_type(tally), sorted(G.edges)
            checked += 1
    assert checked == 235 + 551 + 1301


@pytest.mark.slow
def test_free_trees_match_labeled_dedup_to_nine():
    """Generator output equals sequence-decoded labeled-tree classes at n = 8, 9."""
    for n in (8, 9):
        oracle = {tree_canonical_key(Graph(n, e)) for e in support.labeled_trees(n)}
        mine = {tree_canonical_key(g) for g in enumerate_free_trees(n)}
        assert mine == oracle


@pytest.mark.slow
def test_sixm_rearrangement_every_type_m4():
    """Past the CLI's m <= 3 guard: every type of 49 orders around {23, 24},
    and its blocks validate on S(24, 22, 1, 1)."""
    G = spider((24, 22, 1, 1))
    cases = Counter()
    for lam in partitions_of(49):
        rec = sixm_rearrangement(lam, 4)
        cases[rec.case] += 1
        if rec.alpha is not None:
            assert not {23, 24} & partial_sums(rec.alpha), lam
            assert tuple(sorted(rec.alpha, reverse=True)) == lam
        sixm_connected_partition(rec).validate(G, lam)
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


@pytest.mark.slow
def test_open_trees_and_scan_rows_match_the_enumeration_fourteen_to_sixteen():
    """The generated open trees are the enumerated trees with no settled vertex, and each
    row of trees-scan is the enumeration route's, for 14 <= n <= 16."""
    for n in (14, 15, 16):
        generated = [tree_canonical_key(G) for G in open_trees(n)]
        assert len(generated) == len(set(generated)), n
        assert set(generated) == {tree_canonical_key(G) for G in support.open_trees_by_enumeration(n)}, n
        assert cli._scan_size(n) == support.scan_size_by_enumeration(n), n


@pytest.mark.slow
def test_csf_e_most_negative_coefficients_match_brick_tabloids_nineteen():
    """The most negative coefficient of each tree at n = 19 that trees-scan sends to csf_e, again by
    brick tabloids over the tree DP's tally."""
    trees = support.csf_settled_trees(19)
    assert len(trees) == 3
    for G in trees:
        lam, c, by_bricks = support.most_negative_term_by_bricks(G)
        assert c < 0 and by_bricks == c, (sorted(G.edges), lam)
