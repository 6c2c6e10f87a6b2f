"""Graphs, cut profiles, connected-partition search, and free trees."""

import random

import pytest

import support
from epolab import cli, graphs
from epolab.graphs import (
    ConnectedPartition,
    CutProfile,
    Graph,
    _component_masks,
    _dfs_tree,
    _has_blocks,
    _tree_order,
    _tree_type_tally,
    block_witness,
    cut_profiles,
    degree4_trees,
    enumerate_free_trees,
    has_connected_partition,
    is_connected,
    max_degree,
    missing_types,
    open_profiles,
    open_trees,
    path_graph,
    spider,
    star_graph,
    tree_canonical_key,
)
from epolab.partitions import PART_UNIT, partitions_of


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    g = Graph(3, [(0, 1), (1, 0)])  # duplicate orientation collapses
    assert len(g.edges) == 1


def test_graph_text_roundtrip():
    g = spider((3, 2, 1))
    assert Graph.from_text("7\n0 3\n0 5\n0 6\n1 2\n2 3\n4 5\n") == g
    with pytest.raises(ValueError):
        Graph.from_text("")
    with pytest.raises(ValueError):
        Graph.from_text("3\n0 x\n")


def test_spider_shapes():
    star = spider((1, 1, 1))
    assert star.n == 4
    assert max_degree(star) == 3
    assert star.adj[0].bit_count() == 3

    big = spider((6, 4, 1, 1))
    assert big.n == 13
    assert max_degree(big) == 4

    one_leg = spider((3,))
    assert one_leg.n == 4
    assert sorted(one_leg.adj[v].bit_count() for v in range(4)).count(1) == 2  # a path


def test_spider_labels_are_fixed():
    # leg blocks are consecutive, leaf first, attachment to the center last
    g = spider((2, 1))
    assert g.edges == Graph(4, [(1, 2), (0, 2), (0, 3)]).edges


def test_connected_components():
    assert _component_masks(Graph(3, []).adj, 0b111) == [0b001, 0b010, 0b100]
    assert _component_masks(path_graph(5).adj, 0b11111) == [0b11111]
    assert is_connected(path_graph(5)) and not is_connected(Graph(3, [(0, 1)]))
    # spider(1,1,1) with its center 0 removed: the three leaves
    assert _component_masks(spider((1, 1, 1)).adj, 0b1110) == [0b0010, 0b0100, 0b1000]


def test_cut_profiles():
    (v, prof), = cut_profiles(spider((6, 4, 1, 1)))
    assert v == 0 and (prof.a, prof.b, prof.cs) == (6, 4, (1, 1))
    assert prof.c == 2 and prof.n == 13

    (v, prof), = cut_profiles(spider((1, 1, 1)))
    assert v == 0 and (prof.a, prof.b, prof.cs) == (1, 1, (1,))

    assert cut_profiles(path_graph(5)) == []
    with pytest.raises(ValueError):
        cut_profiles(Graph(3, []))


def test_cut_profiles_run_without_recursion_on_deep_graphs():
    # DFS paths 20,000 and 8,000 vertices long, far past CPython's default limit of 1,000 frames
    assert cut_profiles(path_graph(20000)) == []
    assert cut_profiles(spider((8000, 6000, 4000, 1999))) == [(0, CutProfile(8000, 6000, (4000, 1999)))]


def test_cut_profile_validation():
    with pytest.raises(ValueError):
        CutProfile(1, 2, (1,))
    with pytest.raises(ValueError):
        CutProfile(3, 2, ())


def test_has_connected_partition_examples():
    assert has_connected_partition(spider((1, 1, 1)), (2, 2)) is None
    witness = has_connected_partition(spider((3, 2, 1)), (3, 2, 2))
    assert witness is not None
    witness.validate(spider((3, 2, 1)), (3, 2, 2))

    for lam in partitions_of(6):
        assert has_connected_partition(path_graph(6), lam) is not None


def test_has_connected_partition_size_mismatch():
    with pytest.raises(ValueError):
        has_connected_partition(path_graph(4), (3, 2))


def test_connected_partition_search_vs_bruteforce():
    """Library search agrees with a blind set-partition enumeration."""
    rng = random.Random(23)
    graphs = [spider((2, 1, 1)), spider((3, 2, 1)), path_graph(6), star_graph(6)]
    for _ in range(6):
        n = rng.randint(4, 7)
        while True:
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.45
            ]
            g = Graph(n, edges)
            if is_connected(g):
                graphs.append(g)
                break
    for g in graphs:
        for lam in partitions_of(g.n):
            got = has_connected_partition(g, lam)
            expected = support.connected_partition_exists_bruteforce(g, lam)
            assert (got is not None) == expected, (g, lam)


def test_missing_types_examples():
    star_missing = missing_types(spider((1, 1, 1)))
    assert (2, 2) in star_missing
    assert missing_types(spider((4, 1, 1))) == []
    # a 4-cycle with three pendant vertices: its DFS tree lacks (5,2), (3,2,2)
    # and (2,2,2,1), and the search finds (5,2) in the graph
    G = Graph(7, [(0, 6), (1, 6), (2, 5), (3, 5), (3, 6), (4, 5), (4, 6)])
    tree_types = support.unpack_tally(_tree_type_tally(_dfs_tree(G.adj), 1))
    assert [lam for lam in partitions_of(7) if lam not in tree_types] == [(5, 2), (3, 2, 2), (2, 2, 2, 1)]
    assert missing_types(G) == [(3, 2, 2), (2, 2, 2, 1)]


def test_missing_types_searches_no_tree(monkeypatch):
    def search(G, lam):
        raise AssertionError("a tree's tally already decides its types")

    monkeypatch.setattr(graphs, "has_connected_partition", search)
    assert (2, 2) in missing_types(spider((1, 1, 1)))
    assert missing_types(spider((4, 1, 1))) == []


def test_missing_types_guard():
    with pytest.raises(ValueError):
        missing_types(path_graph(26))


def test_free_tree_counts():
    # non-isomorphic trees on n vertices, OEIS A000055
    counts = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]
    for n, count in enumerate(counts, start=1):
        assert sum(1 for _ in enumerate_free_trees(n)) == count, n


def test_free_trees_match_the_dedup_route():
    for n in range(1, 13):
        generated = [tree_canonical_key(g) for g in enumerate_free_trees(n)]
        assert len(generated) == len(set(generated)), n
        assert set(generated) == {tree_canonical_key(g) for g in support.free_trees_by_dedup(n)}, n


def test_free_trees_are_enumerated_without_canonical_keys(monkeypatch, tmp_path, capsys):
    calls = []

    def counting(G):
        calls.append(G)
        return tree_canonical_key(G)

    monkeypatch.setattr(graphs, "tree_canonical_key", counting)
    monkeypatch.setattr(cli, "tree_canonical_key", counting, raising=False)
    assert len(list(enumerate_free_trees(10))) == 106
    cache = str(tmp_path / "scan.jsonl")
    for _ in range(2):  # a cold cache, then a warm one
        assert cli.main(["trees-scan", "9", "--cache", cache]) == 0
    capsys.readouterr()
    assert calls == []


def test_free_trees_match_labeled_dedup_oracle():
    for n in range(1, 8):
        oracle_keys = {
            tree_canonical_key(Graph(n, edges)) for edges in support.labeled_trees(n)
        }
        generated = [tree_canonical_key(g) for g in enumerate_free_trees(n)]
        assert len(generated) == len(set(generated))
        assert set(generated) == oracle_keys


def test_free_trees_are_trees_and_distinct_to_nine():
    for n in range(2, 10):
        keys = set()
        for g in enumerate_free_trees(n):
            assert g.n == n and len(g.edges) == n - 1
            assert is_connected(g)
            keys.add(tree_canonical_key(g))
        assert len(keys) == sum(1 for _ in enumerate_free_trees(n))


def test_free_tree_guard():
    with pytest.raises(ValueError):
        list(enumerate_free_trees(17))


def test_otter_counts_match_the_enumeration():
    for n in range(1, 17):
        trees = list(enumerate_free_trees(n))
        assert graphs._otter_count(n, n) == len(trees), n
        assert degree4_trees(n) == sum(max_degree(G) >= 4 for G in trees), n
    # past the enumeration's guard: OEIS A000055 less the maximum-degree-3 trees (A000672)
    assert [graphs._otter_count(n, n) for n in range(17, 21)] == [48629, 123867, 317955, 823065]
    assert [degree4_trees(n) for n in range(17, 21)] == [43531, 112847, 294109, 770832]


def test_open_trees_are_the_trees_with_no_settled_vertex():
    for n in range(1, 14):
        generated = [tree_canonical_key(G) for G in open_trees(n)]
        assert len(generated) == len(set(generated)), n
        assert set(generated) == {tree_canonical_key(G) for G in support.open_trees_by_enumeration(n)}, n
    # the first open trees with two degree-4 vertices have 14; the slow test checks these to 16
    assert [sum(1 for _ in open_trees(n)) for n in range(11, 18)] == [6, 15, 45, 110, 265, 685, 1698]


def test_open_trees_keep_a_tree_with_two_degree_four_vertices_once():
    # two brooms, each a degree-4 vertex with two leaves and a path of 4, joined at their centres
    broom = [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (0, 7)]
    G = Graph(14, broom + [(u + 7, v + 7) for u, v in broom if (u, v) != (0, 7)])
    key = tree_canonical_key(G)
    assert [tree_canonical_key(H) for H in open_trees(14)].count(key) == 1


@pytest.mark.parametrize("n", [17, 18] + [pytest.param(n, marks=pytest.mark.slow) for n in range(19, 23)])
def test_open_trees_past_the_enumeration_are_open_distinct_and_hold_every_sampled_open_tree(n):
    # past enumerate_free_trees' guard: each generated tree is open, and its keys are distinct, so
    # _least_rooted keeps one of each tie; every open tree among 2,000 random ones is generated
    keys, count = set(), 0
    for G in open_trees(n):
        assert max_degree(G) == 4 and not support.settled_vertex(G), sorted(G.edges)
        keys.add(tree_canonical_key(G))
        count += 1
    assert len(keys) == count
    rng, sampled = random.Random(n), 0
    for _ in range(2000):
        G = Graph(n, support.prufer_tree(n, [rng.randrange(n) for _ in range(n - 2)]))
        if max_degree(G) >= 4 and not support.settled_vertex(G):
            assert tree_canonical_key(G) in keys, sorted(G.edges)
            sampled += 1
    assert sampled > 100, sampled


def test_open_profiles_are_the_profiles_no_arm_settles():
    # the arms miss a profile (a, b, c1, 1) exactly when b >= 2c and 2b > c^2, with c = c1 + 1
    for n in range(5, 61):
        closed_form = [(n - 1 - c - b, b, c - 1) for c in range(2, n)
                       for b in range(2 * c, (n - 1 - c) // 2 + 1) if 2 * b > c * c]
        assert open_profiles(n) == closed_form, n


def _block_type(n: int, k: int) -> tuple:
    m, r = divmod(n, k)
    return (k,) * m + (r,) * (r > 0)


def test_block_counts_agree_with_the_tree_tally_for_every_k():
    for n in range(1, 13):
        for G in enumerate_free_trees(n):
            tally = _tree_type_tally(G.adj, 1)
            present = [sum(PART_UNIT[p] for p in _block_type(n, k)) in tally for k in range(1, n + 1)]
            assert [_has_blocks(_tree_order(G.adj), k) for k in range(1, n + 1)] == present, sorted(G.edges)
            absent = [_block_type(n, k) for k in range(2, n) if not present[k - 1]]
            assert block_witness(G) == (absent[0] if absent else None), sorted(G.edges)
    assert block_witness(star_graph(5)) == (2, 2, 1) and block_witness(path_graph(6)) is None
    assert block_witness(spider((2, 2, 2))) == (3, 3, 1)  # it has (2, 2, 2, 1), but no two 3-blocks


def test_block_counts_agree_with_the_search_on_random_trees():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(3, 12)
        G = Graph(n, support.prufer_tree(n, [rng.randrange(n) for _ in range(n - 2)]))
        for k in range(1, n + 1):
            present = has_connected_partition(G, _block_type(n, k)) is not None
            assert _has_blocks(_tree_order(G.adj), k) == present, (sorted(G.edges), k)


def test_every_block_witness_on_the_open_trees_is_absent_from_the_tally():
    for n in range(11, 17):
        for G in open_trees(n):
            witness = block_witness(G)
            if witness:
                assert sum(PART_UNIT[p] for p in witness) not in _tree_type_tally(G.adj, 1), sorted(G.edges)


def test_max_degree_examples():
    assert max_degree(spider((1, 1, 1, 1))) == 4
    assert max_degree(path_graph(5)) == 2
    assert max_degree(spider((6, 4, 1, 1))) == 4


def test_witnesses_validate_on_random_spiders():
    rng = random.Random(31)
    for _ in range(10):
        legs = sorted((rng.randint(1, 4) for _ in range(rng.randint(3, 4))), reverse=True)
        g = spider(legs)
        if g.n > 11:
            continue
        for lam in partitions_of(g.n):
            witness = has_connected_partition(g, lam)
            if witness is not None:
                witness.validate(g, lam)  # raises on any inconsistency


def test_connected_partition_blocks_immutable():
    cp = ConnectedPartition([{0, 1}, {2}])
    with pytest.raises(AttributeError):
        cp.blocks = ()
