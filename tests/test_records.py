"""The value classes of graphs, symfunc and obstructions: equality and hash by their
fields, fields that cannot be reassigned, `Name(field=value, ...)` reprs, pickling,
and the constructor checks' error text."""

import pickle

import pytest

from epolab.graphs import ConnectedPartition, CutProfile, Graph
from epolab.obstructions import (
    MissingTypeCertificate,
    QSelectionTrace,
    SixmConstruction,
    SixmReport,
    Spider4Verdict,
    SweepReport,
    analysis_q,
    sixm_rearrangement,
    spider4_classify,
    theorem_decide,
)
from epolab.symfunc import ESymExpansion, EposVerdict

ZHENG = "n = 84 >= c^2+c+1 = 13; not e-positive by Zheng, Cor. 4.6"

# (a record, an equal one built another way, one that differs in a field, the record's repr)
FROZEN = [
    (Graph(3, [(1, 0), (2, 1)]), Graph(3, {(0, 1), (1, 2)}), Graph(3, [(0, 1), (0, 2)]),
     "Graph(n=3, edges=frozenset({(0, 1), (1, 2)}))"),
    (CutProfile(6, 2, [1, 1]), CutProfile(a=6, b=2, cs=(1, 1)), CutProfile(6, 3, (1, 1)),
     "CutProfile(a=6, b=2, cs=(1, 1))"),
    (ConnectedPartition([[0, 1], {2}]), ConnectedPartition(([1, 0], [2])), ConnectedPartition([[0], [1, 2]]),
     "ConnectedPartition(blocks=(frozenset({0, 1}), frozenset({2})))"),
    (EposVerdict((((2, 1), -1),)), EposVerdict(negatives=(((2, 1), -1),)), EposVerdict(()),
     "EposVerdict(negatives=(((2, 1), -1),))"),
    (theorem_decide(CutProfile(6, 2, (1, 1))),
     MissingTypeCertificate(CutProfile(6, 2, (1, 1)), ((4, 2), (3, 1)), "explicit-interval", q=None),
     MissingTypeCertificate(CutProfile(5, 3, (2, 1)), ((6, 2),), "explicit-interval"),
     "MissingTypeCertificate(profile=CutProfile(a=6, b=2, cs=(1, 1)), runs=((4, 2), (3, 1)), "
     "kind='explicit-interval', q=None)"),
    (analysis_q(1200, 600), QSelectionTrace(1200, 600, 1, 2, 601, 900), QSelectionTrace(1200, 600, 1, 3, 601, 900),
     "QSelectionTrace(b=1200, c=600, case=1, q=2, x=601, y=900, internals=None)"),
    (spider4_classify((30, 50, 1, 2)),
     Spider4Verdict((50, 30, 2, 1), CutProfile(50, 30, (2, 1)), "external:zheng-cor-4.6", None, ZHENG),
     spider4_classify((5, 3, 2, 1)),
     "Spider4Verdict(legs=(50, 30, 2, 1), profile=CutProfile(a=50, b=30, cs=(2, 1)), "
     f"method='external:zheng-cor-4.6', certificate=None, note='{ZHENG}')"),
    (sixm_rearrangement((4, 6, 3), 1), SixmConstruction(m=1, lam=(6, 4, 3), case="reversal", alpha=(3, 4, 6)),
     sixm_rearrangement((5, 4, 2, 1, 1), 1), "SixmConstruction(m=1, lam=(6, 4, 3), case='reversal', alpha=(3, 4, 6))"),
]


@pytest.mark.parametrize("rec, same, other, text", FROZEN, ids=[type(row[0]).__name__ for row in FROZEN])
def test_frozen_records_compare_hash_show_and_pickle_by_their_fields(rec, same, other, text):
    assert rec == same and hash(rec) == hash(same) and len({rec, same, other}) == 2
    assert rec != other and rec != text and repr(rec) == text
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec) and back == rec and hash(back) == hash(rec)
    for name in (*rec.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert rec == same and repr(rec) == text


def test_graph_compares_and_pickles_without_its_adjacency():
    G = Graph(4, [(2, 3), (0, 1), (1, 2)])
    back = pickle.loads(pickle.dumps(G))
    assert back.adj == G.adj == (0b10, 0b101, 0b1010, 0b100)
    assert "adj" not in repr(G) and G == Graph(4, [(3, 2), (1, 0), (2, 1)])


def test_esym_expansion_hides_its_coefficients_and_is_unhashable():
    X = ESymExpansion(3, {(2, 1): 1, (3,): -3, (1, 1, 1): 0})
    assert X == ESymExpansion(3, {(3,): -3, (2, 1): 1}) != ESymExpansion(3, {(3,): 3, (2, 1): 1})
    assert repr(X) == "ESymExpansion(degree=3)" and X.coeffs == {(2, 1): 1, (3,): -3}
    assert pickle.loads(pickle.dumps(X)) == X
    with pytest.raises(TypeError, match="unhashable"):
        hash(X)
    with pytest.raises(AttributeError):
        X.coeffs = {}


def test_reports_compare_show_and_pickle_by_their_fields_and_stay_assignable():
    sweep = SweepReport("c40", {"c_lo": 2, "c_hi": 3}, 3, [], 0)
    sixm = SixmReport(1, 101, {"identity": 24}, [], 101)
    assert repr(sweep) == "SweepReport(kind='c40', params={'c_lo': 2, 'c_hi': 3}, cells=3, failures=[], wall_time_ms=0)"
    assert repr(sixm) == "SixmReport(m=1, total=101, case_tallies={'identity': 24}, failures=[], materialized=101)"
    for report in (sweep, sixm):
        assert pickle.loads(pickle.dumps(report)) == report
        with pytest.raises(TypeError, match="unhashable"):
            hash(report)
    assert sweep == SweepReport("c40", {"c_lo": 2, "c_hi": 3}, 3, [], 0) != sixm
    sweep.cells = 4
    assert sweep != SweepReport("c40", {"c_lo": 2, "c_hi": 3}, 3, [], 0)


@pytest.mark.parametrize("build, message", [
    (lambda: Graph(0, []), "need at least one vertex, got n=0"),
    (lambda: Graph(2, [(1, 1)]), "loop at vertex 1"),
    (lambda: Graph(2, [(0, 5)]), "edge (0,5) out of range for n=2"),
    (lambda: CutProfile(3, 2, ()), "need at least one small component (k >= 1)"),
    (lambda: CutProfile(1, 2, (1,)), "sizes must satisfy a >= b >= c1 >= ... >= ck >= 1, got (1, 2, 1)"),
    (lambda: ESymExpansion(3, {(1, 1): 1}), "key (1, 1) is not a partition of 3"),
    (lambda: ESymExpansion(3, {(1, 2): 1}), "key (1, 2) is not weakly decreasing"),
    (lambda: MissingTypeCertificate(CutProfile(6, 2, (1, 1)), ((4, 2), (3, 1)), "nope"),
     "unknown certificate kind 'nope'"),
    (lambda: MissingTypeCertificate(CutProfile(6, 2, (1, 1)), ((4, 2), (3, 1)), "q-interval"),
     "q-interval needs q and no other kind takes one, got q-interval with q=None"),
    (lambda: MissingTypeCertificate(CutProfile(6, 2, (1, 1)), ((11, 1),), "explicit-interval"),
     "explicit-interval certificate has a part outside its window (3, 4)"),
    (lambda: MissingTypeCertificate(CutProfile(6, 2, (1, 1)), ((2, 5), (1, 1)), "special-b-2c-1"),
     "type ((2, 5), (1, 1)) fails the prefix-sum criterion for CutProfile(a=6, b=2, cs=(1, 1))"),
    *((lambda runs=runs: MissingTypeCertificate(CutProfile(6, 2, (1, 1)), runs, "explicit-interval"),
       f"runs need (value, count) int pairs, values falling, counts >= 1: {runs!r}")
      for runs in ((), [(4, 2), (3, 1)], ((4, 2), [3, 1]), ((4, 2, 0), (3, 1)), ((3, 1), (4, 2)), ((4, 2), (4, 1)),
                   ((4, 3), (3, 0)), ((11, True),), ((5.5, 2),), ((11, 1), (0, 5)), (4, 4, 3))),
], ids=range(22))
def test_constructor_checks_keep_their_error_text(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
