"""Chromatic symmetric functions expanded in the elementary basis.

Everything is exact: coefficients are Python ints (arbitrary precision), keys
are partitions stored as weakly decreasing tuples (packed ints inside the
tallies, as partitions.packed_partitions packs them).  The public entry
points are csf_e / is_e_positive.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from typing import Dict, List, Optional, Tuple

from . import GuardError
from .graphs import FrozenRecord, Graph, _component_masks, _mask_vertices, _tree_type_tally
from .partitions import format_parts, packed_partitions


class ESymExpansion(FrozenRecord):
    """Association from partitions of `degree` to exact integer coefficients.

    Zero coefficients are never stored.
    """

    __slots__ = _fields = ("degree", "coeffs")
    _hidden = ("coeffs",)

    def __init__(self, degree: int, coeffs: Dict[tuple, int]):
        clean = {}
        for key, val in coeffs.items():
            key = tuple(key)
            if sum(key) != degree:
                raise ValueError(f"key {key} is not a partition of {degree}")
            if any(key[i] < key[i + 1] for i in range(len(key) - 1)):
                raise ValueError(f"key {key} is not weakly decreasing")
            if val != 0:
                clean[key] = int(val)
        self._set(degree, clean)

    def stream_items(self) -> List[Tuple[tuple, int]]:
        """(partition, coefficient) pairs in partition stream order."""
        return sorted(self.coeffs.items(), key=lambda kv: kv[0], reverse=True)

    def to_text(self) -> str:
        return "\n".join(f"{c} * e_{format_parts(lam)}" for lam, c in self.stream_items())

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "terms": [
                {"lambda": list(lam), "coeff": str(c)} for lam, c in self.stream_items()
            ],
        }


class EposVerdict(FrozenRecord):
    """Positivity verdict plus every strictly negative (partition, coefficient) term."""

    __slots__ = _fields = ("negatives",)

    def __init__(self, negatives: Tuple[Tuple[tuple, int], ...]):
        self._set(negatives)

    @property
    def positive(self) -> bool:
        return not self.negatives


CSF_MAX_N = 20  # csf_e's guard on the number of vertices
STATE_BUDGET = 150_000  # live frontier-DP states; K10 peaks at Bell(10) = 115,975


class StateBudgetError(GuardError):
    """The frontier DP needed more than STATE_BUDGET live states."""


def _merge(A: Dict[int, int], B: Dict[int, int], out: Optional[Dict[int, int]] = None) -> Dict[int, int]:
    """Product of two tallies keyed by packed multisets, added into out if given."""
    out = {} if out is None else out
    get = out.get
    for kb, cb in B.items():
        for ka, ca in A.items():
            key = ka + kb
            out[key] = get(key, 0) + ca * cb
    return out


@cache
def _waring(k: int) -> Dict[int, int]:
    """p_k in the e-basis by Waring's formula, keyed by packed partitions.  The
    coefficient of e_mu is (-1)^(k - l(mu)) k (l(mu) - 1)! / prod m_i!, m_i =
    #parts equal to i.
    """
    if not 1 <= k <= 25:
        raise ValueError(f"_waring guard: need 1 <= k <= 25, got {k}")
    # (k left to fill, packed key, length, prod m_i!) after choosing m_k, ..., m_part
    states = [(k, 0, 0, 1)]
    for part in range(k, 1, -1):
        states = [(rest - m * part, key + (m << 5 * (part - 1)), length + m, den * math.factorial(m))
                  for rest, key, length, den in states for m in range(rest // part + 1)]
    coeffs = {}
    for m, key, length, den in states:  # the rest is m_1 ones
        coeff = k * math.factorial(length + m - 1) // (den * math.factorial(m))
        coeffs[key + m] = -coeff if (k - length - m) & 1 else coeff
    return coeffs


def _frontier_order(adj, comp: int) -> List[int]:
    """Vertices of comp, each next one leaving the fewest frontier vertices (placed
    ones with an unplaced neighbour), then fewest unplaced neighbours, then lowest."""
    order: List[int] = []
    left = comp
    while left:
        v = min(_mask_vertices(left), key=lambda u: (
            sum(1 for w in order + [u] if adj[w] & left & ~(1 << u)), (adj[u] & left).bit_count(), u))
        order.append(v)
        left &= ~(1 << v)
    return order


def _frontier_type_tally(adj, comp: int) -> Dict[int, int]:
    """Signed type tally of one component by a frontier (transfer-matrix) DP.

    A state (canonical component label of each frontier vertex as bytes, open
    component sizes, packed closed component sizes) maps to a signed count.
    An edge stays out (state kept) or joins two components (sizes merge, sign
    flips); inside one component the two cancel and the state is dropped.
    A vertex whose edges are done leaves the frontier; a component left with no
    frontier vertex closes.  Raises StateBudgetError past STATE_BUDGET states.
    """
    ident = bytes(range(comp.bit_count()))
    # join[a][b] relabels the frontier after label b merges into label a < b
    join = [[bytes.maketrans(ident, bytes(a if x == b else x - (x > b) for x in ident))
             for b in ident] for a in ident]
    frontier: List[int] = []
    states: Dict[tuple, int] = {(b"", (), 0): 1}
    left = comp
    for v in _frontier_order(adj, comp):
        left &= ~(1 << v)
        j = len(frontier)
        states = {(lab + bytes((len(sz),)), sz + (1,), done): c for (lab, sz, done), c in states.items()}
        for i, u in enumerate(frontier):
            if not adj[v] >> u & 1:
                continue
            new: Dict[tuple, int] = {}
            for state, c in states.items():
                lab, sz, done = state
                a, b = lab[i], lab[j]
                if a > b:
                    a, b = b, a
                if a != b:
                    new[state] = new.get(state, 0) + c
                    merged = sz[:a] + (sz[a] + sz[b],) + sz[a + 1 : b] + sz[b + 1 :]
                    key = (lab.translate(join[a][b]), merged, done)
                    new[key] = new.get(key, 0) - c
            if len(new) > STATE_BUDGET:
                raise StateBudgetError(f"frontier DP passed {STATE_BUDGET} live states")
            states = new
        frontier.append(v)
        gone = [i for i, w in enumerate(frontier) if not adj[w] & left]
        frontier = [w for w in frontier if adj[w] & left]
        if gone:
            new = {}
            for (lab, sz, done), c in states.items():
                for i in reversed(gone):
                    lab = lab[:i] + lab[i + 1 :]
                order = bytes(dict.fromkeys(lab))  # open labels, by first occurrence
                if len(order) < len(sz):
                    done += sum(1 << 5 * (s - 1) for x, s in enumerate(sz) if x not in order)
                if order != ident[: len(order)]:
                    lab, sz = lab.translate(bytes.maketrans(order, ident[: len(order)])), tuple(sz[x] for x in order)
                key = (lab, sz[: len(order)], done)
                new[key] = new.get(key, 0) + c
            states = new
    return {done: c for (_, _, done), c in states.items() if c}


def _type_tally(G: Graph) -> Dict[int, int]:
    """Signed count of packed component-size types over all edge subsets of G:
    by the tree DP on tree components, by the frontier DP on the others."""
    adj = G.adj
    tallies = []
    for comp in _component_masks(adj, (1 << G.n) - 1):
        tree = sum(adj[v].bit_count() for v in _mask_vertices(comp)) == 2 * comp.bit_count() - 2
        tallies.append(_tree_type_tally(adj, comp) if tree else _frontier_type_tally(adj, comp))
    return reduce(_merge, tallies)


def csf_e(G: Graph) -> ESymExpansion:
    """Elementary-basis expansion of the chromatic symmetric function of G.

    Stanley's signed edge-subset sum over power sums, tallied by component-size
    type with no subset visited (_type_tally; the frontier DP costs its live
    states and raises StateBudgetError past STATE_BUDGET), then converted to
    the e-basis through Waring's formula by one walk over the tally's types,
    each read smallest part first and the types in lexicographic order.  A
    stack holds the products of the current type's leading parts, so types
    sharing leading parts share their products.  Each type adds its count times
    that product into one sum per largest part k, and each sum meets _waring(k)
    once at the end: at most n such products, however many types.  Memory stays
    within the stack, those sums and the result: nothing is kept between calls.
    """
    if G.n > CSF_MAX_N:
        raise ValueError(f"csf_e guard: n={G.n} > {CSF_MAX_N}")
    names = {key: lam for lam, key in packed_partitions(G.n)}
    # stack[d] is the packed e-expansion of p_{path[0]} ... p_{path[d-1]}.  Smallest
    # part first makes each node _waring(its largest part) times its parent, so
    # big partials never meet the many small _waring(k).  Every type sums to G.n,
    # so none extends another: each is a leaf, added into by_last[its last part].
    path: List[int] = []
    stack: List[Dict[int, int]] = [{0: 1}]
    by_last: Dict[int, Dict[int, int]] = {}
    for parts, cnt in sorted((names[lam][::-1], cnt) for lam, cnt in _type_tally(G).items() if cnt):
        *head, last = parts
        d = 0
        while d < len(path) and d < len(head) and path[d] == head[d]:
            d += 1
        del path[d:], stack[d + 1 :]
        for part in head[d:]:
            stack.append(_merge(_waring(part), stack[-1]))
            path.append(part)
        q = by_last.setdefault(last, {})
        for kp, cp in stack[-1].items():
            q[kp] = q.get(kp, 0) + cnt * cp
    acc: Dict[int, int] = {}
    for last, q in by_last.items():
        _merge(_waring(last), q, acc)
    return ESymExpansion(G.n, {lam: acc[key] for lam, key in packed_partitions(G.n) if key in acc})


def is_e_positive(G: Graph) -> EposVerdict:
    """Verdict plus all strictly negative coefficients, in stream order."""
    X = csf_e(G)
    return EposVerdict(tuple((lam, c) for lam, c in X.stream_items() if c < 0))
