"""Chromatic symmetric functions expanded in the elementary basis.

Everything is exact: coefficients are Python ints (arbitrary precision), keys
are partitions stored as weakly decreasing tuples (packed ints inside the
tallies, as partitions.packed_partitions packs them).  The public entry
points are csf_e / is_e_positive, and specialize_e evaluates an expansion at
k ones.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, reduce
from typing import Dict, List, Tuple

from .graphs import Graph, _component_masks, _mask_vertices, _tree_type_tally
from .partitions import format_parts, packed_partitions


@dataclass(frozen=True, slots=True)
class ESymExpansion:
    """Association from partitions of `degree` to exact integer coefficients.

    Zero coefficients are never stored.
    """

    degree: int
    coeffs: Dict[tuple, int] = field(repr=False)

    def __post_init__(self):
        clean = {}
        for key, val in self.coeffs.items():
            key = tuple(key)
            if sum(key) != self.degree:
                raise ValueError(f"key {key} is not a partition of {self.degree}")
            if any(key[i] < key[i + 1] for i in range(len(key) - 1)):
                raise ValueError(f"key {key} is not weakly decreasing")
            if val != 0:
                clean[key] = int(val)
        object.__setattr__(self, "coeffs", clean)

    def __getitem__(self, key) -> int:
        return self.coeffs.get(tuple(key), 0)

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


@dataclass(frozen=True, slots=True)
class EposVerdict:
    """Positivity verdict plus every strictly negative (partition, coefficient) term."""

    negatives: Tuple[Tuple[tuple, int], ...]

    @property
    def positive(self) -> bool:
        return not self.negatives


CSF_ROUTE = "tally=tree-dp+frontier-dp;p2e=waring"  # tags cached verdicts by route
CSF_MAX_N = 20  # csf_e's guard on the number of vertices
STATE_BUDGET = 150_000  # live frontier-DP states; K10 peaks at Bell(10) = 115,975


class StateBudgetError(RuntimeError):
    """The frontier DP needed more than STATE_BUDGET live states."""


def _merge(A: Dict[int, int], B: Dict[int, int]) -> Dict[int, int]:
    """Product of two tallies keyed by packed multisets."""
    out: Dict[int, int] = {}
    for ka, ca in A.items():
        for kb, cb in B.items():
            out[ka + kb] = out.get(ka + kb, 0) + ca * cb
    return out


@cache
def _waring(k: int) -> Dict[int, int]:
    """p_k in the e-basis by Waring's formula, keyed by packed partitions.  The
    coefficient of e_mu is (-1)^(k - l(mu)) k (l(mu) - 1)! / prod m_i!, m_i =
    #parts equal to i.
    """
    if not 1 <= k <= 25:
        raise ValueError(f"p_in_e guard: need 1 <= k <= 25, got {k}")
    coeffs = {}
    for mu, key in packed_partitions(k):
        coeff = k * math.factorial(len(mu) - 1)
        coeff //= math.prod(math.factorial(m) for m in Counter(mu).values())
        coeffs[key] = -coeff if (k - len(mu)) & 1 else coeff
    return coeffs


def p_in_e(k: int) -> ESymExpansion:
    """Degree-k power sum written in the elementary basis (Waring's formula)."""
    coeffs = _waring(k)
    return ESymExpansion(k, {mu: coeffs[key] for mu, key in packed_partitions(k)})


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
    sharing leading parts share their products, and memory stays within the
    stack and the result: nothing is kept between calls.
    """
    if G.n > CSF_MAX_N:
        raise ValueError(f"csf_e guard: n={G.n} > {CSF_MAX_N}")
    names = {key: lam for lam, key in packed_partitions(G.n)}
    acc: Dict[int, int] = {}
    # stack[d] is the packed e-expansion of p_{path[0]} ... p_{path[d-1]}.  Smallest
    # part first makes each node _waring(its largest part) times its parent, so
    # big partials never meet the many small _waring(k).  Every type sums to G.n,
    # so none extends another: each is a leaf, merged straight into acc.
    path: List[int] = []
    stack: List[Dict[int, int]] = [{0: 1}]
    for parts, cnt in sorted((names[lam][::-1], cnt) for lam, cnt in _type_tally(G).items() if cnt):
        *head, last = parts
        d = 0
        while d < len(path) and d < len(head) and path[d] == head[d]:
            d += 1
        del path[d:], stack[d + 1 :]
        for part in head[d:]:
            stack.append(_merge(_waring(part), stack[-1]))
            path.append(part)
        for kw, cw in _waring(last).items():
            cw *= cnt
            for kp, cp in stack[-1].items():
                key = kw + kp
                acc[key] = acc.get(key, 0) + cw * cp
    return ESymExpansion(G.n, {lam: acc[key] for lam, key in packed_partitions(G.n) if key in acc})


def is_e_positive(G: Graph) -> EposVerdict:
    """Verdict plus all strictly negative coefficients, in stream order."""
    X = csf_e(G)
    return EposVerdict(tuple((lam, c) for lam, c in X.stream_items() if c < 0))


def specialize_e(X: ESymExpansion, k: int) -> int:
    """X evaluated at x_1 = ... = x_k = 1, all other variables 0."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    total = 0
    for lam, c in X.coeffs.items():
        term = c
        for part in lam:
            term *= math.comb(k, part)
            if term == 0:
                break
        total += term
    return total
