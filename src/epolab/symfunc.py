"""Chromatic symmetric functions expanded in the elementary basis.

Everything is exact: coefficients are Python ints (arbitrary precision), keys
are partitions stored as weakly decreasing tuples.  The public entry points
are csf_e / is_e_positive plus a chromatic-polynomial oracle used for
consistency checking.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, List, Tuple

from .graphs import Graph, _component_masks, _mask_vertices
from .partitions import _partition_tuples, format_parts


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

    def __hash__(self):
        return hash((self.degree, frozenset(self.coeffs.items())))

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
STATE_BUDGET = 150_000  # live frontier-DP states; K10 peaks at Bell(10) = 115,975
# Inside the conversion an e-monomial is an int: part p adds 1 << 5*(p-1), so a
# product is one addition.  Multiplicities stay below 32 up to degree 25.
_P_IN_E_CACHE: Dict[int, Tuple[Dict[int, int], Dict[int, tuple]]] = {}
_PROD_E_CACHE: Dict[tuple, Dict[int, int]] = {}


class StateBudgetError(RuntimeError):
    """The frontier DP needed more than STATE_BUDGET live states."""


def _merge(A: Dict[tuple, int], B: Dict[tuple, int]) -> Dict[tuple, int]:
    """Product of two partition-keyed tallies: keys merge as multisets."""
    out: Dict[tuple, int] = {}
    for ka, ca in A.items():
        for kb, cb in B.items():
            key = tuple(sorted(ka + kb, reverse=True))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _waring(k: int) -> Tuple[Dict[int, int], Dict[int, tuple]]:
    """p_k in the e-basis by Waring's formula, keyed by packed partitions, and
    each partition of k (weakly decreasing) under its key.  The coefficient of
    e_mu is (-1)^(k - l(mu)) k (l(mu) - 1)! / prod m_i!, m_i = #parts equal to i.
    """
    if not 1 <= k <= 25:
        raise ValueError(f"p_in_e guard: need 1 <= k <= 25, got {k}")
    if k not in _P_IN_E_CACHE:
        coeffs, names = {}, {}
        for mu in _partition_tuples(k, k):
            key = sum(1 << 5 * (part - 1) for part in mu)
            coeff = k * math.factorial(len(mu) - 1)
            coeff //= math.prod(math.factorial(m) for m in Counter(mu).values())
            coeffs[key] = -coeff if (k - len(mu)) & 1 else coeff
            names[key] = mu
        _P_IN_E_CACHE[k] = coeffs, names
    return _P_IN_E_CACHE[k]


def p_in_e(k: int) -> ESymExpansion:
    """Degree-k power sum written in the elementary basis (Waring's formula)."""
    coeffs, names = _waring(k)
    return ESymExpansion(k, {names[key]: c for key, c in coeffs.items()})


def multiply_e(A: ESymExpansion, B: ESymExpansion) -> ESymExpansion:
    """Product of two expansions; keys merge as multisets, degrees add."""
    return ESymExpansion(A.degree + B.degree, _merge(A.coeffs, B.coeffs))


def _prod_p_in_e(lam: tuple) -> Dict[int, int]:
    """Packed e-basis expansion of the power-sum product over the parts of lam."""
    if not lam:
        return {0: 1}
    out = _PROD_E_CACHE.get(lam)
    if out is None:
        out = {}
        rest = _prod_p_in_e(lam[1:])
        for ka, ca in _waring(lam[0])[0].items():
            for kb, cb in rest.items():
                out[ka + kb] = out.get(ka + kb, 0) + ca * cb
        _PROD_E_CACHE[lam] = out
    return out


def _tree_type_tally(n: int, adj, root_mask: int) -> Counter:
    """Forest fast path: signed type tally of one tree component via a DP.

    State maps (finished component sizes, size of the open component holding
    the current vertex) to a signed count; cutting a child edge finishes its
    open component, keeping it merges and flips the sign.
    """
    root = (root_mask & -root_mask).bit_length() - 1

    def dfs(v: int, parent_v: int) -> Dict[tuple, int]:
        state = {((), 1): 1}
        nbrs = adj[v]
        while nbrs:
            low = nbrs & -nbrs
            nbrs &= nbrs - 1
            u = low.bit_length() - 1
            if u == parent_v:
                continue
            sub = dfs(u, v)
            new: Dict[tuple, int] = {}
            for (d1, o1), c1 in state.items():
                for (d2, o2), c2 in sub.items():
                    cut = (tuple(sorted(d1 + d2 + (o2,), reverse=True)), o1)
                    new[cut] = new.get(cut, 0) + c1 * c2
                    join = (tuple(sorted(d1 + d2, reverse=True)), o1 + o2)
                    new[join] = new.get(join, 0) - c1 * c2
            state = new
        return state

    tally: Counter = Counter()
    for (done, open_size), c in dfs(root, -1).items():
        tally[tuple(sorted(done + (open_size,), reverse=True))] += c
    return tally


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


def _frontier_type_tally(adj, comp: int) -> Dict[tuple, int]:
    """Signed type tally of one component by a frontier (transfer-matrix) DP.

    A state (canonical component label of each frontier vertex as bytes, open
    component sizes, closed component sizes weakly decreasing) maps to a signed
    count.  An edge stays out (state kept) or joins two components (sizes merge,
    sign flips); inside one component the two cancel and the state is dropped.
    A vertex whose edges are done leaves the frontier; a component left with no
    frontier vertex closes.  Raises StateBudgetError past STATE_BUDGET states.
    """
    ident = bytes(range(comp.bit_count()))
    # join[a][b] relabels the frontier after label b merges into label a < b
    join = [[bytes.maketrans(ident, bytes(a if x == b else x - (x > b) for x in ident))
             for b in ident] for a in ident]
    frontier: List[int] = []
    states: Dict[tuple, int] = {(b"", (), ()): 1}
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
                    closed = tuple(s for x, s in enumerate(sz) if x not in order)
                    done = tuple(sorted(done + closed, reverse=True))
                if order != ident[: len(order)]:
                    lab, sz = lab.translate(bytes.maketrans(order, ident[: len(order)])), tuple(sz[x] for x in order)
                key = (lab, sz[: len(order)], done)
                new[key] = new.get(key, 0) + c
            states = new
    return {done: c for (_, _, done), c in states.items() if c}


def _type_tally(G: Graph) -> Dict[tuple, int]:
    """Signed count of component-size types over all edge subsets of G: by the
    tree DP on tree components, by the frontier DP on the others."""
    adj = G.adj
    tallies = []
    for comp in _component_masks(adj, (1 << G.n) - 1):
        tree = sum(adj[v].bit_count() for v in _mask_vertices(comp)) == 2 * comp.bit_count() - 2
        tallies.append(_tree_type_tally(G.n, adj, comp) if tree else _frontier_type_tally(adj, comp))
    return reduce(_merge, tallies)


def csf_e(G: Graph) -> ESymExpansion:
    """Elementary-basis expansion of the chromatic symmetric function of G.

    Stanley's signed edge-subset sum over power sums, tallied by component-size
    type with no subset visited (_type_tally; the frontier DP costs its live
    states and raises StateBudgetError past STATE_BUDGET), then converted to
    the e-basis through Waring's formula.
    """
    if G.n > 20:
        raise ValueError(f"csf_e guard: n={G.n} > 20")
    acc: Dict[int, int] = {}
    for lam, cnt in _type_tally(G).items():
        if cnt == 0:
            continue
        for key, val in _prod_p_in_e(lam).items():
            acc[key] = acc.get(key, 0) + cnt * val
    names = _waring(G.n)[1]
    return ESymExpansion(G.n, {names[key]: c for key, c in acc.items()})


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


_CHROMPOLY_CACHE: Dict[tuple, tuple] = {}


def _poly_mul(p: tuple, q: tuple) -> tuple:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def _chrompoly(n: int, edges: frozenset) -> tuple:
    """Coefficient tuple (ascending powers) of the chromatic polynomial."""
    key = (n, edges)
    cached = _CHROMPOLY_CACHE.get(key)
    if cached is not None:
        return cached

    comps = _component_masks(Graph(n, edges).adj, (1 << n) - 1)
    if len(comps) > 1:
        result = (1,)
        for comp in comps:
            verts = _mask_vertices(comp)
            relabel = {v: i for i, v in enumerate(verts)}
            sub = frozenset(
                (min(relabel[u], relabel[v]), max(relabel[u], relabel[v]))
                for u, v in edges
                if (1 << u) & comp
            )
            result = _poly_mul(result, _chrompoly(len(verts), sub))
    elif not edges:
        result = tuple([0] * n + [1])  # k^n
    else:
        u, v = min(edges)  # u < v
        deleted = frozenset(e for e in edges if e != (u, v))
        # contract v into u; labels above v shift down by one
        relabel = [u if w == v else (w if w < v else w - 1) for w in range(n)]
        contracted = set()
        for a, b in deleted:
            ra, rb = relabel[a], relabel[b]
            if ra != rb:
                contracted.add((min(ra, rb), max(ra, rb)))
        pd = _chrompoly(n, deleted)
        pc = _chrompoly(n - 1, frozenset(contracted))
        result = tuple(a - b for a, b in zip(pd, tuple(pc) + (0,)))
    _CHROMPOLY_CACHE[key] = result
    return result


def chromatic_polynomial(G: Graph, k: int) -> int:
    """Number of proper colorings of G with colors {1..k}."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    coeffs = _chrompoly(G.n, G.edges)
    total = 0
    for c in reversed(coeffs):
        total = total * k + c
    return total
