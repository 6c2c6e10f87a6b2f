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
from .partitions import format_parts


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


_P_IN_E_CACHE: Dict[int, ESymExpansion] = {}
_PROD_E_CACHE: Dict[tuple, ESymExpansion] = {}


def _merge(A: Dict[tuple, int], B: Dict[tuple, int]) -> Dict[tuple, int]:
    """Product of two partition-keyed tallies: keys merge as multisets."""
    out: Dict[tuple, int] = {}
    for ka, ca in A.items():
        for kb, cb in B.items():
            key = tuple(sorted(ka + kb, reverse=True))
            out[key] = out.get(key, 0) + ca * cb
    return out


def p_in_e(k: int) -> ESymExpansion:
    """Degree-k power sum written in the elementary basis.

    Recurrence: p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^(k-1) k e_k.
    Results are memoized per degree.
    """
    if not 1 <= k <= 25:
        raise ValueError(f"p_in_e guard: need 1 <= k <= 25, got {k}")
    if k in _P_IN_E_CACHE:
        return _P_IN_E_CACHE[k]
    if k == 1:
        out = ESymExpansion(1, {(1,): 1})
    else:
        acc: Dict[tuple, int] = {}
        sign = 1
        for i in range(1, k):
            for key, val in _merge(p_in_e(k - i).coeffs, {(i,): sign}).items():
                acc[key] = acc.get(key, 0) + val
            sign = -sign
        acc[(k,)] = acc.get((k,), 0) + sign * k
        out = ESymExpansion(k, acc)
    _P_IN_E_CACHE[k] = out
    return out


def multiply_e(A: ESymExpansion, B: ESymExpansion) -> ESymExpansion:
    """Product of two expansions; keys merge as multisets, degrees add."""
    return ESymExpansion(A.degree + B.degree, _merge(A.coeffs, B.coeffs))


def _prod_p_in_e(lam: tuple) -> ESymExpansion:
    """e-basis expansion of the power-sum product over the parts of lam."""
    if not lam:
        return ESymExpansion(0, {(): 1})
    if lam in _PROD_E_CACHE:
        return _PROD_E_CACHE[lam]
    out = multiply_e(p_in_e(lam[0]), _prod_p_in_e(lam[1:]))
    _PROD_E_CACHE[lam] = out
    return out


def _subset_type_tally(n: int, edges: List[tuple]) -> Counter:
    """Signed count of component-size types over all edge subsets."""
    m = len(edges)
    tally: Counter = Counter()
    for mask in range(1 << m):
        parent = list(range(n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        bits = mask
        count = 0
        while bits:
            low = bits & -bits
            bits &= bits - 1
            u, v = edges[low.bit_length() - 1]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
            count += 1
        sizes: Counter = Counter(find(v) for v in range(n))
        key = tuple(sorted(sizes.values(), reverse=True))
        tally[key] += 1 - 2 * (count & 1)
    return tally


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


def _type_tally(G: Graph) -> Dict[tuple, int]:
    """Signed count of component-size types over all edge subsets of G."""
    adj = G.adj
    full = (1 << G.n) - 1
    comps = _component_masks(adj, full)
    edge_count_ok = len(G.edges) == G.n - len(comps)
    tallies = []
    for comp in comps:
        if comp.bit_count() == 1:
            tallies.append({(1,): 1})
        elif edge_count_ok:
            tallies.append(_tree_type_tally(G.n, adj, comp))
        else:
            verts = _mask_vertices(comp)
            relabel = {v: i for i, v in enumerate(verts)}
            edges = [(relabel[u], relabel[v]) for u, v in sorted(G.edges) if (1 << u) & comp]
            tallies.append(_subset_type_tally(len(verts), edges))
    return reduce(_merge, tallies)


def csf_e(G: Graph) -> ESymExpansion:
    """Elementary-basis expansion of the chromatic symmetric function of G.

    Computed through the signed edge-subset expansion over power sums; a
    forest fast path avoids the 2^|E| enumeration on trees.  For graphs with
    cycles the cost is 2^|E| per component.
    """
    if G.n > 20:
        raise ValueError(f"csf_e guard: n={G.n} > 20")
    acc: Dict[tuple, int] = {}
    for lam, cnt in _type_tally(G).items():
        if cnt == 0:
            continue
        for key, val in _prod_p_in_e(lam).coeffs.items():
            acc[key] = acc.get(key, 0) + cnt * val
    return ESymExpansion(G.n, acc)


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
