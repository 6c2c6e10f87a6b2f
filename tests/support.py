"""Independent oracles and exhaustive enumerators used only by the tests.

Everything here is deliberately separate from the library routes it checks:
brute-force coloring tallies, 0-1 matrix counts for monomial coefficients,
labeled-tree enumeration via sequence decoding, subset-sum existence, full
rearrangement scans, a cell-by-cell scan of the c <= 40 sweep, an
isomorphism-class enumerator for small connected graphs built on an
individualization-refinement canonical form, a deletion-contraction
chromatic polynomial with the evaluation of an e-expansion at k ones that
it is compared with, the missing types by one search per type, the cut
profiles by one component count per deleted vertex, and the free trees by
deduplicating every rooted tree on its canonical key; trees-scan's rows by
enumerating every free tree, with the open trees among them.  The partitions come
by recursion on the first part, and the c500 window test in exact rationals.
Compositions and their rearrangements live here too: only the tests need
ordered parts.  So do the disjoint union of two graphs, which only the
multiplicativity check of csf_e uses, and the product of two e-expansions,
which that check and the power-sum to e-basis conversion by type share.
The prefix-sum check on a plain type, part by part, checks the library's
check on runs.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import epolab
from epolab import cli
from epolab.graphs import (
    CutProfile,
    Graph,
    _component_masks,
    _mask_vertices,
    cut_profiles,
    enumerate_free_trees,
    has_connected_partition,
    is_connected,
    max_degree,
    missing_types,
    tree_canonical_key,
)
from epolab.obstructions import theorem_decide
from epolab.partitions import PART_BITS, format_parts, partitions_of
from epolab.symfunc import ESymExpansion, is_e_positive

# the environment of every interpreter the tests start: this checkout's epolab, no PATH,
# and no bytecode written into the source tree
CHILD_ENV = {"PYTHONPATH": str(Path(epolab.__file__).resolve().parents[1]), "PATH": "",
             "PYTHONDONTWRITEBYTECODE": "1"}


# ---------------------------------------------------------------------------
# Compositions


@dataclass(frozen=True)
class Composition:
    """Ordered sequence of positive integers."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if not parts:
            raise ValueError("composition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __str__(self):
        return format_parts(self.parts)


def reverse(alpha: Composition) -> Composition:
    """Composition with the parts in reverse order."""
    return Composition(tuple(alpha)[::-1])


def rearrangements(lam) -> Iterator[Composition]:
    """All distinct orderings of the parts, in lexicographic order.

    Streams via multiset next-permutation, O(len) memory; the number of
    results is the multinomial of the part multiplicities.
    """
    cur = sorted(lam)
    n = len(cur)
    yield Composition(cur)
    while True:
        # next permutation of a multiset
        i = n - 2
        while i >= 0 and cur[i] >= cur[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while cur[j] <= cur[i]:
            j -= 1
        cur[i], cur[j] = cur[j], cur[i]
        cur[i + 1 :] = reversed(cur[i + 1 :])
        yield Composition(cur)


def count_rearrangements(lam) -> int:
    """Number of distinct orderings: multinomial of multiplicities."""
    parts = tuple(lam)
    out = math.factorial(len(parts))
    for mult in Counter(parts).values():
        out //= math.factorial(mult)
    return out


def frobenius_interval_bound(x: int, y: int) -> int:
    """Threshold above which every n has a partition with parts in [x, y].

    Equals ceil((x-1)/(y-x)) * x; past that point consecutive t-part
    ranges [t*x, t*y] overlap.  Sufficient but not necessary; undefined
    when x == y.
    """
    if x == y:
        raise ValueError("bound undefined for a single-value interval; use divisibility")
    return (-(-(x - 1) // (y - x))) * x


# ---------------------------------------------------------------------------
# Canonical forms for arbitrary small graphs


def _refine(n: int, adj: List[int], colors: List[int]) -> List[int]:
    while True:
        classes: Dict[int, int] = {}
        for v, c in enumerate(colors):
            classes[c] = classes.get(c, 0) | (1 << v)
        keys = sorted(classes)
        sigs = [
            (colors[v], tuple((adj[v] & classes[c]).bit_count() for c in keys))
            for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _twin_cell(adj: List[int], members: List[int]) -> bool:
    """True if all members are pairwise twins (swapping any two fixes the graph)."""
    for u, v in itertools.combinations(members, 2):
        if adj[u] & ~(1 << v) != adj[v] & ~(1 << u):
            return False
    return True


def canonical_edges(n: int, edges) -> Tuple[tuple, ...]:
    """Canonical edge tuple: equal for two graphs iff they are isomorphic.

    Color refinement plus individualization on the first non-twin cell,
    taking the minimum relabelled edge set over all branches.
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best: List[Tuple[tuple, ...]] = []

    def emit(colors: List[int]) -> None:
        order = sorted(range(n), key=lambda v: (colors[v], v))
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        key = tuple(sorted((min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in edges))
        if not best or key < best[0]:
            best[:] = [key]

    def search(colors: List[int]) -> None:
        colors = _refine(n, adj, colors)
        target = None
        for c in sorted(set(colors)):
            members = [v for v in range(n) if colors[v] == c]
            if len(members) > 1 and not _twin_cell(adj, members):
                target = members
                break
        if target is None:
            emit(colors)
            return
        for v in target:
            branched = colors[:]
            branched[v] = n  # fresh color, re-ranked by the next refinement
            search(branched)

    search([0] * n)
    return best[0]


def canonical_edges_bruteforce(n: int, edges) -> Tuple[tuple, ...]:
    """Minimum relabelled edge set over all n! permutations (tiny n only)."""
    edges = list(edges)
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges))
        if best is None or key < best:
            best = key
    return best


def connected_graph_classes(n: int) -> List[Tuple[tuple, ...]]:
    """One canonical edge tuple per isomorphism class of connected graphs.

    Grown by attaching a new vertex to every nonempty subset of each smaller
    class (every connected graph has a non-cut vertex, so this is complete).
    """
    classes: List[Tuple[tuple, ...]] = [()]
    for size in range(2, n + 1):
        seen = set()
        for parent in classes:
            for mask in range(1, 1 << (size - 1)):
                edges = list(parent)
                m = mask
                while m:
                    low = m & -m
                    m &= m - 1
                    edges.append((low.bit_length() - 1, size - 1))
                seen.add(canonical_edges(size, edges))
        classes = sorted(seen)
    return classes


# ---------------------------------------------------------------------------
# Coloring oracle


def coloring_multiset_tally(G: Graph) -> Dict[tuple, int]:
    """Count proper colorings with colors {1..n}, grouped by usage multiset.

    Straight backtracking over vertices; the key is the sorted tuple of
    per-color usage counts with zeros dropped.
    """
    n = G.n
    adj = G.adj
    tally: Dict[tuple, int] = {}
    coloring = [0] * n

    def assign(v: int) -> None:
        if v == n:
            usage = Counter(coloring)
            key = tuple(sorted(usage.values(), reverse=True))
            tally[key] = tally.get(key, 0) + 1
            return
        forbidden = set()
        mask = adj[v]
        while mask:
            low = mask & -mask
            mask &= mask - 1
            u = low.bit_length() - 1
            if u < v:
                forbidden.add(coloring[u])
        for color in range(1, n + 1):
            if color not in forbidden:
                coloring[v] = color
                assign(v + 1)
        coloring[v] = 0

    assign(0)
    return tally


@lru_cache(maxsize=None)
def zero_one_matrix_count(rows: tuple, cols: tuple) -> int:
    """Number of 0-1 matrices with the given row and column sums.

    This is the coefficient of the monomial with exponent vector `cols` in
    the elementary product indexed by `rows`.
    """
    if not rows:
        return 1 if not any(cols) else 0
    r = rows[0]
    total = 0
    positions = [i for i, c in enumerate(cols) if c > 0]
    if r > len(positions):
        return 0
    for subset in itertools.combinations(positions, r):
        reduced = list(cols)
        for i in subset:
            reduced[i] -= 1
        total += zero_one_matrix_count(rows[1:], tuple(sorted(reduced, reverse=True)))
    return total


def distinct_orderings(mu: tuple, slots: int) -> int:
    """Number of distinct vectors of length `slots` whose sorted form is mu."""
    padded = tuple(mu) + (0,) * (slots - len(mu))
    out = math.factorial(slots)
    for mult in Counter(padded).values():
        out //= math.factorial(mult)
    return out


# ---------------------------------------------------------------------------
# Labeled trees (sequence decoding) for free-tree cross-checks


def prufer_tree(n: int, code) -> List[tuple]:
    """The edges of the labeled tree on n >= 2 vertices whose Prufer code (length n - 2) is code."""
    import heapq

    degree = [1] * n
    for v in code:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return edges


def labeled_trees(n: int) -> Iterator[List[tuple]]:
    """Every labeled tree on n vertices, via decoding all length-(n-2) codes."""
    if n == 1:
        yield []
        return
    for code in itertools.product(range(n), repeat=n - 2):
        yield prufer_tree(n, code)


# ---------------------------------------------------------------------------
# Misc brute-force oracles


def interval_sum_exists_dp(n: int, lo: int, hi: int) -> bool:
    """Subset-sum style DP: can n be written as a sum of parts in [lo, hi]?"""
    reachable = [False] * (n + 1)
    reachable[0] = True
    for s in range(lo, n + 1):
        reachable[s] = any(
            reachable[s - p] for p in range(lo, min(hi, s) + 1)
        )
    return reachable[n]


def multiset_permutations(parts: tuple) -> Iterator[tuple]:
    """Each distinct ordering exactly once (recursive, no n! blowup)."""
    counts = Counter(parts)
    values = sorted(counts)
    length = len(parts)

    def rec(prefix: tuple):
        if len(prefix) == length:
            yield prefix
            return
        for v in values:
            if counts[v]:
                counts[v] -= 1
                yield from rec(prefix + (v,))
                counts[v] += 1

    yield from rec(())


def all_rearrangements_hit(parts: tuple, lo: int, hi: int) -> bool:
    """Full scan (no pruning): every ordering has a prefix sum in [lo, hi]."""
    for perm in multiset_permutations(parts):
        acc = 0
        hit = False
        for p in perm[:-1]:
            acc += p
            if lo <= acc <= hi:
                hit = True
                break
        if not hit:
            return False
    return True


def runs_of(lam) -> Tuple[Tuple[int, int], ...]:
    """A plain type, in any order, as runs (value, count), largest value first."""
    return tuple(sorted(Counter(lam).items(), reverse=True))


def parts_of(runs) -> tuple:
    """The runs of a type expanded part by part, in their order."""
    return tuple(itertools.chain.from_iterable(itertools.repeat(v, m) for v, m in runs))


def check_partsums_by_parts(lam, profile: CutProfile) -> bool:
    """The prefix-sum check on a plain type in any order, part by part: one pass
    counts the parts of each value, and check_partsums_obstruction's fold runs
    over the sorted counts.  The oracle for that check on runs.
    """
    counts: Dict[int, int] = {}
    for p in lam:
        counts[p] = counts.get(p, 0) + 1
    runs = sorted(counts.items(), reverse=True)
    if sum(v * m for v, m in runs) != profile.n:
        raise ValueError(f"type {tuple(sorted(lam, reverse=True))} does not sum to profile size {profile.n}")
    if runs[-1][0] < profile.c1 + 1:  # runs is not empty: n >= 1
        return False
    lo, hi = profile.b + 1, profile.b + profile.c
    top, m = runs[0]
    runs[0] = (top, m - 1)  # the other parts; a run of count 0 adds no sum
    reach = {0}  # the sums < lo of sub-multisets of every run but the last
    for v, m in runs[:-1]:
        reach = {s + t for s in reach for t in range(0, min(v * m, lo - 1 - s) + 1, v)}
    v, m = runs[-1]
    return max(s + v * min(m, (lo - 1 - s) // v) for s in reach) + top <= hi


def connected_partition_exists_bruteforce(G: Graph, lam) -> bool:
    """Independent search: enumerate set partitions with the given block sizes.

    Always anchors the next block at the smallest free vertex and picks its
    remaining members from larger labels only, so each set partition is seen
    once; connectivity is checked per finished block with a plain BFS.
    """
    sizes = tuple(sorted(lam, reverse=True))
    assert sum(sizes) == G.n
    adjsets = [set() for _ in range(G.n)]
    for u, v in G.edges:
        adjsets[u].add(v)
        adjsets[v].add(u)

    def block_connected(block: tuple) -> bool:
        todo = [block[0]]
        seen = {block[0]}
        members = set(block)
        while todo:
            v = todo.pop()
            for u in adjsets[v] & members:
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        return len(seen) == len(block)

    def rec(free: frozenset, remaining: tuple) -> bool:
        if not remaining:
            return True
        anchor = min(free)
        rest = sorted(v for v in free if v != anchor)
        tried = set()
        for size in remaining:
            if size in tried:
                continue
            tried.add(size)
            idx = remaining.index(size)
            leftover = remaining[:idx] + remaining[idx + 1 :]
            for combo in itertools.combinations(rest, size - 1):
                block = (anchor,) + combo
                if block_connected(block) and rec(free - set(block), leftover):
                    return True
        return False

    return rec(frozenset(range(G.n)), sizes)


def missing_types_bruteforce(G: Graph) -> List[tuple]:
    """Every type with no connected partition, in partition stream order, by
    one has_connected_partition search per partition of n."""
    return [lam for lam in partitions_of(G.n) if has_connected_partition(G, lam) is None]


def cut_profiles_bruteforce(G: Graph) -> List[Tuple[int, CutProfile]]:
    """cut_profiles by deleting each vertex in turn and counting the components left."""
    if not is_connected(G):
        raise ValueError("graph must be connected")
    out = []
    full = (1 << G.n) - 1
    for v in range(G.n):
        rest = full & ~(1 << v)
        sizes = sorted((m.bit_count() for m in _component_masks(G.adj, rest)), reverse=True)
        if len(sizes) >= 3:
            out.append((v, CutProfile(sizes[0], sizes[1], sizes[2:])))
    return out


# ---------------------------------------------------------------------------
# Free trees by deduplicating rooted trees


def _level_sequences(n: int) -> Iterator[List[int]]:
    """Canonical level sequences of all rooted trees on n vertices.

    Successor rule: find the rightmost entry above 2, drop it by one, and
    repeat the section starting at its parent.  Starts at the path and ends
    at the star, visiting every rooted tree exactly once.
    """
    L = list(range(1, n + 1))
    while True:
        yield L[:]
        p = next((i for i in range(n - 1, -1, -1) if L[i] > 2), None)
        if p is None:
            return
        q = p - 1
        while L[q] != L[p] - 1:
            q -= 1
        for i in range(p, n):
            L[i] = L[i - (p - q)]


def _parents_from_levels(L) -> List[int]:
    parents = [-1] * len(L)
    for i in range(1, len(L)):
        j = i - 1
        while L[j] != L[i] - 1:
            j -= 1
        parents[i] = j
    return parents


def free_trees_by_dedup(n: int) -> Iterator[Graph]:
    """One tree per isomorphism class on n vertices: every rooted tree, kept
    when its centroid-rooted canonical key is new."""
    if n == 1:
        yield Graph(1, [])
        return
    seen = set()
    for L in _level_sequences(n):
        parents = _parents_from_levels(L)
        g = Graph(n, [(parents[i], i) for i in range(1, n)])
        key = tree_canonical_key(g)
        if key not in seen:
            seen.add(key)
            yield g


# ---------------------------------------------------------------------------
# trees-scan by enumerating every free tree: the route that generating the open trees replaced

def settled_vertex(G: Graph) -> bool:
    """Whether a certificate settles the profile of some vertex of G."""
    return any(theorem_decide(profile) is not None for _, profile in cut_profiles(G))


def open_trees_by_enumeration(n: int) -> Iterator[Graph]:
    """The free trees on n vertices with a degree-4 vertex and no settled vertex."""
    return (G for G in enumerate_free_trees(n) if max_degree(G) >= 4 and not settled_vertex(G))


def settle_tree(G: Graph) -> dict:
    """A tree's verdict and the first step that settles it: a certificate on a cut profile,
    else a type the tree DP misses, else csf_e."""
    if settled_vertex(G):
        return {"e_positive": False, "settled_by": "certificate"}
    if missing_types(G):
        return {"e_positive": False, "settled_by": "missing_type"}
    return {"e_positive": is_e_positive(G).positive, "settled_by": "csf"}


def scan_size_by_enumeration(n: int) -> dict:
    """trees-scan's row of size n, every tree with a degree-4 vertex settled as it is enumerated."""
    counterexamples, settled = [], dict.fromkeys(cli.SETTLE_STEPS, 0)
    for G in enumerate_free_trees(n):
        if max_degree(G) >= 4:
            verdict = settle_tree(G)
            settled[verdict["settled_by"]] += 1
            if verdict["e_positive"]:
                counterexamples.append(sorted(G.edges))
    return {"degree4_trees": sum(settled.values()), "counterexamples": counterexamples, "settled": settled}


def partitions_recursive(n: int) -> Iterator[tuple]:
    """All partitions of n in reverse-lexicographic order, by recursion on the first
    part: the generator that partitions_of replaced, one frame per part."""

    def capped(rest: int, cap: int) -> Iterator[tuple]:
        if rest == 0:
            yield ()
        for first in range(min(rest, cap), 0, -1):
            for tail in capped(rest - first, first):
                yield (first,) + tail

    yield from capped(n, n)


def c40_cells_bruteforce(c_lo: int, c_hi: int) -> Tuple[List[tuple], List[tuple]]:
    """(failure cells, per-(c, b) rows) of the c <= 40 sweep, cell by cell.

    A cell (b, c, n) is covered when some block count q, with its window
    x = ceil((b+1)/q), y = floor((b+c)/q) satisfying c+1 <= x <= y, and some
    part count t give t*x <= n <= t*y.  Every q from 1 to b and every t is
    tried for every n on its own; rows are those sweep_c40 passes its sink
    (c, b, n_lo, n_hi, cells, failures).
    """
    failures: List[tuple] = []
    rows: List[tuple] = []
    for c in range(c_lo, c_hi + 1):
        for b in range(2 * c, c * c // 2 + 1):
            windows = []
            for q in range(1, b + 1):
                x, y = -(-(b + 1) // q), (b + c) // q
                if c + 1 <= x <= y:
                    windows.append((x, y))
            n_lo = 2 * b + c + 1
            n_hi = -(-b // (c - 1)) * (b + 1)
            missed = [
                (b, c, n)
                for n in range(n_lo, n_hi + 1)
                if not any(t * x <= n <= t * y for x, y in windows for t in range(1, n // x + 1))
            ]
            failures += missed
            rows.append((c, b, n_lo, n_hi, n_hi - n_lo + 1, len(missed)))
    return failures, rows


def c40_scan_c_bitmask(c: int) -> Tuple[int, List[tuple], List[tuple]]:
    """sweep_c40's (cells, failures, rows) for one c, by bitmask: every t-range
    [t*x, t*y] of every q <= b/c is ORed into an int with one bit per n."""
    cells = 0
    failures: List[tuple] = []
    rows: List[tuple] = []
    for b in range(2 * c, c * c // 2 + 1):
        n_lo = 2 * b + c + 1
        n_hi = (-(-b // (c - 1))) * (b + 1)
        width = n_hi - n_lo + 1
        full = (1 << width) - 1
        covered = 0  # bit i set once n_lo + i is realized
        for q in range(b // c, 0, -1):  # q <= b/c keeps x = ceil((b+1)/q) >= c+1
            x = -(-(b + 1) // q)
            y = (b + c) // q
            if x < c + 1 or y < x:
                continue
            for t in range(max(1, -(-n_lo // y)), n_hi // x + 1):
                lo = max(t * x, n_lo)
                hi = min(t * y, n_hi)
                if lo <= hi:
                    covered |= ((1 << (hi - lo + 1)) - 1) << (lo - n_lo)
            if covered == full:
                break
        cells += width
        miss = _mask_vertices(full & ~covered)
        failures.extend((b, c, n_lo + i) for i in miss)
        rows.append((c, b, n_lo, n_hi, width, len(miss)))
    return cells, failures, rows


def strategy_check_exact(b: int, c: int, q: int) -> bool:
    """strategy_check in exact rationals: q's window x = ceil((b+1)/q), y = floor((b+c)/q)
    has c+1 <= x < y and ceil((x-1)/(y-x)) * x <= 2b+c+1."""
    x, y = math.ceil(Fraction(b + 1, q)), math.floor(Fraction(b + c, q))
    return c + 1 <= x < y and math.ceil(Fraction(x - 1, y - x)) * x <= 2 * b + c + 1


def c500_rows_bruteforce(c_lo: int, c_hi: int) -> List[tuple]:
    """sweep_c500's full-mode (c, b, q) rows: q is the largest block count <= b/c
    that passes strategy_check_exact, or 0 when none does."""
    rows = []
    for c in range(c_lo, c_hi + 1):
        for b in range(2 * c, c * c // 2 + 1):
            found = 0
            for q in range(b // c, 0, -1):
                if strategy_check_exact(b, c, q):
                    found = q
                    break
            rows.append((c, b, found))
    return rows


# ---------------------------------------------------------------------------
# Chromatic symmetric function routes replaced in the library


def unpack_tally(tally) -> Dict[tuple, int]:
    """A tally keyed by packed multisets (part p adds 1 << PART_BITS*(p-1)) re-keyed by
    weakly decreasing tuples."""
    field = (1 << PART_BITS) - 1
    out: Dict[tuple, int] = {}
    for key, c in tally.items():
        top = -(-key.bit_length() // PART_BITS)  # the highest non-empty field
        parts = tuple(p for p in range(top, 0, -1) for _ in range(key >> PART_BITS * (p - 1) & field))
        out[parts] = c
    return out


def _subset_type_tally(n: int, edges: List[tuple]) -> Counter:
    """Signed count of component-size types over all 2^|E| edge subsets."""
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


@cache
def p_in_e_recurrence(k: int) -> Dict[tuple, int]:
    """p_k in the e-basis by Newton's recurrence, memoised: callers only read it.

    p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^(k-1) k e_k.
    """
    acc: Dict[tuple, int] = {(k,): (-1) ** (k - 1) * k}
    for i in range(1, k):
        for key, val in p_in_e_recurrence(k - i).items():
            merged = tuple(sorted(key + (i,), reverse=True))
            acc[merged] = acc.get(merged, 0) + (-1) ** (i - 1) * val
    return {key: val for key, val in acc.items() if val}


def p_to_e_by_type(tally) -> ESymExpansion:
    """sum_lam c_lam * prod_i p_{lam_i} in the e-basis, from a tally keyed by
    partition tuples: Newton's recurrence per part and multiply_e per product,
    with no packed keys and no Waring's formula."""
    n = sum(next(iter(tally), ()))
    acc: Dict[tuple, int] = {}
    for lam, c in tally.items():
        prod = ESymExpansion(0, {(): 1})
        for part in lam:
            prod = multiply_e(prod, ESymExpansion(part, p_in_e_recurrence(part)))
        for key, val in prod.coeffs.items():
            acc[key] = acc.get(key, 0) + c * val
    return ESymExpansion(n, acc)


def disjoint_union(G: Graph, H: Graph) -> Graph:
    """G and H side by side, H's labels shifted by G.n."""
    edges = list(G.edges) + [(u + G.n, v + G.n) for u, v in H.edges]
    return Graph(G.n + H.n, edges)


def multiply_e(A: ESymExpansion, B: ESymExpansion) -> ESymExpansion:
    """Product of two expansions; keys merge as multisets, degrees add."""
    out: Dict[tuple, int] = {}
    for ka, ca in A.coeffs.items():
        for kb, cb in B.coeffs.items():
            key = tuple(sorted(ka + kb, reverse=True))
            out[key] = out.get(key, 0) + ca * cb
    return ESymExpansion(A.degree + B.degree, out)


# ---------------------------------------------------------------------------
# e-expansion facts with no tally and no p->e, cheap up to n = 31


def tree_sink_counts(G: Graph) -> List[int]:
    """counts[j] = number of orientations of the tree G with exactly j sinks, 0 <= j <= n.

    Every orientation of a tree is acyclic, so by Stanley's sink theorem
    (Adv. Math. 111 (1995), Thm 3.3) counts[j] is the sum of X_G's
    e-coefficients over the partitions of length j.  A DP from vertex 0 keeps,
    per vertex, the sink counts of its subtree in two states: the vertex has
    an edge out to a child, or every child edge points into it so far.
    """
    nbrs: List[List[int]] = [[] for _ in range(G.n)]
    for u, v in G.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)

    def add(p: tuple, q: tuple) -> tuple:
        p, q = p + (0,) * (len(q) - len(p)), q + (0,) * (len(p) - len(q))
        return tuple(a + b for a, b in zip(p, q))

    def dfs(v: int, parent: int) -> Tuple[tuple, tuple]:
        out, sink = (0,), (1,)
        for u in nbrs[v]:
            if u == parent:
                continue
            u_out, u_sink = dfs(u, v)
            up = add(u_out, u_sink)  # u -> v: u is no sink
            down = add(u_out, (0,) + u_sink)  # v -> u: u's status is final
            out, sink = add(_poly_mul(out, up), _poly_mul(add(out, sink), down)), _poly_mul(sink, up)
        return out, sink

    out, sink = dfs(0, -1)
    return list(add(add(out, (0,) + sink), (0,) * (G.n + 1)))


def path_e_expansion(n: int) -> Dict[tuple, int]:
    """X_{P_n} in the e-basis by the closed form over compositions alpha of n,
    sum alpha_1 * prod_{i>=2} (alpha_i - 1) * e_alpha, summed per partition: the
    first part p runs over lam's distinct values, and the other parts take
    count_rearrangements of them orders, each with the same product."""
    out: Dict[tuple, int] = {}
    for lam in partitions_recursive(n):
        coeff = 0
        for p in set(lam):
            rest = list(lam)
            rest.remove(p)
            coeff += p * math.prod(q - 1 for q in rest) * count_rearrangements(rest)
        if coeff:
            out[lam] = coeff
    return out


# ---------------------------------------------------------------------------
# Chromatic polynomial (deletion-contraction), tied to csf_e by specialize_e


def specialize_e(X: ESymExpansion, k: int) -> int:
    """X evaluated at x_1 = ... = x_k = 1, all other variables 0 (e_j -> C(k, j))."""
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
