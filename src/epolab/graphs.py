"""Undirected simple graphs, cut-vertex profiles, connected partitions,
the tree type DP, spider/path/star constructors, and free-tree enumeration.

Vertices are labelled 0..n-1.  Graph values are immutable; adjacency is
exposed as per-vertex bitmasks, which keeps the connected-partition search
and component computations cheap at the sizes this library targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

from .partitions import partitions_of


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are stored once each as (u, v) with u < v; adj[v] is the adjacency
    bitmask of v, with bit u set iff {u, v} is an edge.
    """

    n: int
    edges: frozenset
    adj: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        norm = set()
        masks = [0] * n
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            norm.add((u, v) if u < v else (v, u))
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "adj", tuple(masks))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def to_text(self) -> str:
        lines = [str(self.n)]
        lines += [f"{u} {v}" for u, v in sorted(self.edges)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        """Parse the plain text format: first line n, then one "u v" per line."""
        rows = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not rows:
            raise ValueError("empty graph text")
        try:
            n = int(rows[0])
            edges = []
            for ln in rows[1:]:
                u, v = ln.split()
                edges.append((int(u), int(v)))
        except ValueError:
            raise ValueError(f"malformed graph text starting {rows[0]!r}") from None
        return cls(n, edges)


@dataclass(frozen=True, slots=True)
class CutProfile:
    """Component sizes around a cut vertex: a >= b >= c1 >= ... >= ck >= 1."""

    a: int
    b: int
    cs: Tuple[int, ...]

    def __post_init__(self):
        cs = tuple(self.cs)
        if not cs:
            raise ValueError("need at least one small component (k >= 1)")
        chain = (self.a, self.b) + cs
        if any(chain[i] < chain[i + 1] for i in range(len(chain) - 1)) or cs[-1] < 1:
            raise ValueError(f"sizes must satisfy a >= b >= c1 >= ... >= ck >= 1, got {chain}")
        object.__setattr__(self, "cs", cs)

    @property
    def c(self) -> int:
        return sum(self.cs)

    @property
    def c1(self) -> int:
        return self.cs[0]

    @property
    def n(self) -> int:
        return self.a + self.b + self.c + 1


@dataclass(frozen=True, slots=True)
class ConnectedPartition:
    """Disjoint vertex blocks covering V, each inducing a connected subgraph."""

    blocks: Tuple[frozenset, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(frozenset(b) for b in self.blocks))

    def validate(self, G: Graph, lam=None) -> None:
        """Raise unless blocks are disjoint, cover V, and induce connected subgraphs."""
        seen = set()
        for b in self.blocks:
            if seen & b:
                raise AssertionError("blocks overlap")
            seen |= b
        if seen != set(range(G.n)):
            raise AssertionError("blocks do not cover the vertex set")
        adj = G.adj
        for b in self.blocks:
            mask = sum(1 << v for v in b)
            if _component_masks(adj, mask) != [mask]:
                raise AssertionError(f"block {sorted(b)} is not connected")
        if lam is not None and sorted(len(b) for b in self.blocks) != sorted(lam):
            raise AssertionError("block sizes do not match the declared type")


def spider(legs) -> Graph:
    """Paths of the given lengths joined at a common center.

    Vertex 0 is the center.  Leg i occupies a consecutive label block; the
    first label in the block is the leaf and the last attaches to the center,
    so witnesses are reproducible byte for byte.
    """
    legs = tuple(legs)
    if not legs or any(l < 1 for l in legs):
        raise ValueError(f"legs must be positive, got {legs}")
    n = 1 + sum(legs)
    edges = []
    offset = 1
    for length in legs:
        edges += [(i, i + 1) for i in range(offset, offset + length - 1)]
        edges.append((offset + length - 1, 0))
        offset += length
    return Graph(n, edges)


def path_graph(n: int) -> Graph:
    """Path on n vertices, labelled 0..n-1 along the path."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0 joined to n-1 leaves."""
    return Graph(n, [(0, i) for i in range(1, n)])


def _component_masks(adj, mask: int) -> List[int]:
    """Connected components of the subgraph induced on the bitmask."""
    comps = []
    rest = mask
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            f = frontier
            while f:
                low = f & -f
                grow |= adj[low.bit_length() - 1]
                f &= f - 1
            frontier = grow & mask & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def _mask_vertices(mask: int) -> List[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask &= mask - 1
    return out


def is_connected(G: Graph) -> bool:
    return len(_component_masks(G.adj, (1 << G.n) - 1)) == 1


def max_degree(G: Graph) -> int:
    return max(m.bit_count() for m in G.adj)


def cut_profiles(G: Graph) -> List[Tuple[int, CutProfile]]:
    """Vertices whose deletion leaves >= 3 components, with sorted sizes.

    Vertices that split the graph into exactly 2 components are omitted;
    the obstruction machinery needs k >= 1, i.e. at least 3 components.
    One iterative low-link DFS finds every vertex's components: a DFS child u
    of v with low[u] >= disc[v] roots one, and the n - 1 - (their sizes)
    vertices left over, when there are any, form one more.  On a tree every
    child roots one, so a subtree-size pass in BFS order takes its place.
    """
    n = G.n
    split: List[List[int]] = [[] for _ in range(n)]  # sizes of the components below v
    size = [1] * n
    if len(G.edges) == n - 1:
        parent, order, seen = [-1] * n, [0], 1
        for v in order:
            below = G.adj[v] & ~seen
            seen |= below
            for u in _mask_vertices(below):
                parent[u] = v
                order.append(u)
        if len(order) != n:
            raise ValueError("graph must be connected")
        for v in reversed(order[1:]):
            size[parent[v]] += size[v]
            split[parent[v]].append(size[v])
    else:
        nbrs = [_mask_vertices(m) for m in G.adj]
        disc, low = [0] + [-1] * (n - 1), [0] * n
        seen = 1
        stack = [(0, -1, iter(nbrs[0]))]
        while stack:
            v, parent, it = stack[-1]
            for u in it:
                if disc[u] < 0:
                    disc[u] = low[u] = seen
                    seen += 1
                    stack.append((u, v, iter(nbrs[u])))
                    break
                if u != parent:
                    low[v] = min(low[v], disc[u])
            else:
                stack.pop()
                if parent >= 0:
                    size[parent] += size[v]
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        split[parent].append(size[v])
        if seen != n:
            raise ValueError("graph must be connected")
    out = []
    for v in range(n):
        rest = n - 1 - sum(split[v])
        sizes = sorted(split[v] + [rest] * (rest > 0), reverse=True)
        if len(sizes) >= 3:
            out.append((v, CutProfile(sizes[0], sizes[1], sizes[2:])))
    return out


def _connected_size_subsets(adj, v: int, size: int, allowed: int) -> Iterator[int]:
    """Connected subsets of `allowed` containing v with exactly `size` vertices.

    Each subset is yielded exactly once (extend-or-ban enumeration).
    """
    vbit = 1 << v

    def rec(cur: int, k: int, ext: int):
        if k == size:
            yield cur
            return
        banned = 0
        while ext:
            low = ext & -ext
            ext &= ext - 1
            u = low.bit_length() - 1
            new_ext = (ext | (adj[u] & allowed & ~cur)) & ~banned & ~low
            yield from rec(cur | low, k + 1, new_ext)
            banned |= low

    if size == 1:
        yield vbit
        return
    yield from rec(vbit, 1, adj[v] & allowed)


def has_connected_partition(G: Graph, lam) -> Optional[ConnectedPartition]:
    """Search for a connected partition of type lam; None if there is none.

    Backtracking always starts the next block at the smallest unassigned
    vertex (removing symmetric duplicates) and prunes any state in which some
    remaining component's size is not a sub-multiset sum of the remaining
    parts.  Deterministic for fixed input.
    """
    parts = tuple(sorted(lam, reverse=True))
    if sum(parts) != G.n:
        raise ValueError(f"type {parts} does not sum to n={G.n}")
    if not is_connected(G):
        raise ValueError("graph must be connected")
    adj = G.adj
    blocks: List[int] = []
    dead: set = set()
    sums: dict = {}  # remaining parts -> bitmask of their sub-multiset sums

    def search(unassigned: int, left: tuple) -> bool:
        if unassigned == 0:
            return True
        if (unassigned, left) in dead:
            return False
        v = (unassigned & -unassigned).bit_length() - 1
        for i, s in enumerate(left):
            if i and left[i - 1] == s:
                continue
            rest_parts = left[:i] + left[i + 1 :]
            reach = sums.get(rest_parts)
            if reach is None:
                reach = 1
                for part in rest_parts:
                    reach |= reach << part
                sums[rest_parts] = reach
            for block in _connected_size_subsets(adj, v, s, unassigned):
                rest = unassigned & ~block
                fits = all(reach >> comp.bit_count() & 1 for comp in _component_masks(adj, rest))
                if fits and search(rest, rest_parts):
                    blocks.append(block)
                    return True
        dead.add((unassigned, left))
        return False

    if not search((1 << G.n) - 1, parts):
        return None
    blocks.reverse()
    witness = ConnectedPartition([frozenset(_mask_vertices(b)) for b in blocks])
    witness.validate(G, parts)
    return witness


def _tree_type_tally(adj, root_mask: int) -> Dict[int, int]:
    """Signed type tally of one tree component via a DP, keyed by packed types.

    State maps (packed finished sizes, size of the open component holding the current
    vertex) to a signed count; cutting a child edge finishes its open component, keeping
    it merges and flips the sign.  A forest of type lam keeps n - l(lam) edges, so all
    terms of lam have sign (-1)^(n - l(lam)) and the keys are exactly the realizable types.
    """
    root = (root_mask & -root_mask).bit_length() - 1

    def dfs(v: int, parent_v: int) -> Dict[tuple, int]:
        state = {(0, 1): 1}
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
                    cut = (d1 + d2 + (1 << 5 * (o2 - 1)), o1)
                    new[cut] = new.get(cut, 0) + c1 * c2
                    join = (d1 + d2, o1 + o2)
                    new[join] = new.get(join, 0) - c1 * c2
            state = new
        return state

    tally: Dict[int, int] = {}
    for (done, open_size), c in dfs(root, -1).items():
        key = done + (1 << 5 * (open_size - 1))
        tally[key] = tally.get(key, 0) + c
    return tally


def _dfs_tree(adj) -> List[int]:
    """Adjacency masks of a DFS spanning tree: from a lowest-degree vertex, each step goes to
    the unvisited neighbour with the fewest unvisited neighbours (lowest label on ties)."""
    tree, left = [0] * len(adj), (1 << len(adj)) - 1
    stack = [min(range(len(adj)), key=lambda v: (adj[v].bit_count(), v))]
    while stack:
        v = stack[-1]
        left &= ~(1 << v)
        if not adj[v] & left:
            stack.pop()
            continue
        u = min(_mask_vertices(adj[v] & left), key=lambda w: ((adj[w] & left).bit_count(), w))
        tree[u], tree[v] = 1 << v, tree[v] | 1 << u
        stack.append(u)
    return tree


MISSING_TYPES_MAX_N = 25


@lru_cache(maxsize=None)  # one entry per n <= MISSING_TYPES_MAX_N
def _packed_partitions(n: int) -> Tuple[Tuple[tuple, int], ...]:
    """(lam, packed key) for every partition of n, in stream order."""
    return tuple((lam, sum(1 << 5 * (p - 1) for p in lam)) for lam in partitions_of(n))


def missing_types(G: Graph) -> List[tuple]:
    """Types with no connected partition, in stream order; G is searched for those its DFS tree lacks."""
    if G.n > MISSING_TYPES_MAX_N:
        raise ValueError(f"missing_types guard: n={G.n} > {MISSING_TYPES_MAX_N}")
    if not is_connected(G):
        raise ValueError("graph must be connected")
    present = _tree_type_tally(_dfs_tree(G.adj), 1)
    return [lam for lam, key in _packed_partitions(G.n) if key not in present
            and (len(G.edges) == G.n - 1 or has_connected_partition(G, lam) is None)]


# ---------------------------------------------------------------------------
# Free trees


def tree_centroids(n: int, adjsets) -> List[int]:
    """The one or two vertices minimizing the largest remaining component."""
    parent = [-1] * n
    order = [0]  # breadth-first from 0: parents before children
    for v in order:
        for u in adjsets[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    heaviest = [
        max([n - size[v]] + [size[u] for u in adjsets[v] if u != parent[v]]) for v in range(n)
    ]
    best = min(heaviest)
    return [v for v in range(n) if heaviest[v] == best]


def _rooted_encoding(root: int, adjsets) -> tuple:
    def enc(v: int, par: int) -> tuple:
        return tuple(sorted(enc(u, v) for u in adjsets[v] if u != par))

    return enc(root, -1)


def tree_canonical_key(G: Graph) -> tuple:
    """Canonical encoding of a free tree (equal iff trees are isomorphic)."""
    if len(G.edges) != G.n - 1 or not is_connected(G):
        raise ValueError("not a tree")
    adjsets = [_mask_vertices(m) for m in G.adj]
    return min(_rooted_encoding(r, adjsets) for r in tree_centroids(G.n, adjsets))


def enumerate_free_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on n vertices.

    Wright, Richmond, Odlyzko and McKay, "Constant time generation of free
    trees" (SIAM J. Comput. 15, 1986).  Rooted trees are visited as canonical
    level sequences (root at level 0), starting from the path rooted at its
    center: the successor drops the entry at p by one and repeats the section
    that starts at p's parent.  A free tree is yielded once, rooted at its
    center: as the sequence whose first subtree is lower than the rest of the
    tree, or as tall and not larger (by size, then by sequence).  Any other
    sequence stays rejected until its first subtree changes, so the successor
    is taken at that subtree's last vertex; when that vertex is deeper than
    level 2, the tail then restarts as a path as tall as the new first subtree.
    """
    if not 1 <= n <= 16:
        raise ValueError(f"free-tree guard: need 1 <= n <= 16, got {n}")
    if n == 1:
        yield Graph(1, [])
        return
    L = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        m = next((i for i in range(2, n) if L[i] == 1), n)  # the first subtree is L[1:m]
        left, rest = [x - 1 for x in L[1:m]], [0] + L[m:]
        if (max(left), len(left), left) <= (max(rest), len(rest), rest):
            last = [0] * n  # the last vertex seen on each level: the parent of the next one below
            edges = []
            for i in range(1, n):
                edges.append((last[L[i] - 1], i))
                last[L[i]] = i
            yield Graph(n, edges)
            p = next((i for i in range(n - 1, 0, -1) if L[i] > 1), None)
            if p is None:
                return
            reset = False
        else:
            p, reset = m - 1, L[m - 1] > 2
        q = p - 1
        while L[q] != L[p] - 1:
            q -= 1
        for i in range(p, n):
            L[i] = L[i - (p - q)]
        if reset:
            height = max(L[1 : p + 1])
            L[n - height :] = range(1, height + 1)
