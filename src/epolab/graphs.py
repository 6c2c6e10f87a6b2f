"""Undirected simple graphs, cut-vertex profiles, connected partitions,
the tree type DP, the (k, ..., k, r) block check, spider/path/star constructors,
free-tree enumeration, and the trees with a degree-4 vertex: their count and
the open ones, with the slotted record bases of the library's value classes.

Vertices are labelled 0..n-1.  Graph values are immutable; adjacency is
exposed as per-vertex bitmasks, which keeps the connected-partition search
and component computations cheap at the sizes this library targets.
"""

from __future__ import annotations

from functools import cache
from typing import Dict, Iterator, List, Optional, Tuple

from .partitions import PART_UNIT, packed_partitions


class Record:
    """A slotted value, set by its `__init__` through `_set`.  Its `_fields` are compared,
    pickled as constructor arguments and, less `_hidden`, shown by repr as
    `Name(field=value, ...)`.  It is unhashable, since it can change."""

    __slots__ = ()
    _hidden = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __reduce__(self):
        return type(self), self._key()


class FrozenRecord(Record):
    """A Record hashed by its `_fields`, none of which can be assigned or deleted."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(FrozenRecord):
    """Simple undirected graph on vertices 0..n-1.

    Edges are stored once each as (u, v) with u < v; adj[v] is the adjacency
    bitmask of v, with bit u set iff {u, v} is an edge.
    """

    __slots__ = ("n", "edges", "adj")
    _fields = ("n", "edges")  # adj follows from them

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        norm = set()
        masks = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            norm.add((u, v) if u < v else (v, u))
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._set(n, frozenset(norm), tuple(masks))

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


class CutProfile(FrozenRecord):
    """Component sizes around a cut vertex: a >= b >= c1 >= ... >= ck >= 1."""

    __slots__ = _fields = ("a", "b", "cs")

    def __init__(self, a: int, b: int, cs: Tuple[int, ...]):
        cs = tuple(cs)
        if not cs:
            raise ValueError("need at least one small component (k >= 1)")
        chain = (a, b) + cs
        if any(chain[i] < chain[i + 1] for i in range(len(chain) - 1)) or cs[-1] < 1:
            raise ValueError(f"sizes must satisfy a >= b >= c1 >= ... >= ck >= 1, got {chain}")
        self._set(a, b, cs)

    @property
    def c(self) -> int:
        return sum(self.cs)

    @property
    def c1(self) -> int:
        return self.cs[0]

    @property
    def n(self) -> int:
        return self.a + self.b + self.c + 1


class ConnectedPartition(FrozenRecord):
    """Disjoint vertex blocks covering V, each inducing a connected subgraph."""

    __slots__ = _fields = ("blocks",)

    def __init__(self, blocks):
        self._set(tuple(frozenset(b) for b in blocks))

    def validate(self, G: Graph, lam) -> None:
        """Raise unless blocks are disjoint, cover V, induce connected subgraphs, have type lam."""
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
        if sorted(len(b) for b in self.blocks) != sorted(lam):
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


def _tree_order(adj) -> Tuple[List[int], List[int], List[int]]:
    """Each vertex's parent, the vertices from 0 parents first (breadth first), and their subtree sizes:
    the one pass over a tree that block_witness and tree_centroids read."""
    parent, order, seen = [-1] * len(adj), [0], 1
    for v in order:
        below = adj[v] & ~seen
        seen |= below
        for u in _mask_vertices(below):
            parent[u] = v
            order.append(u)
    size = [1] * len(adj)
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return parent, order, size


def cut_profiles(G: Graph) -> List[Tuple[int, CutProfile]]:
    """Vertices whose deletion leaves >= 3 components, with sorted sizes.

    Vertices that split the graph into exactly 2 components are omitted;
    the obstruction machinery needs k >= 1, i.e. at least 3 components.
    One iterative low-link DFS over the adjacency masks finds every vertex's
    components: a DFS child u of v with low[u] >= disc[v] roots one, and the
    n - 1 - (their sizes) vertices left over, when there are any, form one more.
    A stack frame holds (v, its parent, the neighbours of v not yet looked at).
    """
    n, adj = G.n, G.adj
    split: List[List[int]] = [[] for _ in range(n)]  # sizes of the components below v
    size, disc, low = [1] * n, [0] + [-1] * (n - 1), [0] * n
    seen = 1
    stack = [(0, -1, adj[0])]
    while stack:
        v, parent, rest = stack.pop()
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            if disc[u] < 0:
                disc[u] = low[u] = seen
                seen += 1
                stack.append((v, parent, rest))
                stack.append((u, v, adj[u] ^ 1 << v))  # u's neighbours less v
                break
            if disc[u] < low[v]:
                low[v] = disc[u]
        else:
            if parent >= 0:
                size[parent] += size[v]
                if low[v] < low[parent]:
                    low[parent] = low[v]
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
    root, unit = (root_mask & -root_mask).bit_length() - 1, PART_UNIT

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
                    cut = (d1 + d2 + unit[o2], o1)
                    new[cut] = new.get(cut, 0) + c1 * c2
                    join = (d1 + d2, o1 + o2)
                    new[join] = new.get(join, 0) - c1 * c2
            state = new
        return state

    tally: Dict[int, int] = {}
    for (done, open_size), c in dfs(root, -1).items():
        key = done + unit[open_size]
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


def missing_types(G: Graph) -> List[tuple]:
    """Types with no connected partition, in stream order; G is searched for those its DFS tree lacks."""
    if G.n > MISSING_TYPES_MAX_N:
        raise ValueError(f"missing_types guard: n={G.n} > {MISSING_TYPES_MAX_N}")
    if not is_connected(G):
        raise ValueError("graph must be connected")
    present = _tree_type_tally(_dfs_tree(G.adj), 1)
    return [lam for lam, key in packed_partitions(G.n) if key not in present
            and (len(G.edges) == G.n - 1 or has_connected_partition(G, lam) is None)]


def _has_blocks(tree: tuple, k: int) -> bool:
    """Whether a tree on n = mk + r vertices, 0 <= r < k, has a connected partition of type (k, ..., k, r):
    rooted in its r-block (anywhere when r = 0), one cuts exactly above the m - [r = 0] vertices u != root
    whose subtree size is 0 mod k, and cutting above that many gives one.  tree is _tree_order's (parent,
    order, size); moving the root from p to its child v adds [s_v = r] - [s_v = 0] mod k to the count."""
    parent, order, size = tree
    (m, r), rest = divmod(len(size), k), [s % k for s in size]
    count = [rest[1:].count(0)] * len(size)
    for v in order[1:]:
        count[v] = count[parent[v]] + (rest[v] == r) - (rest[v] == 0)
    return m - (r == 0) in count


def block_witness(G: Graph) -> Optional[tuple]:
    """The first type (k, ..., k, r) of n = mk + r, 2 <= k < n and 0 <= r < k, that the tree G has no
    connected partition of, else None: one linear pass per k."""
    tree = _tree_order(G.adj)
    for k in range(2, G.n):
        if not _has_blocks(tree, k):
            return (k,) * (G.n // k) + (G.n % k,) * (G.n % k > 0)
    return None


# ---------------------------------------------------------------------------
# Free trees

FREE_TREES_MAX_N = 16  # enumerate_free_trees' guard on n


def tree_centroids(G: Graph) -> List[int]:
    """The one or two vertices of the tree G minimizing the largest remaining component."""
    parent, order, size = _tree_order(G.adj)
    heaviest = [G.n - s for s in size]  # the component above each vertex, then its children's
    for v in order[1:]:
        heaviest[parent[v]] = max(heaviest[parent[v]], size[v])
    best = min(heaviest)
    return [v for v in range(G.n) if heaviest[v] == best]


def _rooted_encoding(root: int, adj) -> tuple:
    def enc(v: int, above: int) -> tuple:
        return tuple(sorted(enc(u, 1 << v) for u in _mask_vertices(adj[v] & ~above)))

    return enc(root, 0)


def tree_canonical_key(G: Graph) -> tuple:
    """Canonical encoding of a free tree (equal iff trees are isomorphic)."""
    if len(G.edges) != G.n - 1 or not is_connected(G):
        raise ValueError("not a tree")
    return min(_rooted_encoding(r, G.adj) for r in tree_centroids(G))


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
    if not 1 <= n <= FREE_TREES_MAX_N:
        raise ValueError(f"free-tree guard: need 1 <= n <= {FREE_TREES_MAX_N}, got {n}")
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


# ---------------------------------------------------------------------------
# Trees with a degree-4 vertex: counted, and the open ones generated


def _otter_count(n: int, d: int) -> int:
    """Free trees on n vertices with every degree <= d, by Otter's dissimilarity formula (Ann.
    Math. 49, 1948): the vertex-rooted trees less the edge-rooted ones that are not symmetric.
    What hangs below a vertex or from one end of an edge is a root with at most d - 1 hanging
    trees; M[k][w] counts the multisets of k hanging trees on w vertices, one size folded in at
    a time."""
    from math import comb
    d = min(d, n - 1)  # k hanging trees have at least k vertices
    hang = [0] * n
    M = [[1] + [0] * (n - 1)] + [[0] * n for _ in range(d)]
    for s in range(1, n):
        hang[s] = sum(M[k][s - 1] for k in range(d))
        multisets = [comb(hang[s] + j - 1, j) for j in range(n // s + 1)]  # of j trees of size s
        for k in range(d, 0, -1):  # rows k - j, j >= 1, still count sizes below s
            for w in range(n - 1, max(s, k) - 1, -1):
                M[k][w] += sum(M[k - j][w - j * s] * multisets[j] for j in range(1, min(k, w // s) + 1))
    edge_rooted = sum(hang[i] * hang[n - i] for i in range(1, n))
    symmetric = hang[n // 2] if n % 2 == 0 else 0
    return sum(M[k][n - 1] for k in range(d + 1)) - (edge_rooted - symmetric) // 2


def degree4_trees(n: int) -> int:
    """The number of free trees on n >= 1 vertices with a vertex of degree >= 4."""
    return _otter_count(n, n) - _otter_count(n, 3)


def _is_open(sizes: tuple) -> bool:
    """Whether theorem_decide leaves open the profile of the component sizes `sizes`, largest first."""
    from .obstructions import theorem_decide
    return theorem_decide(CutProfile(sizes[0], sizes[1], sizes[2:])) is None


def open_profiles(n: int) -> List[Tuple[int, int, int]]:
    """(a, b, c1) of each profile (a, b, c1, 1) of n that theorem_decide leaves open, by c1 and then b."""
    return [(a, b, c1) for c1 in range(1, n) for b in range(c1, (n - 2 - c1) // 2 + 1)
            for a in [n - 2 - c1 - b] if _is_open((a, b, c1, 1))]


def _least_rooted(G: Graph, sizes: tuple) -> bool:
    """Whether G rooted at 0 has the least rooted encoding among its vertices with the component
    sizes `sizes`, largest first."""
    here = _rooted_encoding(0, G.adj)
    return all(here <= _rooted_encoding(v, G.adj) for v, p in cut_profiles(G) if (p.a, p.b, *p.cs) == sizes)


def open_trees(n: int) -> Iterator[Graph]:
    """Each open tree on n vertices once: a tree with a degree-4 vertex in which theorem_decide
    settles the profile of no vertex of degree >= 3.

    A profile with k >= 2 other than (a, b, c1, 1) has c >= c1 + 2, and then one of the four arms
    applies.  So every vertex of an open tree has degree <= 4, and one of degree 4 has a leaf
    neighbour and a profile (a, b, c1, 1) of open_profiles: the tree is that vertex v (vertex 0), the
    leaf (vertex 1), and branches A, B, C of sizes a >= b >= c1.  A branch of size s is a root with at
    most three branches below it, a leaf among three, kept when the root's profile, with n - s
    vertices above it, is open: one memoised verdict per profile.  A tree is kept at its degree-4
    vertex whose component sizes, smallest first, and then rooted encoding are least.
    """
    is_open = cache(_is_open)
    top = (n,)  # above the key of every degree-4 vertex, which starts with its leaf's 1
    leaf = (top, 1, ())  # a branch: (least key of a degree-4 vertex in it, size, branches below)
    grown = [[], [leaf]]

    def branches(s: int) -> list:
        while len(grown) <= s:
            t = len(grown)
            out = [(X[0], t, (X,)) for X in grown[t - 1]]
            for leaves in (0, 1):  # two branches below, or two and a leaf
                for s2 in range(1, (t - 1 - leaves) // 2 + 1):
                    s1 = t - 1 - leaves - s2
                    key = tuple(sorted((n - t, s1, s2) + (1,) * leaves))
                    if is_open(key[::-1]):
                        own = key if leaves else top
                        for i, X in enumerate(grown[s1]):
                            for Y in grown[s2][: i + 1] if s1 == s2 else grown[s2]:
                                out.append((min(own, X[0], Y[0]), t, (X, Y) + (leaf,) * leaves))
            grown.append(out)
        return grown[s]

    for a, b, c1 in open_profiles(n):
        key = (1, c1, b, a)
        As, Bs, Cs = branches(a), branches(b), branches(c1)
        for i, A in enumerate(As):
            for j, B in enumerate(Bs[: i + 1] if a == b else Bs):
                for C in Cs[: j + 1] if b == c1 else Cs:
                    least = min(A[0], B[0], C[0])
                    if least < key:
                        continue  # kept at another vertex
                    edges, todo = [(0, 1)], [(0, C), (0, B), (0, A)]
                    while todo:  # labels in preorder: A's vertices, then B's, then C's
                        up, (_, _, below) = todo.pop()
                        edges.append((up, len(edges) + 1))
                        todo += [(len(edges), X) for X in reversed(below)]
                    G = Graph(n, edges)
                    if least > key or _least_rooted(G, key[::-1]):
                        yield G
