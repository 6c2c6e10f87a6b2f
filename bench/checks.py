"""Independent oracles and output parsers for the benchmark's correctness checks.

Nothing here imports epolab: every expected value is computed from the
generated input alone, so a check cannot share a defect with the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from functools import lru_cache


class CheckFailed(Exception):
    """An invocation's exit code or output is not what the input implies."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Byte-for-byte digests


_WALL_TIME = re.compile(rb'"wall_time_ms": \d+')


def digest(stdout: bytes, code: int) -> str:
    """sha256 of the exit code and stdout, with sweep wall times blanked."""
    body = _WALL_TIME.sub(b'"wall_time_ms": 0', stdout)
    return hashlib.sha256(b"%d\n" % code + body).hexdigest()


# ---------------------------------------------------------------------------
# Partitions and e-basis expansions


def partitions(n: int, max_part: int = None):
    """Partitions of n as weakly decreasing tuples, (n) first, (1,...,1) last."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def fmt_parts(parts) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


_TERM = re.compile(r"^(-?\d+) \* e_\(([\d,]+)\)$")


def parse_expansion(text: str) -> dict:
    """Parse `csf` text output: one "c * e_(a,b,...)" line per term."""
    terms = {}
    for line in text.splitlines():
        m = _TERM.match(line)
        expect(m is not None, f"unparsable csf line {line!r}")
        terms[tuple(int(p) for p in m.group(2).split(","))] = int(m.group(1))
    return terms


def specialize(terms: dict, k: int) -> int:
    """The expansion at x_1 = ... = x_k = 1: e_j becomes C(k, j)."""
    total = 0
    for lam, c in terms.items():
        for part in lam:
            c *= math.comb(k, part)
        total += c
    return total


# ---------------------------------------------------------------------------
# Chromatic polynomial by deletion-contraction


def _components(n: int, edges) -> tuple:
    """(number of components, number of edges that close a cycle)."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    comps = n
    closing = 0
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            closing += 1
        else:
            parent[ru] = rv
            comps -= 1
    return comps, closing


@lru_cache(maxsize=None)
def _chromatic_values(n: int, edges: frozenset, k_max: int) -> tuple:
    comps, closing = _components(n, edges)
    if not closing:
        return tuple(k**comps * (k - 1) ** (n - comps) for k in range(k_max + 1))
    # branch on an edge of a cycle, so that deleting it lowers the cycle rank
    e = next(e for e in sorted(edges) if _components(n, edges - {e})[0] == comps)
    u, v = e
    deleted = edges - {e}
    relabel = [u if w == v else (w if w < v else w - 1) for w in range(n)]
    contracted = frozenset(
        (min(relabel[a], relabel[b]), max(relabel[a], relabel[b]))
        for a, b in deleted
        if relabel[a] != relabel[b]
    )
    pd = _chromatic_values(n, deleted, k_max)
    pc = _chromatic_values(n - 1, contracted, k_max)
    return tuple(a - b for a, b in zip(pd, pc))


def chromatic_values(n: int, edges) -> tuple:
    """Proper colourings with k colours, for k = 0..n."""
    norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
    return _chromatic_values(n, norm, n)


def check_csf(stdout: bytes, n: int, edges) -> None:
    """The e-expansion specialised at k = 0..n counts proper k-colourings."""
    terms = parse_expansion(stdout.decode())
    expect(all(sum(lam) == n for lam in terms), "csf term of the wrong degree")
    want = chromatic_values(n, edges)
    got = tuple(specialize(terms, k) for k in range(n + 1))
    expect(got == want, f"csf specialisation {got} != chromatic values {want}")


# ---------------------------------------------------------------------------
# Connected partitions of spiders


def _packs(parts: tuple, caps: tuple, memo: dict) -> bool:
    """Can `parts` (decreasing) go into bins with these capacities?"""
    if not parts:
        return True
    key = (parts, caps)
    if key in memo:
        return memo[key]
    first, rest = parts[0], parts[1:]
    ok = False
    for i, cap in enumerate(caps):
        if cap >= first and (i == 0 or caps[i - 1] != cap):
            new = tuple(sorted(caps[:i] + (cap - first,) + caps[i + 1 :], reverse=True))
            if _packs(rest, new, memo):
                ok = True
                break
    memo[key] = ok
    return ok


def spider_missing_types(legs) -> list:
    """Types with no connected partition in the spider with these legs.

    A block avoiding the centre is a run of consecutive vertices inside one
    leg, and the centre's block takes a run next to the centre from each leg.
    So a type is realised iff, for some part p kept for the centre, the other
    parts pack into bins whose capacities are the leg lengths.
    """
    legs = tuple(sorted(legs, reverse=True))
    memo: dict = {}
    missing = []
    for lam in partitions(1 + sum(legs)):
        realised = any(
            _packs(lam[:i] + lam[i + 1 :], legs, memo)
            for i in range(len(lam))
            if i == 0 or lam[i - 1] != lam[i]
        )
        if not realised:
            missing.append(lam)
    return missing


def connparts_text(missing) -> bytes:
    """The `connparts` text the CLI prints for this missing-type list."""
    if not missing:
        return b"complete: a connected partition exists for every type\n"
    lines = [f"{len(missing)} missing type(s):"] + [fmt_parts(lam) for lam in missing]
    return ("\n".join(lines) + "\n").encode()


def check_witness(blocks, n: int, edges, lam) -> None:
    """Blocks are disjoint, cover 0..n-1, induce connected subgraphs, have type lam."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    for block in blocks:
        block = set(block)
        expect(not (seen & block), "witness blocks overlap")
        seen |= block
        start = min(block)
        reach, todo = {start}, [start]
        while todo:
            for w in adj[todo.pop()] & block:
                if w not in reach:
                    reach.add(w)
                    todo.append(w)
        expect(reach == block, f"witness block {sorted(block)} is not connected")
    expect(seen == set(range(n)), "witness blocks do not cover the vertices")
    sizes = tuple(sorted((len(b) for b in blocks), reverse=True))
    expect(sizes == tuple(lam), f"witness type {sizes} != {tuple(lam)}")


def spider_edges(legs) -> list:
    """Edges of the CLI's `spider:` shorthand: centre 0, each leg leaf-first."""
    edges, offset = [], 1
    for length in sorted(legs, reverse=True):
        edges += [(i, i + 1) for i in range(offset, offset + length - 1)]
        edges.append((offset + length - 1, 0))
        offset += length
    return edges


# ---------------------------------------------------------------------------
# Certificates


def arm_of(a: int, b: int, cs) -> str:
    """Which obstruction arm the profile falls in, in the theorem's order."""
    c, c1 = sum(cs), max(cs)
    if c < 2:
        return "none"
    if b <= 2 * c - 2:
        return "interval"
    if c >= c1 + 1 and b == 2 * c - 1:
        return "b-2c-1"
    if 2 * c <= b and 2 * b <= c * c:
        return "q-search"
    if c >= c1 + 2 and 2 * b >= c * c:
        return "two-values"
    return "none"


ARM_KINDS = {
    "interval": {"explicit-interval"},
    "b-2c-1": {"special-b-2c-1", "q-interval"},
    "q-search": {"q-interval"},
    "two-values": {"parts-c-c1"},
}


def every_ordering_hits(parts, lo: int, hi: int) -> bool:
    """True iff every ordering of parts has a proper prefix sum in [lo, hi].

    Search over the multiset left to place: an ordering escapes once its
    prefix sum passes hi without landing in the window.
    """
    values = sorted(set(parts))
    start = tuple(parts.count(v) for v in values)
    todo, seen = [(start, 0)], {start}
    while todo:
        state, acc = todo.pop()
        for i, mult in enumerate(state):
            s = acc + values[i]
            if not mult or lo <= s <= hi:
                continue
            if s > hi:  # the window lies below the total, so this ordering escaped
                return False
            nxt = state[:i] + (mult - 1,) + state[i + 1 :]
            if nxt not in seen:
                seen.add(nxt)
                todo.append((nxt, s))
    return True


def check_certificate(stdout: bytes, a: int, b: int, cs) -> None:
    """A verified certificate of the arm's kind: a type of n, parts > c1, and
    every ordering of it puts a prefix sum in the cut window [b+1, b+c]."""
    cert = json.loads(stdout)
    n = a + b + sum(cs) + 1
    expect(cert.get("verified") is True, "certificate not verified")
    expect(cert["profile"] == {"a": a, "b": b, "cs": list(cs)}, "certificate for another profile")
    expect(cert["kind"] in ARM_KINDS[arm_of(a, b, cs)], f"unexpected kind {cert['kind']}")
    lam = cert["lambda"]
    expect(sum(lam) == n and min(lam) > max(cs), f"bad certificate type {lam}")
    expect(every_ordering_hits(lam, b + 1, b + sum(cs)), f"some ordering of {lam} avoids the window")
