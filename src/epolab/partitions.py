"""Integer partitions and their packed keys, prefix sums, interval representability.

A partition is a nonempty tuple of positive ints in weakly decreasing order.
parse_partition checks this for outside input; the generators here produce
nothing else.  All arithmetic is exact (Python ints).
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from typing import Iterator, Optional, Tuple


def format_parts(parts) -> str:
    """Render parts as "(4,4,3,2)"."""
    return "(" + ",".join(str(p) for p in parts) + ")"


def parse_partition(text: str) -> tuple:
    """Parse "(4, 4,3,2)" or "4,4,3,2" leniently (whitespace ignored)."""
    s = "".join(text.split())
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        raise ValueError(f"empty partition text: {text!r}")
    try:
        parts = tuple(int(tok) for tok in s.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}") from None
    if min(parts) < 1:
        raise ValueError(f"parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts}")
    return parts


def partial_sums(alpha) -> frozenset:
    """Set of proper prefix sums of a composition (empty for a single part)."""
    return frozenset(accumulate(tuple(alpha)[:-1]))


def partitions_of(n: int) -> Iterator[tuple]:
    """All partitions of n, each exactly once, in reverse-lexicographic order.

    (n) comes first and (1,...,1) last; this is the canonical stream order
    used for rendering expansions and missing-type lists.  Each steps to the next
    by Zoghbi and Stojmenovic's ZS1: the last part v > 1 drops to v-1, and the 1
    it frees plus the trailing 1s refill greedily as parts v-1 and one remainder.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    parts, m, h = [n] + [1] * (n - 1), 1, 0  # the partition parts[:m]; parts[h] is its last part > 1
    yield (n,)
    while parts[0] > 1:
        v = parts[h] - 1
        if v == 1:
            parts[h], m, h = 1, m + 1, h - 1
        else:
            k, t = divmod(m - h, v)  # m - h: the freed 1 and the trailing 1s
            parts[h:h + k + 1] = [v] * (k + 1)
            h += k
            m = h + 1 + (t > 0)
            if t > 1:
                h += 1
                parts[h] = t
        yield tuple(parts[:m])


# A multiset of part sizes, whether a partition, a component-size type or an
# e-monomial, is also packed into one int: part p adds 1 << 5*(p-1), so two
# multisets merge by one addition.  Each multiplicity must stay below 32,
# which holds for every multiset of total n <= 31.
@cache
def packed_partitions(n: int) -> Tuple[Tuple[tuple, int], ...]:
    """(lam, packed key) for every partition of n, in stream order."""
    return tuple((lam, sum(1 << 5 * (p - 1) for p in lam)) for lam in partitions_of(n))


def interval_partition(n: int, x: int, y: int) -> Optional[tuple]:
    """A partition of n with every part in [x, y], or None; needs 1 <= x <= y.

    With t parts from the interval the reachable totals are exactly
    [t*x, t*y], so existence is decided exactly by scanning t.  The witness
    uses the smallest feasible t (maximal parts first): write n = t*q + r and
    take r parts (q+1) followed by (t-r) parts q.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 1 <= x <= y:
        raise ValueError(f"need 1 <= x <= y, got [{x}, {y}]")
    t = -(-n // y)  # smallest t with t*y >= n; at least 1 since n >= 1
    if t * x > n:
        return None
    q, r = divmod(n, t)
    # t*x <= n <= t*y guarantees x <= q and (q < y or r == 0)
    return (q + 1,) * r + (q,) * (t - r)


def two_coin_representation(n: int, c: int) -> Optional[tuple]:
    """Nonnegative (a1, a2) with n = a1*c + a2*(c-1), smallest a1 first.

    Guaranteed to exist for n >= (c-1)(c-2).  Since a1 = n (mod c-1), the
    smallest candidate is n % (c-1); if even it overshoots n, none fits.
    """
    if c < 3:
        raise ValueError(f"need c >= 3, got {c}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a1 = n % (c - 1)
    if a1 * c > n:
        return None
    return (a1, (n - a1 * c) // (c - 1))
