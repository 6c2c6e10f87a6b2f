"""Missing-type certificates for graphs with a cut vertex.

Given a cut-vertex profile (a, b, c_1..c_k), a type lam is provably missing
when every ordering of its parts has a prefix sum inside I = [b+1, b+c] and
all parts exceed c_1.  This module builds and verifies such certificates:
the direct interval argument, the q-compressed interval argument, the
two-value (c-1/c) argument, and the exact-arithmetic selection of q for
large parameters, plus the two exhaustive parameter sweeps and the
four-leg-spider classifier.

All threshold comparisons use exact integer arithmetic (cross-multiplied
rationals, integer square roots); no floats touch a decision.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Dict, Iterator, List, Optional, Tuple

from .graphs import ConnectedPartition, CutProfile, spider
from .partitions import interval_partition, partial_sums, partitions_of, two_coin_representation

CERT_KINDS = ("explicit-interval", "q-interval", "parts-c-c1", "special-b-2c-1")
# the most parts a certificate's type may have, half of what fits in 1 GiB: under a 1 GiB
# address-space cap, prove fits 2*10^7 parts in every arm but not 3*10^7 of 13 digits
PART_BUDGET = 10_000_000


class PartBudgetError(RuntimeError):
    """A certificate's type would have more than PART_BUDGET parts."""


def _check_part_count(parts: int) -> None:
    """Raise PartBudgetError before a type of this many parts is built."""
    if parts > PART_BUDGET:
        raise PartBudgetError(f"size guard, a type of {parts} parts > {PART_BUDGET}")


@dataclass(frozen=True)
class MissingTypeCertificate:
    """Machine-checkable witness that `lam` has no connected partition.

    Valid for every connected graph whose cut-vertex profile is `profile`.
    The constructor checks the parts against `window` (interval kinds) and the
    prefix-sum criterion, so every certificate that exists is verified.
    """

    verified = True  # a class constant, not a field: construction verifies

    profile: CutProfile
    lam: Tuple[int, ...]
    kind: str
    q: Optional[int] = None

    def __post_init__(self):
        if self.kind not in CERT_KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if (self.kind == "q-interval") != (self.q is not None):
            raise ValueError(f"q-interval needs q and no other kind takes one, got {self.kind} with q={self.q}")
        if self.kind in ("explicit-interval", "q-interval"):
            window = self.window
            if window is None or not (window[0] <= min(self.lam) and max(self.lam) <= window[1]):
                raise ValueError(f"{self.kind} certificate has a part outside its window {window}")
        if not check_partsums_obstruction(self.lam, self.profile):
            raise ValueError(f"type {self.lam} fails the prefix-sum criterion for {self.profile}")

    @property
    def window(self) -> Optional[Tuple[int, int]]:
        """(x, y) = q_interval(b, c, q) of an interval kind, with q = 1 for explicit-interval
        (only a q-interval certificate carries q); None for the other kinds."""
        if self.kind in ("explicit-interval", "q-interval"):
            return q_interval(self.profile.b, self.profile.c, 1 if self.q is None else self.q)
        return None

    def to_json_dict(self) -> dict:
        out = {
            "profile": {"a": self.profile.a, "b": self.profile.b, "cs": list(self.profile.cs)},
            "lambda": list(self.lam),
            "kind": self.kind,
        }
        if self.q is not None:
            out["q"] = self.q
        if self.window is not None:
            out["x"], out["y"] = self.window
        out["verified"] = self.verified
        return out


@dataclass(frozen=True)
class QSelectionTrace:
    """Which rule produced q for (b, c), with the case-4 division internals."""

    b: int
    c: int
    case: int
    q: int
    x: int
    y: int
    internals: Optional[dict] = None


def check_partsums_obstruction(lam, profile: CutProfile) -> bool:
    """True iff all parts exceed c1 and every ordering hits [b+1, b+c].

    An ordering avoids the window iff some part p follows a sub-multiset S of
    the other parts with sum(S) <= b and sum(S) + p > b+c: put S first, then
    p, then the rest.  A largest part serves as p whenever any part does, so
    this needs only the largest subset sum <= b of the other parts.  One pass
    counts the parts of each value, so the type is never copied.  The sums <= b
    are built as a set, one run of equal parts at a time, largest first, but the
    last run only extends each sum as far as it stays <= b: with two part values
    v1 > v2, the set holds at most b/v1 + 1 sums.
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


def q_interval(b: int, c: int, q: int) -> Optional[Tuple[int, int]]:
    """The window (x, y) = (ceil((b+1)/q), floor((b+c)/q)), or None when x > y;
    at q = 1 it is [b+1, b+c], the prefix-sum window forced by the cut vertex.
    ceil((b+1)/q) = b//q + 1, since b//q < (b+1)/q <= b//q + 1."""
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    x, y = b // q + 1, (b + c) // q
    return (x, y) if x <= y else None


def strategy_check(b: int, c: int, q: int) -> bool:
    """True iff q's window (x, y) = q_interval(b, c, q) has c < x < y and
    ceil((x-1)/(y-x)) * x <= 2b + c + 1.  The ceiling is (y-2) // (y-x), since
    ceil(a/d) = (a + d - 1) // d for d >= 1."""
    x, y = q_interval(b, c, q) or (0, 0)
    return c < x < y and (y - 2) // (y - x) * x <= 2 * b + c + 1


def analysis_q(b: int, c: int) -> QSelectionTrace:
    """Select a block count q for c >= 500, 2c <= b <= c^2/2, exactly.

    Case thresholds c^2/20, c^2/4.2, c^2/3.4 are compared via scaled integers;
    the square-root choices use the largest integer whose scaled square stays
    below the target.  The first matching case in listed order wins, and the
    chosen q is verified against all three window conditions before returning.
    """
    if c < 500:
        raise ValueError(f"need c >= 500, got {c}")
    if not (2 * c <= b and 2 * b <= c * c):
        raise ValueError(f"need 2c <= b <= c^2/2, got b={b}, c={c}")

    internals = None
    if 20 * b <= c * c:
        case, q = 1, b // c
    elif 21 * b <= 5 * c * c:  # b <= c^2/4.2
        case, q = 2, b // c
    elif 17 * b <= 5 * c * c:  # b <= c^2/3.4
        # largest q with q <= 0.46*sqrt(b), i.e. 10000*q^2 <= 2116*b
        case, q = 3, math.isqrt(2116 * b // 10000)
    else:
        # largest q0 with 3.5*q0^2 <= b, i.e. 7*q0^2 <= 2b
        q0 = math.isqrt(2 * b // 7)
        c0, r0 = divmod(b + 1, q0)
        q = q0 if 100 * r0 >= 38 * q0 else q0 - 1
        r1 = c0 - 3 * q0
        internals = {"q0": q0, "c0": c0, "r0": r0, "r1": r1, "r": r0 + r1 + 3}
        case = 4

    if not strategy_check(b, c, q):
        raise RuntimeError(f"selected q={q} fails verification for b={b}, c={c} (case {case})")
    x, y = q_interval(b, c, q)
    return QSelectionTrace(b=b, c=c, case=case, q=q, x=x, y=y, internals=internals)


def theorem_decide(profile: CutProfile) -> Optional[MissingTypeCertificate]:
    """Dispatch the four obstruction arms in order; None if none applies.

    Arms: (1) b <= 2c-2 takes the window itself as the part range;
    (2) b = 2c-1 with c > c1 uses all 2s (c=2) or halving (q=2);
    (3) 2c <= b <= c^2/2 scans q down from b // c1 (closed-form selection once c >= 500);
    (4) b >= c^2/2 with c >= c1+2 uses parts from {c-1, c}.
    Every certificate is verified against the prefix-sum criterion when built.
    Raises PartBudgetError, before building it, for a type of more than PART_BUDGET parts.
    """
    b, c, c1, n = profile.b, profile.c, profile.c1, profile.n
    if c < 2:
        return None

    if b <= 2 * c - 2:
        kind, qs = "explicit-interval", (1,)  # the window [b+1, b+c] itself
    elif c >= c1 + 1 and b == 2 * c - 1:
        if c == 2:
            # b = 3: all 2s when n is even, a single leading 3 otherwise
            _check_part_count(n // 2)
            lam = (2,) * (n // 2) if n % 2 == 0 else (3,) + (2,) * ((n - 3) // 2)
            return MissingTypeCertificate(profile, lam, "special-b-2c-1")
        kind, qs = "q-interval", (2,)
    elif 2 * c <= b and 2 * b <= c * c:
        kind, qs = "q-interval", range(b // c1, 0, -1) if c < 500 else (analysis_q(b, c).q,)
    elif c >= c1 + 2 and 2 * b >= c * c:
        two_coin = two_coin_representation(n, c)
        if two_coin is None:
            raise RuntimeError(f"two-coin witness unexpectedly absent for {profile}")
        a1, a2 = two_coin
        _check_part_count(a1 + a2)
        return MissingTypeCertificate(profile, (c,) * a1 + (c - 1,) * a2, "parts-c-c1")
    else:
        return None

    # the first q whose window holds a partition of n.  Each q puts x above c1: x = b + 1
    # at q = 1, x = c >= c1 + 1 at q = 2 with b = 2c - 1, x > b/q >= c1 for q <= b // c1,
    # and x > c when analysis_q picks q.  The certificate's prefix-sum check still tests that.
    for q in qs:
        window = q_interval(b, c, q)
        if window is None:
            continue
        t = -(-n // window[1])  # the fewest parts <= y; the window holds a partition iff t*x <= n
        if t * window[0] <= n:
            _check_part_count(t)
            lam = interval_partition(n, *window)
            return MissingTypeCertificate(profile, lam, kind, q=q if kind == "q-interval" else None)
    raise RuntimeError(f"interval witness unexpectedly absent for {profile}")


def describe_inapplicability(profile: CutProfile) -> str:
    """Human-readable reasons each obstruction arm fails for this profile."""
    b, c, c1 = profile.b, profile.c, profile.c1
    if c < 2:
        return f"c = {c} < 2: no arm applies"
    reasons = []
    if b > 2 * c - 2:
        reasons.append(f"b = {b} > 2c-2 = {2 * c - 2}")
    if b != 2 * c - 1:
        reasons.append(f"b = {b} != 2c-1 = {2 * c - 1}")
    elif c < c1 + 1:
        reasons.append(f"b = 2c-1 but c = {c} < c1+1 = {c1 + 1}")
    if not (2 * c <= b and 2 * b <= c * c):
        reasons.append(f"b = {b} outside [2c, c^2/2] = [{2 * c}, {c * c / 2:g}]")
    if 2 * b < c * c:
        reasons.append(f"2b = {2 * b} < c^2 = {c * c}")
    elif c < c1 + 2:
        reasons.append(f"b >= c^2/2 but c = {c} < c1+2 = {c1 + 2}")
    return "; ".join(reasons)


# ---------------------------------------------------------------------------
# Computer sweeps


@dataclass
class SweepReport:
    kind: str
    params: dict
    cells: int
    failures: List[tuple]
    wall_time_ms: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "cells": self.cells,
            "failures": [list(f) for f in self.failures],
            "wall_time_ms": self.wall_time_ms,
        }


def _uncovered(n_lo: int, n_hi: int, windows) -> List[int]:
    """The n in [n_lo, n_hi] that no range [t*x, t*y], t >= 1, of any window (x, y) covers.

    From t0 = ceil((x-1)/(y-x)) = (y-2) // (y-x) on, t*y + 1 >= (t+1)*x, so the ranges
    of a window with y > x touch and cover the tail [t0*x, oo).  A tail that starts at or
    below n_lo covers everything: at n_lo = 2b + c + 1 that is strategy_check's test.  Else
    each window adds its tail and its ranges below t0, and one sorted pass finds the gaps.
    """
    spans: List[Tuple[int, int]] = []
    for x, y in windows:
        t_end = n_hi // x + 1  # the first t with t*x > n_hi
        if y > x:
            t0 = (y - 2) // (y - x)
            if t0 * x <= n_lo:
                return []
            spans.append((t0 * x, n_hi))
            t_end = min(t_end, t0)
        spans.extend((t * x, t * y) for t in range(max(1, -(-n_lo // y)), t_end))
    gaps, lo = [], n_lo
    for start, end in sorted(spans):
        gaps.extend(range(lo, min(start, n_hi + 1)))
        lo = max(lo, end + 1)
    gaps.extend(range(lo, n_hi + 1))
    return gaps


def _c40_scan_c(c: int) -> Tuple[int, List[tuple], List[tuple]]:
    """All (b, n) cells for one c: coverage by some q-compressed interval.

    For fixed (b, c) the n values realizable with block count q and t parts
    form the range [t*x, t*y]; their union over every q <= b/c, where
    x = b//q + 1 >= c+1, decides every cell of the n-window exactly.
    """
    cells = 0
    failures: List[tuple] = []
    rows: List[tuple] = []
    for b in range(2 * c, c * c // 2 + 1):
        n_lo = 2 * b + c + 1
        n_hi = (-(-b // (c - 1))) * (b + 1)
        windows = filter(None, (q_interval(b, c, q) for q in range(b // c, 0, -1)))
        miss = _uncovered(n_lo, n_hi, windows)
        width = n_hi - n_lo + 1
        cells += width
        failures.extend((b, c, n) for n in miss)
        rows.append((c, b, n_lo, n_hi, width, len(miss)))
    return cells, failures, rows


def _sweep(kind: str, params: dict, scan, items: list, jobs: int, rows) -> SweepReport:
    """Run a per-c scan over items, folding each c's (cells, failures, rows) as it
    arrives; rows, when given, is called with each c's iterable of rows in c
    order, and no row outlives its c."""
    start = time.perf_counter()
    cells, failures = 0, []
    for c_cells, c_failures, c_rows in parallel_map(scan, items, jobs):
        cells += c_cells
        failures += c_failures
        if rows is not None:
            rows(c_rows)
    return SweepReport(kind, params, cells, failures, int((time.perf_counter() - start) * 1000))


# each sweep's c bounds: c40 is exhaustive in (b, c, n), c500 takes the c above it
SWEEP_C_BOUNDS = {"c40": (2, 40), "c500": (41, 500)}


def check_c_range(kind: str, c_lo: int, c_hi: int) -> None:
    """Raise ValueError unless c_lo..c_hi lies within SWEEP_C_BOUNDS[kind]."""
    lo, hi = SWEEP_C_BOUNDS[kind]
    if not lo <= c_lo <= c_hi <= hi:
        raise ValueError(f"bad c range {c_lo}..{c_hi} (need {lo} <= lo <= hi <= {hi})")


def sweep_c40(c_lo: int = SWEEP_C_BOUNDS["c40"][0], c_hi: int = SWEEP_C_BOUNDS["c40"][1],
              jobs: int = 1, rows=None) -> SweepReport:
    """Exhaustive (b, c, n) sweep for 2 <= c <= 40, 2c <= b <= c^2/2.

    Confirms that every n in [2b+c+1, ceil(b/(c-1))*(b+1)] admits a
    q-compressed interval certificate with x >= c+1 (so any admissible c1 is
    covered).  Expected outcome: zero failure cells.  rows, when given, is
    called with each c's (c, b, n_lo, n_hi, cells, failures) rows in c order.
    """
    check_c_range("c40", c_lo, c_hi)
    params = {"c_lo": c_lo, "c_hi": c_hi}
    return _sweep("c40", params, _c40_scan_c, list(range(c_lo, c_hi + 1)), jobs, rows)


def _c500_scan_c(args: tuple) -> Tuple[int, List[tuple], Iterator[tuple]]:
    """All (b, c) cells for one c: the largest q <= b/c that passes strategy_check, or 0.

    Each q is tested inline by strategy_check's floor divisions, without a call per q.
    The rows (c, b, q) come back as an iterator over the list of q, so that until a
    sink reads them they cost one pointer per cell, not one tuple.
    """
    c, b_stride = args
    bs = range(2 * c, c * c // 2 + 1, b_stride)
    found, failures = [], []
    for b in bs:
        bc, reach, q = b + c, 2 * b + c + 1, b // c
        while q:
            x, y = b // q + 1, bc // q
            if c < x < y and (y - 2) // (y - x) * x <= reach:
                break
            q -= 1
        else:
            failures.append((b, c))
        found.append(q)
    return len(bs), failures, zip(repeat(c), bs, found)


def sweep_c500(c_lo: int = SWEEP_C_BOUNDS["c500"][0], c_hi: int = SWEEP_C_BOUNDS["c500"][1],
               mode: str = "full", jobs: int = 1, rows=None) -> SweepReport:
    """Per-(b, c) sweep for 41 <= c <= 500: some q passes strategy_check.

    Full mode visits every pair; sampled mode walks a deterministic lattice
    (every 7th b, every 3rd c).  Expected outcome: zero failures.  rows,
    when given, is called with each c's (c, b, q) rows in c order, q = 0
    where none passes.
    """
    check_c_range("c500", c_lo, c_hi)
    if mode not in ("full", "sampled"):
        raise ValueError(f"bad mode {mode!r}")
    c_stride, b_stride = (3, 7) if mode == "sampled" else (1, 1)
    params = {"c_lo": c_lo, "c_hi": c_hi, "mode": mode}
    cs = [(c, b_stride) for c in range(c_lo, c_hi + 1, c_stride)]
    return _sweep("c500", params, _c500_scan_c, cs, jobs, rows)


def worker_count(jobs: int, items: int) -> int:
    """Processes worth starting: at most one per item and one per core."""
    return max(1, min(jobs, items, os.cpu_count() or 1))


def _map_chunk(fn, chunk: list) -> list:
    """fn over one chunk of items, in a worker process."""
    return [fn(item) for item in chunk]


def parallel_map(fn, items: list, jobs: int) -> Iterator:
    """Map fn over independent work items, across processes when jobs > 1.

    The pool starts every worker at once, so its size is clamped by
    worker_count.  Items go out in chunks of about 1/64 of each worker's
    share, so that thousands of small items do not each pay a round trip.
    Results are yielded in item order, so output is identical for any job
    count.  At most two chunks per worker are in flight or waiting to be
    yielded, so a slow consumer holds back the workers, not their results.
    """
    workers = worker_count(jobs, len(items))
    if workers == 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ProcessPoolExecutor

    size = max(1, len(items) // (64 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        ahead = deque()
        for i in range(0, len(items), size):
            ahead.append(pool.submit(_map_chunk, fn, items[i : i + size]))
            if len(ahead) == 2 * workers:
                yield from ahead.popleft().result()
        while ahead:
            yield from ahead.popleft().result()


# ---------------------------------------------------------------------------
# Four-leg spiders


@dataclass(frozen=True)
class Spider4Verdict:
    """Classification of a four-leg spider: always not e-positive."""

    e_positive = False  # a class constant, not a field: every verdict is negative

    legs: Tuple[int, ...]
    profile: CutProfile
    method: str  # "obstruction-certificate" | "external:zheng-cor-4.6"
    certificate: Optional[MissingTypeCertificate]
    note: str


def spider4_classify(legs) -> Spider4Verdict:
    """Classify a four-leg spider as not e-positive, with the reason.

    When b <= c^2/2 the obstruction arms produce a missing-type certificate;
    otherwise n >= c^2 + c + 1 and the verdict rests on Zheng's published
    result for long-legged spiders (cited, not re-proved).
    """
    legs = tuple(sorted((int(l) for l in legs), reverse=True))
    if len(legs) != 4:
        raise ValueError(f"need exactly 4 legs, got {legs}")
    profile = CutProfile(legs[0], legs[1], legs[2:])
    b, c, n = profile.b, profile.c, profile.n
    if 2 * b > c * c:
        note = f"n = {n} >= c^2+c+1 = {c * c + c + 1}; not e-positive by Zheng, Cor. 4.6"
        return Spider4Verdict(legs, profile, "external:zheng-cor-4.6", None, note)
    cert = theorem_decide(profile)
    if cert is None:
        raise RuntimeError(f"no obstruction arm applied for 4-leg spider {legs}")
    note = f"missing connected partition of type {cert.lam}"
    return Spider4Verdict(legs, profile, "obstruction-certificate", cert, note)


# ---------------------------------------------------------------------------
# Spiders S(6m, 6m-2, 1, 1): every type has a connected partition


@dataclass(frozen=True)
class SixmConstruction:
    """How a type lam is realized in S(6m, 6m-2, 1, 1)."""

    m: int
    lam: Tuple[int, ...]
    case: str  # "two-ones" or "all-twos-one" (no alpha), else the rule that ordered alpha
    alpha: Optional[Tuple[int, ...]] = None


def sixm_rearrangement(lam, m: int) -> SixmConstruction:
    """Find an ordering of lam whose prefix sums skip {6m-1, 6m}.

    Types with two 1s, or all 2s plus one 1, are flagged for the direct
    two-leaf construction instead.  Any other weakly decreasing type has at
    most one part 1, which comes last, and a part >= 3.  With S its proper
    prefix sums and w = 6m, one rule orders it:

    * identity, when S misses {w-1, w};
    * reversal, when S misses {w+1, w+2}: the reversed prefix sums are n - S;
    * otherwise move the largest part parts[0].  If w-1 is in S, the part
      after that prefix is a 2 or a 3 and parts[0] goes right behind it
      (two-between, three-between-big).  Else w and w+2 are in S, and the
      output is (2)^(3m-1), parts[0], 1, 2, then the ascending rest less one
      parts[0] (two-between-flat-reversed).

    Why these suffice: the 1 follows the prefix 12m, so no 1 follows a prefix
    from w-1 to w+1.  If w-1 is in S and a part >= 4 follows it, the mirror
    window {w+1, w+2} is missed.  A head of parts >= 2 summing to the odd
    6m-1 has a part >= 3, and a head of parts >= 3 summing to 6m-1 = 2 (mod 3)
    has a part >= 4, so parts[0] is bigger than the part it passes and the
    new prefix jumps from below w-1 to past w.  Read in ascending order, only
    the 1 and 2s reach 6m-1, which fixes the last ordering's head.  Every
    returned ordering is checked to avoid the window and keep the multiset.
    """
    parts = tuple(sorted(lam, reverse=True))
    n = 12 * m + 1
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if sum(parts) != n:
        raise ValueError(f"type {parts} does not sum to {n}")

    if parts.count(1) >= 2:
        return SixmConstruction(m=m, lam=parts, case="two-ones")
    if set(parts) <= {1, 2}:
        # n odd and at most one 1 leaves exactly (2,...,2,1)
        return SixmConstruction(m=m, lam=parts, case="all-twos-one")

    w = 6 * m
    sums = partial_sums(parts)
    if not {w - 1, w} & sums:
        alpha, case = parts, "identity"
    elif not {w + 1, w + 2} & sums:
        alpha, case = parts[::-1], "reversal"
    elif w - 1 in sums:
        k = list(accumulate(parts)).index(w - 1) + 1  # parts[k] follows the prefix w-1
        alpha = parts[1:k] + (parts[k], parts[0]) + parts[k + 1 :]
        case = "two-between" if parts[k] == 2 else "three-between-big"
    else:
        alpha = (2,) * (3 * m - 1) + (parts[0], 1, 2) + parts[::-1][3 * m + 1 : -1]
        case = "two-between-flat-reversed"

    if {w - 1, w} & partial_sums(alpha):
        raise RuntimeError(f"construction failed for {parts} (case {case})")
    if tuple(sorted(alpha, reverse=True)) != parts:
        raise RuntimeError(f"construction changed the multiset for {parts}")
    return SixmConstruction(m=m, lam=parts, case=case, alpha=alpha)


def sixm_connected_partition(rec: SixmConstruction) -> ConnectedPartition:
    """Materialize the vertex blocks on S(6m, 6m-2, 1, 1) for a construction.

    Spider labels: center 0; the long leg (6m) is 1..6m leaf-first; the short
    leg (6m-2) is 6m+1..12m-2 leaf-first; the leaf legs are 12m-1 and 12m.
    Less those two, the spider is one path P: the short leg from its leaf, the
    center at position 6m-2, the long leg out to its leaf.  Each block is a run
    of P, and each leaf is a block of its own or joins the center's run:

    * two-ones: both leaves stand alone; the other parts cut P in any order;
    * all-twos-one: leaf 12m-1 stands alone and P is cut into runs of 2, but
      the run at the (even) center position is the center, and 12m joins it;
    * an ordering alpha: both leaves join.  The prefix sums of alpha skip
      {6m-1, 6m}, so one part jumps from at most 6m-2 to at least 6m+1, and
      its run, two vertices shorter, still holds the center.
    """
    m = rec.m
    alone = {"two-ones": 2, "all-twos-one": 1}.get(rec.case, 0)
    parts = rec.lam[: len(rec.lam) - alone] if rec.alpha is None else rec.alpha
    path = [*range(6 * m + 1, 12 * m - 1), 0, *range(6 * m, 0, -1)]
    center = 6 * m - 2
    leaves = [12 * m - 1, 12 * m]
    blocks = [[leaf] for leaf in leaves[:alone]]
    join = leaves[alone:]
    pos = 0
    for p in parts:
        if pos <= center < pos + p - len(join):  # this run, less the leaves, holds the center
            p -= len(join)
            blocks.append(path[pos : pos + p] + join)
            join = []
        else:
            blocks.append(path[pos : pos + p])
        pos += p
    if pos != len(path):  # also when no run held the center for the joining leaves
        raise RuntimeError(f"the runs of {parts} do not end at the end of P for {rec}")
    return ConnectedPartition(blocks)


@dataclass
class SixmReport:
    m: int
    total: int
    case_tallies: Dict[str, int]
    failures: List[tuple]
    materialized: int

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "total": self.total,
            "case_tallies": dict(sorted(self.case_tallies.items())),
            "failures": [list(f) for f in self.failures],
            "materialized": self.materialized,
        }


def sixm_full_check(m: int) -> SixmReport:
    """Run the construction for every type of 12m+1; materialize when m = 1.

    For m = 1 every construction is turned into actual vertex blocks on
    S(6, 4, 1, 1) and validated (disjoint, covering, connected, right sizes).
    """
    if not 1 <= m <= 3:
        raise ValueError(f"need 1 <= m <= 3, got {m}")
    n = 12 * m + 1
    G = spider((6 * m, 6 * m - 2, 1, 1)) if m == 1 else None
    tallies: Dict[str, int] = {}
    failures: List[tuple] = []
    total = 0
    materialized = 0
    for lam in partitions_of(n):
        total += 1
        try:
            rec = sixm_rearrangement(lam, m)
            tallies[rec.case] = tallies.get(rec.case, 0) + 1
            if m == 1:
                cp = sixm_connected_partition(rec)
                cp.validate(G, lam)
                materialized += 1
        except (RuntimeError, AssertionError) as exc:  # the construction's own; a crash propagates
            failures.append((lam, repr(exc)))
    return SixmReport(m, total, tallies, failures, materialized)
