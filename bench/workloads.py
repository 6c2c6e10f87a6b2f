"""The four workloads: seeded inputs, the epolab invocations that consume them,
and the check each invocation's output must pass.

Each workload is a closed loop of fresh-interpreter CLI calls, one at a time,
as a researcher issues them. Why each exists and which ROADMAP item it judges:

- trees (item 2, Waring p->e): `trees-scan 13` with a fresh cache, again on the
  warm cache, then `csf` on five 20-vertex trees (two spiders, three random).
  This path is the tree DP plus p->e conversion plus free-tree enumeration; at
  n = 20 p->e is most of `csf_e`. The cold and warm scans drive the result
  cache as writer and as reader. NBC enumeration must show no change here,
  because the tree DP stays.
- cyclic (item 2, NBC): `csf`/`epos` on ten connected non-tree graphs from
  (n, |E|) = (7, 12) to (14, 17), plus K6. The 2^|E| subset tally is over 95%
  of each call and p->e is negligible at n <= 14; NBC must show its gain here.
  |E| stays <= 17 so a run stays short before NBC lands (K7 alone takes 24 s).
- partitions (item 4): `connparts` on four 22-24 vertex spiders with no
  Hamiltonian path, on six 23-25 vertex graphs that have one, and six
  single-type `--type` queries, present and absent. The search in `graphs`
  dominates; the Hamiltonian shortcut helps only the second group and a memo
  shared across types only full `missing_types`, so a gain for one use that
  costs another shows.
- certify (item 5, with setup_s): `prove` on profiles covering all four
  obstruction arms and on spider graphs, then both sweeps and `sixm 3`. The
  only workload that runs `obstructions`. Certificates take under a
  millisecond, so `prove` calls are nearly pure start-up and dropping numpy
  should move cmd_p50_s here; the sweeps show `_c40_scan_c`/`_c500_scan_c`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import checks
from checks import expect


@dataclass
class Invocation:
    argv: List[str]  # arguments after `epolab`
    key: str  # names the invocation without work-directory paths
    kind: str  # item label for the recorded counts
    check: Callable[[bytes, int], None]
    # counts the traced run must report for this invocation alone
    trace_expect: Dict[str, int] = field(default_factory=dict)


def graph_file(workdir: Path, n: int, edges) -> tuple:
    """Write a graph file; return (path, key), the key naming it by content."""
    text = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))
    tag = hashlib.sha256(text.encode()).hexdigest()[:16]
    path = workdir / f"g{n}-{tag}.txt"
    path.write_text(text)
    return str(path), f"file:{tag}"


def exits(want: int, then: Callable[[bytes], None] = None) -> Callable[[bytes, int], None]:
    """A check: exit code `want`, then `then(stdout)`."""

    def check(out: bytes, code: int) -> None:
        expect(code == want, f"exit code {code}, expected {want}")
        if then:
            then(out)

    return check


def _equals(want: bytes, message: str) -> Callable[[bytes], None]:
    return lambda out: expect(out == want, message)


def _random_legs(rng: random.Random, n: int, legs: int) -> tuple:
    cuts = sorted(rng.sample(range(1, n - 1), legs - 1))
    return tuple(sorted((b - a for a, b in zip([0] + cuts, cuts + [n - 1])), reverse=True))


def _random_tree(rng: random.Random, n: int) -> list:
    """Uniform labelled tree from a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, v = (w for w in range(n) if degree[w] == 1)
    return edges + [(u, v)]


def _random_connected(rng: random.Random, n: int, m: int, path: bool) -> list:
    """n vertices, m edges: a random spanning tree (or Hamiltonian path) plus chords."""
    order = list(range(n))
    rng.shuffle(order)
    if path:
        edges = {tuple(sorted(order[i : i + 2])) for i in range(n - 1)}
    else:
        edges = {tuple(sorted((order[i], rng.choice(order[:i])))) for i in range(1, n)}
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    return sorted(edges | set(rng.sample(chords, m - (n - 1))))


def _csf(spec: str, key: str, n: int, edges) -> Invocation:
    return Invocation(["csf", spec], f"csf {key}", "csf", exits(0, lambda out: checks.check_csf(out, n, edges)))


# ---------------------------------------------------------------------------
# trees


def trees(rng: random.Random, workdir: Path) -> Callable[[int], List[Invocation]]:
    # all at n = 20, so that the calls around the median cost about the same
    csfs = []
    for legs in (3, 4):
        spider = _random_legs(rng, 20, legs)
        spec = "spider:" + ",".join(map(str, spider))
        csfs.append(_csf(spec, spec, 20, checks.spider_edges(spider)))
    for _ in range(3):
        edges = _random_tree(rng, 20)
        path, key = graph_file(workdir, 20, edges)
        csfs.append(_csf(path, key, 20, edges))

    def scan_pass(index: int) -> List[Invocation]:
        cache = workdir / f"scan-cache-{index}.jsonl"
        seen = {}

        def no_counterexample(out: bytes) -> None:
            expect(out.rstrip().endswith(b"fails e-positivity"), "trees-scan found a counterexample")
            seen.setdefault("cold", out)

        def same_as_cold(out: bytes) -> None:
            no_counterexample(out)
            expect(out == seen["cold"], "warm trees-scan output differs from cold")

        argv = ["trees-scan", "13", "--jobs", "1", "--cache", str(cache)]
        return [
            Invocation(argv, "trees-scan 13 cold-cache", "trees-scan", exits(0, no_counterexample)),
            Invocation(argv, "trees-scan 13 warm-cache", "trees-scan", exits(0, same_as_cold),
                       {"cli.cache.misses": 0}),
        ] + csfs

    return scan_pass


# ---------------------------------------------------------------------------
# cyclic

# (n, |E|): the 2^|E| tally sets the cost, so the sizes are fixed and the seed
# only draws the graphs. Five at |E| = 16 put calls of one cost at the median.
CYCLIC_SIZES = (
    (7, 12), (8, 13), (9, 14), (10, 16), (11, 16), (12, 16), (13, 16), (14, 16), (12, 17), (14, 17),
)


def cyclic(rng: random.Random, workdir: Path) -> Callable[[int], List[Invocation]]:
    invs = []
    for n, m in CYCLIC_SIZES:
        edges = _random_connected(rng, n, m, path=False)
        path, key = graph_file(workdir, n, edges)
        invs.append(_csf(path, key, n, edges))
    k6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    path, key = graph_file(workdir, 6, k6)
    invs.append(Invocation(["epos", path], f"epos {key}", "epos",
                           exits(0, _equals(b"e-positive\n", "K6 not e-positive"))))
    return lambda index: invs


# ---------------------------------------------------------------------------
# partitions

# Spiders without a Hamiltonian path whose full search takes 0.7-0.9 s of CPU
# on a 2-core Xeon, so that the seed changes which ones run but not the run
# length.
SPIDER_POOL = (
    (6, 6, 5, 4), (17, 1, 1, 1, 1), (9, 5, 4, 2, 1), (8, 7, 5, 1, 1), (12, 6, 1, 1, 1),
    (7, 7, 5, 3), (11, 8, 1, 1, 1), (9, 7, 4, 1, 1), (12, 5, 4, 2), (11, 7, 3, 2),
    (13, 6, 2, 1, 1), (10, 7, 4, 2), (11, 8, 2, 2), (16, 2, 1, 1, 1),
)


# (n, |E|) of the graphs built on a Hamiltonian path. With at most one chord
# each search takes 0.2-0.7 s whatever the seed draws, and these calls hold
# the workload's median.
HAMILTONIAN_SIZES = ((23, 23), (24, 24), (24, 23), (25, 24), (25, 25), (25, 24))


def _connparts_spider(legs, missing) -> Invocation:
    spec = "spider:" + ",".join(map(str, legs))
    check = exits(1 if missing else 0, _equals(checks.connparts_text(missing),
                                               f"missing types of {spec} differ from the spider oracle"))
    return Invocation(["connparts", spec], f"connparts {spec}", "connparts-spider", check)


def _type_query(legs, lam, present: bool) -> Invocation:
    spec = "spider:" + ",".join(map(str, legs))
    edges = checks.spider_edges(legs)
    n = 1 + sum(legs)

    def answer(out: bytes) -> None:
        got = json.loads(out)
        expect(got["present"] is present, f"{lam} reported present={got['present']}")
        if present:
            checks.check_witness(got["blocks"], n, edges, lam)

    argv = ["connparts", spec, "--type", ",".join(map(str, lam)), "--json"]
    return Invocation(argv, " ".join(argv), "connparts-type", exits(0 if present else 1, answer))


def partitions(rng: random.Random, workdir: Path) -> Callable[[int], List[Invocation]]:
    spiders = [(10, 6, 4, 2, 1)] + rng.sample(SPIDER_POOL, 3)
    missing = {legs: checks.spider_missing_types(legs) for legs in spiders}
    invs = [_connparts_spider(legs, missing[legs]) for legs in spiders]
    complete = exits(0, _equals(checks.connparts_text([]), "Hamiltonian graph misses a type"))
    for n, m in HAMILTONIAN_SIZES:
        path, key = graph_file(workdir, n, _random_connected(rng, n, m, path=True))
        invs.append(Invocation(["connparts", path], f"connparts {key}", "connparts-hamiltonian", complete))
    for i in range(6):
        legs = rng.choice(spiders)
        present = i % 2 == 1
        gone = set(missing[legs])
        pool = [lam for lam in checks.partitions(1 + sum(legs)) if (lam not in gone) is present]
        invs.append(_type_query(legs, rng.choice(pool), present))
    return lambda index: invs


# ---------------------------------------------------------------------------
# certify


def _profile(rng: random.Random, arm: str, c_range: tuple) -> tuple:
    """A random (a, b, cs) in the given obstruction arm, c drawn from c_range."""
    while True:
        c = rng.randint(*c_range)
        k = rng.randint(1 if arm in ("interval", "q-search") else 2, 4)
        if k > c:
            continue
        cuts = sorted(rng.sample(range(1, c), k - 1))
        cs = tuple(sorted((b - a for a, b in zip([0] + cuts, cuts + [c])), reverse=True))
        lo, hi = {
            "interval": (cs[0], 2 * c - 2),
            "b-2c-1": (2 * c - 1, 2 * c - 1),
            "q-search": (2 * c, c * c // 2),
            "two-values": (-(-c * c // 2), -(-c * c // 2) + 40),
        }[arm]
        if lo > hi:
            continue
        b = rng.randint(lo, hi)
        a = b + rng.randint(0, 12)
        if checks.arm_of(a, b, cs) == arm:
            return a, b, cs


def _prove(spec: str, a: int, b: int, cs) -> Invocation:
    check = exits(0, lambda out: checks.check_certificate(out, a, b, cs))
    return Invocation(["prove", spec], f"prove {spec}", "prove", check)


def _sweep(cells: int) -> Callable[[bytes, int], None]:
    def report_ok(out: bytes) -> None:
        report = json.loads(out)
        expect(report["failures"] == [], "sweep reports failures")
        expect(report["cells"] == cells, f"sweep covered {report['cells']} cells, expected {cells}")

    return exits(0, report_ok)


def _sixm_ok(out: bytes) -> None:
    expect(out.startswith(b"m=3: 21637/21637 types realized\n"), "sixm 3 does not realise every type")


# c = c1 + ... + ck for each arm's three profiles: two small and one large;
# c >= 500 takes the closed-form q selection in the q-search arm.
PROFILE_C = {
    "interval": ((2, 40), (2, 40), (41, 400)),
    "b-2c-1": ((2, 40), (2, 40), (41, 400)),
    "q-search": ((4, 40), (4, 40), (500, 800)),
    "two-values": ((2, 40), (2, 40), (41, 400)),
}
SPIDER_ARMS = ("interval", "b-2c-1", "q-search", "two-values", "interval", "q-search")


def certify(rng: random.Random, workdir: Path) -> Callable[[int], List[Invocation]]:
    invs = []
    for arm, c_ranges in PROFILE_C.items():
        for c_range in c_ranges:
            a, b, cs = _profile(rng, arm, c_range)
            invs.append(_prove(f"profile:a={a},b={b},cs=" + ",".join(map(str, cs)), a, b, cs))
    for arm in SPIDER_ARMS:
        a, b, cs = _profile(rng, arm, (4 if arm == "q-search" else 2, 6))
        invs.append(_prove("spider:" + ",".join(map(str, (a, b) + cs)), a, b, cs))
    invs += [
        Invocation(["sweep", "c40", "--jobs", "1"], "sweep c40", "sweep", _sweep(27_273_289)),
        Invocation(["sweep", "c500", "41..500", "--mode", "sampled", "--jobs", "1"],
                   "sweep c500 41..500 sampled", "sweep", _sweep(988_702)),
        Invocation(["sixm", "3"], "sixm 3", "sixm", exits(0, _sixm_ok)),
    ]
    return lambda index: invs


WORKLOADS = {"trees": trees, "cyclic": cyclic, "partitions": partitions, "certify": certify}


def plan(name: str, seed: int, workdir: Path) -> Callable[[int], List[Invocation]]:
    """The invocation list of one pass, by pass index, for this workload and seed."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, workdir)
