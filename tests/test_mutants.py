"""Mutation check of the verdict code (pytest -m slow).

Each mutant moves one decision boundary of `src/epolab` by one token: a
certificate arm or check, a sweep, a sign of the p->e conversion or of a tally
DP, the frontier DP's state budget, the open trees' profiles, branches or
deduplication, the (k, ..., k, r) block check, the scan's settle route, the
tree order's subtree sizes, the cut profiles' low-link pass, the sweeps' c
bounds, the scan cache's field check, the bound on work in flight, or the
parser's converters and choices.
It is applied to a fresh copy of src/, and the test files the mutant names run
on that copy: a mutant they fail on is killed.  A mutant that no test can kill,
because it changes no verdict, is listed as equivalent with the argument why,
and must then pass them.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OBS, PARTS, SYM, GRAPHS, CLI = "obstructions.py", "partitions.py", "symfunc.py", "graphs.py", "cli.py"
# the test files a mutant runs
CERT = ("tests/test_obstructions.py", "tests/test_partitions.py", "tests/test_records.py")
OBS_TESTS, SYM_TESTS = ("tests/test_obstructions.py",), ("tests/test_symfunc.py",)
GRAPHS_TESTS, CLI_TESTS = ("tests/test_graphs.py",), ("tests/test_cli.py",)
EQUIVALENT = "equivalent: "

# (name, file under src/epolab, old text, new text, reason, test files); the old text occurs once
MUTANTS = [
    ("arm1-le", OBS, "    if b <= 2 * c - 2:", "    if b < 2 * c - 2:",
     "b = 2c-2 loses arm 1 and falls to no arm", CERT),
    ("arm1-bound", OBS, "    if b <= 2 * c - 2:", "    if b <= 2 * c - 1:",
     "b = 2c-1 takes the window itself, which misses c1-sized parts", CERT),
    ("arm2-c1", OBS, "    elif c >= c1 + 1 and b == 2 * c - 1:", "    elif c > c1 + 1 and b == 2 * c - 1:",
     "c = c1+1 at b = 2c-1 loses arm 2", CERT),
    ("arm2-b", OBS, "    elif c >= c1 + 1 and b == 2 * c - 1:", "    elif c >= c1 + 1 and b == 2 * c:",
     "arm 2 moves off b = 2c-1", CERT),
    ("arm2-special", OBS, "        if c == 2:", "        if c <= 3:",
     "c = 3 takes the all-2s type, which has parts <= c1 or fails the check", CERT),
    ("arm2-parity", OBS, "if n % 2 == 0 else", "if n % 2 == 1 else",
     "odd n gets all 2s, which do not sum to n", CERT),
    ("arm3-low", OBS, "    elif 2 * c <= b and 2 * b <= c * c:", "    elif 2 * c < b and 2 * b <= c * c:",
     "b = 2c loses arm 3", CERT),
    ("arm3-high", OBS, "    elif 2 * c <= b and 2 * b <= c * c:", "    elif 2 * c <= b and 2 * b < c * c:",
     "2b = c^2 with c = c1+1 loses every arm (spider S(8,8,2,2) has c = c1+2, so the test uses that)", CERT),
    ("arm3-scan", OBS, "range(b // c1, 0, -1) if c < 500", "range(b // c1 - 1, 0, -1) if c < 500",
     "the first q = b // c1 is never tried", CERT),
    ("arm3-closed-form", OBS, "range(b // c1, 0, -1) if c < 500", "range(b // c1, 0, -1) if c < 50",
     "c in [50, 500) goes to analysis_q, which refuses c < 500", CERT),
    ("arm4-c1", OBS, "    elif c >= c1 + 2 and 2 * b >= c * c:", "    elif c >= c1 + 1 and 2 * b >= c * c:",
     "c = c1+1 takes parts c-1 = c1, which fail the check", CERT),
    ("arm4-b", OBS, "    elif c >= c1 + 2 and 2 * b >= c * c:", "    elif c >= c1 + 2 and 2 * b > c * c:",
     EQUIVALENT + "arm 4 never sees 2b = c^2: c = 2 gives b = 2 <= 2c-2 (arm 1), c >= 4 gives "
     "2c <= c^2/2 = b (arm 3), and an odd c has no such b", CERT),
    ("q-interval-x", OBS, "    x, y = b // q + 1, (b + c) // q", "    x, y = b // q, (b + c) // q",
     "x = ceil((b+1)/q) drops by one", CERT),
    ("q-interval-y", OBS, "    x, y = b // q + 1, (b + c) // q", "    x, y = b // q + 1, (b + c - 1) // q",
     "y = floor((b+c)/q) drops when q divides b+c", CERT),
    ("q-interval-empty", OBS, "    return (x, y) if x <= y else None", "    return (x, y) if x < y else None",
     "a one-value window becomes None", CERT),
    ("interval-t", PARTS, "    t = -(-n // y)", "    t = n // y + 1",
     "t overshoots ceil(n/y) when y divides n", CERT),
    ("interval-exists", PARTS, "    if t * x > n:", "    if t * x >= n:",
     "n = t*x is refused", CERT),
    ("interval-split", PARTS, "((q + 1, r), (q, t - r)) if r", "((q + 1, r), (q, t - r + 1)) if r",
     "the runs hold one part too many", CERT),
    ("interval-split-zero", PARTS, "((q + 1, r), (q, t - r)) if r else ((q, t),)",
     "((q + 1, r), (q, t - r))", "r = 0 leaves a run of count 0", CERT),
    ("check-c1", OBS, "    if others[-1][0] < profile.c1 + 1:", "    if others[-1][0] < profile.c1:",
     "a part equal to c1 passes", CERT),
    ("check-order", OBS, "    others = sorted(runs, reverse=True)", "    others = list(runs)",
     "runs smallest first take the largest part for the smallest", CERT),
    ("check-hi", OBS, "for s in reach) + top <= hi", "for s in reach) + top < hi",
     "a largest part that ends exactly at b+c counts as avoiding", CERT),
    ("budget", OBS, "        if parts > PART_BUDGET:", "        if parts >= PART_BUDGET:",
     "a type of exactly PART_BUDGET parts is refused", CERT),
    ("window-low", OBS, "window and window[0] <= last and", "window and window[0] < last and",
     "a smallest part equal to x is refused", CERT),
    ("window-high", OBS, "and runs[0][0] <= window[1])", "and runs[0][0] < window[1])",
     "a largest part equal to y is refused", CERT),
    ("strategy-c", OBS, "    return c < x < y and (y - 2)", "    return c <= x < y and (y - 2)",
     "x = c passes", CERT),
    ("strategy-xy", OBS, "    return c < x < y and (y - 2)", "    return c < x <= y and (y - 2)",
     "x = y divides by zero", CERT),
    ("strategy-reach", OBS, "(y - x) * x <= 2 * b + c + 1", "(y - x) * x <= 2 * b + c + 2",
     EQUIVALENT + "no (b, c) with c <= 200 changes verdict, and no (b, c, q) with c < 60 has a tail "
     "that starts at exactly 2b + c + 2 (ROADMAP item 12)", CERT),
    ("c500-reach", OBS, "bc, reach, q = b + c, 2 * b + c + 1, b // c", "bc, reach, q = b + c, 2 * b + c + 2, b // c",
     EQUIVALENT + "strategy_check's test inline, with the same argument as strategy-reach", CERT),
    ("analysis-case1", OBS, "    if 20 * b <= c * c:", "    if 20 * b < c * c:",
     "20b = c^2 reports case 2 (both pick q = b // c)", CERT),
    ("analysis-case2", OBS, "    elif 21 * b <= 5 * c * c:", "    elif 21 * b < 5 * c * c:",
     "21b = 5c^2 reports case 3", CERT),
    ("analysis-case3", OBS, "    elif 17 * b <= 5 * c * c:", "    elif 17 * b < 5 * c * c:",
     "17b = 5c^2 reports case 4", CERT),
    ("analysis-case4", OBS, "q = q0 if 100 * r0 >= 38 * q0 else q0 - 1", "q = q0 if 100 * r0 > 38 * q0 else q0 - 1",
     "the tie 100*r0 = 38*q0 at (b, c) = (78806, 500) picks q0 - 1", CERT),
    ("uncovered-tail", OBS, "            t0 = (y - 2) // (y - x)", "            t0 = (y - 3) // (y - x)",
     "a tail claimed one t early skips the gap between (t0-1)*y and t0*x", OBS_TESTS),
    ("uncovered-gap", OBS, "        lo = max(lo, end + 1)", "        lo = max(lo, end)",
     "the last n of each covered range is listed as a gap", OBS_TESTS),
    ("sweep-c40-c-lo", OBS, '{"c40": (2, 40)', '{"c40": (1, 40)',
     "c = 1, which has no b in 2c..c^2/2 and an n-window over c - 1 = 0, is accepted", OBS_TESTS),
    ("sweep-c40-c-hi", OBS, 'SWEEP_C_BOUNDS = {"c40": (2, 40),', 'SWEEP_C_BOUNDS = {"c40": (2, 39),',
     "c = 40 is in neither sweep", OBS_TESTS),
    ("sweep-c500-c-lo", OBS, '"c500": (41, 500)}', '"c500": (42, 500)}',
     "c = 41 is in neither sweep", OBS_TESTS),
    ("sweep-c-range-one", OBS, "lo <= c_lo <= c_hi <= hi", "lo <= c_lo < c_hi <= hi",
     "a range of one c, such as 41..41, is refused", OBS_TESTS),
    ("c40-b-range", OBS, "    for b in range(2 * c, c * c // 2 + 1):", "    for b in range(2 * c, c * c // 2):",
     "b = c^2/2 leaves the c40 grid", OBS_TESTS),
    ("c40-n-hi", OBS, "n_hi = (-(-b // (c - 1))) * (b + 1)", "n_hi = (b // (c - 1)) * (b + 1)",
     "the n-window ends at floor(b/(c-1))*(b+1), not the ceiling", OBS_TESTS),
    ("spider4-zheng", OBS, "    if 2 * b > c * c:", "    if 2 * b >= c * c:",
     "2b = c^2 cites Zheng where arm 3 or 4 certifies", OBS_TESTS),
    ("sixm-identity", OBS, "    if not {w - 1, w} & sums:", "    if not {w - 1} & sums:",
     "a type with prefix sum 6m keeps its order and fails the final check", OBS_TESTS),
    ("sixm-reversal", OBS, "    elif not {w + 1, w + 2} & sums:", "    elif not {w + 1} & sums:",
     "a type with prefix sum 6m+2 is reversed onto 6m-1", OBS_TESTS),
    ("parallel-in-flight", OBS, "if len(ahead) == 2 * workers:", "if len(ahead) == 3 * workers:",
     "three items per worker wait in flight, not two", OBS_TESTS),
    ("waring-sign", SYM, "-coeff if (k - length - m) & 1 else coeff", "coeff if (k - length - m) & 1 else -coeff",
     "every Waring coefficient flips sign", SYM_TESTS),
    ("frontier-join-sign", SYM, "new[key] = new.get(key, 0) - c\n", "new[key] = new.get(key, 0) + c\n",
     "a joining edge keeps the sign, so cycles stop cancelling", SYM_TESTS),
    ("tree-join-sign", GRAPHS, "new[join] = new.get(join, 0) - c1 * c2", "new[join] = new.get(join, 0) + c1 * c2",
     "a kept tree edge keeps the sign, so X_T has no negative term", SYM_TESTS),
    ("missing-types-tree", GRAPHS, "(len(G.edges) == G.n - 1 or", "(len(G.edges) == G.n or",
     "a tree's absent types are searched for again", GRAPHS_TESTS),
    ("cache-int-check", CLI, "if all(type(v) is int for v in", "if all(isinstance(v, int) for v in",
     "a cached count of true is served as 1", CLI_TESTS),
    ("open-profile-b", GRAPHS, "for b in range(c1, (n - 2 - c1) // 2 + 1)", "for b in range(c1, (n - 2 - c1) // 2)",
     "the open profiles with a = b, such as (4,4,1,1) at n = 11, are never anchors", GRAPHS_TESTS),
    ("open-profile-c1", GRAPHS, "for c1 in range(1, n)", "for c1 in range(2, n)",
     "no profile (a, b, 1, 1) is an anchor, so no open tree is generated", GRAPHS_TESTS),
    ("block-k-low", GRAPHS, "    for k in range(2, G.n):", "    for k in range(3, G.n):",
     "the (2, ..., 2, r) type is never checked", GRAPHS_TESTS),
    ("block-k-high", GRAPHS, "    for k in range(2, G.n):", "    for k in range(2, G.n - 1):",
     EQUIVALENT + "k = n - 1 is the type (n-1, 1), which every tree has: cut the edge of a leaf", GRAPHS_TESTS),
    ("block-target", GRAPHS, "    return m - (r == 0) in count", "    return m - (r <= 1) in count",
     "with r = 1 the count must reach m - 1, so a missing (k, ..., k, 1) is found present", GRAPHS_TESTS),
    ("block-root-count", GRAPHS, "    count = [rest[1:].count(0)] * len(size)", "    count = [rest.count(0)] * len(size)",
     "the root counts itself when k divides n, so every such type is found missing", GRAPHS_TESTS),
    ("block-reroot-gain", GRAPHS, "(rest[v] == r) - (rest[v] == 0)", "(rest[v] >= r) - (rest[v] == 0)",
     "a rerooting past any child of size r or more mod k gains a block", GRAPHS_TESTS),
    ("block-reroot-loss", GRAPHS, "(rest[v] == r) - (rest[v] == 0)", "(rest[v] == r) - (rest[v] == 1)",
     "a rerooting past a child of size 1 mod k, not 0, loses a block", GRAPHS_TESTS),
    ("block-witness-r", GRAPHS, "(G.n % k,) * (G.n % k > 0)", "(G.n % k,) * (G.n % k >= 0)",
     "a witness with k dividing n gets a part 0", GRAPHS_TESTS),
    ("generator-children", GRAPHS, "            for leaves in (0, 1):", "            for leaves in (0,):",
     "no branch vertex has degree 4, so trees with two degree-4 vertices (n >= 14) are lost", GRAPHS_TESTS),
    ("generator-dedup", GRAPHS, "                    if least < key:", "                    if least <= key:",
     "a tree whose least degree-4 key ties the anchor's is never kept", GRAPHS_TESTS),
    ("generator-encoding", GRAPHS, "    return all(here <= _rooted_encoding(v, G.adj)",
     "    return all(here < _rooted_encoding(v, G.adj)",
     "a tree with two alike degree-4 vertices is kept at neither", GRAPHS_TESTS),
    ("tree-order-size", GRAPHS, "        size[parent[v]] += size[v]", "        size[parent[v]] += 1",
     "a tree's subtree sizes count children only, so block_witness and tree_centroids read them wrong",
     GRAPHS_TESTS),
    ("cut-profiles-low-link", GRAPHS, "                if low[v] >= disc[parent]:",
     "                if low[v] > disc[parent]:",
     "a child whose subtree reaches back only to v stops counting as a component",
     ("tests/test_properties.py",)),
    ("cut-profiles-size", GRAPHS, "                size[parent] += size[v]", "                size[parent] += 1",
     "a DFS subtree's size counts the children of its root only", ("tests/test_graphs.py", "tests/test_properties.py")),
    ("state-budget", SYM, "            if len(new) > STATE_BUDGET:", "            if len(new) >= STATE_BUDGET:",
     "a DP that peaks at exactly the budget is stopped", SYM_TESTS),
    ("settle-order", CLI, "    if block_witness(G) or missing_types(G):", "    if missing_types(G) or block_witness(G):",
     "the tree DP runs on every open tree, before the block check", CLI_TESTS),
    ("settle-dp", CLI, "    if block_witness(G) or missing_types(G):", "    if block_witness(G):",
     "a tree with every (k, ..., k, r) type but another type missing goes to csf_e", CLI_TESTS),
    ("parse-n-max", CLI, '[("n_max", int, None, f"scan', '[("n_max", str, None, f"scan',
     "n_max is left a string, and comparing it with 1 is an internal error", CLI_TESTS),
    ("parse-jobs", CLI, 'JOBS = ("--jobs", int, 1,', 'JOBS = ("--jobs", str, 1,',
     "--jobs is left a string", CLI_TESTS),
    ("parse-m", CLI, '[("m", int, None, "1, 2 or 3")', '[("m", str, None, "1, 2 or 3")',
     "sixm's m is left a string", CLI_TESTS),
    ("parse-kind", CLI, '[("kind", ("c40", "c500"), None,', '[("kind", str, None,',
     "any sweep kind passes the parser", CLI_TESTS),
    ("parse-mode", CLI, '("--mode", ("full", "sampled"), None,', '("--mode", str, None,',
     "any --mode passes the parser", CLI_TESTS),
    ("parse-choice", CLI, "            return text if text in conv else fail(", "            return text if text else fail(",
     "a converter's choices are not checked", CLI_TESTS),
]


def _mutated_src(tmp_path: Path, filename: str, old: str, new: str) -> Path:
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / "epolab" / filename
    text = target.read_text()
    assert text.count(old) == 1, (filename, old)
    target.write_text(text.replace(old, new))
    return src


def test_mutants_are_distinct_and_each_old_text_occurs_once():
    assert len({name for name, *_ in MUTANTS}) == len(MUTANTS)
    assert len({(f, old, new) for _, f, old, new, *_ in MUTANTS}) == len(MUTANTS)
    for name, filename, old, new, reason, tests in MUTANTS:
        assert old != new and reason and tests, name
        assert (ROOT / "src" / "epolab" / filename).read_text().count(old) == 1, name
        assert all((ROOT / test).is_file() for test in tests), name


@pytest.mark.slow
@pytest.mark.parametrize("name, filename, old, new, reason, tests", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_is_killed_or_listed_as_equivalent(name, filename, old, new, reason, tests, tmp_path):
    src = _mutated_src(tmp_path, filename, old, new)
    env = {"PYTHONPATH": str(src), "PATH": os.environ.get("PATH", ""), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if reason.startswith(EQUIVALENT):
        assert done.returncode == 0, f"{name} is listed as equivalent but was killed:\n{done.stdout[-2000:]}"
    else:
        assert done.returncode != 0, f"{name} survived ({reason})"
