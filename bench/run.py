"""Benchmark of whole epolab CLI runs, with an optional traced run per layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record        # rewrite bench/expected.json

Run it from the root of a source checkout. Each workload (see workloads.py)
is a closed loop of single `epolab ... --jobs 1` calls, each in a fresh
interpreter with `src/` on the path, issued one at a time until --seconds
have passed, always finishing at least one pass of the workload's list.

--trace 0 reports the end-to-end metrics: wall_s (the list's wall time: each
call's median over the passes, summed over the list), cmd_p50_s (median over
the list of those per-call medians), setup_s (median of the `epolab --version`
calls made after every SETUP_EVERY-th call) and
peak_rss_mb (largest max-RSS of one call). --trace 1 runs the list once
untraced and once under traced.py, and reports self times and counts per
layer. Every output is checked after the timed section: against the oracles
in checks.py, and byte for byte against expected.json where it lists the
invocation. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected.json"
DEFAULT_SEED = 1
EPOLAB = [sys.executable, "-c", "from epolab.cli import main; main()"]
VERSION = EPOLAB + ["--version"]
WARMUP_S = 3
SETUP_EVERY = 2
IMPORT_RUNS = 3
RUN_LIMIT_S = 170  # every run must end within 180 s

END_TO_END = {"wall_s": "s", "cmd_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# span name -> self-time metric
SPAN_METRICS = {
    "cli.parse": "cli.parse_s",
    "cli.cache.load": "cli.cache.load_s",
    "graphs.free_trees": "graphs.free_trees_s",
    "graphs.search": "graphs.search_s",
    "graphs.missing_types": "graphs.missing_types_s",
    "symfunc.tally": "symfunc.tally_s",
    "symfunc.csf": "symfunc.p_to_e_s",
    "obstructions.decide": "obstructions.decide_s",
    "obstructions.verify": "obstructions.verify_s",
    "obstructions.sweep_c40": "obstructions.sweep_c40_s",
    "obstructions.sweep_c500": "obstructions.sweep_c500_s",
    "obstructions.sixm": "obstructions.sixm_s",
}
COUNT_METRICS = (
    "cli.cache.hits", "cli.cache.misses",
    "graphs.free_trees.yielded", "graphs.free_trees.canon_calls",
    "graphs.search.calls", "graphs.search.found", "graphs.missing_types.calls",
    "symfunc.csf.calls", "symfunc.tally.types", "symfunc.p_to_e.terms",
    "obstructions.decide.calls", "obstructions.verify.calls",
    "obstructions.sweep_c40.cells", "obstructions.sweep_c500.cells",
)
PER_LAYER = (
    ["cli.import_s", "cli.import_numpy_s"]
    + list(SPAN_METRICS.values())
    + list(COUNT_METRICS)
    + ["trace.overhead_s", "trace.unattributed_s"]
)

clock = time.perf_counter


@dataclass
class Result:
    wall: float
    code: int
    out: bytes
    err: bytes
    maxrss_kb: int


class Runner:
    """Starts one child at a time and keeps each result with its check."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), EPOLAB_JOBS="1")
        self.records = []  # (label, Result, check)

    def run(self, cmd, label: str, check) -> Result:
        with open(self.workdir / "stderr", "w+b") as err:
            timeout = max(0.1, self.deadline - clock())
            start = clock()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = clock() - start
            proc.stdout.close()
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            err.seek(0)
            result = Result(wall, code, out, err.read(), usage.ru_maxrss)
        self.records.append((label, result, check))
        return result

    def epolab(self, inv: workloads.Invocation) -> Result:
        return self.run(EPOLAB + inv.argv, inv.key, _with_digest(inv))

    def traced(self, inv: workloads.Invocation, spans_path: Path) -> Result:
        cmd = [sys.executable, str(BENCH / "traced.py"), str(spans_path)] + inv.argv
        return self.run(cmd, inv.key, _with_digest(inv))

    def verify(self) -> int:
        """Run every check; report and count the failures."""
        failed = 0
        for label, result, check in self.records:
            try:
                check(result.out, result.code)
            except Exception as exc:  # any check that cannot pass is a failed call
                failed += 1
                tail = result.err.decode(errors="replace").strip().splitlines()[-1:]
                print(f"FAILED {label}: {exc} {' '.join(tail)}", file=sys.stderr)
        return failed


def _load_digests() -> dict:
    return json.loads(EXPECTED.read_text())["digests"] if EXPECTED.exists() else {}


DIGESTS = _load_digests()


def _with_digest(inv: workloads.Invocation):
    want = DIGESTS.get(inv.key)

    def check(out: bytes, code: int) -> None:
        inv.check(out, code)
        if want is not None:
            checks.expect(checks.digest(out, code) == want, "stdout differs from the recorded digest")

    return check


def _with_counts(check, want: dict, counts: dict):
    """check, plus the counts this invocation's traced run must report."""

    def combined(out: bytes, code: int) -> None:
        check(out, code)
        for name, value in want.items():
            got = counts.get(name, 0)
            checks.expect(got == value, f"traced {name} = {got}, expected {value}")

    return combined


def _check_version(out: bytes, code: int) -> None:
    checks.expect(code == 0 and out.startswith(b"epolab "), "epolab --version failed")


def version(runner: Runner) -> float:
    return runner.run(VERSION, "--version", _check_version).wall


def warm_up(runner: Runner) -> None:
    """Start-up runs 30-40% slower for the first seconds after the host idles."""
    start = clock()
    while clock() - start < WARMUP_S:
        version(runner)


def end_to_end(runner: Runner, plan, seconds: float) -> tuple:
    """Closed loop over the pass list until `seconds` pass, at least one pass.

    A `--version` call after every SETUP_EVERY-th call samples set-up across
    the whole run, so it sees the same host load as the workload's calls.
    """
    warm_up(runner)
    samples = defaultdict(list)
    setup = []
    calls = 0
    start = clock()
    index = 0
    while index == 0 or clock() - start < seconds:
        for item, inv in enumerate(plan(index)):
            if index and clock() - start >= seconds:
                break
            samples[item].append(runner.epolab(inv).wall)
            calls += 1
            if calls % SETUP_EVERY == 1:
                setup.append(version(runner))
        index += 1
    per_item = [statistics.median(ws) for ws in samples.values()]
    metrics = {
        "wall_s": sum(per_item),
        "cmd_p50_s": statistics.median(per_item),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r.maxrss_kb for _, r, _ in runner.records) / 1024,
    }
    info = {"invocations": calls, "setup_runs": len(setup), "passes": round(calls / len(samples), 2),
            "item_medians_s": [round(w, 3) for w in per_item]}
    return metrics, info


# ---------------------------------------------------------------------------
# Traced run


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)$")


def import_times(err: bytes) -> tuple:
    """(epolab import, numpy's share) in seconds from `-X importtime` output."""
    total = numpy = 0
    for line in err.decode().splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(2)), len(m.group(3)), m.group(4)
        if depth == 3 and (name == "epolab" or name.startswith("epolab.")):
            total += cumulative
        elif name == "numpy" and not numpy:
            numpy = cumulative
    return total / 1e6, numpy / 1e6


def _check_import(out: bytes, code: int) -> None:
    checks.expect(code == 0, "import epolab.cli failed")


def span_totals(record: dict) -> tuple:
    """(self time by span name, summed duration of root spans) of one invocation."""
    spans = record["spans"]
    self_time = defaultdict(float)
    root = 0.0
    for name, parent, start, end in spans:
        duration = end - start
        self_time[name] += duration
        if parent < 0:
            root += duration
        else:
            self_time[spans[parent][0]] -= duration
    return self_time, root


def traced(runner: Runner, plan) -> tuple:
    warm_up(runner)
    plain = [runner.epolab(inv).wall for inv in plan(0)]
    metrics = dict.fromkeys(PER_LAYER, 0)
    absent = set()
    by_kind = defaultdict(Counter)
    traced_wall = 0.0
    for i, inv in enumerate(plan(1)):
        path = runner.workdir / f"spans-{i}.json"
        result = runner.traced(inv, path)
        traced_wall += result.wall
        record = json.loads(path.read_text()) if path.exists() else {"spans": [], "counts": {}, "absent": []}
        self_time, root = span_totals(record)
        for name, value in self_time.items():
            metrics[SPAN_METRICS[name]] += value
            by_kind[inv.kind][SPAN_METRICS[name]] += value
        for name in COUNT_METRICS:
            metrics[name] += record["counts"].get(name, 0)
        metrics["trace.unattributed_s"] += result.wall - root
        absent.update(record["absent"])
        label, _, check = runner.records[-1]
        runner.records[-1] = (label, result, _with_counts(check, inv.trace_expect, record["counts"]))
    metrics["trace.overhead_s"] = traced_wall - sum(plain)
    cmd = [sys.executable, "-X", "importtime", "-c", "import epolab.cli"]
    probes = [import_times(runner.run(cmd, "importtime", _check_import).err) for _ in range(IMPORT_RUNS)]
    metrics["cli.import_s"] = statistics.median(p[0] for p in probes)
    metrics["cli.import_numpy_s"] = statistics.median(p[1] for p in probes)
    attributed = sum(metrics[m] for m in SPAN_METRICS.values())
    info = {"absent_spans": sorted(absent), "plain_wall_s": sum(plain), "traced_wall_s": traced_wall,
            "attributed_s": attributed,
            "self_s_by_kind": {k: {m: round(v, 4) for m, v in c.items()} for k, c in by_kind.items()}}
    return metrics, info


# ---------------------------------------------------------------------------


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(), "cpu": cpu}


def record_digests(root: Path, workdir: Path) -> int:
    """Check one pass of every workload at the default seed and store its digests."""
    digests = {}
    for name in workloads.WORKLOADS:
        runner = Runner(root, workdir, clock() + 600)
        for inv in workloads.plan(name, DEFAULT_SEED, workdir)(0):
            result = runner.run(EPOLAB + inv.argv, inv.key, inv.check)
            digests[inv.key] = checks.digest(result.out, result.code)
        if runner.verify():
            return 1
    EXPECTED.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {EXPECTED}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json from the default seed")
    args = parser.parse_args(argv)
    if not args.record and not args.workload:
        parser.error("--workload is required")

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "epolab" / "cli.py").is_file():
        print(f"error: {root} is not an epolab checkout (no src/epolab/cli.py)", file=sys.stderr)
        return 2
    (root / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=root / ".bench_work"))
    try:
        if args.record:
            return record_digests(root, workdir)
        runner = Runner(root, workdir, clock() + RUN_LIMIT_S)
        plan = workloads.plan(args.workload, args.seed, workdir)
        measure = traced if args.trace else lambda r, p: end_to_end(r, p, args.seconds)
        metrics, info = measure(runner, plan)
        failed = runner.verify()
        items = Counter(inv.kind for inv in plan(0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    units = END_TO_END if not args.trace else {
        m: "count" if m in COUNT_METRICS else "s" for m in PER_LAYER}
    print(json.dumps({"machine": machine(), "workload": args.workload, "seed": args.seed,
                      "items_per_pass": items, **info}, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:32} {metrics[name]:>14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runner.records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
