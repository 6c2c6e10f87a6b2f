"""Self-test of the benchmark: python3 -m pytest -q bench/test_bench.py

Runs a tiny invocation list that reaches every traced layer twice, and checks
that every per-layer count repeats exactly and every named metric is present.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run
import workloads
from workloads import Invocation

ROOT = Path(__file__).resolve().parent.parent


def tiny_plan(workdir: Path):
    cyclic, _ = workloads.graph_file(workdir, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])

    ok = workloads.exits(0)

    def plan(index):
        scan = ["trees-scan", "8", "--jobs", "1", "--cache", str(workdir / f"tiny-{index}.jsonl")]
        return [
            Invocation(scan, "tiny cold scan", "trees-scan", ok),
            Invocation(scan, "tiny warm scan", "trees-scan", ok, {"cli.cache.misses": 0}),
            Invocation(["csf", "spider:3,2,1"], "tiny csf tree", "csf", ok),
            Invocation(["csf", cyclic], "tiny csf cyclic", "csf", ok),
            Invocation(["connparts", "spider:3,2,1"], "tiny connparts", "connparts", ok),
            Invocation(["connparts", "spider:3,2,1", "--type", "2,2,2,1"], "tiny type", "connparts", ok),
            Invocation(["prove", "profile:a=2,b=2,cs=1,1"], "tiny prove", "prove", ok),
            Invocation(["sweep", "c40", "2..8", "--jobs", "1"], "tiny c40", "sweep", ok),
            Invocation(["sweep", "c500", "41..45", "--mode", "sampled", "--jobs", "1"], "tiny c500", "sweep", ok),
            Invocation(["sixm", "1"], "tiny sixm", "sixm", ok),
        ]

    return plan


def test_traced_counts_repeat_and_every_layer_is_reported(tmp_path):
    results = []
    for k in range(2):
        workdir = tmp_path / str(k)  # a fresh cache, as each benchmark run has
        workdir.mkdir()
        runner = run.Runner(ROOT, workdir, run.clock() + 120)
        metrics, info = run.traced(runner, tiny_plan(workdir))
        assert runner.verify() == 0
        results.append(metrics)
    assert set(results[0]) == set(run.PER_LAYER)
    for name in run.COUNT_METRICS:
        assert results[0][name] == results[1][name], name
        assert results[0][name] > 0, name
    for name in run.SPAN_METRICS.values():
        assert results[0][name] > 0, name
    assert info["absent_spans"] == []


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER


def test_plans_depend_only_on_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        keys = [[inv.key for inv in workloads.plan(name, seed, tmp_path)(0)] for seed in (1, 1, 2)]
        assert keys[0] == keys[1], name
        assert keys[0] != keys[2], name


def test_oracles():
    assert checks.spider_missing_types((1, 1, 1)) == [(2, 2)]
    assert checks.chromatic_values(4, [(0, 1), (1, 2), (2, 3), (3, 0)]) == tuple(
        k * (k - 1) * (k * k - 3 * k + 3) for k in range(5))
    assert checks.arm_of(2, 2, (1, 1)) == "interval"
    assert checks.every_ordering_hits([3, 3], 3, 3) and not checks.every_ordering_hits([2, 2], 3, 3)


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, timeout=180)
    assert proc.returncode != 0 and not proc.stdout.strip()
