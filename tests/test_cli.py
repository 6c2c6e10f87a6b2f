"""CLI surface: shorthands, output formats, exit codes, cache behavior."""

import json
import os
import subprocess
import sys

import pytest

import support

import epolab
from epolab import cli, graphs, obstructions
from epolab.cli import main, parse_graph_spec, parse_profile_spec, SpecError
from epolab.graphs import (
    Graph,
    cut_profiles,
    enumerate_free_trees,
    has_connected_partition,
    max_degree,
    missing_types,
    spider,
)
from epolab.obstructions import PART_BUDGET, theorem_decide
from epolab.symfunc import is_e_positive


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_graph_spec_shorthands():
    assert parse_graph_spec("spider:6,4,1,1").n == 13
    assert parse_graph_spec("spider:1,1,6,4").n == 13  # legs sorted leniently
    assert parse_graph_spec("path:7").n == 7
    assert parse_graph_spec("star:5").n == 5
    with pytest.raises(SpecError):
        parse_graph_spec("blob:3")
    with pytest.raises(SpecError):
        parse_graph_spec("/nonexistent/graph.txt")


def test_parse_graph_file(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("2\n0 1\n")
    assert parse_graph_spec(str(p)).edges == frozenset({(0, 1)})


def test_parse_profile_spec():
    prof = parse_profile_spec("profile:a=6,b=4,cs=1,1")
    assert (prof.a, prof.b, prof.cs) == (6, 4, (1, 1))
    with pytest.raises(SpecError, match="missing field cs"):
        parse_profile_spec("profile:a=6,b=4")
    with pytest.raises(SpecError):
        parse_profile_spec("profile:cs=1,1,a=2,b=4")  # violates a >= b
    with pytest.raises(SpecError, match="'profile:a=6,b=4,cs=2,2,b=5': repeated field b"):
        parse_profile_spec("profile:a=6,b=4,cs=2,2,b=5")
    with pytest.raises(SpecError, match="'profile:a=6,b=4,cs=1,1,typo=9': unknown field typo"):
        parse_profile_spec("profile:a=6,b=4,cs=1,1,typo=9")


def test_csf_star_text(capsys):
    code, out, _ = run(capsys, "csf", "spider:1,1,1")
    assert code == 0
    assert out.splitlines() == [
        "4 * e_(4)",
        "5 * e_(3,1)",
        "-2 * e_(2,2)",
        "1 * e_(2,1,1)",
    ]
    code, out, _ = run(capsys, "csf", "spider:4,1,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "7 * e_(7)" and "-3 * e_(3,2,2)" in lines


def test_csf_file_and_json(capsys, tmp_path):
    p = tmp_path / "k2.txt"
    p.write_text("2\n0 1\n")
    code, out, _ = run(capsys, "csf", str(p))
    assert code == 0 and out.strip() == "2 * e_(2)"
    code, out, _ = run(capsys, "csf", str(p), "--json")
    assert json.loads(out) == {"degree": 2, "terms": [{"lambda": [2], "coeff": "2"}]}
    p.write_text("abc\n0 1\n")
    code, out, err = run(capsys, "csf", str(p))
    assert code == 2 and out == "" and "malformed graph text" in err


def test_csf_guard_and_usage(capsys):
    code, _, err = run(capsys, "csf", "path:32")
    assert code == 3 and "guard" in err
    code, _, err = run(capsys, "csf", "blob:4")
    assert code == 2
    code, out, err = run(capsys, "csf", "spider:a,b")
    assert code == 2 and out == "" and "bad spider shorthand" in err


def test_epos_exit_codes(capsys):
    code, out, _ = run(capsys, "epos", "spider:5,3,2")
    assert code == 0 and out.strip() == "e-positive"
    code, out, _ = run(capsys, "epos", "spider:4,1,1")
    assert code == 1 and "-3 * e_(3,2,2)" in out
    code, out, _ = run(capsys, "epos", "spider:1,1,1")
    assert code == 1


def test_connparts(capsys):
    code, out, _ = run(capsys, "connparts", "spider:1,1,1")
    assert code == 1 and "(2,2)" in out
    code, out, _ = run(capsys, "connparts", "spider:4,1,1")
    assert code == 0 and "complete" in out
    code, out, _ = run(capsys, "connparts", "spider:1,1,1", "--type", "(2,2)")
    assert code == 1 and "absent" in out
    code, out, _ = run(capsys, "connparts", "spider:3,2,1", "--type", "(3,2,2)")
    assert code == 0 and "present" in out
    code, out, err = run(capsys, "connparts", "spider:3,2,1", "--type", "(3,3)")
    assert code == 2
    for empty in ("", " "):
        code, out, err = run(capsys, "connparts", "spider:1,1,1", "--type", empty)
        assert code == 2 and out == "" and "error: empty partition text" in err


def test_prove_profile_certificate(capsys):
    code, out, _ = run(capsys, "prove", "profile:a=2,b=2,cs=2,2,2")
    assert code == 0
    cert = json.loads(out)
    assert cert["verified"] is True
    assert cert["profile"] == {"a": 2, "b": 2, "cs": [2, 2, 2]}
    code, out, err = run(capsys, "prove", "profile:x")
    assert code == 2 and out == "" and "bad profile spec" in err
    code, out, err = run(capsys, "prove", "profile:a=3,b=2")
    assert code == 2 and out == "" and "missing field cs" in err


def test_prove_not_applicable(capsys):
    code, out, _ = run(capsys, "prove", "spider:6,4,1,1")
    assert code == 1 and out.startswith("NOT-APPLICABLE")
    code, out, _ = run(capsys, "prove", "spider:5,3,2")
    assert code == 1 and out.startswith("NOT-APPLICABLE")
    code, out, _ = run(capsys, "prove", "path:6")
    assert code == 1 and "NOT-APPLICABLE" in out


def test_prove_not_applicable_states_c_squared_over_2_exactly(capsys):
    # c = 1001: c^2/2 = 501000.5, once printed as a rounded float
    code, out, _ = run(capsys, "prove", "profile:a=600000,b=600000,cs=1001")
    assert code == 1 and "[2002, 501000.5]" in out
    # c = 10^200: c^2/2 overflows a float, and was once an internal error
    big, c = str(10**400), 10**200
    code, out, err = run(capsys, "prove", f"profile:a={big},b={big},cs={c}")
    assert code == 1 and out.startswith("NOT-APPLICABLE") and err == ""
    assert f"[{2 * c}, {c * c // 2}]" in out


def test_prove_large_path_is_not_applicable(capsys):
    # every vertex's components come from one DFS, so 10,000 vertices answer at once
    code, out, _ = run(capsys, "prove", "path:10000")
    assert code == 1 and out.startswith("NOT-APPLICABLE: no cut vertex")


def _prove_in_one_gib(spec: str) -> subprocess.CompletedProcess:
    """`epolab prove spec` in a child whose address space is capped at 1 GiB."""
    cap = "import resource, runpy; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    return subprocess.run(
        [sys.executable, "-c", cap + "runpy.run_module('epolab', run_name='__main__')", "prove", spec],
        capture_output=True, text=True, env=support.CHILD_ENV, timeout=120)


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
def test_prove_huge_profiles_fit_in_one_gib():
    # two part values v1 > v2 would put about (b/v1)(b/v2)/2 prefix sums in one
    # set; folding the last run by a max keeps about b/v1
    for spec in ("profile:a=5000000000,b=5000000000,cs=50000,50000",
                 "profile:a=10000000000,b=10000000000,cs=5000,3"):
        done = _prove_in_one_gib(spec)
        assert done.returncode == 0, (spec, done.stderr[-500:])
        assert json.loads(done.stdout)["verified"] is True


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
def test_prove_guards_the_part_count_before_building_a_type():
    # about 2.5*10^11 parts of 3 and 4 (explicit-interval), and 4*10^8 parts of
    # 5,003 and 5,002 (parts-c-c1): each would exhaust memory, so each exits 3
    for spec in ("profile:a=1000000000000,b=2,cs=1,1",
                 "profile:a=1000000000000,b=1000000000000,cs=5000,3"):
        done = _prove_in_one_gib(spec)
        assert done.returncode == 3, (spec, done.stderr[-500:])
        assert done.stdout == "" and f"parts > {PART_BUDGET}" in done.stderr


def test_trees_scan_small(capsys):
    # no tree on <= 4 vertices has a degree-4 vertex; the first is the
    # 5-vertex star, and it is not e-positive
    code, out, _ = run(capsys, "trees-scan", "4")
    assert code == 0
    assert "no counterexamples" in out
    assert any(line.split() == ["4", "0", "0"] for line in out.splitlines())
    code, out, _ = run(capsys, "trees-scan", "5")
    assert code == 0
    assert any(line.split() == ["5", "1", "0"] for line in out.splitlines())


def test_trees_scan_guard(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("a size past the guard was scanned")

    monkeypatch.setattr(cli, "_scan_size", refuse)
    code, out, err = run(capsys, "trees-scan", str(cli.SCAN_MAX_N + 1))
    assert (code, out, err) == (3, "", f"error: size guard, n_max={cli.SCAN_MAX_N + 1} > {cli.SCAN_MAX_N}\n")
    code, _, err = run(capsys, "trees-scan", "0")
    assert code == 2 and "need n_max >= 1" in err


def test_trees_scan_eight_and_jobs_determinism(capsys, tmp_path):
    code, out1, _ = run(capsys, "trees-scan", "8")
    assert code == 0 and "no counterexamples" in out1
    code, out2, _ = run(capsys, "trees-scan", "8", "--jobs", "2")
    assert code == 0 and out2 == out1
    expected = run(capsys, "trees-scan", "8", "--json")
    assert expected[0] == 0 and [row["n"] for row in json.loads(expected[1])["rows"]] == list(range(1, 9))
    full = tmp_path / "full.jsonl"
    assert run(capsys, "trees-scan", "8", "--json", "--jobs", "2", "--cache", str(full)) == expected
    lines = full.read_text().splitlines(keepends=True)
    for jobs in ("1", "2"):
        assert run(capsys, "trees-scan", "8", "--json", "--jobs", jobs) == expected, jobs
        # sizes 2, 5 and 7 from the cache, the rest from the scan: rows still come in n order
        partial = tmp_path / f"partial{jobs}.jsonl"
        partial.write_text(lines[1] + lines[4] + lines[6])
        assert run(capsys, "trees-scan", "8", "--json", "--jobs", jobs, "--cache", str(partial)) == expected, jobs
        assert partial.read_text() == "".join(lines), jobs


def test_trees_scan_cache(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    code1, out1, _ = run(capsys, "trees-scan", "6", "--cache", str(cache))
    assert code1 == 0 and cache.exists()
    lines = cache.read_text().splitlines()
    assert len(lines) == 6  # one row per n
    recs = [json.loads(line) for line in lines]
    assert [rec["n"] for rec in recs] == [1, 2, 3, 4, 5, 6]
    assert {(rec["command"], rec["version"], rec["route"]) for rec in recs} == {
        ("trees-scan", epolab.__version__, cli.SCAN_ROUTE)}
    # one deg>=4 tree at n=5, two at n=6, none e-positive
    assert [rec["row"]["degree4_trees"] for rec in recs] == [0, 0, 0, 0, 1, 2]
    assert recs[5]["row"]["counterexamples"] == [] and sum(recs[5]["row"]["settled"].values()) == 2
    # a second run is a pure cache hit: nothing written, identical output
    inode = os.stat(cache).st_ino
    code2, out2, _ = run(capsys, "trees-scan", "6", "--cache", str(cache))
    assert code2 == 0 and out2 == out1
    assert cache.read_text().splitlines() == lines and os.stat(cache).st_ino == inode


def test_trees_scan_cache_hit_enumerates_and_settles_nothing(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    cold = [run(capsys, "trees-scan", "12", *flag, "--cache", str(cache)) for flag in ([], ["--json"])]
    assert [code for code, _, _ in cold] == [0, 0]
    bounded = tmp_path / "bounded.jsonl"
    assert run(capsys, "trees-scan", "10", "--cache", str(bounded))[0] == 0

    def refuse(*args):
        raise AssertionError("a cache hit generated, counted or settled a tree")

    generate = graphs.open_trees
    for name in ("enumerate_free_trees", "open_trees", "degree4_trees"):
        monkeypatch.setattr(graphs, name, refuse)
    monkeypatch.setattr(cli, "_settle_open_tree", refuse)
    warm = [run(capsys, "trees-scan", "12", *flag, "--cache", str(cache)) for flag in ([], ["--json"])]
    assert warm == cold

    # with rows for n <= 10 held, trees-scan 12 generates only n = 11 and 12
    monkeypatch.undo()
    expected = run(capsys, "trees-scan", "12")
    generated = []

    def recording(n):
        generated.append(n)
        return generate(n)

    monkeypatch.setattr(graphs, "open_trees", recording)
    assert run(capsys, "trees-scan", "12", "--cache", str(bounded)) == expected
    assert generated == [11, 12]


def test_sweep_c40_cli(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    csv_file = tmp_path / "cells.csv"
    code, out, _ = run(
        capsys, "sweep", "c40", "2..10", "--out", str(out_file), "--csv", str(csv_file)
    )
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == [] and report["kind"] == "c40"
    assert json.loads(out_file.read_text()) == report
    rows = csv_file.read_text().splitlines()
    assert rows[0] == "c,b,n_lo,n_hi,cells,failures"
    assert len(rows) > 1
    code, out, _ = run(capsys, "sweep", "c40")  # no range: the whole 2..40 grid
    report = json.loads(out)
    assert code == 0 and report["params"] == {"c_lo": 2, "c_hi": 40} and report["failures"] == []


def test_sweep_c500_cli_sampled(capsys):
    code, out, _ = run(capsys, "sweep", "c500", "41..60", "--mode", "sampled")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == [] and report["params"]["mode"] == "sampled"
    code, out, _ = run(capsys, "sweep", "c500", "41..43")  # no --mode: full
    assert code == 0 and json.loads(out)["params"]["mode"] == "full"


def test_sweep_output_deterministic_across_jobs(capsys):
    code1, out1, _ = run(capsys, "sweep", "c40", "2..12")
    code2, out2, _ = run(capsys, "sweep", "c40", "2..12", "--jobs", "2")
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_ms")
    r2.pop("wall_time_ms")
    assert code1 == code2 == 0 and r1 == r2


def test_sweep_c500_csv_matches_oracle_at_any_job_count(capsys, tmp_path):
    rows = support.c500_rows_bruteforce(41, 120)
    expected = "c,b,q\n" + "".join(f"{c},{b},{q}\n" for c, b, q in rows)
    for jobs in ("1", "2"):
        csv_file = tmp_path / f"jobs{jobs}.csv"
        code, out, _ = run(capsys, "sweep", "c500", "41..120", "--jobs", jobs,
                           "--csv", str(csv_file))
        assert code == 0 and json.loads(out)["cells"] == len(rows)
        assert csv_file.read_text() == expected, jobs


def _epolab_peak_kib(*argv):
    """Exit code, stdout lines and peak RSS in KiB of one `epolab` call.

    A child's ru_maxrss starts from its parent's peak on Linux, so a fresh
    interpreter, not this test process, starts the call and reads its peak.
    """
    launcher = ("import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:]); "
                "_, status, usage = os.wait4(p.pid, 0); "
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    done = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-m", "epolab", *argv],
                          capture_output=True, text=True, env=support.CHILD_ENV, timeout=300)
    *out, peak = done.stdout.splitlines()
    code, kib = map(int, peak.split())
    return code, out, kib


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_sweep_c500_memory_stays_bounded():
    # each c's rows are dropped once folded in; 41..200 has 1,293,840 of them in all
    code, (report,), kib = _epolab_peak_kib("sweep", "c500", "41..200")
    assert code == 0 and json.loads(report)["failures"] == []
    assert kib < 50 * 1024, f"peak RSS {kib} KiB"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_trees_scan_memory_stays_bounded():
    # each tree is settled as it is enumerated, so no size's trees are held at once
    code, table, kib = _epolab_peak_kib("trees-scan", "15")
    assert code == 0 and table[-1].startswith("no counterexamples")
    assert kib < 24 * 1024, f"peak RSS {kib} KiB"


def test_sweep_bad_range(capsys, tmp_path):
    code, _, err = run(capsys, "sweep", "c500", "30..700")
    assert code == 2
    code, out, err = run(capsys, "sweep", "c40", "2..41")
    assert code == 2 and out == "" and "bad c range" in err
    code, out, err = run(capsys, "sweep", "c40", "5")
    assert code == 2 and out == "" and "bad range '5'" in err
    code, out, err = run(capsys, "sweep", "c40", "2..5", "--mode", "sampled")
    assert code == 2 and out == "" and "--mode" in err
    # a usage error leaves no output file behind
    csv_file, out_file = tmp_path / "x.csv", tmp_path / "x.json"
    for argv in (["50..60"], ["2..5", "--mode", "full"]):
        code, out, err = run(capsys, "sweep", "c40", *argv, "--csv", str(csv_file), "--out", str(out_file))
        assert code == 2 and out == "", argv
        assert not csv_file.exists() and not out_file.exists(), argv


def test_bad_parallelism(capsys):
    code, _, err = run(capsys, "sweep", "c40", "2..5", "--jobs", "0")
    assert code == 2 and "parallelism" in err


def test_disconnected_input_rejected(capsys, tmp_path):
    p = tmp_path / "disc.txt"
    p.write_text("4\n0 1\n2 3\n")
    code, _, err = run(capsys, "connparts", str(p))
    assert code == 2 and "connected" in err
    code, _, err = run(capsys, "prove", str(p))
    assert code == 2 and "connected" in err


def test_sixm_cli(capsys, monkeypatch):
    code, out, _ = run(capsys, "sixm", "1", "--cross-check")
    assert code == 0
    assert "101/101" in out and "agrees: True" in out
    code, out, _ = run(capsys, "sixm", "1", "--json", "--cross-check")
    assert code == 0 and json.loads(out)["brute_force_agrees"] is True
    code, out, _ = run(capsys, "sixm", "2", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["total"] == 1958 and rep["failures"] == []
    code, _, _ = run(capsys, "sixm", "4")
    assert code == 2
    code, out, err = run(capsys, "sixm", "2", "--cross-check")
    assert code == 2 and out == "" and "--cross-check" in err

    # a construction that fails falsifies the claim: exit 1, one line per type
    def broken(lam, m):
        raise RuntimeError("construction failed")

    monkeypatch.setattr(obstructions, "sixm_rearrangement", broken)
    code, out, _ = run(capsys, "sixm", "1")
    assert code == 1 and "0/101 types realized" in out
    assert out.count("  FAILURE at ") == 101 and "RuntimeError('construction failed')" in out


def test_epolab_jobs_env_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("EPOLAB_JOBS", "abc")
    code, out, _ = run(capsys, "prove", "profile:a=2,b=2,cs=2,2,2")
    assert code == 0 and json.loads(out)["verified"] is True


def test_trees_scan_cache_survives_torn_last_line(capsys, tmp_path):
    clean = tmp_path / "clean.jsonl"
    code, expected, _ = run(capsys, "trees-scan", "6", "--cache", str(clean))
    assert code == 0
    text = clean.read_text()
    torn = tmp_path / "torn.jsonl"
    torn.write_text(text[: text.rindex("\n", 0, -1) + 1 + 20])  # last row cut mid-line
    code, out, _ = run(capsys, "trees-scan", "6", "--cache", str(torn))
    assert code == 0 and out == expected
    assert torn.read_text() == text  # the torn row recomputed, and the file rewritten whole
    code, out, _ = run(capsys, "trees-scan", "6", "--cache", str(torn))
    assert code == 0 and out == expected
    assert torn.read_text() == text


# a record as the scan wrote it when it cached one per tree
PER_TREE_RECORD = {"command": "trees-scan", "key": "n5:0-1,0-2,0-3,0-4", "version": epolab.__version__,
                   "route": cli.SCAN_ROUTE, "result": {"e_positive": True, "settled_by": "csf"}}


def test_trees_scan_cache_prunes_records_it_can_no_longer_serve(capsys, tmp_path):
    clean = tmp_path / "clean.jsonl"
    code, expected, _ = run(capsys, "trees-scan", "6", "--cache", str(clean))
    assert code == 0
    live = clean.read_text()
    rows = live.splitlines(keepends=True)
    # a per-tree record, a row under the scan's tag before it settled trees by
    # certificate, then the rows for n <= 5 and a torn tail
    old = dict(json.loads(rows[4]), route="tally=tree-dp+frontier-dp;p2e=waring")
    cache = tmp_path / "cache.jsonl"
    seeded = json.dumps(PER_TREE_RECORD) + "\n" + json.dumps(old) + "\n" + "".join(rows[:5]) + rows[5][:30]
    cache.write_text(seeded)
    inode = os.stat(cache).st_ino
    code, out, _ = run(capsys, "trees-scan", "5", "--cache", str(cache))
    assert (code, out) == run(capsys, "trees-scan", "5")[:2]
    assert cache.read_text() == seeded and os.stat(cache).st_ino == inode  # every n a hit: untouched
    code, out, _ = run(capsys, "trees-scan", "6", "--cache", str(cache))
    assert code == 0 and out == expected
    assert cache.read_text() == live  # the first write keeps only the rows it can serve
    again, fresh = cli.ResultCache(str(cache)), cli.ResultCache(str(clean))
    assert [again.get(n) for n in range(1, 7)] == [fresh.get(n) for n in range(1, 7)]
    assert None not in [again.get(n) for n in range(1, 7)]


def test_trees_scan_cache_prunes_records_under_another_command(capsys, tmp_path):
    clean = tmp_path / "clean.jsonl"
    code, expected, _ = run(capsys, "trees-scan", "6", "--cache", str(clean))
    assert code == 0
    live = clean.read_text()
    other = dict(json.loads(live.splitlines()[5]), command="csf")
    cache = tmp_path / "cache.jsonl"
    cache.write_text(json.dumps(other) + "\n" + "".join(live.splitlines(keepends=True)[:5]))
    code, out, _ = run(capsys, "trees-scan", "6", "--cache", str(cache))
    assert (code, out) == (0, expected)
    assert cache.read_text() == live


def test_trees_scan_cache_put_rewrites_the_file_with_every_row_held(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text("not a row\n")
    path.chmod(0o640)
    one = {"degree4_trees": 0, "counterexamples": [], "settled": dict.fromkeys(cli.SETTLE_STEPS, 0)}
    two = {"degree4_trees": 1, "counterexamples": [[(0, 1), (0, 2)]],
           "settled": {"certificate": 0, "missing_type": 0, "csf": 1}}
    cache = cli.ResultCache(str(path))
    cache.put(2, two)
    cache.put(1, one)
    assert cache.get(2) == two
    assert [json.loads(line)["n"] for line in path.read_text().splitlines()] == [1, 2]
    assert os.stat(path).st_mode & 0o777 == 0o640
    again = cli.ResultCache(str(path))
    assert (again.get(1), again.get(2), again.get(3)) == (one, two, None)
    assert list(again.get(2)["settled"]) == list(cli.SETTLE_STEPS)  # route order, not the file's
    memory = cli.ResultCache(None)  # no path: the row is held, and nothing is written
    memory.put(1, one)
    assert memory.get(1) == one and os.listdir(tmp_path) == ["cache.jsonl"]


def test_trees_scan_cache_skips_lines_that_are_not_records(capsys, tmp_path):
    clean = tmp_path / "clean.jsonl"
    code, expected, _ = run(capsys, "trees-scan", "5", "--json", "--cache", str(clean))
    assert code == 0
    row = json.loads(clean.read_text().splitlines()[4])
    rootless = {key: value for key, value in row.items() if key != "route"}
    lines = ['{"command": "trees-scan", "n": 5}', "[1, 2]", '"text"', "7", "null",
             json.dumps(dict(row, n="5")), json.dumps(dict(row, n=True)), json.dumps(dict(row, n=[5])),
             json.dumps(rootless), json.dumps(PER_TREE_RECORD)]
    for line in lines:
        cache = tmp_path / "partial.jsonl"
        cache.write_text(line + "\n")
        code, out, err = run(capsys, "trees-scan", "5", "--json", "--cache", str(cache))
        assert (code, out, err) == (0, expected, ""), line
        assert cache.read_text() == clean.read_text(), line


def test_trees_scan_cache_skips_records_without_a_verdict(capsys, tmp_path):
    clean = tmp_path / "clean.jsonl"
    code, expected, _ = run(capsys, "trees-scan", "5", "--json", "--cache", str(clean))
    assert code == 0
    good = json.loads(clean.read_text().splitlines()[4])["row"]
    bad_rows = [5, None, [good]] + [{k: v for k, v in good.items() if k != field} for field in good] + [
        dict(good, degree4_trees="1"), dict(good, degree4_trees=True), dict(good, degree4_trees=1.0),
        dict(good, counterexamples="ab"), dict(good, counterexamples=[[["0", "1"]]]),
        dict(good, counterexamples=[[[0, 1, 2]]]), dict(good, counterexamples=[5]),
        dict(good, settled={"certificate": 1, "missing_type": 0}),
        dict(good, settled=dict(good["settled"], csf=0.5)), dict(good, settled=[1, 0, 0])]
    for bad in bad_rows:
        cache = tmp_path / "bad.jsonl"
        recs = [dict(json.loads(line), row=bad) for line in clean.read_text().splitlines()]
        cache.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
        code, out, err = run(capsys, "trees-scan", "5", "--json", "--cache", str(cache))
        assert (code, out, err) == (0, expected, ""), bad


def test_trees_scan_cache_skips_lines_that_are_not_utf8(capsys, tmp_path, monkeypatch):
    clean = tmp_path / "clean.jsonl"
    code, expected, _ = run(capsys, "trees-scan", "5", "--cache", str(clean))
    assert code == 0 and len(clean.read_text().splitlines()) == 5
    cache = tmp_path / "bytes.jsonl"
    cache.write_bytes(b"\xff\xfe\n" + clean.read_bytes())
    lookups = []
    get = cli.ResultCache.get

    def recording_get(self, *args):
        lookups.append(get(self, *args))
        return lookups[-1]

    monkeypatch.setattr(cli.ResultCache, "get", recording_get)
    code, out, err = run(capsys, "trees-scan", "5", "--cache", str(cache))
    assert (code, out, err) == (0, expected, "")
    assert len(lookups) == 5 and None not in lookups
    assert cache.read_bytes() == b"\xff\xfe\n" + clean.read_bytes()  # a full hit writes nothing
    code, _, err = run(capsys, "trees-scan", "6", "--cache", str(cache))
    assert (code, err) == (0, "") and b"\xff" not in cache.read_bytes()


def test_trees_scan_counterexamples_print_in_tree_order_whatever_the_cache_holds(
        capsys, tmp_path, monkeypatch):
    elevens, twelves = (list(graphs.open_trees(n)) for n in (11, 12))
    forged = {elevens[0].edges, twelves[0].edges, twelves[-1].edges}
    settle = cli._settle_open_tree
    settled_sizes = []

    def forging(G):
        settled_sizes.append(G.n)
        return {"e_positive": True, "settled_by": "csf"} if G.edges in forged else settle(G)

    monkeypatch.setattr(cli, "_settle_open_tree", forging)
    expected = [run(capsys, "trees-scan", "12", *flag) for flag in ([], ["--json"])]
    positions = [expected[0][1].index(str(sorted(G.edges))) for G in (elevens[0], twelves[0], twelves[-1])]
    assert expected[0][0] == 1 and positions == sorted(positions)
    cold = tmp_path / "cold.jsonl"
    assert run(capsys, "trees-scan", "12", "--cache", str(cold)) == expected[0]
    twelve = cold.read_text().splitlines()[11]
    assert len(json.loads(twelve)["row"]["counterexamples"]) == 2
    for flag, want in zip(([], ["--json"]), expected):
        cache = tmp_path / "later-size-only.jsonl"
        cache.write_text(twelve + "\n")  # n = 12 is a hit, n = 11 a miss
        settled_sizes.clear()
        assert run(capsys, "trees-scan", "12", *flag, "--cache", str(cache)) == want
        assert sorted(set(settled_sizes)) == [11]  # no smaller size has an open tree


def test_trees_scan_cache_write_leaves_one_servable_row_per_n(capsys, tmp_path):
    clean = tmp_path / "clean.jsonl"
    code, expected, _ = run(capsys, "trees-scan", "7", "--cache", str(clean))
    assert code == 0
    rows = clean.read_text().splitlines()
    other_version = dict(json.loads(rows[2]), version="0.0.1")
    cache = tmp_path / "cache.jsonl"
    cache.write_text(json.dumps(other_version) + "\n" + json.dumps(PER_TREE_RECORD) + "\n" + rows[3][:40])
    code, out, _ = run(capsys, "trees-scan", "7", "--cache", str(cache))
    assert (code, out) == (0, expected)
    recs = [json.loads(line) for line in cache.read_text().splitlines()]  # every line parses
    assert [rec["n"] for rec in recs] == list(range(1, 8))
    written = cli.ResultCache(str(cache))
    assert None not in [written.get(n) for n in range(1, 8)]
    assert cache.read_text() == clean.read_text()


def test_settle_route_agrees_with_csf_and_every_reported_type_is_absent():
    for n in range(5, 12):
        for G in enumerate_free_trees(n):
            if max_degree(G) < 4:
                continue
            assert support.settle_tree(G)["e_positive"] == is_e_positive(G).positive
            certs = [theorem_decide(profile) for _, profile in cut_profiles(G)]
            for lam in [cert.lam for cert in certs if cert] + missing_types(G):
                assert has_connected_partition(G, lam) is None, (sorted(G.edges), lam)
    # the open trees take the scan's route: a (k, ..., k, r) type, the tree DP, then csf_e
    for n in range(11, 14):
        for G in graphs.open_trees(n):
            verdict = cli._settle_open_tree(G)
            assert verdict == support.settle_tree(G) and not verdict["e_positive"], sorted(G.edges)
            witness = graphs.block_witness(G)
            if witness:
                assert has_connected_partition(G, witness) is None, sorted(G.edges)
    # S(6,4,1,1) has every type, so only csf_e settles it
    assert cli._settle_open_tree(spider((6, 4, 1, 1))) == {"e_positive": False, "settled_by": "csf"}
    assert support.settle_tree(spider((6, 4, 1, 1))) == {"e_positive": False, "settled_by": "csf"}


def test_settle_route_runs_the_tree_dp_only_on_the_trees_past_the_block_check(monkeypatch):
    # S(12,4,1,1) with its 4-leg forked at its first vertex: it has every (k, ..., k, r) type,
    # and the tree DP finds (6,5,5,3) and (5,5,3,3,3) missing
    G = Graph(19, [(0, 1), (0, 2), (0, 14), (0, 18), (14, 15), (14, 17), (15, 16)]
              + [(v, v + 1) for v in range(2, 13)])
    assert graphs.block_witness(G) is None
    assert cli._settle_open_tree(G) == {"e_positive": False, "settled_by": "missing_type"}
    for lam in missing_types(G):
        assert has_connected_partition(G, lam) is None, lam
    calls = []
    monkeypatch.setattr(graphs, "missing_types", lambda G: calls.append(G) or missing_types(G))
    assert cli._scan_size(13)["settled"]["csf"] == 1
    assert calls == [G for G in graphs.open_trees(13) if graphs.block_witness(G) is None]  # S(6,4,1,1)
    assert len(calls) == 1


def test_trees_scan_matches_the_enumeration_route(capsys, monkeypatch):
    want = {n: support.scan_size_by_enumeration(n) for n in range(1, 14)}
    assert {n: cli._scan_size(n) for n in want} == want
    expected = [run(capsys, "trees-scan", "13", *flag) for flag in ([], ["--json"])]
    monkeypatch.setattr(cli, "_scan_size", want.__getitem__)
    assert [run(capsys, "trees-scan", "13", *flag) for flag in ([], ["--json"])] == expected


def test_trees_scan_serves_the_enumeration_routes_rows_from_the_cache(capsys, tmp_path, monkeypatch):
    # a cache written by the enumeration route, under the same SCAN_ROUTE, is read as is
    expected = [run(capsys, "trees-scan", "12", *flag) for flag in ([], ["--json"])]
    monkeypatch.setattr(cli, "_scan_size", support.scan_size_by_enumeration)
    cache = tmp_path / "oracle.jsonl"
    assert run(capsys, "trees-scan", "12", "--cache", str(cache)) == expected[0]
    written = cache.read_text()

    def refuse(n):
        raise AssertionError("a row the oracle wrote was not served")

    monkeypatch.setattr(cli, "_scan_size", refuse)
    for flag, want in zip(([], ["--json"]), expected):
        assert run(capsys, "trees-scan", "12", *flag, "--cache", str(cache)) == want
    assert cache.read_text() == written


def test_sweep_checks_its_output_paths_before_it_runs(capsys, tmp_path, monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before its output paths were checked")

    monkeypatch.setattr(obstructions, "sweep_c40", sweep)
    for flag, name in [("--out", "x.json"), ("--csv", "x.csv")]:
        code, out, err = run(capsys, "sweep", "c40", flag, str(tmp_path / "no-such-dir" / name))
        assert code == 2 and out == "" and err.startswith("error: cannot open "), (flag, err)


def test_cli_import_leaves_numpy_out():
    probe = "import sys, epolab.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=support.CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"

    # each command loads only the library modules it runs; none loads dataclasses, inspect or
    # argparse, and only JSON output or a cache loads json
    probe = ("import atexit, sys; atexit.register(lambda: print(*sys.modules, file=sys.stderr)); "
             "from epolab.cli import main; main()")
    for argv, left_out in [
        (["--version"], ["epolab.graphs", "epolab.partitions", "epolab.symfunc", "epolab.obstructions", "json"]),
        (["csf", "path:4"], ["epolab.obstructions", "json"]),
        (["csf", "path:4", "--json"], ["epolab.obstructions"]),
        (["epos", "path:4"], ["epolab.obstructions", "json"]),
        (["connparts", "path:4"], ["epolab.symfunc", "epolab.obstructions", "json"]),
        (["prove", "profile:a=6,b=2,cs=1,1"], ["epolab.symfunc"]),
        (["sweep", "c40", "2..3"], ["epolab.symfunc"]),
        (["sixm", "1"], ["epolab.symfunc", "json"]),
        (["trees-scan", "6"], ["epolab.symfunc", "json"]),
        (["trees-scan", "13"], []),
    ]:
        done = subprocess.run([sys.executable, "-c", probe, *argv], env=support.CHILD_ENV,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, (argv, done.stderr)
        loaded = done.stderr.split()
        assert "epolab.cli" in loaded, argv
        assert not {"dataclasses", "inspect", "argparse", *left_out} & set(loaded), argv


@pytest.mark.parametrize("argv, message", [
    ([], "missing command"),
    (["no-such-command"], "unknown command 'no-such-command'"),
    (["--json"], "unknown command '--json'"),
    (["csf", "path:4", "--jsn"], "unrecognized option --jsn"),
    (["csf", "path:4", "--js"], "unrecognized option --js"),  # no prefixes of long options
    (["csf", "path:4", "--json=1"], "option --json takes no value"),
    (["csf"], "missing argument graph"),
    (["csf", "path:4", "path:5"], "unrecognized arguments: path:5"),
    (["connparts", "path:4", "--type"], "option --type expects a value"),
    (["connparts", "path:4", "--type", "--json"], "option --type expects a value"),
    (["trees-scan", "5", "--jobs", "two"], "argument --jobs: invalid int value 'two'"),
    (["trees-scan", "5", "--jobs=1.5"], "argument --jobs: invalid int value '1.5'"),
    (["trees-scan", "five"], "argument n_max: invalid int value 'five'"),
    (["trees-scan"], "missing argument n_max"),
    (["sixm", "x"], "argument m: invalid int value 'x'"),
    (["sweep", "c41"], "argument kind: invalid choice 'c41' (choose from c40, c500)"),
    (["sweep", "c40", "2..5", "--mode", "fast"], "argument --mode: invalid choice 'fast' (choose from full, sampled)"),
    (["sweep", "c40", "2..5", "extra"], "unrecognized arguments: extra"),
    (["prove", "-x"], "unrecognized option -x"),
])
def test_usage_errors_exit_2_with_the_usage_on_stderr(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: epolab") and f": error: {message}" in err and err.count("\n") == 2, err


def test_help_lists_every_command_and_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == "" and out.startswith("usage: epolab")
    for name, (_, _, spec) in cli.COMMANDS.items():
        assert f"\n  {name} " in out, name
        with pytest.raises(SystemExit) as exc:
            main([name, "-h"])
        text, err = capsys.readouterr()
        assert exc.value.code == 0 and err == "" and text.startswith(f"usage: epolab {name} "), name
        for arg, *_ in spec:
            shown = arg if arg.startswith("--") else arg.rstrip("?").upper()
            assert f"[{shown}" in out or f" {shown}" in out, (name, arg)
            assert f"\n  {shown}" in text or f"\n  [{shown}" in text, (name, arg)


def test_arguments_in_any_order_and_negative_numbers(capsys, tmp_path):
    cache = str(tmp_path / "scan.jsonl")
    expected = run(capsys, "trees-scan", "6", "--jobs", "1", "--cache", cache, "--json")
    assert expected[0] == 0
    assert run(capsys, "trees-scan", "--json", "--cache=" + cache, "6", "--jobs=2") == expected
    assert run(capsys, "trees-scan", "6", "--json", "--json", "--jobs", "3", "--jobs", "1") == expected
    # a negative number is an argument, not an option: the commands refuse it themselves
    code, out, err = run(capsys, "trees-scan", "-1")
    assert (code, out, err) == (2, "", "error: need n_max >= 1\n")
    code, out, err = run(capsys, "sweep", "c40", "2..5", "--jobs", "-1")
    assert (code, out, err) == (2, "", "error: parallelism must be >= 1\n")
