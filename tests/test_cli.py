"""CLI surface: shorthands, output formats, exit codes, cache behavior."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import support

from epolab import cli
from epolab.cli import main, parse_graph_spec, parse_profile_spec, SpecError
from epolab.graphs import (
    cut_profiles,
    enumerate_free_trees,
    has_connected_partition,
    max_degree,
    missing_types,
    spider,
)
from epolab.obstructions import theorem_decide
from epolab.symfunc import CSF_ROUTE, is_e_positive


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
    with pytest.raises(SpecError):
        parse_profile_spec("profile:a=6,b=4")
    with pytest.raises(SpecError):
        parse_profile_spec("profile:cs=1,1,a=2,b=4")  # violates a >= b


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


def test_csf_guard_and_usage(capsys):
    code, _, err = run(capsys, "csf", "path:21")
    assert code == 3 and "guard" in err
    code, _, err = run(capsys, "csf", "blob:4")
    assert code == 2


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


def test_prove_not_applicable(capsys):
    code, out, _ = run(capsys, "prove", "spider:6,4,1,1")
    assert code == 1 and out.startswith("NOT-APPLICABLE")
    code, out, _ = run(capsys, "prove", "spider:5,3,2")
    assert code == 1 and out.startswith("NOT-APPLICABLE")
    code, out, _ = run(capsys, "prove", "path:6")
    assert code == 1 and "NOT-APPLICABLE" in out


def test_prove_large_path_is_not_applicable(capsys):
    # every vertex's components come from one DFS, so 10,000 vertices answer at once
    code, out, _ = run(capsys, "prove", "path:10000")
    assert code == 1 and out.startswith("NOT-APPLICABLE: no cut vertex")


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


def test_trees_scan_guard(capsys):
    code, _, err = run(capsys, "trees-scan", "17")
    assert code == 3
    code, _, err = run(capsys, "trees-scan", "0")
    assert code == 2 and "need n_max >= 1" in err


def test_trees_scan_eight_and_jobs_determinism(capsys):
    code, out1, _ = run(capsys, "trees-scan", "8")
    assert code == 0 and "no counterexamples" in out1
    code, out2, _ = run(capsys, "trees-scan", "8", "--jobs", "2")
    assert code == 0 and out2 == out1


def test_trees_scan_cache(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    code1, out1, _ = run(capsys, "trees-scan", "6", "--cache", str(cache))
    assert code1 == 0 and cache.exists()
    lines = cache.read_text().splitlines()
    assert len(lines) == 3  # one deg>=4 tree at n=5, two at n=6
    rec = json.loads(lines[0])
    assert rec["command"] == "trees-scan" and rec["result"]["e_positive"] is False
    # a second run is a pure cache hit: no new lines, identical output
    code2, out2, _ = run(capsys, "trees-scan", "6", "--cache", str(cache))
    assert code2 == 0 and out2 == out1
    assert cache.read_text().splitlines() == lines


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


def test_sweep_c500_cli_sampled(capsys):
    code, out, _ = run(capsys, "sweep", "c500", "41..60", "--mode", "sampled")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == [] and report["params"]["mode"] == "sampled"


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


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_sweep_c500_memory_stays_bounded():
    # each c's rows are dropped once folded in; 41..200 has 1,293,840 of them in all.
    # A child's ru_maxrss starts from its parent's peak on Linux, so a fresh
    # interpreter, not this test process, starts the sweep and reads its peak.
    launcher = ("import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:]); "
                "_, status, usage = os.wait4(p.pid, 0); "
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    src = str(Path(cli.__file__).resolve().parents[1])
    sweep = [sys.executable, "-m", "epolab", "sweep", "c500", "41..200"]
    done = subprocess.run([sys.executable, "-c", launcher] + sweep, capture_output=True, text=True,
                          env={"PYTHONPATH": src, "PATH": ""}, timeout=300)
    report, peak = done.stdout.splitlines()
    code, kib = map(int, peak.split())
    assert code == 0 and json.loads(report)["failures"] == []
    assert kib < 50 * 1024, f"peak RSS {kib} KiB"


def test_sweep_bad_range(capsys):
    code, _, err = run(capsys, "sweep", "c500", "30..700")
    assert code == 2
    code, out, err = run(capsys, "sweep", "c40", "2..41")
    assert code == 2 and out == "" and "bad c range" in err


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


def test_sixm_cli(capsys):
    code, out, _ = run(capsys, "sixm", "1", "--cross-check")
    assert code == 0
    assert "101/101" in out and "agrees: True" in out
    code, out, _ = run(capsys, "sixm", "2", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["total"] == 1958 and rep["failures"] == []
    code, _, _ = run(capsys, "sixm", "4")
    assert code == 2


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
    torn.write_text(text[: text.rindex("\n", 0, -1) + 1 + 20])  # last record cut mid-line
    code, out, _ = run(capsys, "trees-scan", "6", "--cache", str(torn))
    assert code == 0 and out == expected
    repaired = torn.read_text()
    assert repaired.endswith(text.splitlines()[-1] + "\n")  # re-appended whole, on its own line
    code, out, _ = run(capsys, "trees-scan", "6", "--cache", str(torn))
    assert code == 0 and out == expected
    assert torn.read_text() == repaired


def test_trees_scan_cache_prunes_records_it_can_no_longer_serve(capsys, tmp_path):
    clean = tmp_path / "clean.jsonl"
    code, expected, _ = run(capsys, "trees-scan", "6", "--cache", str(clean))
    assert code == 0
    live = clean.read_text()
    keys = [json.loads(line)["key"] for line in live.splitlines()]
    # a record as the scan wrote it before it settled trees by certificate
    # (csf_e's route, no settled_by), then the live records, then a torn tail
    old = {"command": "trees-scan", "key": keys[0], "version": "0.1.0", "route": CSF_ROUTE,
           "result": {"n": 6, "max_degree": 4, "e_positive": False}}
    cache = tmp_path / "cache.jsonl"
    cache.write_text(json.dumps(old) + "\n" + live + live.splitlines()[0][:30])
    code, out, _ = run(capsys, "trees-scan", "6", "--cache", str(cache))
    assert code == 0 and out == expected
    assert cache.read_text() == live
    inode = os.stat(cache).st_ino
    again, fresh = cli.ResultCache(str(cache)), cli.ResultCache(str(clean))
    assert [again.get("trees-scan", k) for k in keys] == [fresh.get("trees-scan", k) for k in keys]
    assert None not in [again.get("trees-scan", k) for k in keys]
    assert cache.read_text() == live and os.stat(cache).st_ino == inode  # nothing dead: untouched


def test_trees_scan_cache_skips_lines_that_are_not_records(capsys, tmp_path):
    code, expected, _ = run(capsys, "trees-scan", "5")
    assert code == 0
    unhashable_key = {"command": "trees-scan", "key": ["x"], "version": "0.1.0",
                      "result": {"e_positive": True}}
    lines = ['{"command": "trees-scan", "key": "x"}', "[1, 2]", '"text"', "7", "null",
             json.dumps(unhashable_key)]
    for line in lines:
        cache = tmp_path / "partial.jsonl"
        cache.write_text(line + "\n")
        code, out, err = run(capsys, "trees-scan", "5", "--cache", str(cache))
        assert (code, out, err) == (0, expected, ""), line
        assert cache.read_text().startswith(line + "\n")


def test_trees_scan_cache_skips_records_without_a_verdict(capsys, tmp_path):
    clean = tmp_path / "clean.jsonl"
    code, expected, _ = run(capsys, "trees-scan", "5", "--cache", str(clean))
    assert code == 0
    for result in [5, {"e_positive": "no"}, {"n": 5}, {"e_positive": True}]:
        cache = tmp_path / "bad.jsonl"
        recs = [dict(json.loads(line), result=result) for line in clean.read_text().splitlines()]
        cache.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
        code, out, err = run(capsys, "trees-scan", "5", "--cache", str(cache))
        assert (code, out, err) == (0, expected, ""), result


def test_trees_scan_cache_skips_lines_that_are_not_utf8(capsys, tmp_path, monkeypatch):
    clean = tmp_path / "clean.jsonl"
    code, expected, _ = run(capsys, "trees-scan", "5", "--cache", str(clean))
    assert code == 0 and len(clean.read_text().splitlines()) == 1
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
    assert len(lookups) == 1 and lookups[0] is not None
    assert cache.read_bytes() == b"\xff\xfe\n" + clean.read_bytes()


def test_trees_scan_counterexamples_print_in_tree_order_whatever_the_cache_holds(
        capsys, tmp_path, monkeypatch):
    trees = [G for G in enumerate_free_trees(7) if max_degree(G) >= 4]
    forged = {trees[0].edges, trees[-1].edges}
    settle = cli._settle_tree
    monkeypatch.setattr(cli, "_settle_tree", lambda G: {"e_positive": True, "settled_by": "csf"}
                        if G.edges in forged else settle(G))
    cold = tmp_path / "cold.jsonl"
    code, expected, _ = run(capsys, "trees-scan", "7", "--cache", str(cold))
    assert code == 1 and expected.index(str(sorted(trees[0].edges))) < expected.index(
        str(sorted(trees[-1].edges)))
    positives = [line for line in cold.read_text().splitlines() if '"e_positive": true' in line]
    assert len(positives) == 2
    cache = tmp_path / "later-tree-only.jsonl"
    cache.write_text(positives[-1] + "\n")  # the later tree is a hit, the earlier a miss
    code, out, _ = run(capsys, "trees-scan", "7", "--cache", str(cache))
    assert (code, out) == (1, expected)


def test_settle_route_agrees_with_csf_and_every_reported_type_is_absent():
    for n in range(5, 12):
        for G in enumerate_free_trees(n):
            if max_degree(G) < 4:
                continue
            assert cli._settle_tree(G)["e_positive"] == is_e_positive(G).positive
            certs = [theorem_decide(profile) for _, profile in cut_profiles(G)]
            for lam in [cert.lam for cert in certs if cert] + missing_types(G):
                assert has_connected_partition(G, lam) is None, (sorted(G.edges), lam)
    # S(6,4,1,1) has every type, so only csf_e settles it
    assert cli._settle_tree(spider((6, 4, 1, 1))) == {"e_positive": False, "settled_by": "csf"}


def test_sweep_checks_its_output_paths_before_it_runs(capsys, tmp_path, monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before its output paths were checked")

    monkeypatch.setattr(cli, "sweep_c40", sweep)
    for flag, name in [("--out", "x.json"), ("--csv", "x.csv")]:
        code, out, err = run(capsys, "sweep", "c40", flag, str(tmp_path / "no-such-dir" / name))
        assert code == 2 and out == "" and err.startswith("error: cannot open "), (flag, err)


def test_cli_import_leaves_numpy_out():
    import subprocess
    import sys
    from pathlib import Path

    import epolab

    src = str(Path(epolab.__file__).resolve().parents[1])
    probe = "import sys, epolab.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
