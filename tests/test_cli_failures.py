"""CLI failure modes: state budget, stale cache records, crashes, `-m` entry,
size guards ahead of graph building, and user-named files that cannot be opened."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import epolab
from epolab import cli, symfunc
from epolab.cli import main
from epolab.graphs import Graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _complete_graph_file(tmp_path, n: int) -> str:
    path = tmp_path / f"k{n}.txt"
    path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u in range(n) for v in range(u + 1, n)))
    return str(path)


def test_csf_state_budget(capsys, tmp_path):
    # K12 would need Bell(12) = 4,213,597 live states; the budget stops it early
    start = time.perf_counter()
    code, out, err = run(capsys, "csf", _complete_graph_file(tmp_path, 12))
    assert code == 3 and out == "" and "live states" in err and len(err.splitlines()) == 1
    assert time.perf_counter() - start < 60
    code, out, _ = run(capsys, "csf", _complete_graph_file(tmp_path, 10))
    assert code == 0 and out == "3628800 * e_(10)\n"


def test_trees_scan_cache_ignores_records_of_another_route(capsys, tmp_path, monkeypatch):
    clean = tmp_path / "clean.jsonl"
    code, expected, _ = run(capsys, "trees-scan", "6", "--cache", str(clean))
    assert code == 0
    # the same records in the format without a route tag, and under other routes
    # (csf_e's own among them, the scan's tag before it settled trees by certificate),
    # each with the verdict flipped: serving any would change the output
    stale = []
    for line in clean.read_text().splitlines():
        rec = json.loads(line)
        assert rec.pop("route") == cli.SCAN_ROUTE
        rec["result"]["e_positive"] = True
        stale.append(json.dumps(rec))
        stale.append(json.dumps(dict(rec, route="tally=subsets;p2e=newton")))
        stale.append(json.dumps(dict(rec, route=symfunc.CSF_ROUTE)))
    seeded = tmp_path / "seeded.jsonl"
    seeded.write_text("\n".join(stale) + "\n")

    lookups = []
    get = cli.ResultCache.get

    def recording_get(self, *args):
        lookups.append(get(self, *args))
        return lookups[-1]

    monkeypatch.setattr(cli.ResultCache, "get", recording_get)
    code, out, _ = run(capsys, "trees-scan", "6", "--cache", str(seeded))
    assert code == 0 and out == expected
    assert len(lookups) == 3 and lookups == [None] * 3
    assert seeded.read_text() == clean.read_text()  # the dead records were pruned on load


def test_crash_exits_internal_error(capsys, monkeypatch):
    def boom(G):
        raise RuntimeError("boom")

    monkeypatch.setattr(symfunc, "csf_e", boom)
    code, out, err = run(capsys, "epos", "path:4")
    assert code == 4 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_argparse_exit_codes_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_python_m_epolab():
    src = str(Path(epolab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "epolab", "--version"],
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"epolab {epolab.__version__}\n"


def test_size_guard_fires_before_any_graph_is_built(capsys, tmp_path, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("a graph was built past its size guard")

    monkeypatch.setattr(Graph, "__post_init__", build)
    for name in ("spider", "path_graph", "star_graph"):
        monkeypatch.setattr(cli, name, build)
    huge = tmp_path / "huge.txt"
    huge.write_text("1000000000\n0 1\n")
    for argv, n, limit in [
        (("csf", "path:1000000000"), 1000000000, 20),
        (("connparts", "spider:999999999,1"), 1000000001, 25),
        (("csf", str(huge)), 1000000000, 20),
        (("prove", "path:1000000000"), 1000000000, 50000),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", f"error: size guard, n={n} > {limit}\n"), argv


def test_user_files_that_cannot_be_opened_exit_2(capsys, tmp_path, monkeypatch):
    def scan(n):
        raise AssertionError("the scan started before the cache path was checked")

    monkeypatch.setattr(cli, "enumerate_free_trees", scan)
    nowhere = tmp_path / "no-such-dir"
    for argv in [
        ("sweep", "c40", "2..3", "--out", str(nowhere / "x.json")),
        ("sweep", "c40", "2..3", "--csv", str(nowhere / "x.csv")),
        ("trees-scan", "5", "--cache", str(nowhere / "x.jsonl")),
        ("trees-scan", "5", "--cache", str(tmp_path)),
        ("connparts", str(tmp_path)),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: cannot open ") and err.count("\n") == 1, (argv, err)
    assert not nowhere.exists()
    # a graph file that opens but does not decode is a usage error too
    undecodable = tmp_path / "bytes.txt"
    undecodable.write_bytes(b"\xff\xfe3\n0 1\n")
    code, _, err = run(capsys, "csf", str(undecodable))
    assert code == 2 and err.startswith("error: 'utf-8' codec can't decode")
