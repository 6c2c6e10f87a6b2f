"""CLI failure modes: state budget, stale cache records, crashes, `-m` entry,
size guards ahead of graph building, user-named files that cannot be opened, written or
rewritten, and a stdout whose reader has gone."""

import errno
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest

import support

import epolab
from epolab import cli, graphs, obstructions, symfunc
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
    # the same rows with no route tag, and under other routes (csf_e's own among
    # them, the scan's tag before it settled trees by certificate), each with a
    # forged counterexample, and a record of the per-tree format with a flipped
    # verdict: serving any would change the output
    stale = [json.dumps({"command": "trees-scan", "key": "n5:0-1,0-2,0-3,0-4", "version": epolab.__version__,
                         "route": cli.SCAN_ROUTE, "result": {"e_positive": True, "settled_by": "csf"}})]
    for line in clean.read_text().splitlines():
        rec = json.loads(line)
        assert rec.pop("route") == cli.SCAN_ROUTE
        rec["row"]["counterexamples"] = [[[0, 1]]]
        stale.append(json.dumps(rec))
        stale.append(json.dumps(dict(rec, route="tally=subsets;p2e=newton")))
        stale.append(json.dumps(dict(rec, route="tally=tree-dp+frontier-dp;p2e=waring")))
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
    assert lookups == [None] * 6
    assert seeded.read_text() == clean.read_text()  # the dead lines went at the first write


def test_trees_scan_cache_that_cannot_be_rewritten_exits_2(capsys, tmp_path, monkeypatch):
    def mkstemp(**kwargs):  # as in a directory that takes no new file
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
    cache = tmp_path / "cache.jsonl"
    cache.write_text("not a row\n")
    code, out, err = run(capsys, "trees-scan", "5", "--cache", str(cache))
    assert (code, out, err) == (2, "", f"error: cannot write {cache}: Permission denied\n")
    assert cache.read_text() == "not a row\n" and os.listdir(tmp_path) == ["cache.jsonl"]


def test_trees_scan_cache_write_that_fails_exits_2_and_keeps_the_old_file(capsys, tmp_path, monkeypatch):
    def no_space(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    fdopen = os.fdopen

    class FullFile:  # the temp file, on a disk that fills up
        def __init__(self, fd, mode):
            self.fh = fdopen(fd, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        writelines = no_space

    cache = tmp_path / "cache.jsonl"
    for name, failing in [("fdopen", FullFile), ("chmod", no_space), ("replace", no_space)]:
        cache.write_text("not a row\n")
        with monkeypatch.context() as patch:
            patch.setattr(os, name, failing)
            code, out, err = run(capsys, "trees-scan", "5", "--cache", str(cache))
        assert (code, out, err) == (2, "", f"error: cannot write {cache}: No space left on device\n"), name
        assert cache.read_text() == "not a row\n" and os.listdir(tmp_path) == ["cache.jsonl"], name


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_user_files_that_cannot_be_written_exit_2(capsys):
    # c500 41..60 writes more --csv rows than one buffer holds, so a write fails before the close
    for argv in [("c40", "2..5", "--out"), ("c40", "2..5", "--csv"), ("c500", "41..60", "--csv")]:
        code, out, err = run(capsys, "sweep", *argv, "/dev/full")
        assert (code, out, err) == (2, "", "error: cannot write /dev/full: No space left on device\n"), argv


def test_crash_exits_internal_error(capsys, monkeypatch):
    def boom(G):
        raise RuntimeError("boom")

    monkeypatch.setattr(symfunc, "csf_e", boom)
    code, out, err = run(capsys, "epos", "path:4")
    assert code == 4 and out == ""
    assert err == "internal error: RuntimeError: boom\n"

    # inside sixm, only the construction's own RuntimeError is a finding (test_sixm_cli)
    def broken(lam, m):
        raise TypeError("broken")

    monkeypatch.setattr(obstructions, "sixm_rearrangement", broken)
    code, out, err = run(capsys, "sixm", "1")
    assert code == 4 and out == ""
    assert err == "internal error: TypeError: broken\n"


def test_argparse_exit_codes_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_python_m_epolab():
    done = subprocess.run(
        [sys.executable, "-m", "epolab", "--version"],
        env=support.CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"epolab {epolab.__version__}\n"


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [("csf", "path:5"), ("trees-scan", "9")])
def test_closed_stdout_exits_141_quietly(argv, unbuffered):
    # as in `epolab trees-scan 9 | head -1`: the reader closes its end before the command writes
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "epolab", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env={**support.CHILD_ENV, "PYTHONUNBUFFERED": unbuffered},
            timeout=60,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b""), argv


def test_size_guard_fires_before_any_graph_is_built(capsys, tmp_path, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("a graph was built past its size guard")

    monkeypatch.setattr(Graph, "__init__", build)
    for name in ("spider", "path_graph", "star_graph"):
        monkeypatch.setattr(graphs, name, build)
    huge = tmp_path / "huge.txt"
    huge.write_text("1000000000\n0 1\n")
    for argv, n, limit in [
        (("csf", "path:1000000000"), 1000000000, 31),
        (("connparts", "spider:999999999,1"), 1000000001, 25),
        (("csf", str(huge)), 1000000000, 31),
        (("prove", "path:1000000000"), 1000000000, 50000),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", f"error: size guard, n={n} > {limit}\n"), argv


def test_user_files_that_cannot_be_opened_exit_2(capsys, tmp_path, monkeypatch):
    def scan(n):
        raise AssertionError("the scan started before the cache path was checked")

    monkeypatch.setattr(graphs, "open_trees", scan)
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
