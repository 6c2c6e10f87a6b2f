"""Command-line front end: epolab csf|epos|connparts|prove|sweep|trees-scan|sixm.

Exit codes: 0 success / positive outcome, 1 negative finding (not e-positive,
missing type, sweep failure, theorem not applicable), 2 usage or parse error,
3 size-guard violation or state budget exceeded, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Optional

from . import __version__
from .graphs import (
    MISSING_TYPES_MAX_N,
    CutProfile,
    Graph,
    cut_profiles,
    has_connected_partition,
    is_connected as is_graph_connected,
    max_degree,
    missing_types,
    enumerate_free_trees,
    path_graph,
    spider,
    star_graph,
)
from .obstructions import (
    describe_inapplicability,
    parallel_map,
    sixm_full_check,
    sweep_c40,
    sweep_c500,
    theorem_decide,
)
from .partitions import format_parts, parse_partition
from .symfunc import CSF_MAX_N, CSF_ROUTE, StateBudgetError, csf_e, is_e_positive

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4

TREES_SCAN_MAX_N = 16  # trees-scan's guard on n_max, the free-tree enumerator's own
# tags trees-scan's cached verdicts: the settle route, then csf_e's algorithms
SCAN_ROUTE = f"settle=certificate,missing-type,csf;{CSF_ROUTE}"
SETTLE_STEPS = ("certificate", "missing-type", "csf")  # a verdict's settled_by, in route order
# prove's guard on n: Graph.adj holds about n^2/16 bytes on a path, and
# prove path:50000 peaks at 206 MB and answers in 1.6 s on a 2-core host.
PROVE_MAX_N = 50_000


class SpecError(ValueError):
    """Malformed input (graph/profile shorthand, file, type, range): exit 2."""


class GuardError(Exception):
    """Input beyond a subcommand's size guard: exit 3."""


def _open_user_file(path: str, mode: str):
    """open(path, mode) for a file the user named; failing to open it is a usage error."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise SpecError(f"cannot open {path}: {exc.strerror}") from None


def parse_graph_spec(spec: str, limit: Optional[int] = None, connected: bool = False) -> Graph:
    """Accept "spider:6,4,1,1", "path:7", "star:5", or a graph file path.

    Raises GuardError past `limit` vertices, from n alone, before any graph
    is built; and SpecError on a disconnected graph when `connected` is set.
    """

    def guard(n: int) -> None:
        if limit is not None and n > limit:
            raise GuardError(f"size guard, n={n} > {limit}")

    if ":" in spec:
        kind, _, rest = spec.partition(":")
        kind = kind.strip().lower()
        if kind not in ("spider", "path", "star"):
            raise SpecError(f"unknown graph shorthand kind {kind!r}")
        try:
            if kind == "spider":
                legs = sorted((int(t) for t in rest.split(",")), reverse=True)
                guard(1 + sum(legs))
                G = spider(legs)
            else:
                guard(int(rest))
                G = (path_graph if kind == "path" else star_graph)(int(rest))
        except (ValueError, TypeError) as exc:
            raise SpecError(f"bad {kind} shorthand {spec!r}: {exc}") from None
    else:
        with _open_user_file(spec, "r") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise SpecError(str(exc)) from None
        try:
            guard(int(text.lstrip().partition("\n")[0]))  # Graph.from_text's n: the first line
        except ValueError:
            pass  # no n there: from_text reports the malformed text
        try:
            G = Graph.from_text(text)
        except ValueError as exc:
            raise SpecError(str(exc)) from None
    if connected and not is_graph_connected(G):
        raise SpecError("graph must be connected")
    return G


def parse_profile_spec(spec: str) -> CutProfile:
    """Parse "profile:a=6,b=4,cs=1,1"."""
    body = spec.partition(":")[2]
    fields = {}
    key = None
    for tok in body.split(","):
        if "=" in tok:
            key, _, val = tok.partition("=")
            fields[key.strip()] = [val.strip()]
        elif key is not None:
            fields[key.strip()].append(tok.strip())
        else:
            raise SpecError(f"bad profile spec {spec!r}")
    try:
        a = int(fields["a"][0])
        b = int(fields["b"][0])
        cs = [int(v) for v in fields["cs"]]
        return CutProfile(a, b, cs)
    except (KeyError, ValueError) as exc:
        raise SpecError(f"bad profile spec {spec!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Result cache (append-only JSON lines)


class ResultCache:
    """Append-only JSONL cache keyed by (command, input key, version, route).

    The route tag names the algorithms behind a result (SCAN_ROUTE), so a
    record without it, or with another, is a miss.  A line that does not
    parse is what an interrupted append leaves behind: it is skipped, and the
    next append starts on a fresh line so that its record stays whole.  A line
    that is not UTF-8, or parses but is not a whole record, or whose result is
    not an object with a bool `e_positive` and a `settled_by` from
    SETTLE_STEPS (the only command cached is trees-scan), is skipped too, as a
    miss.  Records are written as ASCII JSON, so a skipped line is never one
    of them.  A whole record under another version or route can never be
    served again: when a load finds one, it rewrites the file with only the
    records it can serve.
    """

    def __init__(self, path: Optional[str]):
        self.path = path
        self._records = {}
        self._torn_tail = False
        if path:
            with _open_user_file(path, "a+b") as fh:  # a path that cannot take appends fails here
                fh.seek(0)
                data = fh.read()
            self._torn_tail = bool(data) and not data.endswith(b"\n")
            live, dead = [], False
            for line in data.splitlines():
                try:
                    rec = json.loads(line.decode("utf-8"))
                    key = (rec["command"], rec["key"], rec["version"], rec.get("route"))
                    result = rec["result"]
                    hash(key)  # a key that cannot be a dict key makes the line no record
                except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
                    continue
                if key[2:] != (__version__, SCAN_ROUTE):
                    dead = True
                elif (isinstance(result, dict) and isinstance(result.get("e_positive"), bool)
                        and result.get("settled_by") in SETTLE_STEPS):
                    self._records[key] = result
                    live.append(line)
            if dead:
                try:
                    self._rewrite(live)
                except OSError:
                    pass  # no temp file can go beside it: the dead records stay, as misses

    def _rewrite(self, lines) -> None:
        """Replace the file by these lines, through a temp file beside it and os.replace,
        so that a reader finds the old file or the new one, never a mix."""
        import tempfile  # only a load that prunes needs it, so no other call imports it

        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(self.path)))
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(line + b"\n" for line in lines)
            os.chmod(tmp, os.stat(self.path).st_mode & 0o7777)
            os.replace(tmp, self.path)
        except BaseException:
            os.unlink(tmp)
            raise
        self._torn_tail = False

    def get(self, command: str, key: str):
        return self._records.get((command, key, __version__, SCAN_ROUTE))

    def put(self, command: str, records) -> None:
        """Store (key, result) pairs; the new ones are appended to the file in one open."""
        lines = []
        for key, result in records:
            full_key = (command, key, __version__, SCAN_ROUTE)
            if full_key not in self._records:
                self._records[full_key] = result
                record = {"command": command, "key": key, "version": __version__,
                          "route": SCAN_ROUTE, "result": result}
                lines.append(json.dumps(record, sort_keys=True) + "\n")
        if self.path and lines:
            with open(self.path, "a") as fh:
                if self._torn_tail:
                    fh.write("\n")
                    self._torn_tail = False
                fh.writelines(lines)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_csf(args) -> int:
    X = csf_e(parse_graph_spec(args.graph, CSF_MAX_N))
    print(json.dumps(X.to_json_dict()) if args.json else X.to_text())
    return EXIT_OK


def cmd_epos(args) -> int:
    verdict = is_e_positive(parse_graph_spec(args.graph, CSF_MAX_N))
    if args.json:
        negatives = [{"lambda": list(lam), "coeff": str(c)} for lam, c in verdict.negatives]
        print(json.dumps({"e_positive": verdict.positive, "negatives": negatives}))
    elif verdict.positive:
        print("e-positive")
    else:
        print("not e-positive; negative terms:")
        for lam, c in verdict.negatives:
            print(f"{c} * e_{format_parts(lam)}")
    return EXIT_OK if verdict.positive else EXIT_NEGATIVE


def cmd_connparts(args) -> int:
    G = parse_graph_spec(args.graph, MISSING_TYPES_MAX_N, connected=True)
    try:
        lam = parse_partition(args.type) if args.type is not None else None
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    if lam is not None:
        if sum(lam) != G.n:
            raise SpecError(f"type {format_parts(lam)} does not sum to n={G.n}")
        witness = has_connected_partition(G, lam)
        if args.json:
            blocks = [sorted(b) for b in witness.blocks] if witness else None
            print(json.dumps({"type": list(lam), "present": witness is not None, "blocks": blocks}))
        elif witness is None:
            print(f"absent: no connected partition of type {format_parts(lam)}")
        else:
            print(f"present: {', '.join(str(sorted(b)) for b in witness.blocks)}")
        return EXIT_OK if witness is not None else EXIT_NEGATIVE
    missing = missing_types(G)
    if args.json:
        print(json.dumps({"n": G.n, "missing": [list(lam) for lam in missing]}))
    elif missing:
        print(f"{len(missing)} missing type(s):")
        for lam in missing:
            print(format_parts(lam))
    else:
        print("complete: a connected partition exists for every type")
    return EXIT_OK if not missing else EXIT_NEGATIVE


def cmd_prove(args) -> int:
    if args.spec.startswith("profile:"):
        profiles = [parse_profile_spec(args.spec)]
    else:
        G = parse_graph_spec(args.spec, PROVE_MAX_N, connected=True)
        profiles = [p for _, p in cut_profiles(G)]
        if not profiles:
            print("NOT-APPLICABLE: no cut vertex splits the graph into >= 3 components")
            return EXIT_NEGATIVE
    for profile in profiles:
        cert = theorem_decide(profile)
        if cert is not None:
            print(json.dumps(cert.to_json_dict()))
            return EXIT_OK
    reasons = "; ".join(
        f"(a={p.a},b={p.b},cs={list(p.cs)}): {describe_inapplicability(p)}" for p in profiles
    )
    print(f"NOT-APPLICABLE: {reasons}")
    return EXIT_NEGATIVE


def _settle_tree(G: Graph) -> dict:
    """A tree's verdict and the first step of the route that settles it.

    An e-positive graph has a connected partition of every type, so a
    certificate on a cut profile, or else a type the tree DP misses, settles
    "not e-positive"; csf_e runs only on a tree that has every type.
    """
    if any(theorem_decide(profile) is not None for _, profile in cut_profiles(G)):
        return {"e_positive": False, "settled_by": "certificate"}
    if missing_types(G):
        return {"e_positive": False, "settled_by": "missing-type"}
    return {"e_positive": is_e_positive(G).positive, "settled_by": "csf"}


def cmd_trees_scan(args) -> int:
    n_max = args.n_max
    if n_max < 1:
        raise SpecError("need n_max >= 1")
    if n_max > TREES_SCAN_MAX_N:
        raise GuardError(f"size guard, n_max={n_max} > {TREES_SCAN_MAX_N}")
    cache = ResultCache(args.cache)
    counterexamples = []
    rows = []
    for n in range(1, n_max + 1):
        qualifying = [G for G in enumerate_free_trees(n) if max_degree(G) >= 4]
        # the edge list determines the tree, so a hit is that tree's own verdict
        keys = [f"n{n}:" + ",".join(f"{u}-{v}" for u, v in sorted(G.edges)) for G in qualifying]
        verdicts = [cache.get("trees-scan", key) for key in keys]
        todo = [i for i, hit in enumerate(verdicts) if hit is None]
        fresh = parallel_map(_settle_tree, [qualifying[i] for i in todo], args.jobs)
        for i, verdict in zip(todo, fresh):
            verdicts[i] = {"n": n, "max_degree": max_degree(qualifying[i]), **verdict}
        cache.put("trees-scan", [(keys[i], verdicts[i]) for i in todo])
        bad = [G for G, verdict in zip(qualifying, verdicts) if verdict["e_positive"]]
        counterexamples.extend(bad)
        settled = Counter(verdict["settled_by"] for verdict in verdicts)
        rows.append((n, len(qualifying), len(bad), settled))
    if args.json:
        table = [{"n": n, "degree4_trees": q, "counterexamples": b,
                  "settled": {step.replace("-", "_"): settled[step] for step in SETTLE_STEPS}}
                 for n, q, b, settled in rows]
        found = [sorted(g.edges) for g in counterexamples]
        print(json.dumps({"n_max": n_max, "rows": table, "counterexamples": found}))
    else:
        print(f"{'n':>3} {'deg>=4 trees':>13} {'e-positive (unexpected)':>24}")
        for n, q, b, _ in rows:
            print(f"{n:>3} {q:>13} {b:>24}")
        if counterexamples:
            print("counterexamples found:")
            for g in counterexamples:
                print(f"  {sorted(g.edges)}")
        else:
            print("no counterexamples: every scanned tree with a degree-4 vertex fails e-positivity")
    return EXIT_NEGATIVE if counterexamples else EXIT_OK


def _parse_range(text: Optional[str], lo_default: int, hi_default: int):
    if not text:
        return lo_default, hi_default
    try:
        lo, _, hi = text.partition("..")
        return int(lo), int(hi)
    except ValueError:
        raise SpecError(f"bad range {text!r}, expected LO..HI") from None


def cmd_sweep(args) -> int:
    for path in (args.out, args.csv):
        if path:
            _open_user_file(path, "a").close()  # an unwritable path fails before the sweep runs
    csv = None

    def write_rows(rows) -> None:
        """Append one c's rows to --csv, which opens at the first c: once the sweep has
        accepted its range, so that a usage error leaves the file as it was."""
        nonlocal csv
        if csv is None:
            csv = _open_user_file(args.csv, "w")
            csv.write("c,b,n_lo,n_hi,cells,failures\n" if args.kind == "c40" else "c,b,q\n")
        csv.writelines(",".join(map(str, row)) + "\n" for row in rows)

    sink = write_rows if args.csv else None
    try:
        if args.kind == "c40":
            lo, hi = _parse_range(args.range, 2, 40)
            report = sweep_c40(lo, hi, jobs=args.jobs, rows=sink)
        else:
            lo, hi = _parse_range(args.range, 41, 500)
            report = sweep_c500(lo, hi, mode=args.mode, jobs=args.jobs, rows=sink)
    except ValueError as exc:  # the sweeps reject out-of-range parameters
        raise SpecError(str(exc)) from None
    finally:
        if csv is not None:
            csv.close()
    payload = json.dumps(report.to_json_dict(), sort_keys=True)
    if args.out:
        with _open_user_file(args.out, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def cmd_sixm(args) -> int:
    if not 1 <= args.m <= 3:
        raise SpecError(f"need 1 <= m <= 3, got {args.m}")
    if args.cross_check and args.m != 1:
        raise SpecError("--cross-check is only feasible for m=1")
    report = sixm_full_check(args.m)
    agree = None
    if args.cross_check:
        agree = not missing_types(spider((6, 4, 1, 1)))
    if args.json:
        out = report.to_json_dict()
        if agree is not None:
            out["brute_force_agrees"] = agree
        print(json.dumps(out))
    else:
        print(f"m={args.m}: {report.total - len(report.failures)}/{report.total} types realized")
        for case, count in sorted(report.case_tallies.items()):
            print(f"  {case:>24}: {count}")
        if args.m == 1:
            print(f"  materialized and validated on S(6,4,1,1): {report.materialized}")
        if agree is not None:
            print(f"  brute-force search agrees: {agree}")
        for lam, err in report.failures:
            print(f"  FAILURE at {lam}: {err}")
    return EXIT_NEGATIVE if report.failures or agree is False else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epolab",
        description="Chromatic symmetric functions, connected partitions, and missing-type certificates.",
    )
    parser.add_argument("--version", action="version", version=f"epolab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("csf", help="print the e-basis expansion of X_G")
    p.add_argument("graph", help="spider:6,4,1,1 | path:7 | star:5 | FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_csf)

    p = sub.add_parser("epos", help="decide e-positivity (exit 0 yes, 1 no)")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_epos)

    p = sub.add_parser("connparts", help="missing types, or a witness for --type")
    p.add_argument("graph")
    p.add_argument("--type", help='partition such as "(3,2,2)"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_connparts)

    p = sub.add_parser("prove", help="missing-type certificate for a graph or profile")
    p.add_argument("spec", help="graph spec or profile:a=6,b=4,cs=1,1")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("sweep", help="exhaustive certificate sweeps")
    p.add_argument("kind", choices=["c40", "c500"])
    p.add_argument("range", nargs="?", help="LO..HI (defaults: 2..40 / 41..500)")
    p.add_argument("--mode", choices=["full", "sampled"], default="full")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="write the JSON report to this file")
    p.add_argument("--csv", help="write per-cell rows to this CSV file")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("trees-scan", help="degree>=4 trees are never e-positive")
    p.add_argument("n_max", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cache", help="append-only JSONL result cache")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_trees_scan)

    p = sub.add_parser("sixm", help="every type of 12m+1 embeds in S(6m,6m-2,1,1)")
    p.add_argument("m", type=int)
    p.add_argument("--cross-check", action="store_true", dest="cross_check")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_sixm)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise SpecError("parallelism must be >= 1")
        code = args.fn(args)
    except (SpecError, GuardError, StateBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE if isinstance(exc, SpecError) else EXIT_GUARD
    except Exception as exc:  # a crash must not exit 1, the code of a finding
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_INTERNAL
    if argv is None:
        sys.exit(code)
    return code
