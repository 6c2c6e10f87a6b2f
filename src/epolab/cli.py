"""Command-line front end: epolab csf|epos|connparts|prove|sweep|trees-scan|sixm.

Exit codes: 0 success / positive outcome, 1 negative finding (not e-positive,
missing type, sweep failure, theorem not applicable), 2 usage or parse error,
3 size-guard violation or state or part budget exceeded (GuardError), 4 internal
error, 141 (128 + SIGPIPE) when the reader of stdout has closed it.

Each command imports the library modules it runs when it is called, so
`--version` loads none of them, and only output or a cache in JSON loads `json`.
The command line is read from one table, COMMANDS, without argparse.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from . import GuardError, __version__

if TYPE_CHECKING:
    from .graphs import CutProfile, Graph

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141  # 128 + SIGPIPE: the reader closed stdout

# tags trees-scan's cached rows: the settle route, then csf_e's tally and p->e algorithms
SCAN_ROUTE = "settle=certificate,missing-type,csf;tally=tree-dp+frontier-dp;p2e=waring"
SETTLE_STEPS = ("certificate", "missing_type", "csf")  # a verdict's settled_by, in route order
# trees-scan's guard on n_max: a cold `trees-scan 22 --jobs 2` takes 7.5-14 s on a 2-core host
SCAN_MAX_N = 22
# prove's guard on n: Graph.adj holds about n^2/16 bytes on a path, and
# prove path:50000 peaks at 206 MB and answers in 1.6 s on a 2-core host.
PROVE_MAX_N = 50_000


class SpecError(ValueError):
    """Malformed input (graph/profile shorthand, file, type, range): exit 2."""


@contextmanager
def _user_file(path: str, verb: str):
    """An OSError inside is a usage error: the file the user named at path cannot be opened or written."""
    try:
        yield
    except OSError as exc:
        raise SpecError(f"cannot {verb} {path}: {exc.strerror}") from None


def _open_user_file(path: str, mode: str):
    """open(path, mode) for a file the user named; failing to open it is a usage error."""
    with _user_file(path, "open"):
        return open(path, mode)


def parse_graph_spec(spec: str, limit: Optional[int] = None, connected: bool = False) -> Graph:
    """Accept "spider:6,4,1,1", "path:7", "star:5", or a graph file path.

    Raises GuardError past `limit` vertices, from n alone, before any graph
    is built; and SpecError on a disconnected graph when `connected` is set.
    """
    from .graphs import Graph, is_connected, path_graph, spider, star_graph

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
    if connected and not is_connected(G):
        raise SpecError("graph must be connected")
    return G


def parse_profile_spec(spec: str) -> CutProfile:
    """Parse "profile:a=6,b=4,cs=1,1"."""
    from .graphs import CutProfile
    body = spec.partition(":")[2]
    fields = {}
    key = None
    for tok in body.split(","):
        if "=" in tok:
            key, _, val = tok.partition("=")
            key = key.strip()
            if key not in ("a", "b", "cs"):
                raise SpecError(f"bad profile spec {spec!r}: unknown field {key}")
            if key in fields:
                raise SpecError(f"bad profile spec {spec!r}: repeated field {key}")
            fields[key] = [val.strip()]
        elif key is not None:
            fields[key].append(tok.strip())
        else:
            raise SpecError(f"bad profile spec {spec!r}")
    try:
        a = int(fields["a"][0])
        b = int(fields["b"][0])
        cs = [int(v) for v in fields["cs"]]
        return CutProfile(a, b, cs)
    except KeyError as exc:
        raise SpecError(f"bad profile spec {spec!r}: missing field {exc.args[0]}") from None
    except ValueError as exc:
        raise SpecError(f"bad profile spec {spec!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Result cache (JSON lines, one row per n)


class ResultCache:
    """JSONL cache of trees-scan rows, one line per n.

    A line holds command "trees-scan", n, the version, a route tag naming the
    algorithms behind its row (SCAN_ROUTE) and the row: `degree4_trees`,
    `counterexamples` (each an edge list) and `settled` (a count per step of
    SETTLE_STEPS).  A line that is not UTF-8, or does not parse, or is under
    another command, version or route, or whose row lacks a field or holds
    one of another type, is skipped, as a miss.  Each put rewrites the whole
    file with the rows the cache holds, so a skipped line is gone after the
    first write.
    """

    def __init__(self, path: Optional[str]):
        self.path = path
        self._rows = {}
        if not path:
            return
        import json
        with _open_user_file(path, "a+b") as fh:  # a path that cannot be written fails here
            fh.seek(0)
            lines = fh.read().splitlines()
        for line in lines:
            try:
                rec = json.loads(line.decode("utf-8"))
                if (rec["command"], rec["version"], rec["route"]) != ("trees-scan", __version__, SCAN_ROUTE):
                    continue
                n, row = rec["n"], rec["row"]
                # the row as the scan builds it: edges as tuples, steps in route order
                counterexamples = [[(u, v) for u, v in edges] for edges in row["counterexamples"]]
                row = {"degree4_trees": row["degree4_trees"], "counterexamples": counterexamples,
                       "settled": {step: row["settled"][step] for step in SETTLE_STEPS}}
            except (ValueError, KeyError, TypeError):  # UnicodeDecodeError and JSONDecodeError are ValueErrors
                continue
            ends = [v for edges in counterexamples for edge in edges for v in edge]
            if all(type(v) is int for v in [n, row["degree4_trees"], *row["settled"].values(), *ends]):
                self._rows[n] = row

    def get(self, n: int):
        return self._rows.get(n)

    def put(self, n: int, row: dict) -> None:
        """Hold the row of size n, and replace the file by every row held, through a
        temp file beside it and os.replace, so that a reader finds the old file or the
        new one, never a mix."""
        self._rows[n] = row
        if not self.path:
            return
        import tempfile  # only a miss writes, so a warm scan never imports it

        lines = [_json({"command": "trees-scan", "n": n, "version": __version__,
                        "route": SCAN_ROUTE, "row": row}, sort_keys=True) + "\n"
                 for n, row in sorted(self._rows.items())]
        with _user_file(self.path, "write"):
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(self.path)))
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.writelines(lines)
                os.chmod(tmp, os.stat(self.path).st_mode & 0o7777)
                os.replace(tmp, self.path)
            except BaseException:
                os.unlink(tmp)
                raise


# ---------------------------------------------------------------------------
# Subcommands


def _json(value, **kwargs) -> str:
    import json  # only the paths that write JSON load it
    return json.dumps(value, **kwargs)


def cmd_csf(args) -> int:
    from .partitions import PACKED_MAX_N
    from .symfunc import csf_e
    X = csf_e(parse_graph_spec(args.graph, PACKED_MAX_N))
    print(_json(X.to_json_dict()) if args.json else X.to_text())
    return EXIT_OK


def cmd_epos(args) -> int:
    from .partitions import PACKED_MAX_N, format_parts
    from .symfunc import is_e_positive
    verdict = is_e_positive(parse_graph_spec(args.graph, PACKED_MAX_N))
    if args.json:
        negatives = [{"lambda": list(lam), "coeff": str(c)} for lam, c in verdict.negatives]
        print(_json({"e_positive": verdict.positive, "negatives": negatives}))
    elif verdict.positive:
        print("e-positive")
    else:
        print("not e-positive; negative terms:")
        for lam, c in verdict.negatives:
            print(f"{c} * e_{format_parts(lam)}")
    return EXIT_OK if verdict.positive else EXIT_NEGATIVE


def cmd_connparts(args) -> int:
    from .graphs import MISSING_TYPES_MAX_N, has_connected_partition, missing_types
    from .partitions import format_parts, parse_partition
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
            print(_json({"type": list(lam), "present": witness is not None, "blocks": blocks}))
        elif witness is None:
            print(f"absent: no connected partition of type {format_parts(lam)}")
        else:
            print(f"present: {', '.join(str(sorted(b)) for b in witness.blocks)}")
        return EXIT_OK if witness is not None else EXIT_NEGATIVE
    missing = missing_types(G)
    if args.json:
        print(_json({"n": G.n, "missing": [list(lam) for lam in missing]}))
    elif missing:
        print(f"{len(missing)} missing type(s):")
        for lam in missing:
            print(format_parts(lam))
    else:
        print("complete: a connected partition exists for every type")
    return EXIT_OK if not missing else EXIT_NEGATIVE


def cmd_prove(args) -> int:
    from .graphs import cut_profiles
    from .obstructions import describe_inapplicability, theorem_decide
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
            print(_json(cert.to_json_dict()))
            return EXIT_OK
    reasons = "; ".join(
        f"(a={p.a},b={p.b},cs={list(p.cs)}): {describe_inapplicability(p)}" for p in profiles
    )
    print(f"NOT-APPLICABLE: {reasons}")
    return EXIT_NEGATIVE


def _settle_open_tree(G: Graph) -> dict:
    """An open tree's verdict, and the first step of the route that settles it.

    An e-positive graph has a connected partition of every type, so a missing type settles "not
    e-positive": a (k, ..., k, r) type, by one linear pass per k, or else one the tree DP finds on
    the few trees left.  csf_e runs only on an open tree that has every type."""
    from .graphs import block_witness, missing_types
    from .symfunc import is_e_positive
    if block_witness(G) or missing_types(G):
        return {"e_positive": False, "settled_by": "missing_type"}
    return {"e_positive": is_e_positive(G).positive, "settled_by": "csf"}


def _scan_size(n: int) -> dict:
    """The row of size n: how many trees have a degree-4 vertex, by count; the e-positive open
    trees' edge lists, in the order they are generated; and each step's count.  Every tree
    with a degree-4 vertex that is not open has a vertex whose profile a certificate settles."""
    from .graphs import degree4_trees, open_trees
    counterexamples, settled = [], dict.fromkeys(SETTLE_STEPS, 0)
    for G in open_trees(n):
        verdict = _settle_open_tree(G)
        settled[verdict["settled_by"]] += 1
        if verdict["e_positive"]:
            counterexamples.append(sorted(G.edges))
    total = degree4_trees(n)
    settled["certificate"] = total - settled["missing_type"] - settled["csf"]
    return {"degree4_trees": total, "counterexamples": counterexamples, "settled": settled}


def cmd_trees_scan(args) -> int:
    n_max = args.n_max
    if n_max < 1:
        raise SpecError("need n_max >= 1")
    if n_max > SCAN_MAX_N:
        raise GuardError(f"size guard, n_max={n_max} > {SCAN_MAX_N}")
    cache = ResultCache(args.cache)
    rows = {n: cache.get(n) for n in range(1, n_max + 1)}
    missing = [n for n, row in rows.items() if row is None]
    if missing:  # one whole size per task; a warm scan imports no obstructions
        from .obstructions import parallel_map
        for n, row in zip(missing, parallel_map(_scan_size, missing, args.jobs)):
            cache.put(n, row)
            rows[n] = row
    counterexamples = [edges for row in rows.values() for edges in row["counterexamples"]]
    if args.json:
        table = [{"n": n, "degree4_trees": row["degree4_trees"],
                  "counterexamples": len(row["counterexamples"]), "settled": row["settled"]}
                 for n, row in rows.items()]
        print(_json({"n_max": n_max, "rows": table, "counterexamples": counterexamples}))
    else:
        print(f"{'n':>3} {'deg>=4 trees':>13} {'e-positive (unexpected)':>24}")
        for n, row in rows.items():
            print(f"{n:>3} {row['degree4_trees']:>13} {len(row['counterexamples']):>24}")
        if counterexamples:
            print("counterexamples found:")
            for edges in counterexamples:
                print(f"  {edges}")
        else:
            print("no counterexamples: every scanned tree with a degree-4 vertex fails e-positivity")
    return EXIT_NEGATIVE if counterexamples else EXIT_OK


def _parse_range(text: Optional[str], kind: str):
    """LO..HI from text, or the sweep's whole c range when none is given."""
    if not text:
        from .obstructions import SWEEP_C_BOUNDS
        return SWEEP_C_BOUNDS[kind]
    try:
        lo, _, hi = text.partition("..")
        return int(lo), int(hi)
    except ValueError:
        raise SpecError(f"bad range {text!r}, expected LO..HI") from None


def cmd_sweep(args) -> int:
    from .obstructions import check_c_range, sweep_c40, sweep_c500
    lo, hi = _parse_range(args.range, args.kind)
    try:
        check_c_range(args.kind, lo, hi)
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    if args.kind == "c40" and args.mode is not None:
        raise SpecError("--mode applies only to sweep c500")
    # only checked arguments reach the files, and an unwritable path fails before the sweep runs
    if args.out:
        _open_user_file(args.out, "a").close()
    csv = _open_user_file(args.csv, "w") if args.csv else None
    header = "c,b,n_lo,n_hi,cells,failures\n" if args.kind == "c40" else "c,b,q\n"
    row_format = ",".join(["%d"] * (header.count(",") + 1)) + "\n"

    def write_rows(rows) -> None:
        """Append one c's rows to --csv, as that c completes."""
        with _user_file(args.csv, "write"):
            csv.writelines(row_format % row for row in rows)

    sink = write_rows if csv else None
    try:
        if csv is not None:
            csv.write(header)  # into the buffer: too short to reach the file here
        if args.kind == "c40":
            report = sweep_c40(lo, hi, jobs=args.jobs, rows=sink)
        else:
            report = sweep_c500(lo, hi, mode=args.mode or "full", jobs=args.jobs, rows=sink)
    finally:
        if csv is not None:
            with _user_file(args.csv, "write"):
                csv.close()  # closed even when its flush fails
    payload = _json(report.to_json_dict(), sort_keys=True)
    if args.out:
        with _user_file(args.out, "write"), _open_user_file(args.out, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def cmd_sixm(args) -> int:
    from .obstructions import sixm_full_check
    if not 1 <= args.m <= 3:
        raise SpecError(f"need 1 <= m <= 3, got {args.m}")
    if args.cross_check and args.m != 1:
        raise SpecError("--cross-check is only feasible for m=1")
    report = sixm_full_check(args.m)
    agree = None
    if args.cross_check:  # the blind search, one type at a time
        from .graphs import has_connected_partition, spider
        from .partitions import partitions_of
        G = spider((6, 4, 1, 1))
        agree = all(has_connected_partition(G, lam) is not None for lam in partitions_of(13))
    if args.json:
        out = report.to_json_dict()
        if agree is not None:
            out["brute_force_agrees"] = agree
        print(_json(out))
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


# ---------------------------------------------------------------------------
# The command line

# Each command's arguments: (name, converter, default, help).  A name that starts with "--" is
# an option and any other a positional, which may be left out when it ends in "?".  The
# converter is str, int or a tuple of the allowed values; None makes an option a switch.
GRAPH = ("graph", str, None, "spider:6,4,1,1 | path:7 | star:5 | FILE")
JSON = ("--json", None, False, "print JSON")
JOBS = ("--jobs", int, 1, "worker processes (default 1)")
COMMANDS = {
    "csf": (cmd_csf, "print the e-basis expansion of X_G", [GRAPH, JSON]),
    "epos": (cmd_epos, "decide e-positivity (exit 0 yes, 1 no)", [GRAPH, JSON]),
    "connparts": (cmd_connparts, "missing types, or a witness for --type",
                  [GRAPH, ("--type", str, None, 'partition such as "(3,2,2)"'), JSON]),
    "prove": (cmd_prove, "missing-type certificate for a graph or profile",
              [("spec", str, None, "graph spec or profile:a=6,b=4,cs=1,1")]),
    "sweep": (cmd_sweep, "exhaustive certificate sweeps",
              [("kind", ("c40", "c500"), None, "which sweep"),
               ("range?", str, None, "LO..HI (defaults: 2..40 / 41..500)"),
               ("--mode", ("full", "sampled"), None, "c500 only (default: full)"), JOBS,
               ("--out", str, None, "write the JSON report to this file"),
               ("--csv", str, None, "write per-cell rows to this CSV file")]),
    "trees-scan": (cmd_trees_scan, "degree>=4 trees are never e-positive",
                   [("n_max", int, None, f"scan n = 1..n_max (at most {SCAN_MAX_N})"), JOBS,
                    ("--cache", str, None, "JSONL result cache, one row per n"), JSON]),
    "sixm": (cmd_sixm, "every type of 12m+1 embeds in S(6m,6m-2,1,1)",
             [("m", int, None, "1, 2 or 3"), ("--cross-check", None, False, "also search type by type (m = 1)"),
              JSON]),
}
USAGE = "usage: epolab [-h] [--version] COMMAND ..."


def _word(arg: tuple) -> str:
    """How the usage line shows an argument: KIND, [RANGE], [--json] or [--jobs JOBS]."""
    name, conv = arg[0].rstrip("?"), arg[1]
    if name[0] != "-":
        return name.upper() if name == arg[0] else f"[{name.upper()}]"
    return f"[{name}]" if conv is None else f"[{name} {name[2:].upper()}]"


def _help(name: Optional[str]) -> str:
    """The help of a command, or with no name that of every command."""
    if name is None:
        lines = [USAGE, "", "Chromatic symmetric functions, connected partitions, and missing-type certificates.",
                 "", "commands:"]
        for cmd, (_, text, spec) in COMMANDS.items():
            lines += [f"  {cmd} {' '.join(map(_word, spec))}", f"      {text}"]
        return "\n".join(lines + ["", "`epolab COMMAND --help` describes each argument."])
    _, text, spec = COMMANDS[name]
    lines = [f"usage: epolab {name} {' '.join(map(_word, spec))}", "", text, ""]
    for arg in spec:
        choices = f" (one of {', '.join(arg[1])})" if type(arg[1]) is tuple else ""
        lines.append(f"  {_word(arg)}  {arg[3]}{choices}")
    return "\n".join(lines)


def _dest(name: str) -> str:
    """The attribute an argument is parsed into: --cross-check into cross_check, range? into range."""
    return name.strip("-?").replace("-", "_")


def _exit(text: str, code: int):
    print(text, file=sys.stderr if code else sys.stdout)
    raise SystemExit(code)


def _is_option(word: str) -> bool:
    """Whether a word names an option: it starts with "-" and is neither "-" nor a number."""
    return word[:1] == "-" and word != "-" and not word[1:].replace(".", "", 1).isdigit()


def parse_args(argv: list) -> SimpleNamespace:
    """argv read against COMMANDS: fn, the command's handler, and one attribute per argument.
    Help and --version print and exit 0; an argument that does not fit prints the usage and
    the error on stderr and exits 2."""
    name = argv[0] if argv else None
    if name == "--version":
        _exit(f"epolab {__version__}", EXIT_OK)
    if name in ("-h", "--help"):
        _exit(_help(None), EXIT_OK)
    if name not in COMMANDS:
        problem = f"unknown command {name!r}" if name else "missing command"
        _exit(f"{USAGE}\nepolab: error: {problem} (choose from {', '.join(COMMANDS)})", EXIT_USAGE)
    fn, _, spec = COMMANDS[name]
    options = {arg[0]: arg for arg in spec if arg[0][0] == "-"}
    positionals = [arg for arg in spec if arg[0][0] != "-"]
    args = SimpleNamespace(fn=fn, **{_dest(arg[0]): arg[2] for arg in spec})

    def fail(message: str):
        _exit(f"usage: epolab {name} {' '.join(map(_word, spec))}\nepolab {name}: error: {message}", EXIT_USAGE)

    def convert(arg: tuple, text: str):
        conv, shown = arg[1], arg[0].rstrip("?")
        if type(conv) is tuple:
            return text if text in conv else fail(f"argument {shown}: invalid choice {text!r} "
                                                   f"(choose from {', '.join(conv)})")
        try:
            return conv(text)
        except ValueError:
            fail(f"argument {shown}: invalid {conv.__name__} value {text!r}")

    words, given = iter(argv[1:]), []
    for word in words:
        if word in ("-h", "--help"):
            _exit(_help(name), EXIT_OK)
        if not _is_option(word):
            given.append(word)
            continue
        flag, eq, value = word.partition("=")
        if flag not in options:
            fail(f"unrecognized option {flag}")
        if options[flag][1] is None:
            if eq:
                fail(f"option {flag} takes no value")
            value = True
        else:
            if not eq:
                value = next(words, None)
                if value is None or _is_option(value):
                    fail(f"option {flag} expects a value")
            value = convert(options[flag], value)
        setattr(args, _dest(flag), value)
    required = [arg[0] for arg in positionals if arg[0][-1] != "?"]
    if len(given) < len(required):
        fail(f"missing argument {required[len(given)]}")
    if len(given) > len(positionals):
        fail(f"unrecognized arguments: {' '.join(given[len(positionals):])}")
    for arg, word in zip(positionals, given):
        setattr(args, _dest(arg[0]), convert(arg, word))
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        if getattr(args, "jobs", 1) < 1:
            raise SpecError("parallelism must be >= 1")
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
    except (SpecError, GuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE if isinstance(exc, SpecError) else EXIT_GUARD
    except BrokenPipeError:  # the output's reader is gone: stop quietly, as a pipe writer does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # keeps the exit flush quiet
        code = EXIT_PIPE
    except Exception as exc:  # a crash must not exit 1, the code of a finding
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_INTERNAL
    if argv is None:
        sys.exit(code)
    return code
