"""Run one epolab CLI invocation with spans around its layer boundaries.

    python3 bench/traced.py SPANS.json ARGS...

runs `epolab ARGS...` in this fresh interpreter, after wrapping the functions
below at their module attributes, in every module that bound the name at
import. A span is (name, parent span, start, end); counts are kept at the
same boundaries. Both stay in memory and are written to SPANS.json once, when
the command has finished. The exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from functools import wraps

spans = []  # [name, parent index or -1, start, end]
counts = Counter()
stack = []  # indices of the open spans
absent = []
clock = time.perf_counter


def _open(name):
    """Start a span, or return None when `name` is already open (re-entry)."""
    if any(spans[i][0] == name for i in stack):
        return None
    spans.append([name, stack[-1] if stack else -1, clock(), None])
    stack.append(len(spans) - 1)
    counts[name + ".calls"] += 1
    return stack[-1]


def _close(index):
    spans[index][3] = clock()
    stack.pop()


def timed(name, fn, tally=None):
    """Wrap fn in a span; tally(result) adds to the counts of the outermost call."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        index = _open(name)
        if index is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            _close(index)
        if tally:
            tally(result)
        return result

    return wrapper


def timed_generator(name, fn):
    """Wrap a generator function: each step the consumer asks for is a span."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            index = _open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                if index is not None:
                    _close(index)
            counts[name + ".yielded"] += 1
            yield item

    return wrapper


def counted(name, fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def add(name, amount):
    counts[name] += amount


def patch(modules, attr, wrap):
    """Replace attr by wrap(original) in every module that has it."""
    original = getattr(modules[0], attr, None)
    if original is None:
        absent.append(attr)
        return
    wrapped = wrap(original)
    for module in modules:
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)


def install():
    from epolab import cli, graphs, obstructions, symfunc

    patch([cli], "parse_graph_spec", lambda f: timed("cli.parse", f))
    patch([cli], "parse_profile_spec", lambda f: timed("cli.parse", f))
    cache = cli.ResultCache
    cache.__init__ = timed("cli.cache.load", cache.__init__)
    get = cache.get

    def cache_get(self, *args):
        hit = get(self, *args)
        counts["cli.cache.hits" if hit is not None else "cli.cache.misses"] += 1
        return hit

    cache.get = cache_get

    patch([graphs, cli], "enumerate_free_trees", lambda f: timed_generator("graphs.free_trees", f))
    patch([graphs, cli], "tree_canonical_key", lambda f: counted("graphs.free_trees.canon_calls", f))
    patch([graphs, cli], "has_connected_partition",
          lambda f: timed("graphs.search", f, lambda r: add("graphs.search.found", r is not None)))
    patch([graphs, cli], "missing_types", lambda f: timed("graphs.missing_types", f))

    # csf_e's self time, once the tally is a child span, is the p->e conversion
    patch([symfunc, cli], "csf_e",
          lambda f: timed("symfunc.csf", f, lambda r: add("symfunc.p_to_e.terms", len(r.coeffs))))
    patch([symfunc], "_type_tally",
          lambda f: timed("symfunc.tally", f, lambda r: add("symfunc.tally.types", len(r))))

    patch([obstructions, cli], "theorem_decide", lambda f: timed("obstructions.decide", f))
    patch([obstructions], "check_partsums_obstruction", lambda f: timed("obstructions.verify", f))
    for kind in ("c40", "c500"):
        name = f"obstructions.sweep_{kind}"
        patch([obstructions, cli], f"sweep_{kind}",
              lambda f, name=name: timed(name, f, lambda r: add(name + ".cells", r.cells)))
    patch([obstructions, cli], "sixm_full_check", lambda f: timed("obstructions.sixm", f))
    return cli


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    cli = install()
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"spans": spans, "counts": counts, "absent": absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
