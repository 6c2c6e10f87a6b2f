"""Every name that bench/traced.py wraps exists where it looks for it.

The tracer wraps functions by module attribute and records a missing one as an
absent span instead of failing, so a rename in src/ would silently blind the
benchmark's per-layer trace.  This reads the tracer's source with `ast` and
imports nothing from bench/.
"""

import ast
import importlib
from pathlib import Path

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"


def _patched_attributes(tree):
    """(module, attribute) for every patch(...) call, f-strings expanded over
    the for-loop that names their one placeholder."""
    loops = {
        node.target.id: [elt.value for elt in node.iter.elts]
        for node in ast.walk(tree)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)
    }
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "patch"):
            continue
        modules, attr = node.args[0], node.args[1]
        module = modules.elts[0].id
        if isinstance(attr, ast.Constant):
            found.append((module, attr.value))
            continue
        (holder,) = {v.value.id for v in attr.values if isinstance(v, ast.FormattedValue)}
        for value in loops[holder]:
            text = "".join(
                str(value) if isinstance(v, ast.FormattedValue) else v.value for v in attr.values
            )
            found.append((module, text))
    return found


def _patched_methods(tree):
    """(module, class, method) for each method the tracer wraps on a class it
    bound to a local name, as in `cache = cli.ResultCache; cache.get = ...`."""
    classes = {
        node.targets[0].id: (node.value.value.id, node.value.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.attr[:1].isupper()
    }
    return {
        classes[target.value.id] + (target.attr,)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id in classes
    }


def test_every_name_the_tracer_patches_exists():
    tree = ast.parse(TRACED.read_text())
    attributes = _patched_attributes(tree)
    assert ("obstructions", "sweep_c40") in attributes and ("obstructions", "sweep_c500") in attributes
    assert len(attributes) >= 13, attributes
    for module, attr in attributes:
        assert callable(getattr(importlib.import_module(f"epolab.{module}"), attr, None)), (module, attr)

    methods = _patched_methods(tree)
    assert methods == {("cli", "ResultCache", "__init__"), ("cli", "ResultCache", "get")}
    for module, cls, method in methods:
        assert method in vars(getattr(importlib.import_module(f"epolab.{module}"), cls)), (cls, method)
