"""Each demo script runs to completion against the public API, and that API
resolves each documented name lazily to its module's own object."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import support

import epolab

# the names the package root documents, by the module that defines each
DOCUMENTED = {
    "partitions": ["format_parts", "interval_partition", "parse_partition", "partial_sums",
                   "partitions_of", "two_coin_representation"],
    "graphs": ["ConnectedPartition", "CutProfile", "Graph", "cut_profiles", "enumerate_free_trees",
               "has_connected_partition", "is_connected", "max_degree", "missing_types", "path_graph",
               "spider", "star_graph"],
    "symfunc": ["ESymExpansion", "EposVerdict", "csf_e", "is_e_positive"],
    "obstructions": ["MissingTypeCertificate", "QSelectionTrace", "Spider4Verdict", "SweepReport",
                     "analysis_q", "check_partsums_obstruction", "describe_inapplicability",
                     "q_interval", "sixm_connected_partition", "sixm_full_check",
                     "sixm_rearrangement", "spider4_classify", "strategy_check", "sweep_c40",
                     "sweep_c500", "theorem_decide"],
}
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_three_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(script, tmp_path):
    done = subprocess.run(
        [sys.executable, str(script)],
        env=support.CHILD_ENV,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_public_api_resolves_each_name_to_its_modules_object():
    documented = {name for names in DOCUMENTED.values() for name in names}
    assert set(epolab.__all__) == documented | {"GuardError"}
    assert set(epolab.__all__) <= set(dir(epolab))
    for module, names in DOCUMENTED.items():
        owner = importlib.import_module(f"epolab.{module}")
        for name in names:
            assert getattr(epolab, name) is getattr(owner, name), name
    assert epolab.symfunc.StateBudgetError.__mro__[1] is epolab.GuardError
    assert epolab.obstructions.PartBudgetError.__mro__[1] is epolab.GuardError
    with pytest.raises(AttributeError, match="no_such_name"):
        epolab.no_such_name


def test_package_import_loads_no_submodule():
    probe = ("import sys, epolab; print(sorted(m for m in sys.modules if m.startswith('epolab.')))\n"
             "from epolab import *; print(csf_e.__module__, theorem_decide.__module__)")
    done = subprocess.run([sys.executable, "-c", probe], env=support.CHILD_ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\nepolab.symfunc epolab.obstructions\n"
