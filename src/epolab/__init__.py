"""epolab: exact chromatic symmetric functions in the elementary basis,
connected-partition search, and missing-type certificates from cut-vertex
profiles.

Importing the package loads no submodule: each documented name below loads
its module on first access (PEP 562), so a CLI call pays only for the layers
its command runs.
"""

__version__ = "0.1.0"


class GuardError(RuntimeError):
    """An input or a computation past a size guard or budget (CLI exit 3)."""


_HOMES = {  # documented name -> the submodule that defines it
    **dict.fromkeys(
        ("format_parts", "interval_partition", "parse_partition", "partial_sums", "partitions_of",
         "two_coin_representation"), "partitions"),
    **dict.fromkeys(
        ("ConnectedPartition", "CutProfile", "Graph", "cut_profiles", "enumerate_free_trees",
         "has_connected_partition", "is_connected", "max_degree", "missing_types", "path_graph",
         "spider", "star_graph"), "graphs"),
    **dict.fromkeys(("ESymExpansion", "EposVerdict", "csf_e", "is_e_positive"), "symfunc"),
    **dict.fromkeys(
        ("MissingTypeCertificate", "QSelectionTrace", "Spider4Verdict", "SweepReport", "analysis_q",
         "check_partsums_obstruction", "describe_inapplicability", "q_interval",
         "sixm_connected_partition", "sixm_full_check", "sixm_rearrangement", "spider4_classify",
         "strategy_check", "sweep_c40", "sweep_c500", "theorem_decide"), "obstructions"),
}

__all__ = ["GuardError", *_HOMES]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
