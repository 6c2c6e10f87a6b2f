"""epolab: exact chromatic symmetric functions in the elementary basis,
connected-partition search, and missing-type certificates from cut-vertex
profiles."""

__version__ = "0.1.0"

from .partitions import (
    format_parts,
    interval_partition,
    parse_partition,
    partial_sums,
    partitions_of,
    two_coin_representation,
)
from .graphs import (
    ConnectedPartition,
    CutProfile,
    Graph,
    cut_profiles,
    enumerate_free_trees,
    has_connected_partition,
    is_connected,
    max_degree,
    missing_types,
    path_graph,
    spider,
    star_graph,
)
from .symfunc import (
    ESymExpansion,
    EposVerdict,
    csf_e,
    is_e_positive,
)
from .obstructions import (
    MissingTypeCertificate,
    QSelectionTrace,
    Spider4Verdict,
    SweepReport,
    analysis_q,
    check_partsums_obstruction,
    describe_inapplicability,
    q_interval,
    sixm_connected_partition,
    sixm_full_check,
    sixm_rearrangement,
    spider4_classify,
    strategy_check,
    sweep_c40,
    sweep_c500,
    theorem_decide,
)
