"""Adjustment-set identification for micro causal effects in summary causal graphs."""

from .graph import (
    SCG,
    CycleProfile,
    GraphError,
    SccPartition,
    ancestors,
    cycle_profile,
    descendants,
    scc_of,
    scc_partition,
    scg_from_json,
    validate_scg,
)
from .identify import (
    AdjustmentSet,
    CriterionReport,
    NotIdentifiableError,
    Verdict,
    VerdictKind,
    WindowError,
    adjustment_set_from_json,
    adjustment_set_to_obj,
    canonical_sets,
    causal_nodes,
    estimand,
    extended_causal_nodes,
    identify,
    qopt,
    scg_backdoor_check,
    set_a1,
    set_a2,
)
from .unroll import (
    FTDagTemplate,
    MicroQuery,
    QueryError,
    TemplateCapExceeded,
    TemplateError,
    TemporalVar,
    UnrolledGraph,
    densest_templates,
    enumerate_compatible_templates,
    instantiate,
    make_template,
    possible_descendants,
    unroll,
)

__version__ = "0.1.0"
