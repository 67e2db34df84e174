"""Adaptive binary physical-layer network coding for the N-MIMO uplink."""

from .gf2 import (
    BitMatrix,
    SingularMatrixError,
    inverse_f2,
)
from .modulation import Constellation, make_constellation
from .fade_states import (
    DegenerateChannelError,
    FadeState,
    SfsCatalog,
    build_catalog,
    enumerate_sfs,
    load_catalog,
    nearest_sfs,
    rank_principal_sfs,
    save_catalog,
    truncate_catalog,
)
from .mapping import (
    SuperimposedConstellation,
    coincident_partition,
    superimpose,
)
from .search import (
    CandidateEntry,
    CandidateStore,
    SelectionBatch,
    SelectionInfeasibleError,
    SelectionTable,
    build_selection_table,
    build_store,
    certify_store,
    load_store,
    load_table,
    mine_candidates,
    save_store,
    save_table,
    select_mappings,
    table_lookup,
)
from .link import (
    QuantizerSpec,
    comp_combine,
    comp_ideal,
    comp_nonideal_llrs,
    detect_ncv,
    estimate_channel,
    noise_variance,
    transmit,
    transmit_pilots,
)
from .sim import ExperimentConfig, MetricsRecord, backhaul_accounting, emit_results, run_experiment

__version__ = "0.1.0"
