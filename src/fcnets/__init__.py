"""Functional connectivity network analysis.

Everything needed to go from multi-subject node x time recordings to
group-level network statistics: association estimators, thresholding rules,
graph metrics, null models and small-world indices, community structure,
edge-population group tests, exponential-family graph models, dyad-level
two-part mixed models, and bootstrap error propagation.
"""

__version__ = "0.1.0"

from .communities import (
    Partition,
    cartography,
    girvan_newman,
    louvain,
    louvain_runs,
    modularity,
    normalized_mutual_information,
)
from .ergm import (
    ErgmFit,
    ErgmModel,
    ergm_change_stats,
    ergm_mple,
    ergm_simulate,
    ergm_stats,
    representative_network,
)
from .estimators import (
    ConnectionMatrix,
    DelayEmbedding,
    coherence_matrix,
    correlation_matrix,
    estimate,
    load_connection_matrix,
    mutual_information_matrix,
    partial_correlation_matrix,
    synchronization_matrix,
)
from .groupcompare import (
    ComponentResult,
    EdgeTestResult,
    adjacency_from_coordinates,
    edgewise_compare,
    nbs,
    spc,
)
from .metrics import (
    MetricReport,
    assortativity,
    betweenness,
    centrality,
    clustering,
    components,
    density,
    distance_matrix,
    edge_betweenness,
    global_efficiency,
    largest_component,
    local_efficiency,
    metric_value,
    path_length,
)
from .networks import BinaryNetwork, Network, WeightedNetwork, from_adjacency, load_network
from .nullmodels import (
    PowerLawFit,
    SmallWorldResult,
    lattice_reference,
    powerlaw_fit,
    rewire_preserving_degree,
    sample_powerlaw,
    small_world,
)
from .panels import (
    BandSpec,
    TimeSeriesPanel,
    bandpass_filter,
    fisher_z,
    inverse_fisher_z,
    load_manifest,
    load_timeseries,
    save_timeseries,
)
from .pipeline import ConfigError, PipelineConfig, load_config, run_pipeline, validate_config
from .resampling import DeltaDistribution, block_bootstrap, metric_error
from .runtime import derive_seed, parallel_map, rng_for
from .thresholding import (
    apply_fixed_degree,
    apply_fixed_density,
    apply_fixed_threshold,
    apply_spec,
    weighted_network,
)
from .twopart import (
    CorrelationStructure,
    DyadDataset,
    TwoPartFit,
    build_dyad_dataset,
    corr_matrix,
    dyad_midpoint_distances,
    kronecker_loglik,
    twopart_fit,
    twopart_predict,
)
