"""Numerical laboratory for Besov spaces with logarithmic smoothness.

Littlewood-Paley decompositions, logarithmic Besov / Triebel-Lizorkin norms,
pointwise-multiplier criterion functionals, paraproducts, and the
constructive test-function gallery, all on a periodic grid over
[-pi, pi)^dim.
"""

from .criteria import (
    CriterionReport,
    nece_term2,
    nece_term3,
    pinf_term2,
    pinf_term3,
    suff_term2,
    suff_term3,
    verdict,
)
from .cubes import DyadicCube, cube_mean_power
from .errors import (
    AliasingError,
    CapabilityError,
    DegenerateInputError,
    DomainError,
    InvalidInputError,
    LevelOverflowError,
    LogBesovError,
    ResolutionError,
)
from .experiments import (
    ExperimentConfig,
    Table,
    fit_slope,
    run_charfun,
    run_exp_growth,
    run_partition_check,
    run_sandwich,
)
from .fileio import load_dpu, load_sfn, save_dpu, save_sfn
from .gallery import (
    BumpSpec,
    PacketSpec,
    StackSpec,
    expo7_family,
    gallery_from_spec,
    make_bump,
    make_envelope,
    make_exponential,
    make_indicator,
    make_lacunary,
    make_modulated_packet,
    make_stack,
)
from .grid import (
    INF,
    FrequencyField,
    GridSpec,
    SampledFunction,
    conjugate_exponent,
    lp_norm,
    make_constant,
    random_band_limited,
    spectrum,
    synthesize,
)
from .norms import (
    BesovParams,
    DiffParams,
    NormResult,
    besov_norm,
    diffspace_norm,
    dini_norm,
    modulus,
    tl_norm_inf,
)
from .paraproducts import (
    ProductReport,
    multiplier_lower_bound,
    paraproduct,
    product_report,
)
from .partition import (
    DyadicPartition,
    PartitionKind,
    SpectralDecomposition,
    build_partition,
    decompose,
    partial_sum,
    project,
)

__version__ = "0.1.0"
