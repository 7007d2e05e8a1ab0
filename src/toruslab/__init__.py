"""toruslab: numerical laboratory for pseudo-differential operators on T^n.

Periodic grids and toroidal Fourier transforms, a small expression language
for symbols p(x, xi), discrete symbol calculus (difference operators, class
parameter fitting), quantization and kernel synthesis, function-space norms
(L^p, weak-L^p, BMO, Hardy atoms, Calderon-Zygmund decomposition), and an
experiment harness that probes operator boundedness across truncations.
"""

__version__ = "0.1.0"

from .grid import (
    GridSpec,
    FrequencyLattice,
    GridFunction,
    SpectralFunction,
    bracket,
    forward_dft,
    inverse_dft,
    torus_distance,
    ball,
)
from .symbols import (
    parse,
    tokenize,
    eval_expr,
    diff_x,
    bessel,
    wainger,
    exotic,
    SymbolFamily,
)
from .calculus import (
    ClassParams,
    ClassEstimate,
    fit_order,
)
from .operators import (
    PdoOperator,
    MultiplierOperator,
    ComposedOperator,
    AdjointOperator,
    DenseOperatorMatrix,
    bessel_apply,
    to_matrix,
    compose_bessel,
)
from .kernels import (
    KernelMatrix,
    synthesize_kernel,
    decay_scan,
    log_bound_check,
    sigma_estimates,
)
from .spaces import (
    NormValue,
    Atom,
    CZDecomposition,
    lp_norm,
    weak_lp,
    bmo_norm,
    make_atom,
    cz_decompose,
)
from .experiments import (
    NormEstimate,
    ThresholdSweepRecord,
    l2_norm,
    lp_lq_lower_bound,
    threshold_sweep,
    weak11_experiment,
    linf_bmo_experiment,
    h1_l1_experiment,
    lp_lq_admissibility,
    lp_threshold,
)

__all__ = [
    "__version__",
    # grids and transforms
    "GridSpec", "FrequencyLattice", "GridFunction", "SpectralFunction",
    "bracket", "forward_dft", "inverse_dft", "torus_distance", "ball",
    # symbol language
    "parse", "tokenize", "eval_expr", "diff_x",
    "bessel", "wainger", "exotic", "SymbolFamily",
    # symbol calculus
    "ClassParams", "ClassEstimate", "fit_order",
    # operators
    "PdoOperator", "MultiplierOperator", "ComposedOperator", "AdjointOperator",
    "DenseOperatorMatrix", "bessel_apply", "to_matrix", "compose_bessel",
    # kernels
    "KernelMatrix", "synthesize_kernel", "decay_scan", "log_bound_check",
    "sigma_estimates",
    # function spaces
    "NormValue", "Atom", "CZDecomposition", "lp_norm", "weak_lp", "bmo_norm",
    "make_atom", "cz_decompose",
    # experiments
    "NormEstimate", "ThresholdSweepRecord", "l2_norm",
    "lp_lq_lower_bound", "threshold_sweep", "weak11_experiment",
    "linf_bmo_experiment", "h1_l1_experiment", "lp_lq_admissibility",
    "lp_threshold",
]
