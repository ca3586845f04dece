"""Relative-entropy quantifiers of coherence and correlation for density matrices."""

from .channels import (
    ProductBasis,
    QubitBasisAngles,
    basis_from_angles,
    commutation_check,
    computational_basis,
    dephase,
    dephased_probs,
    marginal_product,
)
from .errors import (
    BadParams,
    DimensionMismatch,
    HookupError,
    NoConvergence,
    NonHermitian,
    NoRootBracketed,
    NotAllQubits,
    NotUnitary,
    ParseError,
    TooManyQubits,
    UnknownPreset,
    ValidationError,
)
from .linalg import (
    EigenDecomposition,
    hermitian_eig,
    kron,
    kron_all,
    partial_trace,
    qubit_unitary,
)
from .mdms import (
    ScanTable,
    ThresholdResult,
    compare_jk,
    find_thresholds,
    scan_mdms,
)
from .quantifiers import (
    ClosestClassical,
    QuantifierReport,
    classical_correlations,
    closest_classical,
    coherence,
    discord,
    excess_correlations,
    full_report,
    global_discord,
    hookup,
    irreducible_classical,
    local_coherence,
    multipartite_coherence,
    total_correlations,
)
from .search import OptimizerConfig, OptimizerResult, minimize_over_product_bases
from .states import (
    DensityMatrix,
    ValidationReport,
    load,
    preset,
    relative_entropy,
    save,
    validate,
    von_neumann_entropy,
)

__version__ = "0.1.0"
