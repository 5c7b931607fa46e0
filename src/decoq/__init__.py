"""decoq: desk-scale simulation of decoherence under active error correction."""

from .tensor import (
    DensityMatrix,
    StateVector,
    kron,
    operator_norm,
    partial_trace_array,
    trace_distance,
)
from .pauli import (
    PAULIS,
    decompose,
    embed,
    pauli_action,
    pauli_string,
    pauli_sum,
    reconstruct,
)
from .dynamics import (
    ContactTerm,
    EnvironmentModel,
    FreeHamiltonian,
    InteractionSpec,
    build_noncontact,
    free_hamiltonian,
    gibbs_weights,
    interaction_matrix,
    pair_flip_hamiltonian,
    random_environment,
    single_flip_hamiltonian,
    trivial_environment,
)
from .codes import (
    BoundsRow,
    CodeSpec,
    KrausChannel,
    asymptotic_bound_gap,
    asymptotic_x0,
    build_code,
    build_five_qubit_code,
    build_identity_code,
    build_repetition_code,
    build_stabilizer_code,
    covered_errors,
    encode_logical,
    hamming_gv_check,
    min_code_length,
    recovery_channel,
    recovery_unitary,
)
from .metrics import (
    CodeErrorResult,
    DecayResult,
    FidelityCurve,
    PowerLawFit,
    code_error,
    error_bound,
    fit_power_law,
    leading_coefficient,
    periodic_correction_decay,
    stabilization_bound,
    threshold_time,
)
from .errors import (
    ConfigError,
    FitError,
    ShapeError,
    SizingError,
    UnsupportedInteractionError,
    ValidationError,
)

__version__ = "0.1.0"
