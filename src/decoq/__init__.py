"""decoq: desk-scale simulation of decoherence under active error correction."""

from .tensor import (
    DensityMatrix,
    operator_norm,
    partial_trace_array,
    trace_distance,
)
from .pauli import (
    PAULIS,
    decompose,
    pauli_action,
    pauli_string,
    pauli_sum,
    reconstruct,
)
from .dynamics import (
    EnvironmentModel,
    build_noncontact,
    contact_hamiltonian,
    free_hamiltonian,
    gibbs_weights,
    pair_flip_hamiltonian,
    random_environment,
    single_flip_hamiltonian,
    trivial_environment,
)
from .codes import (
    BoundsRow,
    CodeSpec,
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
    ValidationError,
)

__version__ = "0.1.0"
