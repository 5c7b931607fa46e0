"""Numerical tolerances, collected in one table so every module agrees on them."""

# Stored operators and states.
HERMITIAN_TOL = 1e-12       # max abs entry of M - M^dag
TRACE_TOL = 1e-12           # |tr(rho) - 1|
NORM_TOL = 1e-12            # | ||psi|| - 1 |
EIGENVALUE_FLOOR = -1e-10   # smallest eigenvalue a density matrix may show

# Gates on inputs to the heavier routines.
HERMITIAN_INPUT_TOL = 1e-10   # matrices fed to the exponential

# Produced quantities.
UNITARY_TOL = 1e-10         # ||U^dag U - 1||_max for built evolutions
COMPONENT_ZERO_TOL = 1e-14  # Frobenius norm below which a component is stored as zero
LOGICAL_NORM_TOL = 1e-10    # |alpha|^2 + |beta|^2 for logical amplitudes
CHANNEL_TOL = 1e-12         # Kraus completeness, projector completeness
FIDELITY_RANGE_TOL = 1e-10  # slack around [0, 1]

# Curve fitting.
FIT_RESIDUAL_DEFAULT = 0.01
FIT_FLOOR = 1e-13
FIT_MIN_SAMPLES = 8

# Structural caps.
MAX_DECOMPOSE_QUBITS = 7
