"""Dense complex tensor-product linear algebra.

Everything in this package lives on small composite Hilbert spaces, so all
operators are plain dense ``numpy`` arrays.  Composite structure is carried
explicitly as a tuple of factor dimensions; the helpers here validate it
instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeError, ValidationError
from . import tolerances as tol


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


HERMITICITY_PANEL = 64  # rows of a - a^dag formed at a time, so no d x d temporary is made


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest absolute entry of ``a - a^dag``, for a square ``a``; 0.0 when ``a`` is empty.

    Entry (j, i) of a - a^dag is minus the conjugate of entry (i, j), to the bit
    (IEEE subtraction is antisymmetric and addition commutes), so only the panels
    a[i:i+P, i:] - a[i:, i:i+P]^dag on and above the diagonal are formed."""
    a = _as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"Hermiticity needs a square matrix, got shape {a.shape}")
    if not a.size:
        return 0.0
    defect, panel = 0.0, HERMITICITY_PANEL
    for i in range(0, len(a), panel):
        defect = np.maximum(defect, np.abs(a[i:i + panel, i:] - a[i:, i:i + panel].conj().T).max())  # NaN carries
    return float(defect)


def require_hermitian(a: np.ndarray, tolerance: float, what: str = "matrix") -> np.ndarray:
    a = _as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} must be square, got shape {a.shape}")
    defect = hermiticity_defect(a)
    if not defect <= tolerance:  # a NaN defect fails too
        raise ValidationError(
            f"{what} is not Hermitian: max |M - M^dag| = {defect:.3e} > {tolerance:.1e}"
        )
    return a


def _check_dims(dims: Sequence[int], size: int, what: str) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ShapeError(f"{what}: factor dimensions must be positive, got {dims}")
    if int(np.prod(dims)) != size:
        raise ShapeError(
            f"{what}: product of factor dimensions {dims} is {int(np.prod(dims))}, "
            f"expected {size}"
        )
    return dims


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on a composite space.

    ``dims`` lists the tensor factor dimensions, left factor first.
    """

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = _as_complex(self.amplitudes).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", _check_dims(self.dims, amps.size, "StateVector"))
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > tol.NORM_TOL:
            raise ValidationError(f"state vector norm {norm!r} deviates from 1 beyond {tol.NORM_TOL:.1e}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix with explicit tensor factor dimensions."""

    array: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        a = _as_complex(self.array)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"density matrix must be square, got shape {a.shape}")
        object.__setattr__(self, "array", a)
        object.__setattr__(self, "dims", _check_dims(self.dims, a.shape[0], "DensityMatrix"))
        require_hermitian(a, tol.HERMITIAN_TOL, "density matrix")
        trace = complex(np.trace(a))
        if abs(trace - 1.0) > tol.TRACE_TOL:
            raise ValidationError(f"density matrix trace {trace!r} deviates from 1 beyond {tol.TRACE_TOL:.1e}")
        smallest = float(np.linalg.eigvalsh((a + a.conj().T) / 2.0).min())
        if smallest < tol.EIGENVALUE_FLOOR:
            raise ValidationError(f"density matrix has eigenvalue {smallest:.3e} below {tol.EIGENVALUE_FLOOR:.1e}")

    @property
    def dim(self) -> int:
        return self.array.shape[0]


def kron(*ops) -> np.ndarray:
    """Kronecker product of one or more operators, leftmost factor first."""
    if not ops:
        raise ShapeError("kron needs at least one factor")
    out = _as_complex(ops[0])
    for op in ops[1:]:
        out = np.kron(out, _as_complex(op))
    return out


def partial_trace_array(a: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Partial trace of a square matrix over every factor not listed in ``keep``.

    ``dims`` are the factor dimensions of both the row and column index,
    ``keep`` the (0-based) positions of the factors that survive.  Works for
    arbitrary matrices, not just density matrices.
    """
    a = _as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"partial trace needs a square matrix, got shape {a.shape}")
    dims = _check_dims(dims, a.shape[0], "partial_trace")
    k = len(dims)
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ShapeError("partial_trace: keep set must not be empty")
    if keep[0] < 0 or keep[-1] >= k:
        raise ShapeError(f"partial_trace: keep indices {keep} out of range for {k} factors")

    resh = a.reshape(dims + dims)
    row = list(range(k))
    col = list(range(k, 2 * k))
    for i in range(k):
        if i not in keep:
            col[i] = row[i]  # contract this factor
    out_axes = [row[i] for i in keep] + [col[i] for i in keep]
    out = np.einsum(resh, row + col, out_axes)
    d_keep = int(np.prod([dims[i] for i in keep]))
    return out.reshape(d_keep, d_keep)


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    a = _as_complex(a)
    if a.ndim != 2:
        raise ShapeError(f"operator norm needs a matrix, got shape {a.shape}")
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of ``a - b``."""
    diff = _as_complex(a) - _as_complex(b)
    return 0.5 * float(np.sum(np.linalg.svd(diff, compute_uv=False)))
