"""Spectral Green operators and a one-dimensional box-operator model.

An OperatorMatrix wraps a symmetric matrix and computes its spectrum on
first use.  The Green operator decides singularity from the eigenvalues
alone and gets sigma from one LU solve; eigenvectors are computed only to
name the eigenpair of a refusal, for the projected solution, for the dense
kernel and for ls2_inner.  box_operator_1d builds the discrete
id - (1/a^2) D^2 used as the weight in the s-graded inner product.
box_eigenvalues_1d gives that operator's spectrum in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SINGULAR_TOL, SYMMETRY_TOL, SingularOperatorError, ValidationError

# box_operator_1d builds a dense S x S matrix (32 MiB at the cap)
MAX_BOX_SAMPLES = 2048
SPEED_RANGE = (2.0 ** -250, 2.0 ** 250)  # entries hold the speed to the power -2


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Symmetric matrix; its eigenvalues, and its eigenvectors where a caller
    needs them, are computed on first use."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("operator must be a square matrix")
        if not np.all(np.isfinite(m)):
            raise ValidationError("operator entries must be finite")
        # halves cannot overflow, and halving is exact: m's own test and mean, halved
        half = m / 2.0
        if np.max(np.abs(half - half.T)) > SYMMETRY_TOL * (0.5 + np.abs(half).max()):
            raise ValidationError("operator is not symmetric")
        object.__setattr__(self, "entries", half + half.T)

    @cached_property
    def _eigh(self):
        return np.linalg.eigh(self.entries)

    @cached_property
    def _eigvals(self) -> np.ndarray:
        """Eigenvalues alone, for the singular verdict: eigh's where it has
        run, else eigvalsh's, which skips the eigenvectors."""
        eigh = self.__dict__.get("_eigh")
        return eigh[0] if eigh is not None else np.linalg.eigvalsh(self.entries)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigh[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigh[1]

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return self.entries @ np.asarray(psi, dtype=float)


def _singular_modes(w: np.ndarray) -> np.ndarray:
    """Mask of the modes with |eigenvalue| <= SINGULAR_TOL * max(1, max |eigenvalue|)."""
    return np.abs(w) <= SINGULAR_TOL * np.max(np.abs(w), initial=1.0)


def _refuse_singular(op: OperatorMatrix):
    """Raise when op is singular, naming its eigenpair of least magnitude
    (both from one eigh)."""
    if _singular_modes(op._eigvals).any():
        w, v = op.eigenvalues, op.eigenvectors
        k = int(np.argmin(np.abs(w)))
        raise SingularOperatorError(f"operator is singular (eigenvalue {w[k]:.3e})",
                                    eigenvalue=float(w[k]), eigenvector=v[:, k].copy())


def _vector(x, op: OperatorMatrix) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (op.dimension,):
        raise ValidationError("vector length does not match the operator")
    if not np.all(np.isfinite(x)):
        raise ValidationError("vector entries must be finite")
    return x


def green_apply(op: OperatorMatrix, psi: np.ndarray,
                project: bool = False) -> np.ndarray:
    """Solution sigma with op(sigma) = psi.

    The eigenvalues alone decide singularity; a nonsingular operator is then
    solved by one LU solve (np.linalg.solve), with no eigenvectors: at n = 512
    that costs an eigvalsh and a solve, about half of one eigh.  A singular
    operator raises, naming the offending eigenvector.  With project=True,
    components along near-null eigenvectors are dropped and the remaining
    modes inverted in the eigenbasis (the projected solution for a singular
    operator).
    """
    psi = _vector(psi, op)
    if not project:
        _refuse_singular(op)
        return np.linalg.solve(op.entries, psi)
    w, v = op.eigenvalues, op.eigenvectors
    small = _singular_modes(w)
    coeff = v.T @ psi
    inv = np.where(small, 0.0, coeff / np.where(small, 1.0, w))
    return v @ inv


def green_kernel(op: OperatorMatrix) -> np.ndarray:
    """Dense kernel sum_i eta_i eta_i^T / lambda_i; applying it as a matrix
    agrees with green_apply."""
    w, v = op.eigenvalues, op.eigenvectors
    _refuse_singular(op)
    return (v / w) @ v.T


def _box_step(samples: int, speed: float) -> float:
    """Grid step h = 1/S of a valid box operator."""
    if not 4 <= samples <= MAX_BOX_SAMPLES:
        raise ValidationError(f"samples must lie in [4, {MAX_BOX_SAMPLES}]")
    lo, hi = SPEED_RANGE
    if not lo <= speed <= hi:
        raise ValidationError("speed must lie in [2**-250, 2**250]")
    return 1.0 / int(samples)


def box_operator_1d(samples: int, speed: float,
                    periodic: bool = True) -> OperatorMatrix:
    """Matrix of id - (1/a^2) D^2 on a uniform grid of the unit interval.

    D^2 is the standard second difference (periodic wrap or Neumann mirror);
    the result is symmetric positive-definite with smallest eigenvalue >= 1.
    box_eigenvalues_1d gives its spectrum.  At most MAX_BOX_SAMPLES samples.
    """
    h = _box_step(samples, speed)
    s = int(samples)
    d2 = np.zeros((s, s))
    idx = np.arange(s)
    d2[idx, idx] = -2.0
    if periodic:
        d2[idx, (idx + 1) % s] += 1.0
        d2[idx, (idx - 1) % s] += 1.0
    else:
        d2[idx[:-1], idx[:-1] + 1] += 1.0
        d2[idx[1:], idx[1:] - 1] += 1.0
        # Neumann mirror: boundary rows see their own value reflected
        d2[0, 0] += 1.0
        d2[-1, -1] += 1.0
    d2 /= h * h
    return OperatorMatrix(np.eye(s) - d2 / speed ** 2)


def box_eigenvalues_1d(samples: int, speed: float,
                       periodic: bool = True) -> np.ndarray:
    """Ascending eigenvalues of box_operator_1d, in closed form.

    With h = 1/S they are 1 + (2/(a h))^2 sin^2(pi k / S) for the periodic
    wrap (the DFT diagonalises it) and 1 + (2/(a h))^2 sin^2(pi k / (2 S))
    for the Neumann mirror (the DCT-II does), k = 0, ..., S - 1.
    """
    h = _box_step(samples, speed)
    s = int(samples)
    angle = np.pi * np.arange(s) / (s if periodic else 2 * s)
    return np.sort(1.0 + (2.0 / (speed * h)) ** 2 * np.sin(angle) ** 2)


def ls2_inner(u: np.ndarray, v: np.ndarray, op: OperatorMatrix,
              s: float) -> float:
    """Graded inner product <u, L^s v> through eigenvalue powers.

    Integer s works for any symmetric L; fractional s requires a positive
    spectrum.  A mode with cu = 0 or cv = 0 adds 0, even where its eigenvalue
    power overflows; a value beyond the float range is refused.
    """
    u, v = _vector(u, op), _vector(v, op)
    if not (math.isfinite(s) and s >= 0):
        raise ValidationError(f"grading exponent must be a finite number >= 0, got {s}")
    w = op.eigenvalues
    if float(s) != int(s) and np.any(w <= 0):
        raise ValidationError("fractional power of a non-positive spectrum")
    cu = op.eigenvectors.T @ u
    cv = op.eigenvectors.T @ v
    with np.errstate(over="ignore", invalid="ignore"):
        powers = w ** float(s) if float(s) != int(s) else w ** int(s)
        value = float(np.sum(np.where((cu == 0) | (cv == 0), 0.0, cu * powers * cv)))
    if not math.isfinite(value):
        raise ValidationError(f"<u, L^s v> at s = {s} is beyond the float range")
    return value
