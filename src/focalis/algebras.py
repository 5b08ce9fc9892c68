"""Matrix Lie algebra bases, structure constants and the Killing inner product.

Everything is derived from one coefficient map, the pseudo-inverse of the
stacked basis, and checked as tensor identities in coefficient space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import AD_INVARIANCE_TOL, IDENTITY_TOL, ValidationError

MAX_MATRIX_SIZE = 16   # su(n)'s bracket stack: (n^2 - 1)^2 n^2 complex entries, 0.25 GiB
VERIFY_BLOCK_ENTRIES = 2 ** 18  # complex entries of one block of _verify's reconstruction

_PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Commutator; broadcasts over leading axes of stacked matrices.  The second
    product is subtracted in place, so a stack costs one temporary, not two."""
    p = x @ y
    p -= y @ x
    return p


def decimal_number(text: str):
    """The whole number that text writes in decimal digits of any script, as '3',
    '003' or '٣'; None for any other text, or one too long for int() to read."""
    if not text.isdecimal():
        return None
    try:
        return int(text)
    except ValueError:
        return None


def _su_basis(n: int) -> List[np.ndarray]:
    """Anti-Hermitian traceless basis of su(n)."""
    if n == 2:
        return [0.5j * s for s in _PAULI]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j], m[j, i] = 1.0, -1.0
            out.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j], m[j, i] = 1j, 1j
            out.append(m)
    for k in range(n - 1):
        d = np.zeros(n)
        d[: k + 1] = 1.0
        d[k + 1] = -(k + 1)
        out.append(1j * np.diag(d / np.linalg.norm(d)))
    return out


def _so_basis(n: int) -> List[np.ndarray]:
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j], m[j, i] = 1.0, -1.0
            out.append(m)
    return out


@dataclass(frozen=True, eq=False)
class LieAlgebraBasis:
    name: str
    basis: np.ndarray            # (dim, m, m) matrices spanning the algebra
    structure: np.ndarray        # c[i, j, k]: [e_i, e_j] = sum_k c_ijk e_k
    gram: np.ndarray             # inner products from the (-1)-Killing form
    coef_map: np.ndarray         # (dim, m*m) pseudo-inverse of the stacked basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def matrix_size(self) -> int:
        return self.basis.shape[-1]

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """Expansion coefficients of a matrix, or of a stack of matrices along
        the last two axes, in this basis (least squares)."""
        x = np.asarray(x)
        return (x.reshape(*x.shape[:-2], -1) @ self.coef_map.T).real

    def from_coefficients(self, c: np.ndarray) -> np.ndarray:
        """Matrix of coefficient vector c; a stack for c of shape (..., dim)."""
        return np.tensordot(np.asarray(c), self.basis, axes=1)


def _verify(alg: LieAlgebraBasis, brackets: np.ndarray):
    """Check that the structure constants reproduce every bracket of the
    (dim, dim, n, n) stack `brackets` in matrix space, that c is antisymmetric
    and that gram is ad-invariant, <[e_i, e_j], e_k> + <e_j, [e_i, e_k]> = 0,
    in coefficient space.  Jacobi needs no check of its own: matrix commutators
    satisfy it exactly, so the Jacobi defect of c is a linear image of the
    reproduction residual.  The checks take a block of c's rows at a time (su2
    to su8 are one), so no c-size or stack-size temporary stands beside the stack."""
    c = alg.structure
    bound = AD_INVARIANCE_TOL * (1.0 + np.abs(alg.gram).max())
    rows = max(1, VERIFY_BLOCK_ENTRIES // brackets[0].size)
    for i in range(0, alg.dim, rows):
        b = slice(i, i + rows)
        if np.max(np.abs(np.tensordot(c[b], alg.basis, axes=1) - brackets[b])) > IDENTITY_TOL:
            raise ValidationError("structure constants do not reproduce brackets")
        if np.max(np.abs(c[b] + np.swapaxes(c[:, b], 0, 1))) > IDENTITY_TOL:
            raise ValidationError("structure constants not antisymmetric")
        cg = c[b] @ alg.gram
        if np.max(np.abs(cg + np.swapaxes(cg, 1, 2))) > bound:
            raise ValidationError("inner product not ad-invariant")


def _family_and_size(name: str):
    """('su' or 'so', n) of a lowered name 'suN', 'soN', 'su_N' or 'so_N', N written
    as by decimal_number; None for any other name."""
    family, digits = name[:2], name[2:]
    n = decimal_number(digits[1:] if digits.startswith("_") else digits)
    return (family, n) if family in ("su", "so") and n is not None else None


def load_algebra(name: str) -> LieAlgebraBasis:
    """Construct a supported algebra (su2, su3, so3, soN) with verified data."""
    name = name.lower().strip()
    parsed = _family_and_size(name)
    if parsed is None:
        raise ValidationError(f"unsupported algebra '{name}'")
    family, n = parsed
    if n < 2 or (family == "so" and n < 3) or n > MAX_MATRIX_SIZE:
        raise ValidationError(f"unsupported algebra '{name}' (n <= {MAX_MATRIX_SIZE})")
    b = np.stack(_su_basis(n) if family == "su" else _so_basis(n))
    dim = len(b)
    coef_map = np.linalg.pinv(b.reshape(dim, -1).T)
    brackets = bracket(b[:, None], b[None])
    c = (brackets.reshape(dim * dim, -1) @ coef_map.T).real.reshape(dim, dim, dim)
    gram = -np.einsum("iba,jab->ij", c, c)      # -tr(ad_i ad_j), ad_i = c[i]^T
    c = np.ascontiguousarray(c)   # frees the complex product, twice c's size, before the check
    alg = LieAlgebraBasis(name=f"{family}{n}", basis=b, structure=c,
                          gram=gram, coef_map=coef_map)
    _verify(alg, brackets)
    return alg
