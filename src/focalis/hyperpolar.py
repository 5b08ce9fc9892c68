"""Polarity check for two-sided symmetric-subgroup actions on a compact group.

For the action (k1, k2) . g = k1 g k2^{-1} of K x K, with K the fixed-point
subgroup of an involution theta, the candidate section is Sigma = exp(a) for a
maximal abelian subspace a of the (-1)-eigenspace p.  The check samples points
of Sigma and verifies that every orbit-tangent direction is orthogonal to the
section's tangent space there, and that the section is flat (a is abelian).
"""

from __future__ import annotations

import numpy as np

from .algebras import LieAlgebraBasis, bracket, load_algebra
from .errors import ValidationError
from .roots import restricted_root_decomposition
from .transport import expm_antiherm

MAX_SAMPLES = 10_000  # sample points of one check: each costs one expm and two products
_CHUNK = 256          # samples exponentiated and paired as one stack


def _hs_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Real Hilbert-Schmidt pairings <x_i, y_j> of a matrix stack x with each stack in y."""
    return np.einsum("iab,...jab->...ij", np.conj(x), y).real


def section_orthogonality_check(algebra, theta: str, n_samples: int = 25,
                                seed: int = 0) -> dict:
    """Orthogonality of orbit directions to the section along Sigma = exp(a).

    At g = exp(H), the two-sided orbit through g has tangent directions
    (X - Ad(g) Y) g for X, Y in k; the section tangent is a g.  Reports the
    worst inner product over sampled g and bases, plus the flatness residual
    max |[a_i, a_j]| and the space dimensions.  Since g is unitary,
    <X - g Y g^-1, A> = <X, A> - <Y, g^-1 A g>.
    """
    if not 1 <= n_samples <= MAX_SAMPLES:
        raise ValidationError(f"n_samples must lie in [1, {MAX_SAMPLES}], got {n_samples}")
    alg = algebra if isinstance(algebra, LieAlgebraBasis) else load_algebra(algebra)
    data = restricted_root_decomposition(alg, theta, seed=seed + 7)
    a_mats, k_mats = np.stack(data.a_basis), np.stack(data.k_basis)

    flat = float(np.max(np.abs(bracket(a_mats[:, None], a_mats[None]))))

    rng = np.random.default_rng(seed)
    xa = _hs_inner(k_mats, a_mats)
    worst = 0.0
    for start in range(0, n_samples, _CHUNK):
        coeffs = rng.normal(size=(min(_CHUNK, n_samples - start), len(a_mats)))
        g = expm_antiherm(np.tensordot(coeffs, a_mats, axes=1))[:, None]
        ya = _hs_inner(k_mats, np.conj(np.swapaxes(g, -1, -2)) @ a_mats @ g)
        # max over X, Y of |<X, A> - <Y, g^-1 A g>| without the (X, Y) table:
        # rounding is monotone, so the extreme pairs give the extreme differences
        worst = max(worst, float(np.max(xa.max(0) - ya.min(1))),
                    float(np.max(ya.max(1) - xa.min(0))))
    norm = max(np.linalg.norm(a) for a in a_mats)
    return {
        "algebra": alg.name,
        "involution": theta,
        "section_dim": len(a_mats),
        "subgroup_dim": len(k_mats),
        "n_samples": n_samples,
        "max_orthogonality_residual": worst / norm,
        "flatness_residual": flat,
        "passed": bool(worst / norm < 1e-8 and flat < 1e-10),
    }
