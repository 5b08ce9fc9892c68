"""Parallel transport, gauge actions and holonomy on paths in a matrix group.

An algebra-valued path u determines the group path g_u with right-logarithmic
derivative u (g' = u g, g(0) = e); its endpoint g_u(1) is the parallel
transport map.  A connection restricted to a curve is represented by its
sampled coefficient path in a fixed trivialization, which lives in the Lie
algebra and so is an AlgebraPath too; the pull-back map negates (and, for a
nonzero reference coefficient, conjugates) it, and the holonomy element is
the endpoint mismatch between the two parallel transports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

ANTIHERM_TOL = 1e-12
UNITARY_TOL = 1e-10
# Cap on the fine-grid step count; each (n, n, steps) stack holds
# 16 n^2 bytes per step, so the cap bounds what a user-given --steps allocates.
MAX_STEPS = 2 ** 20
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def _square_stack(samples) -> np.ndarray:
    """Samples as a finite complex (S+1, n, n) stack with S >= 1."""
    s = np.asarray(samples, dtype=complex)
    if s.ndim != 3 or s.shape[0] < 2 or s.shape[1] != s.shape[2]:
        raise ValidationError("need >= 2 square matrix samples")
    if not np.all(np.isfinite(s)):
        raise ValidationError("samples must be finite")
    return s


def expm_antiherm(batch: np.ndarray) -> np.ndarray:
    """exp of a batch of anti-Hermitian matrices via Hermitian eigendecomposition."""
    herm = 1j * batch
    w, v = np.linalg.eigh(herm)
    phase = np.exp(-1j * w)
    return np.einsum("...ij,...j,...kj->...ik", v, phase, v.conj())


@dataclass(frozen=True, eq=False)
class AlgebraPath:
    """Uniform samples u(t_k), t_k = k/S, of a path in a matrix Lie algebra."""

    samples: np.ndarray            # (S+1, n, n) complex

    def __post_init__(self):
        s = _square_stack(self.samples)
        if np.max(np.abs(s + np.conj(np.swapaxes(s, 1, 2)))) > ANTIHERM_TOL * (1 + np.abs(s).max()):
            raise ValidationError("samples are not anti-Hermitian")
        object.__setattr__(self, "samples", s)

    @property
    def n_intervals(self) -> int:
        return self.samples.shape[0] - 1

    def _lerp(self, t: np.ndarray) -> np.ndarray:
        """Linear interpolation at t as a contiguous batch-last (n, n, K) stack."""
        t = np.atleast_1d(np.clip(t, 0.0, 1.0))
        s = self.n_intervals
        pos = t * s
        k = np.minimum(pos.astype(int), s - 1)
        last = np.ascontiguousarray(np.moveaxis(self.samples, 0, -1))
        lo = np.take(last, k, axis=-1)
        # in place, so that the K-long stack is not copied three more times
        out = np.take(last, k + 1, axis=-1)
        out -= lo
        out *= pos - k
        out += lo
        return out


@dataclass(frozen=True, eq=False)
class GaugePath:
    """Uniform samples of a path in the matrix group (unitary/orthogonal)."""

    samples: np.ndarray

    def __post_init__(self):
        s = _square_stack(self.samples)
        eye = np.eye(s.shape[1])
        res = np.max(np.abs(np.einsum("kij,kil->kjl", s.conj(), s) - eye))
        if res > UNITARY_TOL:
            raise ValidationError("samples are not in the group")
        object.__setattr__(self, "samples", s)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix products a_k b_k of two batch-last (n, n, K) stacks.

    With the batch axis last, each of the n^3 scalar products runs over a
    contiguous length-K vector; a (K, n, n) matmul instead calls BLAS once
    per tiny matrix, and at K = 4000 is about 14x slower for n = 2 and 4x
    for n = 3.
    """
    return np.einsum("ij...,jl...->il...", a, b)


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(I + a)(I + b) - I, for steps stored as their offsets from the identity.

    A step matrix M = I + D of a fine grid has |D| ~ h.  Storing D keeps its
    full relative precision; multiplying the matrices M instead rounds at the
    scale of I, and a tree of nearly equal factors (repeated squaring, on a
    constant path) compounds that rounding linearly in the step count.
    """
    return a + b + _mul(a, b)


def _expm_offset(y: np.ndarray) -> np.ndarray:
    """exp(Y) - I for a batch-last (n, n, K) stack, without forming exp(Y).

    Truncated Taylor series in offset Horner form, E_{m-1} = Y/m and
    E_{k-1} = Y/k + (Y/k) E_k, so no term is added to I and a step of size
    |Y| ~ h keeps its full relative precision.  With theta the largest
    1-norm in the stack, the degree m is the least for which the remainder
    bound relative to |Y|, theta^m / ((m+1)! (1 - theta/(m+2))), is below
    unit roundoff.  Above theta = 1/2 the stack is scaled by 2^-s first and
    squared back in offset form, D <- 2D + D D (Higham, Functions of
    Matrices, ch. 10).
    """
    theta = float(np.abs(y).sum(axis=0).max())
    squarings = int(np.ceil(np.log2(2.0 * theta))) if theta > 0.5 else 0
    scale = 2.0 ** -squarings
    theta *= scale
    degree, remainder = 1, theta / 2.0
    while remainder > _UNIT_ROUNDOFF * (1.0 - theta / (degree + 2)):
        degree += 1
        remainder *= theta / (degree + 1)
    d = y * (scale / degree)
    for k in range(degree - 1, 0, -1):
        yk = y * (scale / k)
        d = yk + _mul(yk, d)
    for _ in range(squarings):
        d = 2.0 * d + _mul(d, d)
    return d


def _product(steps: np.ndarray) -> np.ndarray:
    """Ordered product M_{K-1} ... M_0 of the steps M_k = I + steps[:, :, k].

    Pairwise tree reduction over the batch-last (n, n, K) stack: each round
    composes neighbours in one batched product and carries an odd last step,
    so about log2 K products in all.
    """
    while steps.shape[-1] > 1:
        count = steps.shape[-1]
        paired = _compose(steps[..., 1::2], steps[..., :count - 1:2])
        steps = np.concatenate([paired, steps[..., -1:]], axis=-1) if count % 2 else paired
    return np.eye(steps.shape[0]) + steps[..., 0]


def _prefix(steps: np.ndarray) -> np.ndarray:
    """Partial products g_0 = I, g_{k+1} = M_k g_k of M_k = I + steps[:, :, k].

    Blocked scan over the batch-last (n, n, K) stack: the steps are padded
    with identity steps into blocks of about sqrt(K), held as
    (n, n, width, blocks) so that each scan position is one contiguous
    slice; one sequential scan runs inside all blocks at once, a second
    carries the block totals, and one batched product applies each block's
    carry, so about 2 sqrt(K) products in all.  Returns (n, n, K + 1).
    """
    n, count = steps.shape[0], steps.shape[-1]
    width = int(np.ceil(np.sqrt(count)))
    blocks = -(-count // width)
    pad = np.zeros((n, n, blocks * width - count), dtype=steps.dtype)
    local = np.concatenate([steps, pad], axis=-1).reshape(n, n, blocks, width)
    local = np.ascontiguousarray(local.transpose(0, 1, 3, 2))
    for j in range(1, width):
        local[:, :, j] = _compose(local[:, :, j], local[:, :, j - 1])
    carry = np.zeros((n, n, blocks), dtype=steps.dtype)
    for b in range(1, blocks):
        carry[..., b] = _compose(local[:, :, -1, b - 1], carry[..., b - 1])
    scanned = _compose(local, carry[:, :, None]).transpose(0, 1, 3, 2)
    g = np.zeros((n, n, count + 1), dtype=steps.dtype)
    g[..., 1:] = scanned.reshape(n, n, -1)[..., :count]
    return g + np.eye(n)[..., None]


def _fine_steps(steps: int, intervals: int) -> int:
    """Step count rounded up to a multiple of the sample intervals.

    The result sizes every (n, n, steps) stack, so it is refused above
    MAX_STEPS before anything is allocated.
    """
    if steps < 1:
        raise ValidationError("steps must be positive")
    fine = -(-steps // intervals) * intervals
    if fine > MAX_STEPS:
        raise ValidationError(
            f"{fine} steps (steps rounded up to a multiple of the {intervals} "
            f"sample intervals) exceed the cap of {MAX_STEPS}")
    return fine


def _midpoint_steps(u: AlgebraPath, steps: int) -> np.ndarray:
    """Offsets exp(h u(t_{k+1/2})) - I on the fine grid aligned with the samples."""
    steps = _fine_steps(steps, u.n_intervals)
    h = 1.0 / steps
    return _expm_offset(h * u._lerp((np.arange(steps) + 0.5) * h))


def transport_path(u: AlgebraPath, steps: int = 1000) -> np.ndarray:
    """Group path g(t_k) on the fine grid, by midpoint-exponential stepping.

    g_{k+1} = exp(h u(t_{k+1/2})) g_k is order 2, stays on the group, and is
    exact for piecewise-constant u when the fine grid aligns with the samples.
    Returns a (K + 1, n, n) stack.
    """
    return np.moveaxis(_prefix(_midpoint_steps(u, steps)), -1, 0)


def transport(u: AlgebraPath, steps: int = 1000) -> np.ndarray:
    """Endpoint g_u(1) of the group path with right-logarithmic derivative u."""
    return _product(_midpoint_steps(u, steps))


def _derivative(samples: np.ndarray) -> np.ndarray:
    """Centered differences on the sample grid, one-sided order 2 at the ends."""
    s = samples.shape[0] - 1
    d = np.empty_like(samples)
    d[1:-1] = (samples[2:] - samples[:-2]) * (s / 2.0)
    d[0] = (-1.5 * samples[0] + 2.0 * samples[1] - 0.5 * samples[2]) * s
    d[-1] = (1.5 * samples[-1] - 2.0 * samples[-2] + 0.5 * samples[-3]) * s
    return d


def gauge_act(g: GaugePath, u: AlgebraPath) -> AlgebraPath:
    """(g . u)(t) = Ad(g(t)) u(t) + g'(t) g(t)^{-1} on the shared grid."""
    if g.samples.shape != u.samples.shape:
        raise ValidationError("gauge path and algebra path grids differ")
    if g.samples.shape[0] < 3:
        raise ValidationError("gauge_act needs at least 3 samples")
    ginv = np.conj(np.swapaxes(g.samples, 1, 2))
    ad = np.einsum("kij,kjl,klm->kim", g.samples, u.samples, ginv)
    dg = _derivative(g.samples)
    maurer = np.einsum("kij,kjl->kil", dg, ginv)
    out = ad + maurer
    # centered differences leave a small symmetric defect; re-skew the result
    out = (out - np.conj(np.swapaxes(out, 1, 2))) / 2.0
    return AlgebraPath(out)


def pullback_connection(omega: AlgebraPath,
                        omega0: Optional[AlgebraPath] = None,
                        steps: int = 1000) -> AlgebraPath:
    """Negated connection coefficient along the reference horizontal lift.

    With a nonzero reference coefficient the trivialization is moved onto the
    reference lift first: -Ad(h(t)^{-1})(c - c0) with h' = -c0 h.
    """
    c = np.moveaxis(omega.samples, 0, -1)
    if omega0 is None:
        out = -c
    else:
        if omega0.samples.shape != omega.samples.shape:
            raise ValidationError("connection grids differ")
        # conjugate on the fine grid: sub-sampling back to the coarse nodes
        # would re-linearize Ad(h(t)^{-1}) and lose two orders of accuracy
        h = np.moveaxis(transport_path(AlgebraPath(-omega0.samples), steps), 0, -1)
        fine_t = np.linspace(0.0, 1.0, h.shape[-1])
        diff = AlgebraPath(omega.samples - omega0.samples)._lerp(fine_t)
        out = -_mul(_mul(np.conj(h).transpose(1, 0, 2), diff), h)
    out = (out - np.conj(out).transpose(1, 0, 2)) / 2.0
    return AlgebraPath(np.moveaxis(out, -1, 0))


def _rk4_group(c: AlgebraPath, steps: int = 4000) -> np.ndarray:
    """RK4 endpoint of g' = -c(t) g; independent of the exponential stepper.

    An RK4 step is linear in g: g_{k+1} = M_k g_k with
    M_k = I + h/6 (k1 + 2 k2 + 2 k3 + k4), k1 = u0, k2 = um (I + h/2 k1),
    k3 = um (I + h/2 k2) and k4 = u1 (I + h k3), where u0, um and u1 are u
    at the start, middle and end of the step.
    """
    path = AlgebraPath(-c.samples)
    steps = _fine_steps(steps, path.n_intervals)
    h = 1.0 / steps
    ts = np.arange(steps) * h
    um = path._lerp(ts + 0.5 * h)
    u1 = path._lerp(ts + h)
    k1 = path._lerp(ts)
    k2 = um + (0.5 * h) * _mul(um, k1)
    k3 = um + (0.5 * h) * _mul(um, k2)
    k4 = u1 + h * _mul(u1, k3)
    return _product((h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


def holonomy_element(omega: AlgebraPath,
                     omega0: Optional[AlgebraPath] = None,
                     steps: int = 4000) -> np.ndarray:
    """Group element relating parallel transport of omega to the reference.

    Computed as g_ref(1)^{-1} g_omega(1) from two independent RK4 transports;
    equals transport(pullback_connection(omega, omega0)) up to integration
    error.
    """
    if omega0 is not None and omega0.samples.shape[1:] != omega.samples.shape[1:]:
        raise ValidationError("connection matrices differ in size")
    g1 = _rk4_group(omega, steps)
    if omega0 is None:
        return g1
    g0 = _rk4_group(omega0, steps)
    return np.conj(g0.T) @ g1
