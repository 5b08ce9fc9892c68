"""Parallel transport, gauge actions and holonomy on paths in a matrix group.

An algebra-valued path u determines the group path g_u with right-logarithmic
derivative u (g' = u g, g(0) = e); its endpoint g_u(1) is the parallel
transport map.  A connection restricted to a curve is represented by its
sampled coefficient path in a fixed trivialization; the pull-back map negates
(and, for a nonzero reference coefficient, conjugates) it, and the holonomy
element is the endpoint mismatch between the two parallel transports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

ANTIHERM_TOL = 1e-12
UNITARY_TOL = 1e-10


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


@dataclass(frozen=True)
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

    def at(self, t: np.ndarray) -> np.ndarray:
        """Linear interpolation of the samples at parameters t in [0, 1]."""
        t = np.atleast_1d(np.clip(t, 0.0, 1.0))
        s = self.n_intervals
        pos = t * s
        k = np.minimum(pos.astype(int), s - 1)
        frac = (pos - k)[:, None, None]
        return (1.0 - frac) * self.samples[k] + frac * self.samples[k + 1]


@dataclass(frozen=True)
class ConnectionPath:
    """Sampled connection coefficient along the reference horizontal lift."""

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _square_stack(self.samples))


@dataclass(frozen=True)
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

    def endpoints(self):
        """(g(0), g(1)) boundary pair."""
        return self.samples[0], self.samples[-1]


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(I + a)(I + b) - I, for steps stored as their offsets from the identity.

    A step matrix M = I + D of a fine grid has |D| ~ h.  Storing D keeps its
    full relative precision; multiplying the matrices M instead rounds at the
    scale of I, and a tree of nearly equal factors (repeated squaring, on a
    constant path) compounds that rounding linearly in the step count.
    """
    return a + b + a @ b


def _product(steps: np.ndarray) -> np.ndarray:
    """Ordered product M_{N-1} ... M_0 of the step matrices M_k = I + steps[k].

    Pairwise tree reduction: each round composes neighbours in one batched
    matmul and carries an odd last step, so about log2 N matmuls in all.
    """
    while len(steps) > 1:
        paired = _compose(steps[1::2], steps[:len(steps) - 1:2])
        steps = np.concatenate([paired, steps[-1:]]) if len(steps) % 2 else paired
    return np.eye(steps.shape[1]) + steps[0]


def _prefix(steps: np.ndarray) -> np.ndarray:
    """Partial products g_0 = I, g_{k+1} = M_k g_k of M_k = I + steps[k].

    Blocked scan: the steps are padded with identity steps into blocks of about
    sqrt(N); one sequential scan runs inside all blocks at once, a second
    carries the block totals, and one batched matmul applies each block's
    carry, so about 2 sqrt(N) matmuls in all.
    """
    count, n = steps.shape[:2]
    width = int(np.ceil(np.sqrt(count)))
    blocks = -(-count // width)
    pad = np.zeros((blocks * width - count, n, n), dtype=steps.dtype)
    local = np.concatenate([steps, pad]).reshape(blocks, width, n, n)
    for j in range(1, width):
        local[:, j] = _compose(local[:, j], local[:, j - 1])
    carry = np.zeros((blocks, n, n), dtype=steps.dtype)
    for b in range(1, blocks):
        carry[b] = _compose(local[b - 1, -1], carry[b - 1])
    g = np.zeros((count + 1, n, n), dtype=steps.dtype)
    g[1:] = _compose(local, carry[:, None]).reshape(-1, n, n)[:count]
    return g + np.eye(n)


def _fine_steps(steps: int, intervals: int) -> int:
    """Step count rounded up to a multiple of the sample intervals."""
    if steps < 1:
        raise ValidationError("steps must be positive")
    return int(np.ceil(steps / intervals)) * intervals


def _midpoint_steps(u: AlgebraPath, steps: int) -> np.ndarray:
    """Offsets exp(h u(t_{k+1/2})) - I on the fine grid aligned with the samples."""
    steps = _fine_steps(steps, u.n_intervals)
    h = 1.0 / steps
    return expm_antiherm(h * u.at((np.arange(steps) + 0.5) * h)) - np.eye(u.samples.shape[1])


def transport_path(u: AlgebraPath, steps: int = 1000) -> np.ndarray:
    """Group path g(t_k) on the fine grid, by midpoint-exponential stepping.

    g_{k+1} = exp(h u(t_{k+1/2})) g_k is order 2, stays on the group, and is
    exact for piecewise-constant u when the fine grid aligns with the samples.
    """
    return _prefix(_midpoint_steps(u, steps))


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


def pullback_connection(omega: ConnectionPath,
                        omega0: Optional[ConnectionPath] = None,
                        steps: int = 1000) -> AlgebraPath:
    """Negated connection coefficient along the reference horizontal lift.

    With a nonzero reference coefficient the trivialization is moved onto the
    reference lift first: -Ad(h(t)^{-1})(c - c0) with h' = -c0 h.
    """
    c = omega.samples
    if omega0 is None:
        out = -c
    else:
        if omega0.samples.shape != c.shape:
            raise ValidationError("connection grids differ")
        # conjugate on the fine grid: sub-sampling back to the coarse nodes
        # would re-linearize Ad(h(t)^{-1}) and lose two orders of accuracy
        h = transport_path(AlgebraPath(-omega0.samples), steps)
        fine_t = np.linspace(0.0, 1.0, h.shape[0])
        diff = AlgebraPath(c - omega0.samples).at(fine_t)
        hinv = np.conj(np.swapaxes(h, 1, 2))
        out = -np.einsum("kij,kjl,klm->kim", hinv, diff, h)
    out = (out - np.conj(np.swapaxes(out, 1, 2))) / 2.0
    return AlgebraPath(out)


def _rk4_group(c: ConnectionPath, steps: int = 4000) -> np.ndarray:
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
    eye = np.eye(path.samples.shape[1])
    um = path.at(ts + 0.5 * h)
    k1 = path.at(ts)
    k2 = um @ (eye + 0.5 * h * k1)
    k3 = um @ (eye + 0.5 * h * k2)
    k4 = path.at(ts + h) @ (eye + h * k3)
    return _product((h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


def holonomy_element(omega: ConnectionPath,
                     omega0: Optional[ConnectionPath] = None,
                     steps: int = 4000) -> np.ndarray:
    """Group element relating parallel transport of omega to the reference.

    Computed as g_ref(1)^{-1} g_omega(1) from two independent RK4 transports;
    equals transport(pullback_connection(omega, omega0)) up to integration
    error.
    """
    g1 = _rk4_group(omega, steps)
    if omega0 is None:
        return g1
    g0 = _rk4_group(omega0, steps)
    return np.conj(g0.T) @ g1
