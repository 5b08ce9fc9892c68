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
    speed: float = 1.0

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 3 or s.shape[0] < 2 or s.shape[1] != s.shape[2]:
            raise ValidationError("need >= 2 square matrix samples")
        if np.max(np.abs(s + np.conj(np.swapaxes(s, 1, 2)))) > ANTIHERM_TOL * (1 + np.abs(s).max()):
            raise ValidationError("samples are not anti-Hermitian")
        if self.speed <= 0:
            raise ValidationError("speed must be positive")
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
    speed: float = 1.0

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 3 or s.shape[0] < 2 or s.shape[1] != s.shape[2]:
            raise ValidationError("need >= 2 square matrix samples")
        object.__setattr__(self, "samples", s)


@dataclass(frozen=True)
class GaugePath:
    """Uniform samples of a path in the matrix group (unitary/orthogonal)."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 3 or s.shape[0] < 2 or s.shape[1] != s.shape[2]:
            raise ValidationError("need >= 2 square matrix samples")
        eye = np.eye(s.shape[1])
        res = np.max(np.abs(np.einsum("kij,kil->kjl", s.conj(), s) - eye))
        if res > UNITARY_TOL:
            raise ValidationError("samples are not in the group")
        object.__setattr__(self, "samples", s)

    def endpoints(self):
        """(g(0), g(1)) boundary pair."""
        return self.samples[0], self.samples[-1]


def transport_path(u: AlgebraPath, steps: int = 1000) -> np.ndarray:
    """Group path g(t_k) on the fine grid, by midpoint-exponential stepping.

    g_{k+1} = exp(h u(t_{k+1/2})) g_k is order 2, stays on the group, and is
    exact for piecewise-constant u when the fine grid aligns with the samples.
    """
    s = u.n_intervals
    if steps < 1:
        raise ValidationError("steps must be positive")
    steps = int(np.ceil(steps / s)) * s     # align substeps with sample nodes
    h = 1.0 / steps
    mids = (np.arange(steps) + 0.5) * h
    exps = expm_antiherm(h * u.at(mids))
    n = u.samples.shape[1]
    g = np.empty((steps + 1, n, n), dtype=complex)
    g[0] = np.eye(n)
    for k in range(steps):
        g[k + 1] = exps[k] @ g[k]
    return g


def transport(u: AlgebraPath, steps: int = 1000) -> np.ndarray:
    """Endpoint g_u(1) of the group path with right-logarithmic derivative u."""
    return transport_path(u, steps)[-1]


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
    ginv = np.conj(np.swapaxes(g.samples, 1, 2))
    ad = np.einsum("kij,kjl,klm->kim", g.samples, u.samples, ginv)
    dg = _derivative(g.samples)
    maurer = np.einsum("kij,kjl->kil", dg, ginv)
    out = ad + maurer
    # centered differences leave a small symmetric defect; re-skew the result
    out = (out - np.conj(np.swapaxes(out, 1, 2))) / 2.0
    return AlgebraPath(out, speed=u.speed)


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
        h = transport_path(AlgebraPath(-omega0.samples, speed=omega.speed), steps)
        fine_t = np.linspace(0.0, 1.0, h.shape[0])
        diff = AlgebraPath(c - omega0.samples, speed=omega.speed).at(fine_t)
        hinv = np.conj(np.swapaxes(h, 1, 2))
        out = -np.einsum("kij,kjl,klm->kim", hinv, diff, h)
    out = (out - np.conj(np.swapaxes(out, 1, 2))) / 2.0
    return AlgebraPath(out, speed=omega.speed)


def _rk4_group(c: ConnectionPath, steps: int = 4000) -> np.ndarray:
    """RK4 endpoint of g' = -c(t) g; independent of the exponential stepper."""
    path = AlgebraPath(-c.samples, speed=c.speed)
    s = path.n_intervals
    steps = int(np.ceil(steps / s)) * s
    h = 1.0 / steps
    n = path.samples.shape[1]
    g = np.eye(n, dtype=complex)
    ts = np.arange(steps) * h
    u0 = path.at(ts)
    um = path.at(ts + 0.5 * h)
    u1 = path.at(ts + h)
    for k in range(steps):
        k1 = u0[k] @ g
        k2 = um[k] @ (g + 0.5 * h * k1)
        k3 = um[k] @ (g + 0.5 * h * k2)
        k4 = u1[k] @ (g + h * k3)
        g = g + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return g


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
