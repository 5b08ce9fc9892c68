"""Parallel transport, gauge actions and holonomy on paths in a matrix group.

An algebra-valued path u determines the group path g_u with right-logarithmic
derivative u (g' = u g, g(0) = e); its endpoint g_u(1) is the parallel
transport map, computed by two-point Gauss Magnus steps (order 4).  A
connection restricted to a curve is represented by its sampled coefficient
path in a fixed trivialization, which lives in the Lie algebra and so is an
AlgebraPath too; the pull-back map negates it, and for a nonzero reference
coefficient conjugates it along the reference lift, evaluated at the Gauss
nodes the steps read (GaussNodes).  The holonomy element is the endpoint
mismatch between the two parallel transports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ANTIHERM_TOL, UNITARY_TOL, ValidationError

# Cap on the fine-grid step count; each (n, n, steps) stack holds
# 16 n^2 bytes per step, so the cap bounds what a user-given --steps allocates.
MAX_STEPS = 2 ** 20
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
_MAX_STEP_PHASE = 1.0 / np.finfo(float).eps
_OUT_OF_RANGE = "the transport leaves the floating-point range; use more steps"
# the two Gauss-Legendre nodes on [0, 1]
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * (np.sqrt(3.0) / 6.0)
INTEGRATOR = "gauss-magnus-4"
ORACLE = "rk4"


def _square_stack(samples) -> np.ndarray:
    """Samples as a finite complex (S+1, n, n) stack with S >= 1."""
    s = np.asarray(samples, dtype=complex)
    if s.ndim != 3 or s.shape[0] < 2 or s.shape[1] != s.shape[2]:
        raise ValidationError("need >= 2 square matrix samples")
    return _finite(s, "samples must be finite")


def _finite(a: np.ndarray, error: str) -> np.ndarray:
    """a, refused with ValidationError(error) unless every entry is finite."""
    if not np.isfinite(a).all():
        raise ValidationError(error)
    return a


def _anti_hermitian(s: np.ndarray, what: str) -> np.ndarray:
    """A stack of matrices on its last two axes, refused unless anti-Hermitian."""
    if np.max(np.abs(s + np.conj(np.swapaxes(s, -1, -2)))) > ANTIHERM_TOL * (1 + np.abs(s).max()):
        raise ValidationError(f"{what} are not anti-Hermitian")
    return s


@dataclass(frozen=True, eq=False)
class AlgebraPath:
    """Uniform samples u(t_k), t_k = k/S, of a path in a matrix Lie algebra."""

    samples: np.ndarray            # (S+1, n, n) complex

    def __post_init__(self):
        object.__setattr__(self, "samples", _anti_hermitian(_square_stack(self.samples), "samples"))

    @property
    def n_intervals(self) -> int:
        return self.samples.shape[0] - 1

    def _lerp(self, t: np.ndarray) -> np.ndarray:
        """Linear interpolation at t as a contiguous batch-last (n, n, *t.shape) stack."""
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

    def _gauss_steps(self, fine: int, fractions=(1.0,)) -> np.ndarray:
        """Offsets of the Gauss Magnus steps over [t_k, t_k + c h] from each
        node t_k = k h of the fine grid h = 1/fine, for each c in fractions,
        all in (0, 1].

        The fine grid is aligned with the samples, and u is linear on a
        sample interval, u_j + b_j (t - t_j) with b_j = S (u_{j+1} - u_j).
        There the two Gauss nodes give exactly the mean u(t_k + c h/2) and the
        bracket (c h/12) [b_j, u_j], so the bracket is taken once per sample
        interval, not once per step.  Returns (n, n, len(fractions) * fine),
        one run of fine steps per fraction.
        """
        s, n = self.n_intervals, self.samples.shape[1]
        c = np.asarray(fractions, dtype=float)[:, None]
        width = 1.0 / fine
        mean = self._lerp((np.arange(fine) + c / 2) * width).reshape(n, n, len(c), s, -1)
        widths = c[:, :, None] * width
        u = np.ascontiguousarray(np.moveaxis(self.samples, 0, -1))
        bracket = _bracket(s * (u[..., 1:] - u[..., :-1]), u[..., :-1])
        return _magnus_steps(widths, mean, bracket[:, :, None, :, None] * (widths / 12))


@dataclass(frozen=True, eq=False)
class GaussNodes:
    """A path in a matrix Lie algebra known at the two Gauss nodes
    t_k + (1/2 -+ sqrt(3)/6) h of each step of a uniform grid of K steps.

    These are the values a Gauss Magnus step reads, so a path given by a
    formula (the pull-back along a reference lift) is transported without
    being sampled onto a grid and re-interpolated.  The grid is its own:
    transport takes exactly its K steps.
    """

    samples: np.ndarray            # (K, 2, n, n) complex: samples[k, i] at node i of step k

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 4 or s.shape[0] < 1 or s.shape[1] != 2 or s.shape[2] != s.shape[3]:
            raise ValidationError("need a (K, 2, n, n) stack of node values")
        s = _anti_hermitian(_finite(s, "node values must be finite"), "node values")
        object.__setattr__(self, "samples", s)

    @property
    def n_intervals(self) -> int:
        return self.samples.shape[0]

    def _gauss_steps(self, fine: int) -> np.ndarray:
        """Offsets of the Gauss Magnus steps on the nodes' own grid of fine steps."""
        if fine != self.n_intervals:
            raise ValidationError(f"the path is known on its grid of {self.n_intervals} "
                                  f"steps only, not on {fine}")
        a = np.moveaxis(self.samples, (0, 1), (3, 2))
        return _magnus_steps(1.0 / fine, (a[:, :, 0] + a[:, :, 1]) / 2.0,
                             _bracket(a[:, :, 1], a[:, :, 0]) * (np.sqrt(3.0) / 12.0))


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


def _bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] of two batch-last stacks of anti-Hermitian matrices, as p - p^H
    with p = x y, since (x y)^H = y x: one product, exactly anti-Hermitian."""
    p = _mul(x, y)
    return p - np.conj(np.swapaxes(p, 0, 1))


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


def expm_antiherm(batch: np.ndarray) -> np.ndarray:
    """exp of a (K, n, n) batch of anti-Hermitian matrices: the batch-first
    view I + _expm_offset."""
    d = _expm_offset(np.ascontiguousarray(np.moveaxis(batch, 0, -1)))
    return np.eye(d.shape[0]) + np.moveaxis(d, -1, 0)


def _product(steps: np.ndarray) -> np.ndarray:
    """Ordered product M_{K-1} ... M_0 of the steps M_k = I + steps[:, :, k].

    Pairwise tree reduction over the batch-last (n, n, K) stack: each round
    composes neighbours in one batched product and carries an odd last step,
    so about log2 K products in all.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the result is refused unless finite
        while steps.shape[-1] > 1:
            count = steps.shape[-1]
            paired = _compose(steps[..., 1::2], steps[..., :count - 1:2])
            steps = np.concatenate([paired, steps[..., -1:]], axis=-1) if count % 2 else paired
    return _finite(np.eye(steps.shape[0]) + steps[..., 0], _OUT_OF_RANGE)


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
    with np.errstate(over="ignore", invalid="ignore"):  # the result is refused unless finite
        for j in range(1, width):
            local[:, :, j] = _compose(local[:, :, j], local[:, :, j - 1])
        carry = np.zeros((n, n, blocks), dtype=steps.dtype)
        for b in range(1, blocks):
            carry[..., b] = _compose(local[:, :, -1, b - 1], carry[..., b - 1])
        scanned = _compose(local, carry[:, :, None]).transpose(0, 1, 3, 2)
    g = np.zeros((n, n, count + 1), dtype=steps.dtype)
    g[..., 1:] = scanned.reshape(n, n, -1)[..., :count]
    return _finite(g + np.eye(n)[..., None], _OUT_OF_RANGE)


def fine_steps(steps: int, u: AlgebraPath | GaussNodes) -> int:
    """The step count transport takes: steps rounded up to a multiple of u's
    intervals (a GaussNodes path takes its own K steps).

    The result sizes every (n, n, steps) stack, so it is refused above
    MAX_STEPS before anything is allocated.  A step h u with an entry above
    1/eps = 2^52 is refused too: float64 holds no digit of its phase.
    """
    if steps < 1:
        raise ValidationError("steps must be positive")
    fine = -(-steps // u.n_intervals) * u.n_intervals
    if fine > MAX_STEPS:
        raise ValidationError(
            f"{fine} steps (steps rounded up to a multiple of the {u.n_intervals} "
            f"sample intervals) exceed the cap of {MAX_STEPS}")
    if (peak := float(np.abs(u.samples).max())) / fine > _MAX_STEP_PHASE:
        raise ValidationError(f"steps of 1/{fine} on a path with entries up to {peak:.6g} "
                              "have no representable phase (h |u| above 2**52)")
    return fine


def _magnus_steps(width, mean: np.ndarray, bracket: np.ndarray) -> np.ndarray:
    """Offsets exp(Omega) - I of two-point Gauss Magnus steps of the given
    width (a scalar, or an array that broadcasts against the batch axes).

    With A1 and A2 the integrand at the Gauss nodes of a step, the caller
    supplies mean = (A1 + A2)/2 and bracket = (sqrt(3)/12) [A2, A1] as
    batch-last stacks (bracket may broadcast), and
    Omega = width mean + width^2 bracket is the Magnus logarithm through its
    second term: order 4, on the group, and exact where the integrand is
    linear over the step and commutes with itself (Iserles, Munthe-Kaas,
    Norsett and Zanna, Acta Numerica 9, 2000).
    Returns (n, n, K) with K the product of the batch axes.
    """
    omega = width * mean
    omega += (width * width) * bracket
    return _expm_offset(omega.reshape(omega.shape[0], omega.shape[1], -1))


def transport_path(u: AlgebraPath | GaussNodes, steps: int = 1000) -> np.ndarray:
    """Group path g(t_k) on the fine grid of fine_steps(steps, u) steps, by
    two-point Gauss Magnus stepping, g_{k+1} = exp(Omega_k) g_k.

    Order 4, on the group, and exact for commuting paths f(t) A and for
    piecewise-constant u on the fine grid aligned with the samples.  Returns a
    (K + 1, n, n) stack.
    """
    return np.moveaxis(_prefix(u._gauss_steps(fine_steps(steps, u))), -1, 0)


def transport(u: AlgebraPath | GaussNodes, steps: int = 1000) -> np.ndarray:
    """Endpoint g_u(1) of the group path with right-logarithmic derivative u."""
    return _product(u._gauss_steps(fine_steps(steps, u)))


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
                        steps: int = 1000) -> AlgebraPath | GaussNodes:
    """Negated connection coefficient along the reference horizontal lift.

    Without a reference this is the sampled path -c.  With one, the
    trivialization is moved onto the reference lift first,
    mu = -Ad(h(t)^{-1})(c - c0) with h' = -c0 h, and mu is evaluated at the
    Gauss nodes of the fine grid of fine_steps(steps, omega) steps, where
    transport's steps read it.  The lift h is the order-4 transport path at
    the fine nodes, and one Magnus sub-step from t_k reaches each Gauss node
    of step k, so mu is never sampled onto a grid and re-interpolated.
    """
    if omega0 is None:
        return AlgebraPath(-omega.samples)
    if omega0.samples.shape != omega.samples.shape:
        raise ValidationError("connection grids differ")
    reference = AlgebraPath(-omega0.samples)
    lift = np.moveaxis(transport_path(reference, steps), 0, -1)[:, :, None, :-1]
    n, fine = lift.shape[0], lift.shape[-1]
    h = lift + _mul(reference._gauss_steps(fine, _GAUSS_NODES).reshape(n, n, 2, fine), lift)
    diff = AlgebraPath(omega.samples - omega0.samples)._lerp(
        (np.arange(fine) + _GAUSS_NODES[:, None]) * (1.0 / fine))
    p = _mul(_mul(np.conj(np.swapaxes(h, 0, 1)), diff), h)
    # mu = -p, skewed exactly: (p^H - p)/2
    with np.errstate(over="ignore", invalid="ignore"):  # GaussNodes refuses inf and nan
        mu = np.conj(np.swapaxes(p, 0, 1))
        mu -= p
        mu *= 0.5
    return GaussNodes(np.moveaxis(mu, (2, 3), (1, 0)))


def _rk4_group(c: AlgebraPath, steps: int = 4000) -> np.ndarray:
    """RK4 endpoint of g' = -c(t) g; independent of the exponential stepper.

    An RK4 step is linear in g: g_{k+1} = M_k g_k with
    M_k = I + h/6 (k1 + 2 k2 + 2 k3 + k4), k1 = u0, k2 = um (I + h/2 k1),
    k3 = um (I + h/2 k2) and k4 = u1 (I + h k3), where u0, um and u1 are u
    at the start, middle and end of the step.
    """
    path = AlgebraPath(-c.samples)
    steps = fine_steps(steps, path)
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

    Computed as g_ref(1)^{-1} g_omega(1) from two independent RK4 transports
    (the oracle, order 4); equals transport(pullback_connection(omega, omega0,
    steps), steps) up to the two integrators' errors, both order 4.
    """
    if omega0 is not None and omega0.samples.shape[1:] != omega.samples.shape[1:]:
        raise ValidationError("connection matrices differ in size")
    g1 = _rk4_group(omega, steps)
    if omega0 is None:
        return g1
    g0 = _rk4_group(omega0, steps)
    with np.errstate(over="ignore", invalid="ignore"):  # the result is refused unless finite
        return _finite(np.conj(g0.T) @ g1, _OUT_OF_RANGE)
