import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from focalis.algebras import load_algebra
from focalis.errors import ValidationError
from focalis.transport import (MAX_STEPS, AlgebraPath, GaugePath, GaussNodes,
                               _expm_offset, _rk4_group, expm_antiherm, gauge_act,
                               holonomy_element, pullback_connection, transport,
                               transport_path)

SU2 = load_algebra("su2")
SU3 = load_algebra("su3")


def rand_element(rng, scale=1.0, alg=SU2):
    x = sum(c * b for c, b in zip(rng.normal(size=alg.dim), alg.basis))
    n = np.linalg.norm(x)
    return scale * x / max(1.0, n / scale) if n else x


def constant_path(x, n=11):
    return AlgebraPath(np.repeat(x[None], n, axis=0))


def smooth_path(rng, n=101, alg=SU2):
    x, y = rand_element(rng, alg=alg), rand_element(rng, alg=alg)
    ts = np.linspace(0.0, 1.0, n)
    return AlgebraPath(np.stack([np.cos(2 * t) * x + np.sin(3 * t) * y for t in ts]))


def at(path, t):
    """(K, n, n) linear interpolation of the path's samples at parameters t in [0, 1]."""
    return np.moveaxis(path._lerp(t), -1, 0)


GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0


def gauss_logs(u, starts, width):
    """(K, n, n) two-point Gauss Magnus logarithms over [t, t + width] for each
    t in starts, in the generic form: with A1, A2 the path at the two Gauss
    nodes, (width/2)(A1 + A2) + (sqrt(3)/12) width^2 [A2, A1]."""
    a1, a2 = (at(u, starts + c * width) for c in GAUSS_NODES)
    return width / 2 * (a1 + a2) + np.sqrt(3.0) / 12 * width ** 2 * (a2 @ a1 - a1 @ a2)


def aligned_steps(u, steps):
    s = u.n_intervals
    return int(np.ceil(steps / s)) * s


def loop_transport_path(u, steps):
    """Per-step reference for transport_path: g_{k+1} = exp(Omega_k) g_k with
    Omega_k the generic Gauss logarithm of step k.

    The step exponentials come from scipy's Pade expm, independent of the
    Taylor offsets that transport_path uses, and the logarithms from two path
    values and a commutator per step, independent of its once-per-interval
    bracket.
    """
    steps = aligned_steps(u, steps)
    h = 1.0 / steps
    exps = expm(gauss_logs(u, np.arange(steps) * h, h))
    g = [np.eye(u.samples.shape[1], dtype=complex)]
    for m in exps:
        g.append(m @ g[-1])
    return np.stack(g)


def loop_pullback(c, c0, steps):
    """(K, 2, n, n) reference for pullback_connection: -h^-1 (c - c0) h,
    skewed, at the two Gauss nodes of each step, with the lift h at a node
    taken from the per-step reference path by one generic Gauss sub-step."""
    reference = AlgebraPath(-c0.samples)
    lift = loop_transport_path(reference, steps)[:-1]
    h = 1.0 / len(lift)
    starts = np.arange(len(lift)) * h
    diff = AlgebraPath(c.samples - c0.samples)
    nodes = []
    for node in GAUSS_NODES:
        g = expm(gauss_logs(reference, starts, node * h)) @ lift
        m = -np.conj(np.swapaxes(g, 1, 2)) @ at(diff, starts + node * h) @ g
        nodes.append((m - np.conj(np.swapaxes(m, 1, 2))) / 2.0)
    return np.stack(nodes, axis=1)


def loop_gauss_nodes_transport(nodes):
    """Per-step endpoint of the Gauss Magnus steps read from (K, 2, n, n) node values."""
    h = 1.0 / len(nodes)
    a1, a2 = nodes[:, 0], nodes[:, 1]
    g = np.eye(nodes.shape[-1], dtype=complex)
    for m in expm(h / 2 * (a1 + a2) + np.sqrt(3.0) / 12 * h ** 2 * (a2 @ a1 - a1 @ a2)):
        g = m @ g
    return g


def loop_rk4(c, steps):
    """Per-step reference for _rk4_group: classical RK4 on g' = -c(t) g."""
    path = AlgebraPath(-c.samples)
    s = path.n_intervals
    steps = int(np.ceil(steps / s)) * s
    h = 1.0 / steps
    ts = np.arange(steps) * h
    u0, um, u1 = at(path, ts), at(path, ts + 0.5 * h), at(path, ts + h)
    g = np.eye(path.samples.shape[1], dtype=complex)
    for k in range(steps):
        k1 = u0[k] @ g
        k2 = um[k] @ (g + 0.5 * h * k1)
        k3 = um[k] @ (g + 0.5 * h * k2)
        k4 = u1[k] @ (g + h * k3)
        g = g + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return g


class TestValidation:
    def test_rejects_non_antihermitian(self):
        with pytest.raises(ValidationError):
            AlgebraPath(np.ones((3, 2, 2)))

    def test_rejects_single_sample(self):
        x = SU2.basis[0]
        with pytest.raises(ValidationError):
            AlgebraPath(x[None])

    def test_gauge_path_must_be_unitary(self):
        with pytest.raises(ValidationError):
            GaugePath(np.stack([np.eye(2), 2.0 * np.eye(2)]))

    @pytest.mark.parametrize("cls", [AlgebraPath, GaugePath])
    def test_rejects_non_finite(self, cls):
        samples = np.repeat(np.eye(2, dtype=complex)[None], 3, axis=0) * 1j
        samples[1, 0, 1] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            cls(samples)

    def test_gauge_act_needs_three_samples(self):
        g = GaugePath(np.repeat(np.eye(2, dtype=complex)[None], 2, axis=0))
        u = AlgebraPath(np.zeros((2, 2, 2)))
        with pytest.raises(ValidationError, match="3 samples"):
            gauge_act(g, u)

    @pytest.mark.parametrize("steps", [0, -5])
    def test_rk4_rejects_non_positive_steps(self, steps):
        c = AlgebraPath(np.zeros((3, 2, 2)))
        with pytest.raises(ValidationError):
            holonomy_element(c, c, steps=steps)

    @pytest.mark.parametrize("samples,match", [
        (np.zeros((3, 2, 2)), r"\(K, 2, n, n\)"),              # no node axis
        (np.zeros((0, 2, 2, 2)), r"\(K, 2, n, n\)"),           # no step
        (np.full((3, 2, 2, 2), np.nan), "finite"),
        (np.ones((3, 2, 2, 2)), "anti-Hermitian")])
    def test_gauss_nodes_are_checked(self, samples, match):
        with pytest.raises(ValidationError, match=match):
            GaussNodes(samples)

    def test_gauge_endpoints(self):
        g = GaugePath(np.stack([np.eye(2), 1j * np.eye(2) * -1j]))
        assert np.allclose(g.samples[0], np.eye(2))
        assert np.allclose(g.samples[-1], np.eye(2))


class TestTransport:
    def test_zero_path_identity(self):
        u = constant_path(np.zeros((2, 2)))
        assert np.allclose(transport(u), np.eye(2), atol=1e-14)

    def test_constant_matches_expm(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rand_element(rng, scale=2.0)
            u = constant_path(x)
            assert np.max(np.abs(transport(u, 1000) - expm(x))) < 1e-8

    def test_piecewise_constant_composition(self):
        rng = np.random.default_rng(1)
        x1, x2 = rand_element(rng), rand_element(rng)
        # x1 on the first half, x2 on the second, with a midpoint node at
        # t = 1/2 so the narrow linear transition is centered exactly there
        samples = np.vstack([np.repeat(x1[None], 600, axis=0),
                             ((x1 + x2) / 2.0)[None],
                             np.repeat(x2[None], 600, axis=0)])
        u = AlgebraPath(samples)
        got = transport(u, 2400)
        want = expm(x2 / 2) @ expm(x1 / 2)
        assert np.max(np.abs(got - want)) < 1e-6

    @pytest.mark.parametrize("alg", [SU2, SU3], ids=["su2", "su3"])
    def test_fourth_order_convergence(self, alg):
        # Gauss Magnus steps are order 4: the error falls about 16x per halving
        rng = np.random.default_rng(2)
        u = AlgebraPath(3.0 * smooth_path(rng, n=11, alg=alg).samples)
        ref = transport(u, 12800)
        e = [np.max(np.abs(transport(u, steps) - ref)) for steps in (100, 200, 400)]
        assert e[0] / e[1] >= 12 and e[1] / e[2] >= 12, e

    @pytest.mark.parametrize("alg", [SU2, SU3], ids=["su2", "su3"])
    def test_commuting_path_is_exact(self, alg):
        # on u = f(t) A the Magnus logarithm is the integral of the linear
        # interpolant of f, so the endpoint is expm of its trapezoid sum
        rng = np.random.default_rng(15)
        for s in (1, 7, 100):
            a = alg.from_coefficients(rng.normal(size=alg.dim))
            t = np.linspace(0.0, 1.0, s + 1)
            f = sum(rng.normal() * np.cos(k * np.pi * t) for k in range(4))
            u = AlgebraPath(f[:, None, None] * a)
            want = expm(np.trapezoid(f, t) * a)
            for steps in (s, 1000):
                assert np.max(np.abs(transport(u, steps) - want)) < 1e-13

    @pytest.mark.parametrize("alg", [SU2, SU3], ids=["su2", "su3"])
    def test_piecewise_constant_aligned_path_is_exact(self, alg):
        # x1, x2, x3 on blocks of sample intervals, each joined to the next
        # by ramps through 0: every sample interval is f(t) A for one A, so
        # the transport is the product of the blocks' exponentials
        rng = np.random.default_rng(16)
        xs = [alg.from_coefficients(rng.normal(size=alg.dim)) for _ in range(3)]
        zero = np.zeros_like(xs[0])[None]
        samples = np.concatenate([np.repeat(xs[0][None], 4, axis=0), zero,
                                  np.repeat(xs[1][None], 3, axis=0), zero,
                                  np.repeat(xs[2][None], 5, axis=0)])
        s = len(samples) - 1
        # each block holds x for its constant intervals and half of each ramp
        want = expm(xs[2] * 4.5 / s) @ expm(xs[1] * 3.0 / s) @ expm(xs[0] * 3.5 / s)
        for steps in (s, 10 * s):
            assert np.max(np.abs(transport(AlgebraPath(samples), steps) - want)) < 1e-13

    def test_group_preservation(self):
        rng = np.random.default_rng(3)
        path = transport_path(smooth_path(rng), 2000)
        res = np.max(np.abs(np.einsum("kij,kil->kjl", path.conj(), path)
                            - np.eye(2)))
        assert res < 1e-10


class TestStepProducts:
    """The batched routes against a plain per-step loop.

    Step counts 1, 2, 3, 7, 4000 and 4001 with 1, 2 and 3 sample intervals
    give odd and even tree lengths and padded and unpadded scan blocks.
    """

    @staticmethod
    def samples(n_intervals, alg, seed):
        rng = np.random.default_rng(seed)
        return alg.from_coefficients(rng.normal(size=(n_intervals + 1, alg.dim)))

    @pytest.mark.parametrize("n_intervals", [1, 2, 3])
    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 4000, 4001])
    def test_transport_matches_loop(self, steps, n_intervals):
        for alg in (SU2, SU3):
            u = AlgebraPath(self.samples(n_intervals, alg, steps + n_intervals))
            ref = loop_transport_path(u, steps)
            got = transport_path(u, steps)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) < 1e-13
            assert np.max(np.abs(transport(u, steps) - ref[-1])) < 1e-13

    @pytest.mark.parametrize("n_intervals", [1, 2, 3])
    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 4000, 4001])
    def test_pullback_matches_loop(self, steps, n_intervals):
        for alg in (SU2, SU3):
            c = AlgebraPath(self.samples(n_intervals, alg, 3 * steps + n_intervals))
            c0 = AlgebraPath(0.5 * self.samples(n_intervals, alg, 5 * steps + n_intervals))
            got = pullback_connection(c, c0, steps).samples
            ref = loop_pullback(c, c0, steps)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) < 1e-13

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 400, 401])
    def test_gauss_nodes_transport_matches_loop(self, steps):
        for alg in (SU2, SU3):
            rng = np.random.default_rng(11 * steps)
            nodes = alg.from_coefficients(rng.normal(size=(steps, 2, alg.dim)))
            mu = GaussNodes(nodes)
            ref = loop_gauss_nodes_transport(nodes)
            assert np.max(np.abs(transport(mu, steps) - ref)) < 1e-13
            assert np.max(np.abs(transport_path(mu, steps)[-1] - ref)) < 1e-13

    @pytest.mark.parametrize("n_intervals", [1, 2, 3])
    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 4000, 4001])
    def test_rk4_matches_loop(self, steps, n_intervals):
        for alg in (SU2, SU3):
            c = AlgebraPath(self.samples(n_intervals, alg, 7 * steps + n_intervals))
            assert np.max(np.abs(_rk4_group(c, steps) - loop_rk4(c, steps))) < 1e-13

    def test_rk4_fourth_order(self):
        # order 4 (error ratio ~16 on halving h): the RK4 oracle matches the
        # Gauss Magnus transport's order with an unrelated step formula
        rng = np.random.default_rng(14)
        c = AlgebraPath(np.stack([rand_element(rng) for _ in range(5)]))
        ref = _rk4_group(c, 6400)
        e1 = np.max(np.abs(_rk4_group(c, 40) - ref))
        e2 = np.max(np.abs(_rk4_group(c, 80) - ref))
        assert e1 / e2 > 12


def rand_u(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a - a.conj().T) / 2.0


def mp_expm_offset(y):
    """exp(Y) - I to 40 digits."""
    with mpmath.workdps(40):
        m = mpmath.expm(mpmath.matrix(y.tolist())) - mpmath.eye(y.shape[0])
        return np.array([[complex(m[i, j]) for j in range(y.shape[0])]
                         for i in range(y.shape[0])])


class TestOffsetExponential:
    """_expm_offset against a 40-digit reference, one matrix or a whole stack.

    theta is the 1-norm; 5 and 50 need 4 and 7 squarings.  Near a Y with
    exp(Y) = I the offset has no relative condition, so each sample asserts
    that its reference stays away from that set.
    """

    @staticmethod
    def samples(theta, seed, count=3):
        rng = np.random.default_rng(seed)
        xs = ([SU2.from_coefficients(v) for v in rng.normal(size=(count, 3))]
              + [SU3.from_coefficients(v) for v in rng.normal(size=(count, 8))]
              + [rand_u(5, rng) for _ in range(count)])
        return [theta * x / np.abs(x).sum(axis=0).max() for x in xs]

    @pytest.mark.parametrize("theta", [1.0 / 4000, 5.0, 50.0])
    def test_matches_mpmath(self, theta):
        for y in self.samples(theta, int(theta * 4000)):
            ref = mp_expm_offset(y)
            assert np.linalg.norm(ref) > 0.1 * min(theta, 1.0)
            got = _expm_offset(y[:, :, None])[:, :, 0]
            assert np.linalg.norm(got - ref) < 1e-14 * np.linalg.norm(ref)

    def test_stack_keeps_each_relative_precision(self):
        # the degree and squarings follow the largest norm in the stack;
        # small members keep their own relative precision in offset form
        rng = np.random.default_rng(3)
        x = SU3.from_coefficients(rng.normal(size=(5, 8)))
        ys = x * np.array([1e-9, 1e-4, 0.3, 5.0, 20.0])[:, None, None]
        got = _expm_offset(np.ascontiguousarray(np.moveaxis(ys, 0, -1)))
        for k, y in enumerate(ys):
            ref = mp_expm_offset(y)
            assert np.linalg.norm(got[..., k] - ref) < 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("theta", [1.0 / 4000, 0.5, 5.0, 50.0])
    def test_identity_plus_offset_is_unitary(self, theta):
        for y in self.samples(theta, 7):
            g = np.eye(len(y)) + _expm_offset(y[:, :, None])[:, :, 0]
            assert np.max(np.abs(g.conj().T @ g - np.eye(len(y)))) < 1e-14

    def test_antihermitian_batch_matches_scipy(self):
        # expm_antiherm is the batch-first view I + _expm_offset; at 1-norm 50
        # scipy's own expm rounds at about 1e-14 too
        rng = np.random.default_rng(11)
        thetas = np.array([1e-3, 0.5, 5.0, 20.0, 50.0, 50.0])
        for n in range(2, 9):
            z = np.stack([rand_u(n, rng) for _ in thetas])
            z *= (thetas / np.abs(z).sum(axis=1).max(axis=1))[:, None, None]
            got = expm_antiherm(z)
            assert got.shape == z.shape
            assert np.max(np.abs(got - np.stack([expm(y) for y in z]))) < 1e-14


class TestStepCap:
    # (samples, steps): over the cap as given, and over it only once rounded
    # up to a multiple of the 3 sample intervals
    @pytest.mark.parametrize("samples,steps", [(3, MAX_STEPS + 1), (4, MAX_STEPS)])
    def test_refused_before_allocation(self, samples, steps):
        u = AlgebraPath(np.zeros((samples, 2, 2), dtype=complex))
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="cap"):
                transport_path(u, steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    # h |u| above 2**52 leaves float64 no digit of the step's phase: the
    # Taylor route returned 0 for exp(2e154 i / 5), whose modulus is 1
    @pytest.mark.parametrize("scale,steps", [(2e154, 5), (2e300, 1), (2.0 ** 55, 4)])
    def test_step_without_representable_phase_is_refused(self, scale, steps):
        u = AlgebraPath(np.full((2, 1, 1), 1j * scale))
        for route in (transport, transport_path, holonomy_element):
            with pytest.raises(ValidationError, match="representable phase"):
                route(u, steps=steps)

    def test_step_at_the_phase_bound_is_kept(self):
        u = AlgebraPath(np.full((2, 1, 1), 1j * 2.0 ** 52))
        assert np.isfinite(transport(u, 1)).all()
        assert np.isfinite(holonomy_element(u, steps=1)).all()

    def test_rk4_beyond_float_range_is_refused(self):
        # h |u| = 25: each RK4 step grows by about 25**4 / 24, and 4000 of them overflow
        u = AlgebraPath(np.full((2, 1, 1), 1e5j))
        with pytest.raises(ValidationError, match="floating-point range"):
            holonomy_element(u, steps=4000)
        assert abs(transport(u, 4000)[0, 0] - np.exp(1e5j)) < 1e-10
        # two finite RK4 endpoints whose product g0^-1 g1 overflows
        u = AlgebraPath(np.full((2, 3, 3), 2e6j))
        assert np.isfinite(holonomy_element(u, steps=7)).all()
        with pytest.raises(ValidationError, match="floating-point range"):
            holonomy_element(u, u, steps=7)


class TestGaugeAction:
    def test_identity_gauge_fixes_u(self):
        rng = np.random.default_rng(4)
        u = smooth_path(rng, n=51)
        g = GaugePath(np.repeat(np.eye(2, dtype=complex)[None], 51, axis=0))
        assert np.max(np.abs(gauge_act(g, u).samples - u.samples)) < 1e-12

    def test_exponential_gauge_on_zero_path(self):
        rng = np.random.default_rng(5)
        x = rand_element(rng)
        n = 201
        ts = np.linspace(0.0, 1.0, n)
        g = GaugePath(np.stack([expm(t * x) for t in ts]))
        u = AlgebraPath(np.zeros((n, 2, 2)))
        acted = gauge_act(g, u)
        assert np.max(np.abs(acted.samples - x)) < 1e-5

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        u = smooth_path(rng, n=51)
        g = GaugePath(np.repeat(np.eye(2, dtype=complex)[None], 41, axis=0))
        with pytest.raises(ValidationError):
            gauge_act(g, u)

    def test_based_loop_fiber_invariance(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(10):
            n = 2001
            ts = np.linspace(0.0, 1.0, n)
            u = smooth_path(rng, n=n)
            z = rand_element(rng)
            g = GaugePath(np.stack([expm(np.sin(np.pi * t) * z) for t in ts]))
            gu = gauge_act(g, u)
            diff = np.max(np.abs(transport(gu, 2 * n) - transport(u, 2 * n)))
            worst = max(worst, diff)
        assert worst < 1e-6

    def test_boundary_equivariance(self):
        rng = np.random.default_rng(8)
        n = 2001
        ts = np.linspace(0.0, 1.0, n)
        u = smooth_path(rng, n=n)
        z, w = rand_element(rng), rand_element(rng)
        g = GaugePath(np.stack([expm(t * z + np.sin(t) * w) for t in ts]))
        g0, g1 = g.samples[0], g.samples[-1]
        lhs = transport(gauge_act(g, u), 2 * n)
        rhs = g1 @ transport(u, 2 * n) @ np.conj(g0.T)
        assert np.max(np.abs(lhs - rhs)) < 1e-6


class TestPullbackAndHolonomy:
    def rand_conn(self, rng, n=21):
        return AlgebraPath(np.stack([rand_element(rng) for _ in range(n)]))

    def test_pullback_without_reference_negates(self):
        rng = np.random.default_rng(9)
        om = self.rand_conn(rng)
        mu = pullback_connection(om)
        assert np.max(np.abs(mu.samples + om.samples)) < 1e-14

    def test_pullback_linear(self):
        rng = np.random.default_rng(10)
        a = self.rand_conn(rng)
        b = self.rand_conn(rng)
        om0 = self.rand_conn(rng)
        mu_ab = pullback_connection(AlgebraPath(a.samples + b.samples - om0.samples), om0)
        mu_a = pullback_connection(a, om0)
        mu_b = pullback_connection(b, om0)
        # the map c -> mu(c) is affine with linear part -Ad(h^-1):
        # mu(a + b - c0) - mu(a) = mu(b) since the reference offset cancels
        fine = mu_ab.samples - mu_a.samples
        assert np.max(np.abs(fine - mu_b.samples)) < 1e-12

    def test_reference_matches_itself(self):
        rng = np.random.default_rng(11)
        om0 = self.rand_conn(rng)
        hol = holonomy_element(om0, om0)
        assert np.max(np.abs(hol - np.eye(2))) < 1e-10
        mu = pullback_connection(om0, om0)
        assert np.max(np.abs(mu.samples)) < 1e-12

    def test_holonomy_factorization(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(20):
            om = self.rand_conn(rng)
            om0 = self.rand_conn(rng)
            hol = holonomy_element(om, om0, steps=4000)
            phi = transport(pullback_connection(om, om0, steps=4000), steps=4000)
            worst = max(worst, np.max(np.abs(hol - phi)))
        assert worst < 1e-6

    @pytest.mark.parametrize("alg", [SU2, SU3], ids=["su2", "su3"])
    def test_holonomy_residual_fourth_order(self, alg):
        # the RK4 oracle and the transport of the pull-back evaluated at the
        # Gauss nodes are both order 4, so their difference falls about 16x
        # per halving; a pull-back interpolated between fine nodes stays order 2
        rng = np.random.default_rng(17)
        om = smooth_path(rng, n=21, alg=alg)
        om0 = AlgebraPath(0.5 * smooth_path(rng, n=21, alg=alg).samples[::-1])
        res = [np.max(np.abs(holonomy_element(om, om0, steps)
                             - transport(pullback_connection(om, om0, steps), steps)))
               for steps in (100, 200, 400)]
        assert res[0] / res[1] >= 12 and res[1] / res[2] >= 12, res

    def test_pullback_is_transported_on_its_own_grid(self):
        rng = np.random.default_rng(18)
        mu = pullback_connection(self.rand_conn(rng), self.rand_conn(rng), steps=100)
        assert mu.n_intervals == 100
        # a step count that rounds up to the node grid takes its 100 steps
        assert np.array_equal(transport(mu, 60), transport(mu, 100))
        with pytest.raises(ValidationError, match="grid of 100 steps"):
            transport(mu, 101)

    def test_grid_mismatch(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValidationError):
            pullback_connection(self.rand_conn(rng, 21), self.rand_conn(rng, 31))
