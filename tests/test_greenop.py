import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from focalis.errors import SYMMETRY_TOL, SingularOperatorError, ValidationError
from focalis.greenop import (MAX_BOX_SAMPLES, OperatorMatrix, box_eigenvalues_1d,
                             box_operator_1d, green_apply, green_kernel, ls2_inner)


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


class TestOperatorMatrix:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            OperatorMatrix(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            OperatorMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_entries_near_the_float_range(self):
        # m + m.T overflowed: a RuntimeWarning, and an entry of inf
        big = 8.98846567431158e307
        op = OperatorMatrix(np.array([[big, 1.0], [1.0, big]]))
        assert np.array_equal(op.entries, [[big, 1.0], [1.0, big]])
        assert np.allclose(green_apply(op, np.array([big, big])), 1.0, rtol=1e-15)
        with pytest.raises(ValidationError, match="not symmetric"):
            OperatorMatrix(np.array([[0.0, 1e308], [-1e308, 0.0]]))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: hnp.arrays(
        float, (n, n), elements=st.one_of(st.just(0.0), st.floats(2.0 ** -1021, 8.9e307)
                                          .flatmap(lambda x: st.sampled_from([x, -x]))))),
        st.integers(-4, 4))
    def test_mean_is_the_plain_mean_bit_for_bit(self, a, ulps):
        # halving is exact for normal entries, so half + half.T is (m + m.T) / 2
        m = np.triu(a) + np.triu(a, 1).T
        m[np.tril_indices(len(m), -1)] *= 1.0 + ulps * 2.0 ** -52
        assert np.array_equal(OperatorMatrix(m).entries, (m + m.T) / 2.0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: hnp.arrays(float, (n, n), elements=st.sampled_from(
        [s * 1.7e308 * (1.0 - k * 2.0 ** -52) for s in (1.0, -1.0) for k in range(3)]
        + [0.0, 1.0, -3.5e295]))))
    def test_entries_near_the_float_range_refused_as_before(self, m):
        # the oracle forms m - m.T and m + m.T in full: an overflowed difference
        # refuses, and an overflowed mean is taken in halves
        with np.errstate(over="ignore"):
            asymmetry, mean = np.max(np.abs(m - m.T)), (m + m.T) / 2.0
        if asymmetry > SYMMETRY_TOL * (1.0 + np.abs(m).max()):
            with pytest.raises(ValidationError, match="not symmetric"):
                OperatorMatrix(m)
        else:
            entries = OperatorMatrix(m).entries
            assert np.all(np.isfinite(entries))
            assert np.array_equal(entries, np.where(np.isfinite(mean), mean, m / 2.0 + m.T / 2.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nonfinite(self, value):
        # a NaN entry passed the symmetry test, since NaN > tol is false
        with pytest.raises(ValidationError):
            OperatorMatrix(np.array([[1.0, value], [value, 1.0]]))

    def test_apply_matches_matmul(self):
        m = random_spd(8, 0)
        op = OperatorMatrix(m)
        x = np.arange(8.0)
        assert np.allclose(op.apply(x), m @ x)

    def test_equality_is_identity(self):
        # == on the entries arrays would be ambiguous, so equality is identity
        op = OperatorMatrix(np.eye(2))
        assert op == op and op != OperatorMatrix(np.eye(2))

    def test_invertibility_flag(self):
        # green_apply solves an invertible operator and refuses a singular one
        green_apply(OperatorMatrix(np.eye(3)), np.ones(3))
        with pytest.raises(SingularOperatorError):
            green_apply(OperatorMatrix(np.diag([1.0, 0.0])), np.ones(2))
        # the singular bound is SINGULAR_TOL for every spectrum within [-1, 1]
        for scale in (1e-6, 1.0):
            with pytest.raises(SingularOperatorError):
                green_apply(OperatorMatrix(np.diag([scale, 1e-12])), np.ones(2))
            green_apply(OperatorMatrix(np.diag([scale, 2e-12])), np.ones(2))

    def test_spectrum_computed_once_on_first_use(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        op = OperatorMatrix(random_spd(6, 3))
        box_operator_1d(16, 1.5)
        box_eigenvalues_1d(16, 1.5, periodic=False)
        assert calls == []
        op.eigenvalues, op.eigenvectors
        green_apply(op, np.ones(6))
        green_apply(op, np.ones(6))
        assert calls == [(6, 6)]

    def test_green_apply_reads_eigenvalues_alone(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda m, real=real, name=name: calls.append(name) or real(m))
        op = OperatorMatrix(random_spd(6, 3))
        green_apply(op, np.ones(6))
        green_apply(op, np.ones(6))
        assert calls == ["eigvalsh"]

    @pytest.mark.parametrize("make", [lambda: random_spd(40, 4),
                                      lambda: box_operator_1d(40, 0.8, periodic=False).entries])
    def test_results_bit_identical_to_eager_eigh(self, make):
        # the route before the spectrum became lazy: eigh of the symmetrised
        # matrix at construction.  green_kernel and ls2_inner read it bit for
        # bit; green_apply solves by LU, which is backward stable (Higham,
        # ch. 9), so it meets the eigenbasis formula within 10 eps cond(A)
        m = make()
        w, v = np.linalg.eigh((m + m.T) / 2.0)
        rng = np.random.default_rng(5)
        psi, u = rng.normal(size=40), rng.normal(size=40)
        op = OperatorMatrix(m)
        ref = v @ ((v.T @ psi) / w)
        cond = np.max(np.abs(w)) / np.min(np.abs(w))
        bound = 10 * np.finfo(float).eps * cond * np.max(np.abs(ref))
        assert np.max(np.abs(green_apply(op, psi) - ref)) <= bound
        assert np.array_equal(green_kernel(op), (v / w) @ v.T)
        assert ls2_inner(u, psi, op, 0.5) == float(np.sum((v.T @ u) * w ** 0.5 * (v.T @ psi)))


class TestGreenApply:
    def test_identity_green_is_identity(self):
        op = OperatorMatrix(np.eye(5))
        x = np.linspace(-1, 1, 5)
        assert np.allclose(green_apply(op, x), x)

    def test_diagonal_arithmetic(self):
        k = np.arange(6.0)
        op = OperatorMatrix(np.diag(1.0 + k ** 2))
        psi = np.ones(6)
        assert np.allclose(green_apply(op, psi), 1.0 / (1.0 + k ** 2))

    def test_spd_residual(self):
        op = OperatorMatrix(random_spd(200, 1))
        rng = np.random.default_rng(2)
        psi = rng.normal(size=200)
        sigma = green_apply(op, psi)
        assert np.max(np.abs(op.apply(sigma) - psi)) < 1e-10

    def test_singular_raises_with_eigenvector(self):
        op = OperatorMatrix(np.diag([2.0, 0.0, 3.0]))
        with pytest.raises(SingularOperatorError) as exc:
            green_apply(op, np.ones(3))
        err = exc.value
        assert err.eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(np.abs(err.eigenvector), [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("m", [np.diag([1.0, 0.0]),
                                   np.array([[1e100, 1e100, 3e99], [1e100, 1e100, 3e99],
                                             [3e99, 3e99, 7e99]])])
    def test_singular_refusal_names_the_eigh_eigenpair(self, m):
        # the verdict comes from eigvalsh; the refusal names eigh's eigenpair
        # of least magnitude, as when eigh decided
        w, v = np.linalg.eigh(m)
        k = int(np.argmin(np.abs(w)))
        with pytest.raises(SingularOperatorError) as exc:
            green_apply(OperatorMatrix(m), np.ones(len(m)))
        assert str(exc.value) == f"operator is singular (eigenvalue {w[k]:.3e})"
        assert exc.value.eigenvalue == w[k]
        assert np.array_equal(exc.value.eigenvector, v[:, k])

    def test_singular_projection_mode(self):
        op = OperatorMatrix(np.diag([2.0, 0.0, 4.0]))
        sigma = green_apply(op, np.array([2.0, 5.0, 4.0]), project=True)
        assert np.allclose(sigma, [1.0, 0.0, 1.0])

    def test_singular_relative_to_the_spectrum_scale(self):
        # rows 0 and 1 agree, and eigh gives the null mode an eigenvalue of
        # order 1e84: absolute to SINGULAR_TOL it passed as invertible
        op = OperatorMatrix(np.array([[1e100, 1e100, 3e99], [1e100, 1e100, 3e99],
                                      [3e99, 3e99, 7e99]]))
        with pytest.raises(SingularOperatorError) as exc:
            green_apply(op, np.array([1.0, 2.0, 3.0]))
        null = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        assert abs(exc.value.eigenvector @ null) == pytest.approx(1.0, rel=1e-12)
        sigma = green_apply(op, np.array([1.0, 2.0, 3.0]), project=True)
        assert abs(sigma @ null) < 1e-12 * np.linalg.norm(sigma)

    def test_length_mismatch(self):
        op = OperatorMatrix(np.eye(3))
        with pytest.raises(ValidationError):
            green_apply(op, np.ones(4))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_vector_rejected(self, value):
        op = OperatorMatrix(np.eye(3))
        with pytest.raises(ValidationError):
            green_apply(op, np.array([1.0, value, 2.0]), project=True)
        with pytest.raises(ValidationError):
            ls2_inner(np.ones(3), np.array([value, 1.0, 1.0]), op, 1.0)


class TestGreenKernel:
    def test_kernel_matches_apply(self):
        for n in (10, 50, 100):
            op = OperatorMatrix(random_spd(n, n))
            ker = green_kernel(op)
            rng = np.random.default_rng(n + 1)
            psi = rng.normal(size=n)
            assert np.max(np.abs(ker @ psi - green_apply(op, psi))) < 1e-10

    def test_kernel_symmetric(self):
        ker = green_kernel(OperatorMatrix(random_spd(30, 5)))
        assert np.max(np.abs(ker - ker.T)) < 1e-12

    def test_singular_kernel_raises(self):
        with pytest.raises(SingularOperatorError):
            green_kernel(OperatorMatrix(np.diag([1.0, 0.0])))


class TestBoxOperator:
    def test_periodic_eigenvalue_formula(self):
        s, a = 64, 2.0
        op = box_operator_1d(s, a)
        h = 1.0 / s
        k = np.arange(s)
        formula = np.sort(1.0 + (2.0 / (a * h)) ** 2 * np.sin(np.pi * k / s) ** 2)
        assert np.max(np.abs(np.sort(op.eigenvalues) - formula)) < 1e-9

    def test_positive_definite_floor(self):
        for periodic in (True, False):
            op = box_operator_1d(32, 0.7, periodic=periodic)
            assert np.min(op.eigenvalues) >= 1.0 - 1e-10

    def test_large_speed_limit_is_identity(self):
        op = box_operator_1d(16, 1e8)
        assert np.max(np.abs(op.entries - np.eye(16))) < 1e-6

    def test_neumann_constant_in_kernel_of_d2(self):
        op = box_operator_1d(20, 1.5, periodic=False)
        ones = np.ones(20)
        assert np.allclose(op.apply(ones), ones)

    def test_validation(self):
        # speeds outside [2**-250, 2**250]: 1e-300 squared underflowed to 0
        # and the operator divided by it
        for samples, speed in [(3, 1.0), (8, 0.0), (8, np.nan), (8, 1e-300), (8, 1e300),
                               (MAX_BOX_SAMPLES + 1, 1.0), (10 ** 8, 1.0)]:
            for build in (box_operator_1d, box_eigenvalues_1d):
                with pytest.raises(ValidationError):
                    build(samples, speed)

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("samples", [4, 5, 6, 7, 8, 9, 16, 31, 32, 33, 64, 100, 127,
                                         128, 255, 256, 257, 511, 512, 1000, 1024])
    def test_closed_form_spectrum_matches_eigh(self, samples, periodic):
        for speed in ((0.3, 1.7, 2.9) if samples <= 128 else (1.7,)):
            w = box_eigenvalues_1d(samples, speed, periodic=periodic)
            ref = np.linalg.eigvalsh(box_operator_1d(samples, speed, periodic=periodic).entries)
            # relative to the spectral norm, the scale of eigh's own rounding
            assert np.max(np.abs(w - ref)) <= 1e-12 * ref[-1]
            # the rows sum to exactly 1, so the smallest eigenvalue is exactly 1
            assert w[0] == 1.0


class TestGradedInner:
    def test_s_zero_is_plain_product(self):
        op = OperatorMatrix(random_spd(12, 9))
        rng = np.random.default_rng(10)
        u, v = rng.normal(size=12), rng.normal(size=12)
        assert ls2_inner(u, v, op, 0.0) == pytest.approx(float(u @ v))

    def test_s_one_matches_apply(self):
        op = OperatorMatrix(random_spd(12, 11))
        rng = np.random.default_rng(12)
        u, v = rng.normal(size=12), rng.normal(size=12)
        assert ls2_inner(u, v, op, 1.0) == pytest.approx(float(u @ op.apply(v)))

    def test_symmetric_in_arguments(self):
        op = box_operator_1d(24, 1.3)
        rng = np.random.default_rng(13)
        u, v = rng.normal(size=24), rng.normal(size=24)
        assert ls2_inner(u, v, op, 0.5) == pytest.approx(ls2_inner(v, u, op, 0.5))

    def test_half_power_squares_to_full(self):
        op = box_operator_1d(24, 1.3)
        rng = np.random.default_rng(14)
        u = rng.normal(size=24)
        # <u, L u> = <L^{1/2} u, L^{1/2} u> via the power identity
        assert ls2_inner(u, u, op, 1.0) > 0
        assert ls2_inner(u, u, op, 0.5) > 0

    def test_fractional_power_needs_positive_spectrum(self):
        op = OperatorMatrix(np.diag([1.0, -2.0]))
        with pytest.raises(ValidationError):
            ls2_inner(np.ones(2), np.ones(2), op, 0.5)
        # integer powers are fine
        assert ls2_inner(np.ones(2), np.ones(2), op, 2.0) == pytest.approx(5.0)

    def test_negative_exponent_rejected(self):
        op = OperatorMatrix(np.eye(2))
        with pytest.raises(ValidationError):
            ls2_inner(np.ones(2), np.ones(2), op, -1.0)

    @pytest.mark.parametrize("s", [np.inf, np.nan, 1e308, 2000])
    def test_exponent_without_a_float_result_rejected(self, s):
        # 2 ** 2000 is beyond the float range; inf and nan are no exponents
        op = OperatorMatrix(np.diag([1.0, 2.0]))
        with pytest.raises(ValidationError):
            ls2_inner(np.ones(2), np.ones(2), op, s)
        assert ls2_inner(np.array([1.0, 0.0]), np.ones(2), op, 1000) == 1.0

    @pytest.mark.parametrize("s", [2000, 2000.5, 1e308])
    @pytest.mark.parametrize("u,v", [((1.0, 0.0), (1.0, 0.0)), ((1.0, 0.0), (1.0, 3.0)),
                                     ((1.0, 3.0), (1.0, 0.0))])
    def test_unweighted_mode_does_not_decide(self, s, u, v):
        # 2 ** s overflows, but its mode has cu * cv = 0: the exact value is 1
        # (the overflowing product 0 * inf gave nan and a refusal)
        op = OperatorMatrix(np.diag([1.0, 2.0]))
        assert ls2_inner(np.array(u), np.array(v), op, s) == 1.0
        with pytest.raises(ValidationError, match="beyond the float range"):
            ls2_inner(np.ones(2), np.ones(2), op, s)
