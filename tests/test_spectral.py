import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focalis.errors import ConfigError, ValidationError
from focalis.spectral import (DIVERGENT, FINITE_RANK_MAX, SpectralData,
                              TailModel, ZetaConfig, is_regularizable,
                              reg_trace, reg_trace_info, trace_square,
                              trace_square_info, zeta_trace, zeta_trace_info)


def alternating_harmonic(n):
    # positives 1/2, 1/4, ...; negatives 1, 1/3, ... -> Tr_r = -ln 2
    pos = 1.0 / np.arange(2, n + 1, 2)
    neg = 1.0 / np.arange(1, n + 1, 2)
    return SpectralData(pos, np.ones(len(pos), dtype=np.int64),
                        neg, np.ones(len(neg), dtype=np.int64))


def geometric_spectrum(rng, n=40, ratio=0.6):
    vals = rng.uniform(0.5, 1.5, n) * ratio ** np.arange(n)
    signs = rng.choice([-1.0, 1.0], n)
    return SpectralData.from_eigenvalues(signs * vals)


class TestValidation:
    def test_unsorted_positives_rejected(self):
        with pytest.raises(ValidationError):
            SpectralData(np.array([0.1, 0.5]), np.array([1, 1]),
                         np.empty(0), np.empty(0, dtype=np.int64))

    def test_nonpositive_magnitude_rejected(self):
        with pytest.raises(ValidationError):
            SpectralData(np.array([1.0, -0.5]), np.array([1, 1]),
                         np.empty(0), np.empty(0, dtype=np.int64))

    def test_bad_multiplicity_rejected(self):
        with pytest.raises(ValidationError):
            SpectralData(np.array([1.0]), np.array([0]),
                         np.empty(0), np.empty(0, dtype=np.int64))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entries_rejected(self, value):
        with pytest.raises(ValidationError):
            SpectralData(np.array([value, 0.5]), np.array([1, 1]),
                         np.empty(0), np.empty(0, dtype=np.int64))
        with pytest.raises(ValidationError):
            SpectralData(np.empty(0), np.empty(0, dtype=np.int64),
                         np.array([1.0, value]), np.array([1, 1]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_from_eigenvalues_rejects_nonfinite(self, value):
        # a NaN used to be dropped silently, leaving reg_trace([nan, 1.0]) = 1.0
        with pytest.raises(ValidationError):
            SpectralData.from_eigenvalues([value, 1.0])

    def test_zeros_dropped(self):
        spec = SpectralData.from_eigenvalues([1.0, 0.0, -0.5])
        assert spec.rank == 2

    def test_multiplicity_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            SpectralData.from_eigenvalues([1.0, -0.5], mults=[2])

    def test_tail_bound_enforced(self):
        tail = TailModel(ratio=0.5, scale=1.0)
        with pytest.raises(ValidationError):
            # eigenvalue 0.01 at expanded index 1 sits below 1.0 * 0.5**1
            SpectralData(np.array([1.0, 0.01]), np.array([1, 1]),
                         np.empty(0), np.empty(0, dtype=np.int64), tail)

    def test_tail_model_range(self):
        with pytest.raises(ValidationError):
            TailModel(ratio=1.0, scale=1.0)
        with pytest.raises(ValidationError):
            TailModel(ratio=0.5, scale=-1.0)
        for scale in (np.nan, np.inf):
            # a NaN scale used to certify every trace with error NaN
            with pytest.raises(ValidationError):
                TailModel(ratio=0.5, scale=scale)

    def test_zeta_config_grid(self):
        with pytest.raises(ConfigError):
            ZetaConfig(exponents=(1.5, 1.5), order=1)
        with pytest.raises(ConfigError):
            ZetaConfig(exponents=(1.5, 0.9), order=1)


class TestRegTrace:
    def test_empty_spectrum_is_zero(self):
        assert reg_trace(SpectralData()) == 0.0

    def test_finite_rank_plain_sum(self):
        spec = SpectralData.from_eigenvalues([2.0, -1.0, 0.5, -0.25])
        assert reg_trace(spec) == pytest.approx(1.25, abs=1e-14)

    def test_alternating_harmonic_truncated(self):
        # example at N = 1e5, limit within 1e-4
        spec = alternating_harmonic(10 ** 5)
        val = reg_trace(spec)
        assert val is not DIVERGENT
        assert abs(val + np.log(2.0)) < 1e-4

    def test_alternating_harmonic_large(self):
        spec = alternating_harmonic(10 ** 6)
        val = reg_trace(spec)
        assert abs(val + np.log(2.0)) < 1e-3

    def test_harmonic_positives_diverge(self):
        pos = 1.0 / np.arange(1, 20001)
        spec = SpectralData(pos, np.ones(len(pos), dtype=np.int64),
                            np.empty(0), np.empty(0, dtype=np.int64))
        assert reg_trace(spec) is DIVERGENT

    def test_negation_flips_sign(self):
        rng = np.random.default_rng(0)
        spec = geometric_spectrum(rng)
        assert reg_trace(spec.negated()) == pytest.approx(-reg_trace(spec), abs=1e-12)

    def test_tail_certifies_truncation(self):
        vals = 0.5 ** np.arange(30)
        tail = TailModel(ratio=0.5, scale=1.0)
        spec = SpectralData(vals, np.ones(30, dtype=np.int64),
                            np.empty(0), np.empty(0, dtype=np.int64), tail)
        info = reg_trace_info(spec)
        assert info.converged
        assert abs(info.value - 2.0 * (1 - 0.5 ** 30)) < 1e-12
        assert info.error >= 2.0 * tail.remainder(30)


class TestTraceSquare:
    def test_inverse_sqrt_diverges(self):
        vals = 1.0 / np.sqrt(np.arange(1, 10 ** 5 + 1))
        spec = SpectralData(vals, np.ones(len(vals), dtype=np.int64),
                            np.empty(0), np.empty(0, dtype=np.int64))
        assert trace_square(spec) is DIVERGENT

    def test_basel_sum(self):
        # squares of 1/i sum to pi^2/6
        vals = 1.0 / np.arange(1, 10 ** 5 + 1)
        spec = SpectralData(vals, np.ones(len(vals), dtype=np.int64),
                            np.empty(0), np.empty(0, dtype=np.int64))
        info = trace_square_info(spec)
        assert info.converged
        assert abs(info.value - np.pi ** 2 / 6.0) < 1e-4

    def test_signs_ignored(self):
        spec = SpectralData.from_eigenvalues([1.0, -1.0, 0.5])
        assert trace_square(spec) == pytest.approx(2.25, abs=1e-14)


class TestZetaTrace:
    def test_empty(self):
        assert zeta_trace(SpectralData()) == 0.0

    def test_matches_reg_trace_on_summable(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            spec = geometric_spectrum(rng)
            zi = zeta_trace_info(spec)
            ri = reg_trace_info(spec)
            assert zi.converged and ri.converged
            assert abs(zi.value - ri.value) < zi.error + ri.error + 1e-9

    def test_geometric_series(self):
        # sum 2^-is = 2^-s/(1 - 2^-s) -> 1 as s -> 1
        vals = 0.5 ** np.arange(1, 41)
        spec = SpectralData(vals, np.ones(40, dtype=np.int64),
                            np.empty(0), np.empty(0, dtype=np.int64))
        assert zeta_trace(spec) == pytest.approx(1.0, abs=1e-8)


class TestRegularizable:
    def test_finite_rank(self):
        assert is_regularizable(SpectralData.from_eigenvalues([1.0, -2.0]))

    def test_alternating_harmonic_with_tail(self):
        n = 2000
        spec = alternating_harmonic(n)
        assert is_regularizable(spec) or reg_trace(spec) is not DIVERGENT

    def test_inverse_sqrt_not_regularizable(self):
        vals = 1.0 / np.sqrt(np.arange(1, 20001))
        spec = SpectralData(vals, np.ones(len(vals), dtype=np.int64),
                            np.empty(0), np.empty(0, dtype=np.int64))
        assert not is_regularizable(spec)


@given(st.lists(st.floats(min_value=-10, max_value=10,
                          allow_nan=False).filter(lambda v: abs(v) > 1e-6),
                min_size=1, max_size=FINITE_RANK_MAX // 2),
       st.lists(st.floats(min_value=-10, max_value=10,
                          allow_nan=False).filter(lambda v: abs(v) > 1e-6),
                min_size=1, max_size=FINITE_RANK_MAX // 2))
@settings(max_examples=50, deadline=None)
def test_trace_additive_on_finite_union(a, b):
    # finite rank: paired trace is the plain sum, so it splits over unions;
    # each part holds at most half the cap, so the union is finite rank too
    ta = reg_trace(SpectralData.from_eigenvalues(a))
    tb = reg_trace(SpectralData.from_eigenvalues(b))
    tu = reg_trace(SpectralData.from_eigenvalues(a + b))
    assert tu == pytest.approx(ta + tb, abs=1e-9)


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_multiplicity_equals_repetition(m):
    spec_m = SpectralData.from_entries([(1.5, m)], [(0.7, m)])
    spec_r = SpectralData.from_eigenvalues([1.5] * m + [-0.7] * m)
    assert reg_trace(spec_m) == pytest.approx(reg_trace(spec_r), abs=1e-12)
    assert trace_square(spec_m) == pytest.approx(trace_square(spec_r), abs=1e-12)


@given(st.lists(st.tuples(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 0.5, 1.0, 3.0]),
                          st.integers(min_value=1, max_value=40)),
                min_size=1, max_size=12))
@settings(max_examples=50, deadline=None)
def test_from_eigenvalues_multiplicities_expand_to_repetition(entries):
    values = [v for v, _ in entries]
    mults = [m for _, m in entries]
    spec_m = SpectralData.from_eigenvalues(values, mults=mults)
    spec_r = SpectralData.from_eigenvalues(np.repeat(values, mults))
    for got, want in zip(spec_m.expanded(), spec_r.expanded()):
        assert np.array_equal(got, want)
    assert spec_m.rank == spec_r.rank
    if len(spec_r.positives) + len(spec_r.negatives) <= 64:
        # both read as finite rank and sum the same sequence: equal bit for bit
        assert reg_trace(spec_m) == reg_trace(spec_r)
        assert trace_square(spec_m) == trace_square(spec_r)
