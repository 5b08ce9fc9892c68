import math
import tracemalloc
from fractions import Fraction
from itertools import zip_longest
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from focalis import spectral
from focalis.errors import ZETA_TOLERANCE, ValidationError
from focalis.spectral import (DIVERGENT, FINITE_RANK_MAX, MAX_BRANCH_RANK,
                              SpectralData, TailModel, TraceInfo, align_runs,
                              is_regularizable, reg_trace, reg_trace_info,
                              trace_square, trace_square_info,
                              zeta_trace, zeta_trace_info)


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

    @pytest.mark.parametrize("mults", [[2.7], [np.nan], [1e19], [True], ["2"], [None]])
    def test_multiplicity_not_a_whole_number_rejected(self, mults):
        # 2.7 used to be truncated to 2
        with pytest.raises(ValidationError):
            SpectralData([0.5], mults, [], [])
        with pytest.raises(ValidationError):
            SpectralData.from_eigenvalues([0.5], mults=mults)

    def test_whole_float_multiplicity_accepted(self):
        spec = SpectralData.from_eigenvalues([0.5, -0.25], mults=[3.0, 2.0])
        assert spec.pos_mults.dtype == np.int64
        assert reg_trace(spec) == 1.0

    @pytest.mark.parametrize("values", [["0.5"], [0.5, "0.25"], [10 ** 30, "0.5"]])
    def test_numbers_as_strings_rejected(self, values):
        with pytest.raises(ValidationError, match="strings"):
            SpectralData(values, [1] * len(values), [], [])

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

    @pytest.mark.parametrize("value", [True, "0.5", [0.5], None])
    def test_tail_model_reads_numbers_only(self, value):
        # a boolean scale was read as 1.0, a list ratio raised TypeError
        for fields in ({"ratio": value, "scale": 1.0}, {"ratio": 0.5, "scale": value}):
            with pytest.raises(ValidationError):
                TailModel(**fields)


_GUARD_ELEMENTS = st.one_of(st.sampled_from([0, 1, 0.0, 1.0, -0.0]),
                            st.integers(-2 ** 62, 2 ** 62),
                            st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def nested_numbers(draw):
    """(x, plant): x is a nested list of depth 0 to 4 (a bare number at depth
    0) of numbers rich in 0 and 1; plant is () or (p,), with p put in at one
    drawn position: a boolean, a string or a None."""
    shape = draw(st.lists(st.integers(1, 3), max_size=4))
    size = math.prod(shape)
    flat = draw(st.lists(_GUARD_ELEMENTS, min_size=size, max_size=size))
    plant = draw(st.sampled_from([(), (True,), (False,), ("1",), (None,)]))
    if plant:
        flat[draw(st.integers(0, size - 1))] = plant[0]
    for n in reversed(shape):
        flat = [flat[i:i + n] for i in range(0, len(flat), n)]
    return flat[0], plant


@given(nested_numbers(), st.sampled_from([float, None]))
@settings(max_examples=400, deadline=None)
@example(([[0, None], ["1", 1]], ("1",)), None)
@example(([None, True, 0.0], (True,)), float)
def test_as_array_refuses_exactly_booleans_strings_and_nulls(drawn, dtype):
    # a None (a JSON null) read as NaN under dtype float, so a file's null was
    # refused as the NaN it does not hold
    x, plant = drawn
    if plant:
        spelling = {bool: "booleans", str: "strings"}.get(type(plant[0]), "null")
        with pytest.raises(ValidationError, match=spelling):
            spectral._as_array(x, dtype, "x")
        return
    got, want = spectral._as_array(x, dtype, "x"), np.asarray(x, dtype)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=dtype is float)


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
        negated = SpectralData(spec.negatives, spec.neg_mults,
                               spec.positives, spec.pos_mults, spec.tail)
        assert reg_trace(negated) == pytest.approx(-reg_trace(spec), abs=1e-12)

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
    spec_m = SpectralData([1.5], [m], [0.7], [m])
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
    for got, want in zip(_expanded(spec_m), _expanded(spec_r)):
        assert np.array_equal(got, want)
    assert spec_m.rank == spec_r.rank
    if len(spec_r.positives) + len(spec_r.negatives) <= 64:
        # both read as finite rank; the values are dyadic, so the weighted and
        # the repeated sums are exact and equal bit for bit
        assert reg_trace(spec_m) == reg_trace(spec_r)
        assert trace_square(spec_m) == trace_square(spec_r)


# The routes that summed the multiplicity-expanded sequences before the traces
# read runs, kept as the reference for each trace's verdict and method.
def _expanded(spec):
    return (np.repeat(spec.positives, spec.pos_mults),
            np.repeat(spec.negatives, spec.neg_mults))


def _expanded_checkpoints(sums, *mult_arrays):
    n = len(sums)
    if n == 0:
        return sums
    idx = {n - 1}
    for mults in mult_arrays:
        if len(mults):
            idx.update(np.minimum(np.cumsum(mults) - 1, n - 1).tolist())
    return sums[np.array(sorted(idx), dtype=int)]


def _expanded_reg_trace_info(spec):
    pos, neg = _expanded(spec)
    terms = np.zeros(max(len(pos), len(neg)))
    terms[: len(pos)] += pos
    terms[: len(neg)] -= neg
    sums = np.cumsum(terms)
    if spectral._is_finite_rank(len(spec.positives) + len(spec.negatives), spec.tail):
        return TraceInfo(float(sums[-1]) if len(sums) else 0.0, 0.0, True, "finite-rank")
    sums = _expanded_checkpoints(sums, spec.pos_mults, spec.neg_mults)
    rem = None if spec.tail is None else 2.0 * spec.tail.remainder(spec.rank)
    return spectral._limit_of_partial_sums(sums, rem)


def _expanded_trace_square_info(spec):
    if spectral._is_finite_rank(len(spec.positives) + len(spec.negatives), spec.tail):
        pos, neg = _expanded(spec)
        return TraceInfo(float(np.sum(pos ** 2) + np.sum(neg ** 2)), 0.0, True, "finite-rank")
    values = np.concatenate([spec.positives, spec.negatives])
    mults = np.concatenate([spec.pos_mults, spec.neg_mults])
    order = np.argsort(values)[::-1]
    values, mults = values[order], mults[order]
    sums = _expanded_checkpoints(np.cumsum(np.repeat(values, mults) ** 2), mults)
    rem = None if spec.tail is None else 2.0 * spec.tail.remainder(spec.rank, power=2.0)
    return spectral._limit_of_partial_sums(sums, rem)


def _partial_sums_seen(info_fn, spec):
    """The partial sums info_fn hands to the convergence test, or None."""
    with mock.patch.object(spectral, "_limit_of_partial_sums",
                           wraps=spectral._limit_of_partial_sums) as limit:
        info_fn(spec)
    return limit.call_args.args[0] if limit.called else None


def _sum_bound(n_ops, abs_sum):
    """A-priori error bound of a floating-point sum whose every term passes
    through at most n_ops roundings, in any order (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, section 4.2)."""
    u = 2.0 ** -53
    return n_ops * u / (1.0 - n_ops * u) * abs_sum


def _exact_prefix_sums(terms, ends):
    """Exact sums of the first e terms, for each e in ends."""
    out, acc, abs_acc, i = [], Fraction(0), Fraction(0), 0
    for e in ends:
        for t in terms[i:e]:
            acc += t
            abs_acc += abs(t)
        i = e
        out.append((acc, abs_acc))
    return out


@st.composite
def _run_branch(draw):
    """Up to 80 entries as (values, mults) lists, multiplicities 1-40; each value is the
    one before times a ratio in [0.5, 1], so the sums converge, creep or
    diverge depending on the draw."""
    n = draw(st.integers(min_value=0, max_value=80))
    start = draw(st.floats(min_value=1e-3, max_value=10.0))
    ratios = draw(st.lists(st.floats(min_value=0.5, max_value=1.0), min_size=n, max_size=n))
    mults = draw(st.lists(st.integers(min_value=1, max_value=40), min_size=n, max_size=n))
    return (start * np.cumprod(ratios)).tolist(), mults


# branches drawn apart, so one usually runs past the other; together they
# take both the finite-rank and the truncated routes
@given(_run_branch(), _run_branch())
@settings(max_examples=60, deadline=None)
def test_run_sums_match_exact_expanded_sums(pos, neg):
    spec = SpectralData(*pos, *neg)
    p, n = ([Fraction(float(v)) for v in b] for b in _expanded(spec))
    paired = [a - b for a, b in zip_longest(p, n, fillvalue=Fraction(0))]
    squares = [v * v for v in sorted(p + n, reverse=True)]
    if spectral._is_finite_rank(len(spec.positives) + len(spec.negatives), spec.tail):
        # each weighted term m * lambda is rounded before the sum, so the
        # bound is relative to the sum of every eigenvalue's magnitude
        n_ops = len(spec.positives) + len(spec.negatives) + 2
        for info, terms in ((reg_trace_info(spec), paired), (trace_square_info(spec), squares)):
            exact = _exact_prefix_sums(terms, [len(terms)])[0][0]
            magnitude = sum(squares) if terms is squares else sum(p) + sum(n)
            assert abs(Fraction(info.value) - exact) <= _sum_bound(n_ops, magnitude)
    else:
        ends = sorted(set(np.cumsum(spec.pos_mults).tolist())
                      | set(np.cumsum(spec.neg_mults).tolist()))
        sums = _partial_sums_seen(reg_trace_info, spec)
        assert len(sums) == len(ends)
        for k, (got, (exact, abs_sum)) in enumerate(zip(sums, _exact_prefix_sums(paired, ends))):
            assert abs(Fraction(float(got)) - exact) <= _sum_bound(k + 3, abs_sum)
        mults = np.concatenate([spec.pos_mults, spec.neg_mults])
        values = np.concatenate([spec.positives, spec.negatives])
        ends = np.cumsum(mults[np.argsort(values)[::-1]]).tolist()
        sums = _partial_sums_seen(trace_square_info, spec)
        assert len(sums) == len(ends)
        for k, (got, (exact, abs_sum)) in enumerate(zip(sums, _exact_prefix_sums(squares, ends))):
            assert abs(Fraction(float(got)) - exact) <= _sum_bound(k + 3, abs_sum)
    for info_fn, reference in ((reg_trace_info, _expanded_reg_trace_info),
                               (trace_square_info, _expanded_trace_square_info)):
        got, want = info_fn(spec), reference(spec)
        assert (got.converged, got.method) == (want.converged, want.method)


@given(_run_branch(), _run_branch())
@settings(max_examples=60, deadline=None)
def test_multiplicity_one_traces_are_bit_identical(pos, neg):
    # one entry per eigenvalue: the truncated traces take the same
    # floating-point steps as the expanded route
    spec = SpectralData(pos[0], [1] * len(pos[0]), neg[0], [1] * len(neg[0]))
    if not spectral._is_finite_rank(len(spec.positives) + len(spec.negatives), spec.tail):
        assert reg_trace_info(spec) == _expanded_reg_trace_info(spec)
        assert trace_square_info(spec) == _expanded_trace_square_info(spec)


@given(_run_branch(), _run_branch(), st.one_of(
    st.none(), st.tuples(st.floats(0.5, 0.99), st.floats(0.0, 1.0))))
@settings(max_examples=60, deadline=None)
@example(([], []), ([], []), None)
@example(([], []), ([], []), (0.5, 1.0))
def test_zeta_value_is_the_exact_signed_sum_correctly_rounded(pos, neg, tail):
    # tail = (ratio, fraction of the smallest stored value as its scale),
    # so the tail bound sits below every stored entry
    smallest = min(pos[0] + neg[0], default=1.0)
    model = None if tail is None else TailModel(tail[0], tail[1] * smallest)
    spec = SpectralData(*pos, *neg, model)
    info = zeta_trace_info(spec)
    p, n = ([Fraction(float(v)) for v in b] for b in _expanded(spec))
    exact = sum(p) - sum(n)
    # each term m * lambda is rounded once, and their sum once more
    u = Fraction(2) ** -53
    assert abs(Fraction(info.value) - exact) <= u * (sum(p) + sum(n) + abs(Fraction(info.value)))
    # an empty spectrum too reports its tail's bound
    assert info.error == (0.0 if model is None else 2.0 * model.remainder(spec.rank))
    assert info.converged == (info.error <= ZETA_TOLERANCE * (1.0 + abs(info.value)))


@pytest.mark.parametrize("info_fn, name", [(reg_trace_info, "paired trace"),
                                           (trace_square_info, "trace of the square"),
                                           (zeta_trace_info, "zeta trace")])
@pytest.mark.parametrize("n", [2, 100])
def test_sums_beyond_float_range_are_refused(info_fn, name, n):
    # both the finite-rank route (2 entries) and the truncated one (100)
    spec = SpectralData.from_eigenvalues(np.full(n, 1e308))
    with pytest.raises(ValidationError, match=f"^{name}: "):
        info_fn(spec)


def test_converged_trace_must_be_finite():
    # a tail bound beyond float range is no certificate
    spec = SpectralData.from_eigenvalues(np.full(100, 1e300), TailModel(1.0 - 2.0 ** -53, 1e300))
    with pytest.raises(ValidationError, match="out of floating-point range"):
        reg_trace_info(spec)
    assert not zeta_trace_info(spec).converged
    with pytest.raises(ValidationError):
        TraceInfo(float("inf"), 0.0, True, "finite-rank")
    assert TraceInfo(float("inf"), float("inf"), False, "cauchy-failed").as_trace() is DIVERGENT


def test_align_runs():
    lengths, x, y = align_runs((np.array([3.0, 2.0]), np.array([2, 3])),
                               (np.array([5.0, 1.0, 0.5]), np.array([1, 3, 2])))
    # ends 2, 5 and 1, 4, 6 give the runs [0,1) [1,2) [2,4) [4,5) [5,6)
    assert lengths.tolist() == [1.0, 1.0, 2.0, 1.0, 1.0]
    assert x.tolist() == [3.0, 3.0, 2.0, 2.0, 0.0]
    assert y.tolist() == [5.0, 1.0, 1.0, 0.5, 0.5]
    empty = (np.empty(0), np.empty(0, dtype=np.int64))
    assert all(len(a) == 0 for a in align_runs(empty, empty))


class TestMultiplicityBounds:
    def test_multiplicity_beyond_int64_rejected(self):
        with pytest.raises(ValidationError):
            SpectralData([1.0], [10 ** 30])
        with pytest.raises(ValidationError):
            SpectralData.from_eigenvalues([1.0], mults=[10 ** 30])

    def test_branch_total_capped_below_2_53(self):
        SpectralData([1.0], [MAX_BRANCH_RANK - 1], [1.0], [MAX_BRANCH_RANK - 1])
        with pytest.raises(ValidationError):
            SpectralData([1.0, 0.5], [MAX_BRANCH_RANK - 1, 1])
        # 2**62 + 2**62 wraps int64; the cap still sees it
        with pytest.raises(ValidationError):
            SpectralData(negatives=[1.0, 0.5], neg_mults=[2 ** 62, 2 ** 62])

    def test_huge_multiplicity_traces_without_expansion(self):
        spec = SpectralData([0.5], [10 ** 10], [0.25], [3 * 10 ** 9])
        tracemalloc.start()
        try:
            reg, square = reg_trace_info(spec), trace_square_info(spec)
            zeta = zeta_trace_info(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert reg.value == 0.5 * 10 ** 10 - 0.25 * 3 * 10 ** 9
        assert square.value == 0.25 * 10 ** 10 + 0.0625 * 3 * 10 ** 9
        assert zeta.converged
        assert zeta.value == pytest.approx(reg.value, rel=1e-9)
