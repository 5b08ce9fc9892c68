import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from focalis import focal, spectral
from focalis.errors import (LINEAR_BRANCH_TOL, MERGE_TOL, OracleUndefinedError,
                            ValidationError)
from focalis.focal import (FOCAL, MAX_FOCAL_RADII, EigenGrid, Window,
                           equifocal_check, focal_radii_pair, focal_set, focal_sets,
                           isoparametric_check, jacobi_amplitude, parallel_reg_mean_curvature,
                           parallel_shape_eigenvalue, proper_fredholm_witness,
                           riccati_oracle, transformed_grid, weakly_isoparametric_check)
from focalis.spectral import DIVERGENT, SpectralData, reg_trace

LAM_R_GRID = [-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0]
LAM_A_GRID = [-3.0, -1.0, 0.0, 0.5, 1.0, 3.0]


def loop_riccati(lam_r, lam_a, r, steps):
    """Per-step RK4 on Y'' = -lam_r Y, the reference for riccati_oracle."""
    h = r / steps
    y, yp = 1.0, -lam_a
    for _ in range(steps):
        k1y, k1p = yp, -lam_r * y
        k2y, k2p = yp + 0.5 * h * k1p, -lam_r * (y + 0.5 * h * k1y)
        k3y, k3p = yp + 0.5 * h * k2p, -lam_r * (y + 0.5 * h * k2y)
        k4y, k4p = yp + h * k3p, -lam_r * (y + h * k3y)
        y, yp = (y + (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y),
                 yp + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p))
    return -yp / y


EPS = np.finfo(float).eps


def scalar_amplitudes(lam_r, lam_a, s):
    """(Y, Y') from math's cos/sin (cosh/sinh) one row at a time, the scalar
    route that the array route replaced, and the scales |C| + |lam_a S| and
    |lam_r S| + |lam_a C| of the two differences."""
    if lam_r > 1e-300:
        q = math.sqrt(lam_r)
        c, sn = math.cos(s * q), math.sin(s * q) / q
    elif lam_r < -1e-300:
        q = math.sqrt(-lam_r)
        c, sn = math.cosh(s * q), math.sinh(s * q) / q
    else:
        c, sn = 1.0, s
    return (c - lam_a * sn, -lam_r * sn - lam_a * c,
            abs(c) + abs(lam_a * sn), abs(lam_r * sn) + abs(lam_a * c))


def dense_sign_change_zeros(lam_r, lam_a, lo, hi, step=1e-3):
    """Independent zero finder: sign changes of Y on a dense grid, bisected,
    with Y from the scalar math formulas."""
    s = np.arange(lo, hi + step, step)
    y = np.array([scalar_amplitudes(lam_r, lam_a, si)[0] for si in s.tolist()])
    zeros = []
    for i in range(len(s) - 1):
        if y[i] == 0.0:
            zeros.append(s[i])
        elif y[i] * y[i + 1] < 0:
            a, b = s[i], s[i + 1]
            for _ in range(60):
                m = 0.5 * (a + b)
                if (scalar_amplitudes(lam_r, lam_a, a)[0]
                        * scalar_amplitudes(lam_r, lam_a, m)[0] <= 0):
                    b = m
                else:
                    a = m
            zeros.append(0.5 * (a + b))
    return zeros


class TestJacobiAmplitude:
    def test_at_zero_is_one(self):
        for lr in LAM_R_GRID:
            for la in LAM_A_GRID:
                assert jacobi_amplitude(lr, la, 0.0) == 1.0

    def test_arctan_branch_zero(self):
        assert jacobi_amplitude(1.0, 1.0, math.pi / 4) == pytest.approx(0.0, abs=1e-15)

    def test_arctanh_branch_zero(self):
        # root of cosh(s) - 2 sinh(s) at arctanh(1/2)
        assert jacobi_amplitude(-1.0, 2.0, 0.5493) == pytest.approx(0.0, abs=1e-3)
        assert jacobi_amplitude(-1.0, 2.0, math.atanh(0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_branch_continuity_at_zero_curvature(self):
        for s in np.linspace(0.0, 5.0, 51):
            y0 = jacobi_amplitude(0.0, 1.3, s)
            assert abs(jacobi_amplitude(1e-8, 1.3, s) - y0) < 1e-6
            assert abs(jacobi_amplitude(-1e-8, 1.3, s) - y0) < 1e-6

    @pytest.mark.parametrize("lam_r,s", [(-1e6, 1.0), (-1.0, 800.0), (1e300, 1e300)])
    def test_out_of_float_range_is_validation_error(self, lam_r, s):
        # cosh and sinh overflow; s sqrt(lam_r) = inf has no cosine
        with pytest.raises(ValidationError, match=re.escape(f"lambda_R={lam_r}, r={s}")):
            jacobi_amplitude(lam_r, 0.5, s)
        with pytest.raises(ValidationError):
            parallel_shape_eigenvalue(lam_r, 0.5, s)

    def test_flat_amplitude_out_of_float_range_is_validation_error(self):
        # Y = 1 - 1e309 overflows though Y' does not: jacobi_amplitude returned
        # -inf where parallel_shape_eigenvalue refused the same row
        for fn in (jacobi_amplitude, parallel_shape_eigenvalue):
            with pytest.raises(ValidationError, match=re.escape("lambda_R=0.0, r=10.0")):
                fn(0.0, 1e308, 10.0)

    @staticmethod
    def rows(seed, count=2000):
        """Rows of every branch: trig, hyperbolic, flat and the tiny |lam_r| of
        the linear branch."""
        rng = np.random.default_rng(seed)
        lam_r = rng.choice([-1.0, 1.0, 0.0, 1e-301, -1e-301], count) * rng.uniform(0.0, 50.0, count)
        return lam_r, rng.uniform(-8.0, 8.0, count)

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.7, 2.9, 4.5])
    def test_array_rows_equal_scalar_calls(self, s):
        lam_r, lam_a = self.rows(0)
        y, _ = focal._amplitudes(lam_r, lam_a, s)
        lam, focal_rows = focal._parallel_rows(lam_r, lam_a, s)
        for i, row in enumerate(zip(lam_r.tolist(), lam_a.tolist(), [s] * len(lam_r))):
            assert repr(jacobi_amplitude(*row)) == repr(float(y[i]))
            want = parallel_shape_eigenvalue(*row)
            assert want is FOCAL if focal_rows[i] else repr(want) == repr(float(lam[i]))

    @pytest.mark.parametrize("s", [0.3, 1.1, 2.9, 4.5])
    def test_rows_match_the_scalar_math_formulas(self, s):
        # np.cos/np.sin are math.cos/math.sin bit for bit; np.cosh/np.sinh are
        # not math's, and move a hyperbolic row by at most an ulp or two of
        # its terms' scale |C| + |lam_a S|
        lam_r, lam_a = self.rows(1)
        y, yp = focal._amplitudes(lam_r, lam_a, s)
        for i, row in enumerate(zip(lam_r.tolist(), lam_a.tolist(), [s] * len(lam_r))):
            want_y, want_yp, scale_y, scale_yp = scalar_amplitudes(*row)
            if row[0] < -LINEAR_BRANCH_TOL:
                assert abs(y[i] - want_y) <= 4 * EPS * scale_y
                assert abs(yp[i] - want_yp) <= 4 * EPS * scale_yp
            else:
                assert repr((float(y[i]), float(yp[i]))) == repr((want_y, want_yp))

    def test_derivative_matches_finite_differences(self):
        h = 1e-6
        for lr, la, s in [(2.0, 0.5, 0.7), (-3.0, 1.5, 0.4), (0.0, 2.0, 0.3)]:
            fd = (jacobi_amplitude(lr, la, s + h) - jacobi_amplitude(lr, la, s - h)) / (2 * h)
            assert focal._amplitudes([lr], [la], s)[1][0] == pytest.approx(fd, abs=1e-6)


class TestFocalRadiiPair:
    def test_flat_case(self):
        assert focal_radii_pair(0.0, 2.0, Window(0.01, 10)) == pytest.approx([0.5])
        assert focal_radii_pair(0.0, 0.0, Window(0.01, 10)) == []
        assert focal_radii_pair(0.0, -2.0, Window(0.01, 10)) == []

    def test_nonexistence_below_threshold(self):
        assert focal_radii_pair(-1.0, 0.5, Window(0.01, 10)) == []
        # boundary: lam_a = sqrt(-lam_r) has no zero at finite s
        assert focal_radii_pair(-1.0, 1.0, Window(0.01, 50)) == []

    def test_arctanh_root(self):
        radii = focal_radii_pair(-1.0, 2.0, Window(0.01, 10))
        assert radii == pytest.approx([math.atanh(0.5)])

    def test_window_rule_is_containment(self):
        # each branch keeps a radius only inside [lo, hi], not within MERGE_TOL of it
        assert focal_radii_pair(0.0, 2.000000002, Window(0.5, 2.0)) == []
        assert focal_radii_pair(0.0, 1.9999999995, Window(0.4, 0.5)) == []
        assert focal_radii_pair(4.0, 0.0, Window(math.pi / 4 + 1e-10,
                                                 3 * math.pi / 4 - 1e-10)) == []
        r = math.atanh(0.5)
        assert focal_radii_pair(-1.0, 2.0, Window(0.01, r - 1e-10)) == []
        assert focal_radii_pair(-1.0, 2.0, Window(r, 1.0)) == [r]
        grid = EigenGrid(((0.0, 2.000000002, 1), (4.0, 0.0, 2)))
        assert focal_set(grid, Window(0.5, 2.0))[0] == pytest.approx([math.pi / 4])

    def test_cos_zeros(self):
        radii = focal_radii_pair(4.0, 0.0, Window(0.01, 10))
        expect = [(2 * k + 1) * math.pi / 4 for k in range(6)]
        assert radii == pytest.approx(expect, abs=1e-12)

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValidationError):
            Window(1.0, 0.5)
        with pytest.raises(ValidationError):
            Window(0.0, 1.0)
        for hi in (math.inf, math.nan):
            # an infinite window made focal_radii_pair append radii forever
            with pytest.raises(ValidationError):
                Window(0.001, hi)

    def test_matches_dense_oracle_on_grid(self):
        for lr in LAM_R_GRID:
            for la in LAM_A_GRID:
                radii = focal_radii_pair(lr, la, Window(1e-4, 10.0))
                oracle = dense_sign_change_zeros(lr, la, 1e-4, 10.0)
                assert len(radii) == len(oracle)
                for r, o in zip(radii, oracle):
                    assert abs(r - o) < 1e-7
                    assert abs(jacobi_amplitude(lr, la, r)) < 1e-9


@given(st.floats(min_value=-4, max_value=4), st.floats(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_zero_consistency_random(lam_r, lam_a):
    radii = focal_radii_pair(lam_r, lam_a, Window(1e-3, 8.0))
    oracle = dense_sign_change_zeros(lam_r, lam_a, 1e-3, 8.0)
    assert len(radii) == len(oracle)
    for r, o in zip(radii, oracle):
        assert abs(r - o) < 1e-6
        assert abs(jacobi_amplitude(lam_r, lam_a, r)) < 1e-9


@given(st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=-4, max_value=4), st.floats(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_focal_scaling(c, lam_r, lam_a):
    base = focal_radii_pair(lam_r, lam_a, Window(1e-3, 5.0))
    scaled = focal_radii_pair(c * c * lam_r, c * lam_a, Window(1e-3 / c, 5.0 / c))
    assert len(base) == len(scaled)
    for r, rs in zip(base, scaled):
        assert abs(rs - r / c) < 1e-9 * max(1.0, abs(r / c))


@st.composite
def chained_grids(draw):
    """Grids of flat rows whose radii 1/lam_a form chains, each step 0.3 to 3
    MERGE_TOL, mixed with trig and hyperbolic rows, and a window that may cut
    a chain at either end."""
    chain_rows = []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.floats(min_value=0.1, max_value=5.0))
        for step in [0.0] + draw(st.lists(st.floats(0.3, 3.0), min_size=1, max_size=8)):
            r += step * MERGE_TOL
            chain_rows.append((0.0, 1.0 / r, draw(st.integers(1, 3))))
    curved = st.tuples(st.one_of(st.floats(0.01, 20.0), st.floats(-20.0, -0.01)),
                       st.floats(-3.0, 3.0), st.integers(1, 3))
    rows = chain_rows + draw(st.lists(curved, max_size=4))
    grids = [EigenGrid(tuple(draw(st.permutations(rows))[:draw(st.integers(1, len(rows)))]))
             for _ in range(draw(st.integers(1, 3)))]
    lo = 1.0 / draw(st.sampled_from(chain_rows))[1] + draw(st.floats(-3.0, 3.0)) * MERGE_TOL
    return grids, Window(lo, lo + draw(st.sampled_from([2e-9, 1e-8, 1.0, 10.0])))


class TestFocalSet:
    def test_single_flat_pair(self):
        radii, mults = focal_set(EigenGrid(((0.0, 1.0, 3),)), Window(0.1, 5.0))
        assert tuple(zip(radii.tolist(), mults.tolist())) == ((1.0, 3),)

    def test_merge_and_sort(self):
        grid = EigenGrid(((1.0, 1.0, 2), (0.0, 1.0, 1)))
        radii, mults = focal_set(grid, Window(0.1, 4.0))
        assert radii == pytest.approx([math.pi / 4, 1.0, math.pi / 4 + math.pi])
        assert list(mults) == [2, 1, 2]

    def test_coincident_radii_merge(self):
        # both pairs vanish at 1.0
        grid = EigenGrid(((0.0, 1.0, 2), (0.0, 1.0 + 1e-12, 3)))
        radii, mults = focal_set(grid, Window(0.1, 5.0))
        assert len(radii) == 1
        assert mults[0] == 5

    @pytest.mark.parametrize("pair", [(math.nan, 1.0, 1), (1.0, math.inf, 2),
                                      (-math.inf, 0.0, 1)])
    def test_nonfinite_pair_rejected(self, pair):
        # (nan, 1.0) used to take the flat branch and report a radius of 1.0
        with pytest.raises(ValidationError):
            EigenGrid((pair,))

    @pytest.mark.parametrize("pair", [(0.0, 0.5, 2.9), (0.0, 0.5, "2"), (0.0, 0.5, None),
                                      (0.0, 0.5, 0), (0.0, 0.5, True)])
    def test_bad_multiplicity_rejected(self, pair):
        # a multiplicity of 2.9 used to read as 2
        with pytest.raises(ValidationError):
            EigenGrid((pair,))

    def test_whole_float_multiplicity_is_an_int(self):
        (pair,) = EigenGrid(((0.0, 0.5, 2.0),)).pairs
        assert pair == (0.0, 0.5, 2) and type(pair[2]) is int

    def test_total_multiplicity_capped_below_2_53(self):
        # merged duplicates count too; 10**30 used to overflow int64 later
        EigenGrid(((0.0, 0.5, 2 ** 52), (0.0, 0.5, 2 ** 52 - 1)))
        for pairs in (((0.0, 0.5, 10 ** 30),),
                      ((0.0, 0.5, 2 ** 52), (0.0, 0.5, 2 ** 52))):
            with pytest.raises(ValidationError):
                EigenGrid(pairs)

    @given(chained_grids())
    @settings(max_examples=300, deadline=None)
    def test_separation_invariant(self, case):
        # every grid's slice of focal_sets: radii increasing by more than
        # MERGE_TOL, inside the window, each with a multiplicity >= 1, and
        # every zero of every row counted once
        grids, window = case
        radii, mults, bounds = focal_sets(grids, window)
        for g, lo, hi in zip(grids, bounds, bounds[1:]):
            assert (np.diff(radii[lo:hi]) > MERGE_TOL).all()
            assert ((window.lo <= radii[lo:hi]) & (radii[lo:hi] <= window.hi)).all()
            assert (mults[lo:hi] >= 1).all()
            assert mults[lo:hi].sum() == sum(m * len(focal_radii_pair(lr, la, window))
                                             for lr, la, m in g.pairs)


def eigen_grid_merge_loop(pairs, label=None):
    """The dict merge EigenGrid made before it held arrays, with the string
    check io made first, kept as the reference of _merge_rows: (pairs, label)."""
    spectral._as_array(pairs, float, "pairs")
    mults = spectral._multiplicities([p[2] for p in pairs], "pair")
    merged = {}
    for (lr, la, _), m in zip(pairs, mults.tolist()):
        key = (float(lr), float(la))
        if not (math.isfinite(key[0]) and math.isfinite(key[1])):
            raise ValidationError(f"pair {key} is not finite")
        merged[key] = merged.get(key, 0) + m
    if sum(merged.values()) >= spectral.MAX_BRANCH_RANK:
        raise ValidationError("total multiplicity must stay below 2**53")
    return tuple((lr, la, m) for (lr, la), m in sorted(merged.items())), label


# a pool of rows, so that equal rows recur within and across grids; -0.0 sits
# next to 0.0, and 2**52 with 2**52 - 1 or 2**52 totals 2**53 - 1 or 2**53
_MERGE_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5, -2.0, 3]),
                         st.floats(-4, 4),
                         st.sampled_from([math.nan, math.inf, "1.0", True, False]))
_MERGE_MULT = st.one_of(st.integers(1, 3), st.sampled_from([2 ** 52, 2 ** 52 - 1, 2.0]),
                        st.sampled_from([2.5, 0, -1, True, "2", math.nan, 10 ** 30]))
_MERGE_ROW = st.tuples(_MERGE_VALUE, _MERGE_VALUE, _MERGE_MULT)


@st.composite
def grid_stacks(draw):
    """Grids of rows drawn from one pool, mostly of finite numbers."""
    clean = st.tuples(st.sampled_from([0.0, -0.0, 1.0, 0.5]), st.sampled_from([0.0, -0.0, 2.0]),
                      st.one_of(st.integers(1, 3), st.sampled_from([2 ** 52, 2 ** 52 - 1])))
    pool = draw(st.lists(st.one_of(clean, clean, _MERGE_ROW), min_size=1, max_size=6))
    return [(draw(st.lists(st.sampled_from(pool), max_size=6)),
             draw(st.sampled_from([None, f"x{i}"]))) for i in range(draw(st.integers(1, 4)))]


@given(grid_stacks())
@settings(max_examples=400, deadline=None)
@example([([(0.0, 1.0, 2), (-0.0, 1.0, 1), (0.0, 1.0, 3)], "a"),
          ([(-0.0, -0.0, 1), (0.0, 0.0, 1)], "b")])
@example([([(0.0, 0.5, 2 ** 52), (0.0, 0.5, 2 ** 52 - 1)], None),
          ([(0.0, 0.5, 2 ** 52), (1.0, 0.5, 2 ** 52 - 1)], None)])
@example([([(1.0, 0.5, 2 ** 52)], None), ([(0.0, 0.5, 2 ** 52), (0.0, 0.5, 2 ** 52)], None)])
def test_merge_matches_the_dict_merge(stack):
    want = [_outcome(lambda: eigen_grid_merge_loop(pairs, label)) for pairs, label in stack]
    for (pairs, label), w in zip(stack, want):
        got = _outcome(lambda: EigenGrid(pairs, label))
        assert isinstance(got, str) == isinstance(w, str)
        if not isinstance(w, str):
            assert repr((got.pairs, got.label)) == repr(w)
            assert not got.lam_r.flags.writeable and got.mult.dtype == np.int64
    rows = [row for pairs, _ in stack for row in pairs]
    got = _outcome(lambda: focal._eigen_grids(rows, [len(p) for p, _ in stack],
                                              [label for _, label in stack]))
    assert isinstance(got, str) == any(isinstance(w, str) for w in want)
    if not isinstance(got, str):
        assert repr([(g.pairs, g.label) for g in got]) == repr(want)


class TestProperFredholmWitness:
    def test_arctan_family(self):
        report = proper_fredholm_witness(*focal_set(EigenGrid(((1.0, 1.0, 1),)),
                                                     Window(0.1, 100.0)))
        assert report["count"] == 32
        for gap in report["min_gaps"].values():
            assert gap == pytest.approx(math.pi, abs=1e-9)
        assert not report["accumulation_flag"]

    def test_empty_grid(self):
        report = proper_fredholm_witness(*focal_set(EigenGrid(((-1.0, 0.5, 2),)),
                                                     Window(0.1, 50.0)))
        assert report["count"] == 0


class TestParallelShapeEigenvalue:
    def test_r_zero_identity(self):
        for lr in LAM_R_GRID:
            for la in LAM_A_GRID:
                assert parallel_shape_eigenvalue(lr, la, 0.0) == pytest.approx(la, abs=1e-14)

    def test_flat_tube_formula(self):
        assert parallel_shape_eigenvalue(0.0, 1.0, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_focal_sentinel(self):
        assert parallel_shape_eigenvalue(1.0, 1.0, math.pi / 4) is FOCAL

    def test_positive_curvature_tangent(self):
        # lam_a = 0: parallel eigenvalue is sqrt(lam_r) tan(r sqrt(lam_r))
        v = parallel_shape_eigenvalue(1.0, 0.0, math.pi / 6)
        assert v == pytest.approx(math.tan(math.pi / 6), abs=1e-12)


class TestRiccatiOracle:
    def test_zero_field(self):
        assert riccati_oracle(0.0, 0.0, 1.7, steps=100) == pytest.approx(0.0, abs=1e-12)

    def test_tan_closed_form(self):
        assert riccati_oracle(1.0, 0.0, math.pi / 6, steps=1000) == pytest.approx(
            math.tan(math.pi / 6), abs=1e-8)

    def test_hyperbolic_cross_check(self):
        v = parallel_shape_eigenvalue(-1.0, 2.0, 0.2)
        assert riccati_oracle(-1.0, 2.0, 0.2, steps=1000) == pytest.approx(v, abs=1e-8)

    def test_focal_proximity_raises(self):
        with pytest.raises(OracleUndefinedError):
            riccati_oracle(1.0, 1.0, math.pi / 4, steps=2000)

    def test_step_floor(self):
        with pytest.raises(ValidationError):
            riccati_oracle(1.0, 0.0, 0.5, steps=5)

    def test_matches_per_step_loop(self):
        # near a focal radius -Y'/Y amplifies rounding: on criterion 3's
        # draws the loop itself departs from the same recursion run in 80-bit
        # precision by up to 1.4e-12 (relative), hence the 5e-12 tolerance
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 200:
            lr, la, r = rng.uniform(-4, 4), rng.uniform(-3, 3), rng.uniform(0.05, 3.0)
            if parallel_shape_eigenvalue(lr, la, r) is FOCAL:
                continue
            ref = loop_riccati(lr, la, r, 1000)
            assert abs(riccati_oracle(lr, la, r) - ref) <= 5e-12 * abs(ref)
            checked += 1


def test_oracle_equivalence_random():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 300:
        lr = rng.uniform(-4, 4)
        la = rng.uniform(-3, 3)
        r = rng.uniform(0.01, 2.0)
        v = parallel_shape_eigenvalue(lr, la, r)
        if v is FOCAL:
            continue
        try:
            o = riccati_oracle(lr, la, r, steps=2000)
        except OracleUndefinedError:
            continue
        assert abs(v - o) < 1e-7 * (1.0 + abs(v))
        checked += 1


def test_riccati_semigroup_random():
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 300:
        lr = rng.uniform(-4, 4)
        la = rng.uniform(-3, 3)
        r = rng.uniform(0.01, 1.0)
        rp = rng.uniform(0.01, 1.0)
        mid = parallel_shape_eigenvalue(lr, la, r)
        if mid is FOCAL:
            continue
        two_step = parallel_shape_eigenvalue(lr, mid, rp)
        one_step = parallel_shape_eigenvalue(lr, la, r + rp)
        if two_step is FOCAL or one_step is FOCAL:
            continue
        assert abs(two_step - one_step) < 1e-8 * (1.0 + abs(one_step))
        checked += 1


class TestParallelRegMeanCurvature:
    def test_r_zero_is_shape_trace(self):
        grid = EigenGrid(((1.0, 1.0, 2), (0.0, -0.5, 3)))
        assert parallel_reg_mean_curvature(grid, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_flat_tube_two_fold(self):
        grid = EigenGrid(((0.0, 1.0, 2),))
        assert parallel_reg_mean_curvature(grid, 0.5) == pytest.approx(4.0, abs=1e-12)

    def test_focal_collision(self):
        grid = EigenGrid(((1.0, 1.0, 2),))
        assert parallel_reg_mean_curvature(grid, math.pi / 4) is FOCAL

    def test_high_multiplicity_is_finite_rank(self):
        # one stored entry of multiplicity 100 is a finite-rank operator, as
        # the spectrum {"positives": [{"value": lam, "mult": 100}]} is
        grid = EigenGrid(((0.0, 0.5, 100),))
        assert reg_trace(grid.shape_spectrum()) == 50.0
        for r in (0.0, 0.1):
            lam = parallel_shape_eigenvalue(0.0, 0.5, r)
            want = reg_trace(SpectralData([lam], [100]))
            assert want == pytest.approx(100 * lam, rel=1e-14)
            assert parallel_reg_mean_curvature(grid, r) == want


class TestChecks:
    def grids(self):
        g = EigenGrid(((1.0, 0.5, 2), (0.0, 1.0, 1)), label="x0")
        return [g, EigenGrid(g.pairs, label="x1"), EigenGrid(g.pairs, label="x2")]

    def test_weak_true_on_identical(self):
        assert weakly_isoparametric_check(self.grids())

    def test_weak_false_on_perturbation(self):
        gs = self.grids()
        bad = EigenGrid(((1.0, 0.6, 2), (0.0, 1.0, 1)), label="x3")
        assert not weakly_isoparametric_check(gs + [bad])

    def test_weak_order_invariant(self):
        a = EigenGrid(((1.0, 0.5, 1), (2.0, 0.3, 1)))
        b = EigenGrid(((2.0, 0.3, 1), (1.0, 0.5, 1)))
        assert weakly_isoparametric_check([a, b])

    def test_iso_single_grid(self):
        report = isoparametric_check(self.grids()[:1], [0.1])
        assert report["passed"]

    def test_iso_report_structure(self):
        report = isoparametric_check(self.grids(), [0.05, 0.1])
        assert report["passed"]
        for r in (0.05, 0.1):
            assert report["radii"][r]["spread"] < 1e-12

    def test_iso_high_multiplicity_regularizable(self):
        grids = [EigenGrid(((0.0, 0.5, 100),), label=f"x{i}") for i in range(2)]
        report = isoparametric_check(grids, [0.1])
        assert report["regularizable"] and report["passed"]
        lam = parallel_shape_eigenvalue(0.0, 0.5, 0.1)
        want = reg_trace(SpectralData([lam], [100]))
        assert report["radii"][0.1]["values"] == [want, want]

    def test_iso_detects_mismatch(self):
        gs = self.grids() + [EigenGrid(((1.0, 0.7, 2), (0.0, 1.0, 1)), label="x9")]
        report = isoparametric_check(gs, [0.1])
        assert not report["passed"]

    def test_equifocal_identical(self):
        assert equifocal_check(self.grids(), Window(0.01, 5.0))["passed"]

    def test_equifocal_arctan_shift(self):
        a = EigenGrid(((1.0, 1.0, 1),))
        b = EigenGrid(((1.0, 2.0, 1),))
        assert not equifocal_check([a, b], Window(0.01, 5.0))["passed"]

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_tol_that_decides_every_comparison_rejected(self, tol):
        # NaN and inf pass these differing grids, a negative tol fails even equal ones
        grids, window = [EigenGrid(((1, 0.5, 2),)), EigenGrid(((1, 0.9, 2),))], Window(0.01, 5.0)
        assert not isoparametric_check(grids, [0.1])["passed"]
        assert not equifocal_check(grids, window)["passed"]
        with pytest.raises(ValidationError, match="tol"):
            isoparametric_check(grids, [0.1], tol=tol)
        with pytest.raises(ValidationError, match="tol"):
            equifocal_check(grids, window, tol=tol)

    def test_zero_tol_accepted(self):
        assert isoparametric_check(self.grids(), [0.1], tol=0.0)["passed"]
        assert equifocal_check(self.grids(), Window(0.01, 5.0), tol=0.0)["passed"]

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            weakly_isoparametric_check([])
        with pytest.raises(ValidationError):
            equifocal_check([], Window(0.1, 1.0))


@st.composite
def random_grid_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    pairs = []
    for _ in range(n):
        lr = draw(st.floats(min_value=-3, max_value=3))
        la = draw(st.floats(min_value=-2, max_value=2))
        m = draw(st.integers(min_value=1, max_value=3))
        pairs.append((lr, la, m))
    return tuple(pairs)


@given(random_grid_pairs(), st.integers(min_value=2, max_value=4))
@settings(max_examples=30, deadline=None)
def test_weakly_iso_implies_equifocal(pairs, copies):
    # identical joint spectra at every point force identical focal data
    grids = [EigenGrid(pairs, label=f"x{i}") for i in range(copies)]
    if weakly_isoparametric_check(grids):
        assert equifocal_check(grids, Window(0.05, 6.0))["passed"]


def _expanded_multisets_close(a, b):
    """The multiplicity-expanded comparison weakly_isoparametric_check made
    before it compared runs of entries; kept as the reference."""
    ea, eb = (np.sort(np.repeat(v, m)) for v, m in (a, b))
    if len(ea) != len(eb):
        return False
    return bool(np.all(np.abs(ea - eb) <= 1e-9 + 1e-12 * np.maximum(np.abs(ea), np.abs(eb))))


@given(st.lists(st.tuples(st.sampled_from([0.0, 1e-10, 0.5, 0.5 + 2e-9, -1.0, 2.0]),
                          st.integers(min_value=1, max_value=5)), min_size=1, max_size=5),
       st.lists(st.tuples(st.sampled_from([0.0, 1e-10, 0.5, 0.5 + 2e-9, -1.0, 2.0]),
                          st.integers(min_value=1, max_value=5)), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_weak_check_matches_expanded_comparison(a, b):
    # zeros stay in the multiset: 1e-10 matches 0.0 within the absolute tolerance
    ga = EigenGrid(tuple((0.0, v, m) for v, m in a))
    gb = EigenGrid(tuple((0.0, v, m) for v, m in b))
    want = _expanded_multisets_close((ga.lam_a, ga.mult), (gb.lam_a, gb.mult))
    assert weakly_isoparametric_check([ga, gb]) == want


def transformed_grid_loop(grid, r):
    """Per-row reference for the stacked parallel rows: one new EigenGrid."""
    pairs = []
    for lam_r, lam_a, mult in grid.pairs:
        lam = parallel_shape_eigenvalue(lam_r, lam_a, r)
        if lam is FOCAL:
            return FOCAL
        pairs.append((lam_r, lam, mult))
    return EigenGrid(tuple(pairs), label=grid.label)


def isoparametric_check_loop(grids, radii, tol=1e-8):
    """Per-grid reference for isoparametric_check: a SpectralData and a
    reg_trace for every (grid, radius)."""
    report = {"radii": {}, "focal_collisions": [], "regularizable": True, "spread_tol": tol,
              "passed": True}
    for g in grids:
        if not spectral.is_regularizable(g.shape_spectrum()):
            report["regularizable"] = False
            report["passed"] = False
    for r in radii:
        values = []
        for idx, g in enumerate(grids):
            tg = transformed_grid_loop(g, r)
            v = FOCAL if tg is FOCAL else reg_trace(tg.shape_spectrum())
            if v is FOCAL:
                report["focal_collisions"].append((g.label or idx, r))
                report["passed"] = False
                continue
            if v is DIVERGENT:
                report["regularizable"] = False
                report["passed"] = False
                continue
            values.append(float(v))
        spread = float(np.max(values) - np.min(values)) if values else float("nan")
        report["radii"][r] = {"values": values, "spread": spread}
        if not values or spread > tol:
            report["passed"] = False
    return report


# lam_r = 1 with lam_a = 1 is focal at pi/4, and (0, 2) at 1/2; the radii
# include both
_LAM_R = st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, 0.25, -3.0, 1e-301])
_LAM_A = st.one_of(st.sampled_from([0.0, 1.0, 2.0, -0.5, 0.5]),
                   st.floats(min_value=-4.0, max_value=4.0))
_ROWS = st.lists(st.tuples(_LAM_R, _LAM_A, st.integers(min_value=1, max_value=4)),
                 max_size=8)


@st.composite
def iso_grids(draw):
    grids = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        rows = draw(_ROWS)
        if draw(st.booleans()):   # beyond FINITE_RANK_MAX: the truncated route
            lam_r = draw(_LAM_R)
            scale = draw(st.sampled_from([1.0, -1.0, 0.3]))
            rows += [(lam_r, scale / k, draw(st.integers(min_value=1, max_value=3)))
                     for k in range(1, spectral.FINITE_RANK_MAX + draw(st.integers(0, 20)))]
        grids.append(EigenGrid(tuple(rows), label=draw(st.sampled_from([None, f"x{i}"]))))
    return grids


@given(iso_grids(), st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.5, math.pi / 4, 1.3]),
                             min_size=1, max_size=4, unique=True))
@settings(max_examples=150, deadline=None)
def test_isoparametric_check_matches_per_grid_loop(grids, radii):
    want = isoparametric_check_loop(grids, radii)
    assert repr(isoparametric_check(grids, radii)) == repr(want)
    for g in grids:
        for r in radii:
            assert repr(parallel_reg_mean_curvature(g, r)) == repr(
                FOCAL if transformed_grid_loop(g, r) is FOCAL
                else reg_trace(transformed_grid_loop(g, r).shape_spectrum()))
            # the parallel command's route: the transformed grid's own trace
            tg = transformed_grid(g, r)
            assert repr(tg if tg is FOCAL else reg_trace(tg.shape_spectrum())) == repr(
                parallel_reg_mean_curvature(g, r))
            if tg is not FOCAL:
                assert repr(tg.pairs) == repr(transformed_grid_loop(g, r).pairs)


def test_merged_parallel_rows_match_per_grid_loop():
    # the Moebius map lam_a -> -Y'/Y squeezes neighbouring floats onto one
    # value: the transformed grid merges them, and so must the stacked trace
    lam_as = -3.0 + np.arange(200) * 2.0 ** -51
    grid = EigenGrid(tuple((0.0, float(a), 3) for a in lam_as[:60]))
    lams = [parallel_shape_eigenvalue(0.0, float(a), 0.2) for a in lam_as[:60]]
    assert len(set(lams)) < len(lams)
    long_grid = EigenGrid(tuple((0.0, float(a), 3) for a in lam_as))
    for g in (grid, long_grid):
        assert repr(isoparametric_check([g, g], [0.2])) == repr(
            isoparametric_check_loop([g, g], [0.2]))


def test_hyperbolic_overflow_names_lambda_r_and_r():
    grids = [EigenGrid(((1.0, 0.5, 2),)), EigenGrid(((1.0, 0.5, 2), (-1e6, 0.5, 1)))]
    for check in (isoparametric_check, isoparametric_check_loop):
        with pytest.raises(ValidationError, match=re.escape("lambda_R=-1000000.0, r=1.0")):
            check(grids, [1.0])


class TestFocalRadiiCap:
    def test_refusal_allocates_nothing_large(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="focal radii"):
                focal_radii_pair(1e6, 0.5, Window(1e-3, 1e4))
            with pytest.raises(ValidationError, match="focal radii"):
                focal_radii_pair(1e300, 0.5, Window(1e300, 1.5e300))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_counts_periods_of_the_window(self):
        window = Window(1e-3, 10.0)
        below = (math.pi * (MAX_FOCAL_RADII - 1) / (window.hi - window.lo)) ** 2
        radii = focal_radii_pair(below, 0.5, window)
        assert MAX_FOCAL_RADII - 2 <= len(radii) <= MAX_FOCAL_RADII
        above = (math.pi * (MAX_FOCAL_RADII + 1) / (window.hi - window.lo)) ** 2
        with pytest.raises(ValidationError):
            focal_radii_pair(above, 0.5, window)


# The per-pair route that focal_sets replaced, kept as its reference: one
# scalar closed form per (pair, radius), then a sort and a merge per grid.
def focal_radii_pair_loop(lam_r, lam_a, window):
    roots = []
    if lam_r > 1e-300:
        q = math.sqrt(lam_r)
        base = math.atan2(q, lam_a) / q
        period = math.pi / q
        if (window.hi - window.lo) / period >= MAX_FOCAL_RADII:
            raise ValidationError(f"lambda_R={lam_r} places more than {MAX_FOCAL_RADII} "
                                  f"focal radii in [{window.lo}, {window.hi}]")
        k = math.floor((window.lo - base) / period)
        while (r := base + k * period) <= window.hi:
            roots.append(r)
            k += 1
    elif lam_r < -1e-300:
        q = math.sqrt(-lam_r)
        if lam_a > q:
            roots.append(math.atanh(q / lam_a) / q)
    elif lam_a != 0.0:
        roots.append(1.0 / lam_a)
    return [r for r in roots if window.lo <= r <= window.hi]


def focal_set_loop(grid, window):
    """(radius, mult) entries: a radius within MERGE_TOL of its cluster's first
    radius joins the cluster."""
    merged = []
    for r, m in sorted((r, m) for lam_r, lam_a, m in grid.pairs
                       for r in focal_radii_pair_loop(lam_r, lam_a, window)):
        if merged and abs(r - merged[-1][0]) <= MERGE_TOL:
            merged[-1][1] += m
        else:
            merged.append([r, m])
    return [(r, m) for r, m in merged]


def _outcome(f):
    try:
        return f()
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def _stacked_entries(grids, window):
    radii, mults, bounds = focal_sets(grids, window)
    return [list(zip(radii[lo:hi].tolist(), mults[lo:hi].tolist()))
            for lo, hi in zip(bounds, bounds[1:])]


# trig, hyperbolic, flat and zero rows; lambda_R = 1e12 spans more than
# MAX_FOCAL_RADII periods of the windows of width 5 and 10 below
_FOCAL_LAM_R = st.one_of(st.floats(min_value=-4, max_value=4),
                         st.sampled_from([0.0, -0.0, 1e-301, -1e-301, 1.0, 4.0, -1.0, 1e12]))
_FOCAL_LAM_A = st.one_of(st.floats(min_value=-3, max_value=3),
                         st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0]))


@st.composite
def focal_grids(draw):
    """Grids drawing their rows from one pool, so equal radii recur across
    rows and grids; some pools hold a chain of flat radii r0 + j gap with
    gap <= MERGE_TOL spanning up to 5 gaps."""
    pool = draw(st.lists(st.tuples(_FOCAL_LAM_R, _FOCAL_LAM_A, st.integers(1, 4)),
                         min_size=1, max_size=6))
    if draw(st.booleans()):
        r0 = draw(st.floats(min_value=0.05, max_value=5.0))
        gap = draw(st.floats(min_value=0.05, max_value=1.0)) * MERGE_TOL
        pool += [(0.0, 1.0 / (r0 + j * gap), draw(st.integers(1, 3)))
                 for j in range(draw(st.integers(2, 6)))]
    grids = [EigenGrid(tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))),
                       label=f"x{i}") for i in range(draw(st.integers(1, 4)))]
    lo = draw(st.floats(min_value=1e-3, max_value=5.0))
    # widths down to 1e-9 leave many windows empty
    return grids, Window(lo, lo + draw(st.sampled_from([1e-9, 1e-3, 0.2, 5.0, 10.0])))


@given(focal_grids())
@settings(max_examples=300, deadline=None)
def test_focal_sets_match_per_pair_route(case):
    grids, window = case
    want = _outcome(lambda: [focal_set_loop(g, window) for g in grids])
    assert _outcome(lambda: _stacked_entries(grids, window)) == want
    if isinstance(want, str):
        assert _outcome(lambda: equifocal_check(grids, window)) == want
        return
    for g, entries in zip(grids, want):
        radii, mults = focal_set(g, window)
        assert tuple(zip(radii.tolist(), mults.tolist())) == tuple(entries)
        for lam_r, lam_a, _ in g.pairs:
            assert focal_radii_pair(lam_r, lam_a, window) == focal_radii_pair_loop(
                lam_r, lam_a, window)
    ref = want[0]
    assert equifocal_check(grids, window)["passed"] == all(
        len(e) == len(ref) and all(m == n and abs(r - s) <= 1e-8
                                   for (r, m), (s, n) in zip(e, ref)) for e in want)


def test_focal_sets_merge_chains_as_the_per_pair_route():
    # gaps of 0.6 MERGE_TOL: the second radius joins the first, the third is
    # beyond MERGE_TOL of the first and starts a cluster, the fourth joins it
    for gap in (0.6 * MERGE_TOL, 0.3 * MERGE_TOL, MERGE_TOL):
        grid = EigenGrid(tuple((0.0, 1.0 / (1.0 + j * gap), j + 1) for j in range(7)))
        want = focal_set_loop(grid, Window(0.5, 2.0))
        assert len(want) > 1
        assert _stacked_entries([grid, grid], Window(0.5, 2.0)) == [want, want]


def test_focal_sets_where_rounding_hides_the_last_radius():
    # far from the origin k pi/q rounds at the scale of a period, so the
    # closed-form count of candidates falls short and is extended
    window = Window(1e10, 1e10 + 1e-3)
    grids = [EigenGrid(((lam_r, 0.3, 1),)) for lam_r in (1e12, 3.7e12, 1e13, 2.9e15)]
    for g in grids:
        assert focal_radii_pair(g.pairs[0][0], 0.3, window) == focal_radii_pair_loop(
            g.pairs[0][0], 0.3, window)
    assert _stacked_entries(grids, window) == [focal_set_loop(g, window) for g in grids]
