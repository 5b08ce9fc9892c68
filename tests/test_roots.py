import pickle
import time
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from focalis import algebras, roots
from focalis.algebras import bracket, load_algebra
from focalis.cli import main
from focalis.errors import ValidationError
from focalis.roots import (involution, restricted_root_decomposition,
                           verify_bracket_pattern)


class TestInvolution:
    def test_conj_is_involutive_automorphism(self):
        th = involution("conj", 3)
        x = np.array([[1j, 2.0], [1.0, -1j]])
        assert np.allclose(th(th(x)), x)

    def test_ad_diag_default(self):
        th = involution("ad_diag", 2)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(th(x), -x)

    def test_ad_diag_with_signature(self):
        th = involution("ad_diag_1", 3)
        d = np.diag([1.0, -1.0, -1.0])
        x = np.arange(9.0).reshape(3, 3)
        assert np.allclose(th(x), d @ x @ d)

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            involution("transpose", 2)

    @pytest.mark.parametrize("name", ["ad_diag_x", "ad_diag_-1", "ad_diag_0",
                                      "ad_diag_3", "ad_diag_", "ad_diagonal"])
    def test_bad_signature_rejected(self, name):
        with pytest.raises(ValidationError):
            involution(name, 3)

    def test_acts_on_stacks(self):
        x = np.arange(18.0).reshape(2, 3, 3)
        d = np.diag([1.0, 1.0, -1.0])
        assert np.array_equal(involution("ad_diag", 3)(x), d @ x @ d)


class TestDecomposition:
    def test_su2_conj(self):
        data = restricted_root_decomposition("su2", "conj")
        assert len(data.a_basis) == 1
        assert data.n0 == 1
        assert data.multiplicities == (2,)
        assert data.dimension_identity()

    def test_su3_conj(self):
        # split real form of the A2 restricted system: rank 2, g0 = a,
        # three +/- root pairs, each pair contributing a 2-dim space
        data = restricted_root_decomposition("su3", "conj")
        assert len(data.a_basis) == 2
        assert data.n0 == 2
        assert data.multiplicities == (2, 2, 2)
        assert data.dimension_identity()
        # each entry counts the cluster k_lam + p_lam, twice m_lam = dim p_lam = 1
        assert data.dim - len(data.k_basis) == 2 + sum(data.multiplicities) / 2

    def test_su2_ad_diag(self):
        data = restricted_root_decomposition("su2", "ad_diag")
        assert len(data.a_basis) == 1
        assert data.n0 == 1
        assert data.dimension_identity()

    def test_a_inside_g0(self):
        data = restricted_root_decomposition("su3", "conj")
        onb = data.onb
        g0 = data.space_bases[0]
        for a in data.a_basis:
            coeffs = np.array([np.real(np.sum(np.conj(m) * a)) for m in onb])
            # expansion against the onb gram
            gram = np.array([[np.real(np.sum(np.conj(x) * y)) for y in onb] for x in onb])
            c = np.linalg.solve(gram, coeffs)
            res = np.linalg.norm(c - g0 @ (g0.T @ c))
            assert res < 1e-9

    def test_eigenspace_property(self):
        data = restricted_root_decomposition("su3", "conj")
        onb = data.onb

        def to_mat(c):
            return sum(ci * m for ci, m in zip(c, onb))

        for lam, basis in zip(data.roots, data.space_bases[1:]):
            for hi, a in enumerate(data.a_basis):
                for col in range(basis.shape[1]):
                    v = to_mat(basis[:, col])
                    lhs = bracket(a, bracket(a, v))
                    assert np.max(np.abs(lhs + lam[hi] ** 2 * v)) < 1e-8

    def test_seed_independence_of_dimensions(self):
        d1 = restricted_root_decomposition("su3", "conj", seed=7)
        d2 = restricted_root_decomposition("su3", "conj", seed=99)
        assert d1.n0 == d2.n0
        assert sorted(d1.multiplicities) == sorted(d2.multiplicities)

    @pytest.mark.parametrize("alg, theta, dim_k", [
        ("su2", "conj", 1), ("su3", "conj", 3), ("su3", "ad_diag", 4),
        ("so5", "ad_diag", 6), ("su4", "ad_diag_2", 7)])
    def test_k_basis_is_the_fixed_subalgebra(self, alg, theta, dim_k):
        # reference: the (+1)-eigenspace of theta in matrix space, spanned by
        # the projections (x + theta x) / 2 of a basis
        data = restricted_root_decomposition(alg, theta)
        k = data.k_basis
        basis = load_algebra(alg).basis
        th = involution(theta, basis.shape[-1])
        assert len(k) == dim_k == np.linalg.matrix_rank(
            ((basis + th(basis)) / 2.0).reshape(len(basis), -1))
        assert np.max(np.abs(th(k) - k)) < 1e-14
        gram = np.einsum("iab,jab->ij", k.conj(), k).real
        assert np.max(np.abs(gram - np.eye(dim_k))) < 1e-14

    @pytest.mark.parametrize("theta,message", [(lambda x: 2 * x, "not involutive"),
                                               (lambda x: -x, "not an automorphism")],
                             ids=["2x", "-x"])
    def test_rejects_a_theta_that_is_no_involutive_automorphism(self, monkeypatch, theta,
                                                                message):
        monkeypatch.setattr(roots, "involution", lambda name, size: theta)
        with pytest.raises(ValidationError, match=message):
            restricted_root_decomposition("su3", "conj")

    @pytest.mark.parametrize("shift,message", [(-1, "is not abelian"),
                                               (1, "is not maximal abelian")])
    def test_rejects_a_wrong_centralizer(self, monkeypatch, shift, message):
        # an svd that miscounts the nonzero singular values of ad(h) on p by
        # one makes the candidate a one dimension too large or too small
        alg, svd = load_algebra("su3"), np.linalg.svd

        def miscounted(m):
            u, s, vt = svd(m)
            rank = int(np.sum(s > 1e-10 * s[0]))
            s = s.copy()
            if shift > 0:
                s[rank] = s[0]
            else:
                s[rank - 1] = 0.0
            return u, s, vt

        monkeypatch.setattr(np.linalg, "svd", miscounted)
        with pytest.raises(ValidationError, match=message):
            restricted_root_decomposition(alg, "conj")

    def test_rejects_a_cluster_of_two_roots(self, monkeypatch):
        # an H on the wall alpha(H) = beta(H) merges g_alpha and g_beta into
        # one eigenspace of ad(H)^2, on which ad(H_i)^2 is no multiple of 1
        alpha, beta = restricted_root_decomposition("su3", "conj").roots[:2]
        wall = np.array([alpha[1] - beta[1], beta[0] - alpha[0]])
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: SimpleNamespace(
            normal=lambda size: wall) if seed == 8 else default_rng(seed))
        with pytest.raises(ValidationError, match="eigen test"):
            restricted_root_decomposition("su3", "conj")

    def test_redraws_an_h_on_a_wall(self, monkeypatch):
        # the first draw of H lies on the wall alpha(H) = beta(H); the next one
        # is the seeded generator's first draw, and gives A2
        alpha, beta = restricted_root_decomposition("su3", "conj").roots[:2]
        default_rng, draws = np.random.default_rng, [np.array([alpha[1] - beta[1],
                                                               beta[0] - alpha[0]])]

        def seeded(seed):
            rng = default_rng(seed)
            return rng if seed != 8 else SimpleNamespace(
                normal=lambda size: draws.pop() if draws else rng.normal(size=size))

        monkeypatch.setattr(np.random, "default_rng", seeded)
        data = restricted_root_decomposition("su3", "conj")
        assert draws == []
        assert (data.n0, data.multiplicities) == (2, (2, 2, 2))
        assert verify_bracket_pattern(data)["passed"]

    def test_rejects_trivial_pair(self):
        alg = load_algebra("su2")
        # conjugation by -id is the identity automorphism: empty p
        with pytest.raises(ValidationError):
            restricted_root_decomposition(alg, "ad_diag_0")


# Oracle: Helgason, Differential Geometry, Lie Groups, and Symmetric Spaces,
# Ch. X.  SU(n)/SO(n) is A_{n-1} with all m = 1; SU(p+q)/S(U_p x U_q), p > q,
# is BC_q with m = 2 on e_i +- e_j, 2(p-q) on e_i and 1 on 2e_i;
# SO(p+q)/SO(p) x SO(q) is B_q (p > q) with m = 1 on e_i +- e_j and p - q on
# e_i, and D_q (p = q).  A cluster of the decomposition is g_lam + g_-lam, of
# dimension 2 m_lam.  Keys are |lam|^2 / |shortest|^2.
HELGASON = [
    ("su5", "conj", 4, 4, {1: [2] * 10}),                                 # A4
    ("su5", "ad_diag_3", 2, 4, {1: [4, 4], 2: [4, 4], 4: [2, 2]}),        # BC2
    ("so7", "ad_diag_5", 2, 5, {1: [6, 6], 2: [2, 2]}),                   # B2
    ("so8", "ad_diag_4", 4, 4, {1: [2] * 12}),                            # D4
    ("su6", "ad_diag_4", 2, 7, {1: [8, 8], 2: [4, 4], 4: [2, 2]}),        # BC2
    ("so9", "ad_diag_6", 3, 6, {1: [6, 6, 6], 2: [2] * 6}),               # B3
    ("so10", "ad_diag_5", 5, 5, {1: [2] * 20}),                           # D5
    ("su8", "conj", 7, 7, {1: [2] * 28}),                                 # A7
    ("so12", "ad_diag_8", 4, 10, {1: [8] * 4, 2: [2] * 12}),              # B4
]


class TestHelgasonTables:
    @pytest.mark.parametrize("alg,theta,rank,n0,clusters", HELGASON)
    def test_root_system(self, alg, theta, rank, n0, clusters):
        data = restricted_root_decomposition(alg, theta)
        assert len(data.a_basis) == rank
        assert data.n0 == n0
        sq = np.array([r @ r for r in data.roots])
        ratio = np.round(sq / sq.min(), 6)
        got = {float(k): sorted(m for m, r in zip(data.multiplicities, ratio) if r == k)
               for k in np.unique(ratio)}
        assert got == clusters
        # a multiplicity counts the cluster k_lam + p_lam, of dimension 2 m_lam
        assert data.dim - len(data.k_basis) == rank + sum(data.multiplicities) / 2
        # Cartan integers 2<a, b>/<b, b> of a (possibly non-reduced) root system
        cartan = 2.0 * (data.roots @ data.roots.T) / sq[None, :]
        assert np.max(np.abs(cartan - np.round(cartan))) < 1e-9
        # the sign of a root vector is fixed by its first nonzero component
        assert all(r[np.flatnonzero(np.abs(r) > 1e-9)[0]] > 0 for r in data.roots)
        assert verify_bracket_pattern(data)["max_residual"] < 1e-9


# Rank-one pairs in HELGASON's format: SU(2)/SO(2) is A1 with m = 1,
# SU(3)/S(U_2 x U_1) is BC1 with m = 2 on e_1 and 1 on 2e_1, and
# SO(5)/SO(4) is B1 with m = 3 on e_1.
RANK_ONE = [
    ("su2", "conj", 1, 1, {1: [2]}),
    ("su3", "ad_diag", 1, 2, {1: [4], 4: [2]}),
    ("so5", "ad_diag", 1, 4, {1: [6]}),
]
_ALGEBRAS = {}


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(HELGASON + RANK_ONE), seed=st.integers(0, 2 ** 64 - 1))
@example(case=RANK_ONE[0], seed=116)
@example(case=RANK_ONE[1], seed=116)
@example(case=RANK_ONE[2], seed=116)
@example(case=RANK_ONE[1], seed=491543)
@example(case=RANK_ONE[2], seed=491543)
@example(case=HELGASON[3], seed=1665)
@example(case=HELGASON[5], seed=847)
def test_any_seed_gives_the_tabulated_root_system(case, seed):
    # the seeds draw h_gen and the weights of H in a; rank, n0 and the
    # multiplicities depend on neither.  Seeds 116 and 491543 draw weights small
    # enough to scale every root under an absolute root threshold; at 1665 and
    # 847 a root nearly vanishes on the first H, which fails the eigen test
    alg, theta, rank, n0, clusters = case
    algebra = _ALGEBRAS.get(alg) or _ALGEBRAS.setdefault(alg, load_algebra(alg))
    data = restricted_root_decomposition(algebra, theta, seed)
    assert (len(data.a_basis), data.n0) == (rank, n0)
    assert sorted(data.multiplicities) == sorted(sum(clusters.values(), []))


# The report path's contractions are fixed-order matmul chains that replay
# the pairwise steps of np.einsum(..., optimize=True), kept here as the oracle:
# the same bits (as numpy 2.4's einsum computes them) and the same strides on
# perfbench's pairs, and at least 1e-15 relative agreement on the Helgason cases.
PERFBENCH_PAIRS = [("su2", "conj"), ("su2", "ad_diag"), ("su3", "conj"), ("su3", "ad_diag"),
                   ("so5", "ad_diag"), ("so5", "ad_diag_2"), ("su4", "conj"),
                   ("su4", "ad_diag_2")]
CONTRACTION_CASES = PERFBENCH_PAIRS + [(alg, theta) for alg, theta, *_ in HELGASON]
BITWISE = {"su2", "su3", "su4", "so5"}


def _einsum_congruence(c, m):
    return np.einsum("ai,bj,abl->ijl", m, m, c, optimize=True)


def _einsum_in_basis(c, v):
    return np.einsum("ijl,ia,jb,lc->abc", c, v, v, v, optimize=True)


def _decomposition_bytes(alg, theta):
    data = restricted_root_decomposition(alg, theta)
    return pickle.dumps((data, verify_bracket_pattern(data)))


class TestFixedOrderContractions:
    @pytest.mark.parametrize("alg,theta", CONTRACTION_CASES)
    def test_contractions_match_einsum(self, alg, theta):
        data = restricted_root_decomposition(alg, theta)
        a = data.algebra
        l = np.linalg.cholesky(a.gram)
        li = np.linalg.inv(l)
        tmat = (a.coefficients(involution(theta, a.matrix_size)(data.onb)) @ l).T
        v = np.hstack(data.space_bases)
        pairs = [
            (data.structure,
             np.einsum("ia,jb,abk,kl->ijl", li, li, a.structure, l, optimize=True)),
            (roots._congruence(data.structure, tmat), _einsum_congruence(data.structure, tmat)),
            (roots._in_basis(data.structure, v), _einsum_in_basis(data.structure, v)),
        ]
        for got, want in pairs:
            assert got.shape == want.shape and got.strides == want.strides
            if alg in BITWISE:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("alg,theta", CONTRACTION_CASES)
    def test_decomposition_pickles_as_with_einsum(self, monkeypatch, alg, theta):
        # the decomposition and bracket report, array layouts included, do not
        # move when einsum does the contractions; no case moved
        fixed = _decomposition_bytes(alg, theta)
        monkeypatch.setattr(roots, "_congruence", _einsum_congruence)
        monkeypatch.setattr(roots, "_in_basis", _einsum_in_basis)
        assert _decomposition_bytes(alg, theta) == fixed


class TestBracketPattern:
    def test_su2_passes(self):
        data = restricted_root_decomposition("su2", "conj")
        report = verify_bracket_pattern(data)
        assert report["passed"]
        assert report["max_residual"] < 1e-9
        assert report["dimension_identity"]

    def test_su3_passes_with_difference_rule(self):
        data = restricted_root_decomposition("su3", "conj")
        report = verify_bracket_pattern(data)
        assert report["passed"]
        assert report["max_residual"] < 1e-9
        # the sum-only containment genuinely fails here: [g_a, g_{a+b}] meets g_b
        assert report["max_residual_sum_only"] > 1e-3

    def test_g0_bracket_closed(self):
        data = restricted_root_decomposition("su3", "conj")
        report = verify_bracket_pattern(data)
        s = len(data.roots) + 1
        assert report["residuals"].shape == report["residuals_sum_only"].shape == (s, s)
        assert report["residuals"][0, 0] < 1e-12

    def test_matches_matrix_space_reference(self):
        # reference: brackets of root-space vectors as matrices, projected
        # onto the allowed targets through a Hilbert-Schmidt expansion
        data = restricted_root_decomposition("su3", "ad_diag")
        onb = data.onb
        hs = np.einsum("iab,jab->ij", onb.conj(), onb).real

        def coeffs(x):
            return np.linalg.solve(hs, np.einsum("iab,ab->i", onb.conj(), x).real)

        def close(r, s):
            return min(np.linalg.norm(r - s), np.linalg.norm(r + s)) < 1e-7

        spaces = [np.zeros(1)] + list(data.roots)
        report = verify_bracket_pattern(data)
        for ia, va in enumerate(data.space_bases):
            for ib, vb in enumerate(data.space_bases[ia:], start=ia):
                ra, rb = spaces[ia], spaces[ib]
                for key, allowed in (("residuals", (ra + rb, ra - rb)),
                                     ("residuals_sum_only", (ra + rb,))):
                    proj = np.hstack([np.zeros((len(onb), 0))] + [
                        v for r, v in zip(spaces, data.space_bases)
                        if any(close(r, s) for s in allowed)])
                    worst = 0.0
                    for x in va.T:
                        for y in vb.T:
                            z = coeffs(bracket(np.tensordot(x, onb, 1),
                                               np.tensordot(y, onb, 1)))
                            worst = max(worst, np.linalg.norm(z - proj @ (proj.T @ z)))
                    assert abs(report[key][ia, ib] - worst) < 1e-12

    def test_disallowed_bracket_fails_at_its_pair(self):
        # mutation: [x, y] = -[y, x] gains weight eps in g_beta for x in g_0
        # and y in g_alpha, where only g_alpha is allowed
        data = restricted_root_decomposition("su3", "conj")
        x, y, z = (data.space_bases[i][:, 0] for i in (0, 1, 2))
        eps = 1e-6
        bump = eps * np.einsum("i,j,k->ijk", x, y, z)
        bumped = replace(data, structure=data.structure + bump - bump.transpose(1, 0, 2))
        before, after = verify_bracket_pattern(data), verify_bracket_pattern(bumped)
        assert before["passed"] and not after["passed"]
        assert after["residuals"][0, 1] == pytest.approx(eps, abs=1e-12)
        assert after["max_residual"] == after["residuals"][0, 1]
        untouched = np.ones(before["residuals"].shape, dtype=bool)
        untouched[[0, 1], [1, 0]] = False
        assert np.max(np.abs(after["residuals"] - before["residuals"])[untouched]) < 1e-14

    def test_runtime_budget(self):
        t0 = time.time()
        for name in ("su2", "su3"):
            data = restricted_root_decomposition(name, "conj")
            verify_bracket_pattern(data)
        assert time.time() - t0 < 5.0


@pytest.fixture(scope="module")
def su12():
    """su12 and the seconds its load took, loaded once for the tests below."""
    t0 = time.perf_counter()
    alg = load_algebra("su12")
    return alg, time.perf_counter() - t0


class TestBoundedWork:
    @pytest.mark.parametrize("alg,theta,n", [("su4", "conj", 4), ("so5", "ad_diag", 5)])
    def test_one_bracket_stack_per_report(self, monkeypatch, alg, theta, n):
        # theta, a and the root spaces are checked through the structure
        # constants; the one matrix bracket is load_algebra's stack
        shapes = []

        def counted(x, y):
            shapes.append(np.broadcast_shapes(x.shape, y.shape))
            return bracket(x, y)

        monkeypatch.setattr(algebras, "bracket", counted)
        assert "bracket" not in vars(roots)
        data = restricted_root_decomposition(alg, theta)
        verify_bracket_pattern(data)
        assert shapes == [(data.dim, data.dim, n, n)]

    def test_su12_roots_within_budget(self, capsys, monkeypatch, su12):
        # loading su12 alone took 18 s with a Jacobi check per basis element
        alg, load_s = su12
        monkeypatch.setattr(roots, "load_algebra", lambda name: alg)
        t0 = time.perf_counter()
        code = main(["roots", "--algebra", "su12"])
        assert load_s + time.perf_counter() - t0 < 10.0
        assert code == 0 and capsys.readouterr().err == ""

    def test_su12_bracket_pattern_memory(self, su12):
        # cv, the structure constants in the space basis V, is the largest
        # array the pattern needs; no table with both a space-triple and a
        # rank axis, nor per-pair copies of cv, fits beside it
        data = restricted_root_decomposition(su12[0], "conj")
        cv_bytes = data.dim ** 3 * 8
        tracemalloc.start()
        try:
            report = verify_bracket_pattern(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["passed"]
        assert peak < 4 * cv_bytes
