from dataclasses import replace

import numpy as np
import pytest

from focalis.algebras import _verify, bracket, load_algebra
from focalis.errors import ValidationError


def inner(alg, x, y):
    """(-1)-multiple of the Killing form, evaluated on matrices."""
    return float(alg.coefficients(x) @ alg.gram @ alg.coefficients(y))


def orthonormal_basis(alg):
    """Basis orthonormal with respect to the (-1)-Killing inner product."""
    return list(alg.from_coefficients(np.linalg.inv(np.linalg.cholesky(alg.gram))))


def bracket_stack(alg):
    """The (dim, dim, n, n) stack of matrix brackets of the basis."""
    return bracket(alg.basis[:, None], alg.basis[None])


def levi_civita():
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    return eps


class TestLoadAlgebra:
    def test_su2_structure_constants(self):
        alg = load_algebra("su2")
        assert alg.dim == 3
        assert np.max(np.abs(alg.structure + levi_civita())) < 1e-12

    def test_so3_isomorphic_to_su2(self):
        alg = load_algebra("so3")
        # so3 basis from _so_basis: L_01, L_02, L_12; signs differ from the
        # epsilon convention but |c| matches and the Killing gram is 2*id
        c = alg.structure
        assert alg.dim == 3
        assert np.count_nonzero(np.abs(c) > 1e-12) == 6
        assert np.max(np.abs(np.abs(c)[np.abs(c) > 1e-12] - 1.0)) < 1e-12

    def test_su3_dimension(self):
        assert load_algebra("su3").dim == 8

    def test_killing_gram_positive_definite(self):
        for name in ("su2", "so3", "su3", "so4"):
            alg = load_algebra(name)
            w = np.linalg.eigvalsh(alg.gram)
            assert np.all(w > 0)

    def test_su2_killing_diagonal(self):
        alg = load_algebra("su2")
        off = alg.gram - np.diag(np.diag(alg.gram))
        assert np.max(np.abs(off)) < 1e-12

    def test_unsupported_name(self):
        with pytest.raises(ValidationError):
            load_algebra("sp4")
        with pytest.raises(ValidationError):
            load_algebra("so2")  # abelian, Killing form degenerate

    def test_name_normalization(self):
        assert load_algebra("SU_3").name == "su3"


class TestBasisOperations:
    def test_coefficients_round_trip(self):
        alg = load_algebra("su3")
        rng = np.random.default_rng(0)
        c = rng.normal(size=alg.dim)
        x = alg.from_coefficients(c)
        assert np.max(np.abs(alg.coefficients(x) - c)) < 1e-12

    def test_orthonormal_basis(self):
        alg = load_algebra("su3")
        onb = orthonormal_basis(alg)
        for i, a in enumerate(onb):
            for j, b in enumerate(onb):
                assert inner(alg, a, b) == pytest.approx(float(i == j), abs=1e-10)

    def test_inner_ad_invariance(self):
        alg = load_algebra("su2")
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = alg.from_coefficients(rng.normal(size=3))
            y = alg.from_coefficients(rng.normal(size=3))
            z = alg.from_coefficients(rng.normal(size=3))
            r = inner(alg, bracket(x, y), z) + inner(alg, y, bracket(x, z))
            assert abs(r) < 1e-9

    def test_structure_reproduces_brackets(self):
        alg = load_algebra("so4")
        for i in range(alg.dim):
            for j in range(alg.dim):
                rec = alg.from_coefficients(alg.structure[i, j])
                assert np.max(np.abs(rec - bracket(alg.basis[i], alg.basis[j]))) < 1e-12


class TestKillingClosedForm:
    """Oracle: B(x, y) = 2n tr(xy) on su(n) and (n - 2) tr(xy) on so(n)."""

    @pytest.mark.parametrize("name,factor", [
        ("su2", 4), ("su3", 6), ("su4", 8), ("su5", 10),
        ("so3", 1), ("so4", 2), ("so5", 3), ("so6", 4), ("so7", 5), ("so8", 6)])
    def test_gram_matches_trace_form(self, name, factor):
        alg = load_algebra(name)
        tr = np.array([[np.trace(a @ b).real for b in alg.basis] for a in alg.basis])
        assert np.max(np.abs(alg.gram + factor * tr)) < 1e-13


class TestVerifyMutations:
    """Each defect injected into a valid algebra must be caught by its check."""

    @pytest.fixture
    def alg(self):
        return load_algebra("su3")

    def test_one_structure_constant_off(self, alg):
        c = alg.structure.copy()
        c[0, 1, 2] += 1e-9
        with pytest.raises(ValidationError, match="reproduce brackets"):
            _verify(replace(alg, structure=c), bracket_stack(alg))

    def test_not_antisymmetric(self, alg):
        c = alg.structure.copy()
        c[2, 3, 4] += 1e-10
        with pytest.raises(ValidationError):
            _verify(replace(alg, structure=c), bracket_stack(alg))
        # a stack that c reproduces exactly leaves only the antisymmetry check to see it
        with pytest.raises(ValidationError, match="antisymmetric"):
            _verify(replace(alg, structure=c), np.tensordot(c, alg.basis, axes=1))

    def test_jacobi_violated(self, alg):
        # antisymmetric, so only the reproduction check can see it: the Jacobi
        # defect of c is a linear image of its reproduction residual
        c = alg.structure.copy()
        c[0, 1, 7] += 1e-10
        c[1, 0, 7] -= 1e-10
        with pytest.raises(ValidationError, match="reproduce brackets"):
            _verify(replace(alg, structure=c), bracket_stack(alg))

    def test_gram_not_ad_invariant(self, alg):
        gram = alg.gram.copy()
        gram[0, 1] += 1e-7
        gram[1, 0] += 1e-7
        with pytest.raises(ValidationError, match="ad-invariant"):
            _verify(replace(alg, gram=gram), bracket_stack(alg))

    def test_unmutated_passes(self, alg):
        _verify(alg, bracket_stack(alg))
        so8 = load_algebra("so8")
        _verify(so8, bracket_stack(so8))
