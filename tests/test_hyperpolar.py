import numpy as np
import pytest
from scipy.linalg import expm

from focalis.errors import ValidationError
from focalis.hyperpolar import section_orthogonality_check
from focalis.roots import restricted_root_decomposition


class TestSectionOrthogonality:
    def test_su2_diagonal_subgroup(self):
        report = section_orthogonality_check("su2", "ad_diag", n_samples=25, seed=0)
        assert report["passed"]
        assert report["max_orthogonality_residual"] < 1e-10
        assert report["flatness_residual"] < 1e-12
        assert report["section_dim"] == 1
        assert report["subgroup_dim"] == 1

    def test_su3_real_subgroup(self):
        report = section_orthogonality_check("su3", "conj", n_samples=25, seed=0)
        assert report["passed"]
        assert report["max_orthogonality_residual"] < 1e-8
        assert report["flatness_residual"] < 1e-12
        assert report["section_dim"] == 2
        assert report["subgroup_dim"] == 3  # so(3) inside su(3)

    def test_report_metadata(self):
        report = section_orthogonality_check("su2", "conj", n_samples=5, seed=3)
        assert report["algebra"] == "su2"
        assert report["involution"] == "conj"
        assert report["n_samples"] == 5

    def test_seed_independence_of_verdict(self):
        r1 = section_orthogonality_check("su3", "conj", n_samples=10, seed=1)
        r2 = section_orthogonality_check("su3", "conj", n_samples=10, seed=42)
        assert r1["passed"] and r2["passed"]
        assert r1["section_dim"] == r2["section_dim"]

    def test_trivial_pair_rejected(self):
        # conjugation by -id fixes everything: no section to test
        with pytest.raises(ValidationError):
            section_orthogonality_check("su2", "ad_diag_0")

    def test_residual_scale_invariance(self):
        # the reported residual is normalized by the section basis scale
        report = section_orthogonality_check("su2", "ad_diag", n_samples=10, seed=2)
        assert np.isfinite(report["max_orthogonality_residual"])
        assert report["max_orthogonality_residual"] >= 0.0

    def test_no_samples_rejected(self):
        with pytest.raises(ValidationError):
            section_orthogonality_check("su3", "conj", n_samples=0)

    def test_matches_orbit_direction_loop(self):
        # reference: the orbit direction X - g Y g^-1 paired with every A
        report = section_orthogonality_check("su3", "ad_diag", n_samples=4, seed=5)
        data = restricted_root_decomposition("su3", "ad_diag", seed=12)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(4):
            h = sum(c * a for c, a in zip(rng.normal(size=len(data.a_basis)), data.a_basis))
            g = expm(h)
            for x in data.k_basis:
                for y in data.k_basis:
                    orbit = x - g @ y @ np.conj(g.T)
                    for a in data.a_basis:
                        worst = max(worst, abs(np.sum(np.conj(orbit) * a).real))
        norm = max(np.linalg.norm(a) for a in data.a_basis)
        assert abs(report["max_orthogonality_residual"] - worst / norm) < 1e-14
