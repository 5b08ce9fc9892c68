import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from focalis import hyperpolar
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

    def test_matches_orbit_direction_loop_over_two_chunks(self):
        # the same reference, one scipy expm per sample, over two stacks of samples
        n_samples = hyperpolar._CHUNK + 3
        report = section_orthogonality_check("su3", "conj", n_samples=n_samples, seed=5)
        data = restricted_root_decomposition("su3", "conj", seed=12)
        a_mats, k_mats = data.a_basis, data.k_basis
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(n_samples):
            g = expm(np.tensordot(rng.normal(size=len(a_mats)), a_mats, axes=1))
            orbit = k_mats[:, None] - g @ k_mats[None] @ np.conj(g.T)   # (X, Y) pairs
            pairs = np.einsum("xyab,kab->xyk", np.conj(orbit), a_mats).real
            worst = max(worst, float(np.max(np.abs(pairs))))
        norm = max(np.linalg.norm(a) for a in a_mats)
        assert abs(report["max_orthogonality_residual"] - worst / norm) < 1e-14

    @pytest.mark.parametrize("algebra,theta", [("su3", "ad_diag"), ("su4", "conj")])
    def test_pairs_every_x_with_every_y(self, monkeypatch, algebra, theta):
        # with the exponential shared, the residual is the per-sample table
        # max |<X, A> - <Y, g^-1 A g>| over all X, Y in k to rounding; it sits
        # at 1e-16, so only a relative bound tells the tables apart
        exps = []
        monkeypatch.setattr(hyperpolar, "expm_antiherm",
                            lambda h: exps.append(np.stack([expm(m) for m in h])) or exps[-1])
        n_samples = hyperpolar._CHUNK + 3
        report = section_orthogonality_check(algebra, theta, n_samples=n_samples, seed=9)
        data = restricted_root_decomposition(algebra, theta, seed=16)
        a_mats, k_mats = data.a_basis, data.k_basis
        xa = np.einsum("iab,jab->ij", np.conj(k_mats), a_mats).real
        worst = 0.0
        for g in np.concatenate(exps):
            ya = np.einsum("iab,jab->ij", np.conj(k_mats), np.conj(g.T) @ a_mats @ g).real
            worst = max(worst, float(np.max(np.abs(xa[:, None, :] - ya[None, :, :]))))
        norm = max(np.linalg.norm(a) for a in a_mats)
        assert len(exps) == 2 and worst > 0.0
        got = report["max_orthogonality_residual"]
        assert got == pytest.approx(worst / norm, rel=1e-9, abs=0.0)

    def test_samples_are_exponentiated_one_chunk_at_a_time(self):
        # all 10,000 samples of su8 as one stack peaked at 161 MB, against 21 MB
        # for 25 samples
        def peak(n_samples):
            tracemalloc.start()
            try:
                rank = section_orthogonality_check("su8", "conj", n_samples)["section_dim"]
                return tracemalloc.get_traced_memory()[1], rank
            finally:
                tracemalloc.stop()
        (small, rank), (large, _) = peak(25), peak(hyperpolar.MAX_SAMPLES)
        assert large <= small + hyperpolar._CHUNK * rank * 8 * 8 * 16  # a (chunk, rank, 8, 8) stack
