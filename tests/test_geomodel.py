import tracemalloc

import numpy as np
import pytest

from focalis import focal, geomodel
from focalis.errors import ValidationError
from focalis.focal import Window
from focalis.geomodel import (MAX_FRAME_ENTRIES, ModelSubmanifold, SphereProductConfig,
                              _sample_points, build_model, curvature_adapted_check,
                              default_config, dense_operators, eigen_grid_of,
                              eigen_grids, trace_closed_form)
from focalis.spectral import SpectralData


def sample_point(cfg, rng):
    """One seeded point: the next draw of _sample_points."""
    return _sample_points(cfg, rng, 1)[0]


def random_normal_vector(model, point_index, rng):
    basis = model.normal_bases[point_index]
    return basis @ rng.normal(size=basis.shape[1])


def constraint_residual(cfg: SphereProductConfig, x: np.ndarray) -> float:
    """Max violation of the defining constraints at an ambient point."""
    res = 0.0
    heights = cfg.heights()
    for k, (m, r) in enumerate(cfg.blocks):
        idx = cfg.block_even_indices(k)
        res = max(res, abs(np.linalg.norm(x[idx]) - r))
        if k < cfg.k1:
            res = max(res, abs(x[idx[-1]] - heights[k]))
    for j in cfg.frozen_odd_indices():
        res = max(res, abs(x[j]))
    # the even slots beyond the blocks stay zero
    for i in range(2 * sum(m for m, _ in cfg.blocks) + 1, 2 * (cfg.ambient_dim // 2), 2):
        res = max(res, abs(x[i]))
    return res


def ambient_curvature(cfg: SphereProductConfig, w: np.ndarray,
                      v: np.ndarray) -> np.ndarray:
    """Blockwise round-sphere curvature R(w, v)v of the ambient product."""
    out = np.zeros_like(w)
    for k, (m, r) in enumerate(cfg.blocks):
        idx = cfg.block_even_indices(k)
        wk, vk = w[idx], v[idx]
        out[idx] = ((vk @ vk) * wk - (wk @ vk) * vk) / r ** 2
    return out


def sample_point_loop(cfg, rng):
    """Per-point reference for the stacked sampler: one draw per block."""
    x = np.zeros(cfg.ambient_dim)
    heights = cfg.heights()
    for k, (m, r) in enumerate(cfg.blocks):
        idx = cfg.block_even_indices(k)
        if k < cfg.k1:
            v = rng.normal(size=m - 1)
            v *= cfg.rprime[k] / np.linalg.norm(v)
            x[idx[:-1]] = v
            x[idx[-1]] = heights[k]
        else:
            v = rng.normal(size=m)
            v *= r / np.linalg.norm(v)
            x[idx] = v
    free_odd = cfg.free_odd_indices()
    x[free_odd] = 0.3 * rng.normal(size=len(free_odd))
    return x


def eigen_grid_loop(model, pi, xi):
    """Per-point reference for the stacked eigen grids: a normality check,
    <xi, nu_j> and one small SVD rank per constrained block."""
    cfg = model.config
    t, n = model.tangent_bases[pi], model.normal_bases[pi]
    bound = 1e-9 * (1.0 + np.linalg.norm(xi))
    if np.linalg.norm(xi - n @ (n.T @ xi)) > bound or np.linalg.norm(t.T @ xi) > bound:
        raise ValidationError("not a normal vector")
    comps = n[:, : cfg.k1].T @ xi
    dims = [np.linalg.matrix_rank(t[cfg.block_even_indices(j), :], tol=1e-9)
            for j in range(cfg.k1)]
    rows = [(float(c ** 2 / r ** 2), float(np.sqrt(1.0 / rp ** 2 - 1.0 / r ** 2) * c), int(d))
            for (_, r), rp, c, d in zip(cfg.blocks, cfg.rprime, comps, dims) if d > 0]
    if t.shape[1] > sum(dims):
        rows.append((0.0, 0.0, t.shape[1] - int(sum(dims))))
    return focal.EigenGrid(tuple(rows), label=f"x{pi}")


def circle_config():
    # one 3-slot block, slice radius 1/sqrt(2): a circle inside S^2(1)
    return SphereProductConfig(blocks=((3, 1.0),), k1=1,
                               rprime=(1.0 / np.sqrt(2.0),), k2=0, ambient_dim=8)


def two_block_config():
    return SphereProductConfig(blocks=((4, 1.0), (3, 0.7)), k1=2,
                               rprime=(0.8, 0.5), k2=1, ambient_dim=20)


def mixed_config(ambient_dim=64):
    # two unconstrained blocks (k1 < n_blocks), a 2-slot block, no frozen slot
    return SphereProductConfig(blocks=((5, 1.2), (2, 0.9), (4, 0.7), (3, 0.4)),
                               k1=2, rprime=(0.6, 0.5), k2=0,
                               ambient_dim=ambient_dim)


def default_at(ambient_dim):
    cfg = default_config()
    return SphereProductConfig(blocks=cfg.blocks, k1=cfg.k1, rprime=cfg.rprime,
                               k2=cfg.k2, ambient_dim=ambient_dim)


def frames_per_point(cfg, x):
    """Per-point reference frames: full-length columns, one small QR per block."""
    N = cfg.ambient_dim
    m_normals = []
    for k in range(cfg.k1):
        idx = cfg.block_even_indices(k)
        radial = np.zeros(N)
        radial[idx] = x[idx] / np.linalg.norm(x[idx])
        e_h = np.zeros(N)
        e_h[idx[-1]] = 1.0
        nu = e_h - (e_h @ radial) * radial
        m_normals.append(nu / np.linalg.norm(nu))
    for j in cfg.frozen_odd_indices():
        e = np.zeros(N)
        e[j] = 1.0
        m_normals.append(e)
    normal = np.stack(m_normals, axis=1) if m_normals else np.zeros((N, 0))
    tangent_cols = []
    for k in range(cfg.n_blocks):
        idx = cfg.block_even_indices(k)
        m = len(idx)
        radial = x[idx] / np.linalg.norm(x[idx])
        if k < cfg.k1:
            killed = np.stack([radial, np.eye(m)[-1]], axis=1)
        else:
            killed = radial[:, None]
        q, _ = np.linalg.qr(killed, mode="complete")
        for a in range(killed.shape[1], m):
            col = np.zeros(N)
            col[idx] = q[:, a]
            tangent_cols.append(col)
    for j in cfg.free_odd_indices():
        col = np.zeros(N)
        col[j] = 1.0
        tangent_cols.append(col)
    tangent = np.stack(tangent_cols, axis=1) if tangent_cols else np.zeros((N, 0))
    return tangent, normal


def dense_operators_per_column(model, pi, xi):
    """Per-column reference: ambient_curvature on each tangent column, and the
    shape operator from one least-squares solve over every constraint gradient."""
    cfg = model.config
    x = model.points[pi]
    t = model.tangent_bases[pi]
    d = t.shape[1]
    jac = np.empty((d, d))
    for a in range(d):
        jac[:, a] = t.T @ ambient_curvature(cfg, t[:, a], xi)
    grads, hess_blocks = [], []
    for k in range(cfg.n_blocks):
        idx = cfg.block_even_indices(k)
        g = np.zeros(cfg.ambient_dim)
        g[idx] = 2.0 * x[idx]
        grads.append(g)
        hess_blocks.append(idx)
        if k < cfg.k1:
            e = np.zeros(cfg.ambient_dim)
            e[idx[-1]] = 1.0
            grads.append(e)
            hess_blocks.append(None)
    free_even = range(2 * sum(m for m, _ in cfg.blocks) + 1, 2 * (cfg.ambient_dim // 2), 2)
    for j in list(cfg.frozen_odd_indices()) + list(free_even):
        e = np.zeros(cfg.ambient_dim)
        e[j] = 1.0
        grads.append(e)
        hess_blocks.append(None)
    coef, *_ = np.linalg.lstsq(np.stack(grads, axis=1), xi, rcond=None)
    shape = np.zeros((d, d))
    for c, idx in zip(coef, hess_blocks):
        if idx is not None:
            shape -= 2.0 * c * (t[idx, :].T @ t[idx, :])
    return jac, shape


class TestConfig:
    def test_infeasible_rprime(self):
        with pytest.raises(ValidationError):
            SphereProductConfig(blocks=((3, 1.0),), k1=1, rprime=(1.5,),
                                k2=0, ambient_dim=8)

    @pytest.mark.parametrize("blocks,rprime", [
        (((2, 1e300), (3, 1.0)), ()), (((2, 1e-300), (3, 1.0)), ()),
        (((2, 1.0), (3, 1.0)), (1e-300,)), (((2, 1.0), (3, 1.0)), (5e-324,)),
        (((2, 2.0 ** 251), (3, 1.0)), (0.5,))])
    def test_radii_beyond_the_float_range_of_their_fourth_powers(self, blocks, rprime):
        # the frames and operators of such radii overflowed or divided by zero
        with pytest.raises(ValidationError, match=r"2\*\*-250"):
            SphereProductConfig(blocks=blocks, k1=len(rprime), rprime=rprime,
                                k2=1, ambient_dim=12)

    def test_radii_at_the_range_ends_are_kept(self):
        cfg = SphereProductConfig(blocks=((2, 2.0 ** 250), (3, 2.0 ** -249)), k1=2,
                                  rprime=(2.0 ** -250, 2.0 ** -250), k2=1, ambient_dim=12)
        model, rng = build_model(cfg, 3, seed=0), np.random.default_rng(1)
        xis = np.stack([random_normal_vector(model, pi, rng) for pi in range(3)])
        assert all(np.isfinite(g.lam_a).all() for g in eigen_grids(model, xis))

    def test_too_small_ambient(self):
        with pytest.raises(ValidationError):
            SphereProductConfig(blocks=((10, 1.0),), k1=0, rprime=(),
                                k2=0, ambient_dim=8)

    def test_heights(self):
        cfg = circle_config()
        assert cfg.heights()[0] == pytest.approx(1.0 / np.sqrt(2.0))

    def test_default_is_valid(self):
        cfg = default_config()
        assert cfg.n_blocks == 4 and cfg.ambient_dim == 64


class TestBuildModel:
    def test_circle_points(self):
        model = build_model(circle_config(), 10, seed=0)
        idx = circle_config().block_even_indices(0)
        for x in model.points:
            assert np.linalg.norm(x[idx[:-1]]) == pytest.approx(1.0 / np.sqrt(2.0))
            assert x[idx[-1]] == pytest.approx(1.0 / np.sqrt(2.0))

    def test_constraints_satisfied(self):
        model = build_model(default_config(), 20, seed=1)
        for x in model.points:
            assert constraint_residual(model.config, x) < 1e-12

    def test_frame_ranks_partition_manifold_dims(self):
        cfg = two_block_config()
        model = build_model(cfg, 5, seed=2)
        # ambient manifold dim: sum (m_k - 1) over blocks + odd slots
        manifold_dim = sum(m - 1 for m, _ in cfg.blocks) + len(cfg.odd_indices())
        assert model.tangent_dim + model.normal_dim == manifold_dim

    def test_frames_orthonormal_and_complementary(self):
        model = build_model(two_block_config(), 5, seed=3)
        for t, n in zip(model.tangent_bases, model.normal_bases):
            assert np.allclose(t.T @ t, np.eye(t.shape[1]), atol=1e-12)
            assert np.allclose(n.T @ n, np.eye(n.shape[1]), atol=1e-12)
            assert np.max(np.abs(t.T @ n)) < 1e-12

    def test_seeded_determinism(self):
        a = build_model(default_config(), 4, seed=9)
        b = build_model(default_config(), 4, seed=9)
        assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("cfg", [default_config(), mixed_config(),
                                     two_block_config(), circle_config()])
    def test_points_are_sequential_draws(self, cfg):
        model = build_model(cfg, 7, seed=21)
        rng = np.random.default_rng(21)
        draws = np.stack([sample_point(cfg, rng) for _ in range(7)])
        assert np.array_equal(model.points, draws)

    @pytest.mark.parametrize("cfg", [default_config(), mixed_config(),
                                     two_block_config(), circle_config(),
                                     default_at(512)])
    def test_batched_frames_match_per_point(self, cfg):
        model = build_model(cfg, 6, seed=22)
        for x, t, n in zip(model.points, model.tangent_bases, model.normal_bases):
            t_ref, n_ref = frames_per_point(cfg, x)
            assert t.shape == t_ref.shape and n.shape == n_ref.shape
            assert np.max(np.abs(t - t_ref)) < 1e-13
            assert np.max(np.abs(n - n_ref), initial=0.0) < 1e-13

    @pytest.mark.parametrize("cfg", [default_config(), mixed_config(), circle_config(),
                                     default_at(512)])
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_stacked_draws_match_per_point_loop(self, cfg, seed):
        model = build_model(cfg, 9, seed=seed)
        rng = np.random.default_rng(seed)
        draws = np.stack([sample_point_loop(cfg, rng) for _ in range(9)])
        assert np.array_equal(model.points, draws)

    @pytest.mark.parametrize("cfg", [default_config(), mixed_config(), two_block_config(),
                                     circle_config(), default_at(512)])
    def test_frame_dims_count_the_frames(self, cfg):
        model = build_model(cfg, 2, seed=3)
        assert geomodel._frame_dims(cfg) == (model.tangent_dim, model.normal_dim)

    def test_model_beyond_frame_cap_allocates_nothing(self):
        cfg = default_at(512)
        per_point = cfg.ambient_dim * sum(geomodel._frame_dims(cfg))
        assert 100 * per_point <= MAX_FRAME_ENTRIES     # the workload models fit
        assert 5 * 2000 * sum(geomodel._frame_dims(default_at(2000))) <= MAX_FRAME_ENTRIES
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="frame entries"):
                build_model(cfg, MAX_FRAME_ENTRIES // per_point + 1, seed=0)
            with pytest.raises(ValidationError, match="frame entries"):
                build_model(default_at(10 ** 12), 1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n_points", [0, -3])
    def test_no_points_rejected(self, n_points):
        with pytest.raises(ValidationError):
            build_model(default_config(), n_points, seed=0)

    def test_block_index_table(self):
        cfg = mixed_config()
        start = 0
        for k, (m, _) in enumerate(cfg.blocks):
            idx = cfg.block_even_indices(k)
            assert idx.tolist() == [2 * i - 1 for i in range(start + 1, start + m + 1)]
            assert not idx.flags.writeable
            start += m


class TestOperators:
    def test_purely_odd_normal_is_flat(self):
        cfg = two_block_config()
        model = build_model(cfg, 3, seed=4)
        xi = np.zeros(cfg.ambient_dim)
        xi[cfg.frozen_odd_indices()[0]] = 1.3
        grid = eigen_grid_of(model, 0, xi)
        spec = SpectralData.from_eigenvalues(grid.lam_r, mults=grid.mult)
        assert spec.rank == 0
        assert grid.pairs == ((0.0, 0.0, model.tangent_dim),)

    def test_circle_block_eigenvalues(self):
        cfg = circle_config()
        model = build_model(cfg, 3, seed=5)
        nb = model.normal_bases[0]
        # block normal with unit even part
        xi = nb[:, 0]
        rows = eigen_grid_of(model, 0, xi).pairs
        block = [row for row in rows if row[0] > 1e-12]
        assert len(block) == 1
        lam_r, lam_a, mult = block[0]
        assert lam_r == pytest.approx(1.0, abs=1e-12)       # |xi_1|^2 / r^2
        assert abs(lam_a) == pytest.approx(1.0, abs=1e-12)  # sqrt(2 - 1) * 1
        assert mult == 1                                     # circle tangent

    def test_nonnormal_xi_rejected(self):
        model = build_model(two_block_config(), 2, seed=6)
        xi = model.tangent_bases[0][:, 0]
        with pytest.raises(ValidationError):
            eigen_grid_of(model, 0, xi).shape_spectrum()

    def test_grid_multiplicities_partition_tangent(self):
        model = build_model(default_config(), 4, seed=7)
        rng = np.random.default_rng(8)
        for pi in range(4):
            xi = random_normal_vector(model, pi, rng)
            grid = eigen_grid_of(model, pi, xi)
            assert sum(m for _, _, m in grid.pairs) == model.tangent_dim

    def test_spectra_depend_only_on_block_norms(self):
        model = build_model(default_config(), 6, seed=10)
        cfg = model.config
        coeffs = np.array([0.7, -0.3, 1.1, 0.4])
        rows = []
        for pi in range(6):
            xi = model.normal_bases[pi][:, : cfg.k1] @ coeffs
            rows.append(np.array(eigen_grid_of(model, pi, xi).pairs))
        for r in rows[1:]:
            assert r.shape == rows[0].shape
            assert np.max(np.abs(r - rows[0])) < 1e-12


class TestStackedEigenGrids:
    @pytest.mark.parametrize("cfg", [default_config(), mixed_config(), two_block_config(),
                                     circle_config(), default_at(512)])
    def test_match_per_point_loop(self, cfg):
        model = build_model(cfg, 6, seed=30)
        rng = np.random.default_rng(31)
        xis = np.stack([random_normal_vector(model, pi, rng) for pi in range(6)])
        grids = eigen_grids(model, xis)
        for pi, grid in enumerate(grids):
            ref = eigen_grid_loop(model, pi, xis[pi])
            assert grid.label == ref.label == f"x{pi}"
            assert [m for *_, m in grid.pairs] == [m for *_, m in ref.pairs]
            got, want = np.array(grid.pairs)[:, :2], np.array(ref.pairs)[:, :2]
            assert np.all(np.abs(got - want) <= 1e-15 * (1.0 + np.abs(want)))
            one = eigen_grid_of(model, pi, xis[pi])
            assert one.pairs == grid.pairs and one.label == grid.label

    @pytest.mark.parametrize("bad", ["tangent", "outside", "nan"])
    def test_one_bad_normal_refuses_the_stack(self, bad):
        model = build_model(two_block_config(), 4, seed=32)
        rng = np.random.default_rng(33)
        xis = np.stack([random_normal_vector(model, pi, rng) for pi in range(4)])
        if bad == "tangent":
            xis[2] += 1e-3 * model.tangent_bases[2][:, 0]
        elif bad == "outside":
            xis[2, model.config.block_even_indices(0)[0]] += 1e-3 * (1.0 + xis[2, 0])
        else:
            xis[2, 0] = np.nan
        with pytest.raises(ValidationError):
            eigen_grids(model, xis)
        with pytest.raises(ValidationError):
            eigen_grid_of(model, 2, xis[2])


def dense_commutator_norm(jac, shape):
    return float(np.linalg.norm(jac @ shape - shape @ jac))


def rotated_model(cfg, n_points, seed):
    """The model with each point's block tangent directions and normals
    rotated into one another, the flat odd directions kept: the operator
    pair then no longer commutes, by a margin of the operators' size."""
    model = build_model(cfg, n_points, seed=seed)
    rng = np.random.default_rng(seed + 1)
    d_blocks = sum(m - 1 for m, _ in cfg.blocks) - cfg.k1
    tangent, normal = model.tangent_bases.copy(), model.normal_bases.copy()
    for t, n in zip(tangent, normal):
        q, _ = np.linalg.qr(rng.normal(size=(d_blocks + n.shape[1],) * 2))
        rotated = np.hstack([t[:, :d_blocks], n]) @ q
        t[:, :d_blocks], n[:] = rotated[:, :d_blocks], rotated[:, d_blocks:]
    return ModelSubmanifold(cfg, model.points, tangent, normal)


class TestFactoredCommutator:
    @pytest.mark.parametrize("cfg", [default_config(), mixed_config(), two_block_config(),
                                     default_at(512)])
    def test_matches_dense_on_rotated_frames(self, cfg):
        model = rotated_model(cfg, 3, seed=34)
        rng = np.random.default_rng(35)
        pis = np.array([0, 2, 1, 2])
        xis = np.stack([random_normal_vector(model, pi, rng) for pi in pis])
        norms = geomodel._commutator_norms(model, pis, xis[:, geomodel._block_rows(cfg)])
        for pi, xi, got in zip(pis, xis, norms):
            jac, shape = dense_operators_per_column(model, pi, xi)
            want = dense_commutator_norm(jac, shape)
            assert want > 0.1 * np.linalg.norm(jac) * np.linalg.norm(shape) / len(jac)
            assert abs(got - want) <= 1e-12 * want

    def test_perturbed_block_weights_fail_the_check(self, monkeypatch):
        # negative control: Jacobi and shape weights that vary inside a block,
        # each in its own way, break the commutation, and the check says so
        model = build_model(default_config(), 4, seed=36)
        rng = np.random.default_rng(37)
        factors = geomodel._factors

        def perturbed(*args):
            b, m_j, m_s = factors(*args)
            slot = np.arange(m_j.shape[1])
            return b, m_j + np.sin(slot), m_s + np.cos(3.0 * slot)

        monkeypatch.setattr(geomodel, "_factors", perturbed)
        report = curvature_adapted_check(model, 20, seed=38)
        assert not report["passed"] and report["max_commutator_norm"] > 1e-3
        pis = np.array([1, 3])
        xis = np.stack([random_normal_vector(model, pi, rng) for pi in pis])
        norms = geomodel._commutator_norms(model, pis,
                                           xis[:, geomodel._block_rows(model.config)])
        for pi, xi, got in zip(pis, xis, norms):
            want = dense_commutator_norm(*dense_operators(model, pi, xi))
            assert abs(got - want) <= 1e-12 * want

    def test_model_frames_cancel_far_below_dense(self):
        model = build_model(default_config(), 10, seed=39)
        report = curvature_adapted_check(model, 50, seed=40)
        assert report["passed"] and report["max_commutator_norm"] < 1e-20

    def test_no_blocks(self):
        cfg = SphereProductConfig(blocks=(), k1=0, rprime=(), k2=1, ambient_dim=8)
        report = curvature_adapted_check(build_model(cfg, 2, seed=43), 3, seed=44)
        assert report["passed"] and report["max_commutator_norm"] == 0.0

    def test_chunked_trials(self, monkeypatch):
        monkeypatch.setattr(geomodel, "TRIAL_CHUNK_ENTRIES", 1)
        model = build_model(mixed_config(), 3, seed=41)
        report = curvature_adapted_check(model, 7, seed=42)
        assert report["trials"] == 7 and report["passed"]


class TestDenseAgreement:
    @pytest.mark.parametrize("cfg,n_points", [
        (default_config(), 4), (mixed_config(), 4), (two_block_config(), 3),
        (circle_config(), 3), (default_at(512), 2), (mixed_config(512), 2),
        (default_at(2000), 1)])
    def test_blockwise_matches_per_column(self, cfg, n_points):
        model = build_model(cfg, n_points, seed=23)
        rng = np.random.default_rng(24)
        for pi in range(n_points):
            xi = random_normal_vector(model, pi, rng)
            jac, shape = dense_operators(model, pi, xi)
            jac_ref, shape_ref = dense_operators_per_column(model, pi, xi)
            assert np.max(np.abs(jac - jac_ref)) < 1e-13
            assert np.max(np.abs(shape - shape_ref)) < 1e-13

    @pytest.mark.parametrize("cfg", [default_config(), mixed_config(), default_at(512)])
    def test_blockwise_matches_per_column_on_rotated_frames(self, cfg):
        # On the model's own frames T_k^T xi_k vanishes for every normal xi, so
        # the curvature's outer-product term is only seen on a frame pair that
        # mixes tangent and normal directions of the ambient product.
        model = build_model(cfg, 2, seed=27)
        rng = np.random.default_rng(28)
        d = model.tangent_dim
        tangent, normal = [], []
        for t, n in zip(model.tangent_bases, model.normal_bases):
            q, _ = np.linalg.qr(rng.normal(size=(d + n.shape[1],) * 2))
            rotated = np.hstack([t, n]) @ q
            tangent.append(rotated[:, :d])
            normal.append(rotated[:, d:])
        mixed = ModelSubmanifold(cfg, model.points, np.stack(tangent), np.stack(normal))
        for pi in range(2):
            xi = random_normal_vector(mixed, pi, rng)
            jac, shape = dense_operators(mixed, pi, xi)
            jac_ref, shape_ref = dense_operators_per_column(mixed, pi, xi)
            assert np.max(np.abs(jac - jac_ref)) < 1e-13
            assert np.max(np.abs(shape - shape_ref)) < 1e-13

    def test_zero_trials_rejected(self):
        model = build_model(default_config(), 2, seed=25)
        with pytest.raises(ValidationError):
            curvature_adapted_check(model, 0, seed=26)

    def test_spectra_match_block_formulas(self):
        model = build_model(default_config(), 3, seed=11)
        rng = np.random.default_rng(12)
        for pi in range(3):
            xi = random_normal_vector(model, pi, rng)
            jac, shape = dense_operators(model, pi, xi)
            rows = eigen_grid_of(model, pi, xi).pairs
            mults = [m for _, _, m in rows]
            jr = np.sort(np.repeat([lr for lr, _, _ in rows], mults))
            ja = np.sort(np.repeat([la for _, la, _ in rows], mults))
            assert np.max(np.abs(np.sort(np.linalg.eigvalsh(jac)) - jr)) < 1e-10
            assert np.max(np.abs(np.sort(np.linalg.eigvalsh(shape)) - ja)) < 1e-10

    def test_commutators_vanish(self):
        model = build_model(default_config(), 10, seed=13)
        report = curvature_adapted_check(model, 30, seed=14)
        assert report["passed"]
        assert report["max_commutator_norm"] < 1e-10

    def test_commutator_negative_control(self):
        model = build_model(default_config(), 1, seed=15)
        rng = np.random.default_rng(16)
        xi = random_normal_vector(model, 0, rng)
        jac, shape = dense_operators(model, 0, xi)
        p = rng.normal(size=shape.shape)
        shape_bad = shape + 0.1 * (p + p.T)
        comm = jac @ shape_bad - shape_bad @ jac
        assert np.linalg.norm(comm) > 1e-3


class TestAmbientCurvature:
    def test_self_direction_vanishes(self):
        cfg = two_block_config()
        v = np.zeros(cfg.ambient_dim)
        idx = cfg.block_even_indices(0)
        v[idx] = np.arange(1, len(idx) + 1, dtype=float)
        assert np.max(np.abs(ambient_curvature(cfg, v, v))) < 1e-14

    def test_orthonormal_pair(self):
        cfg = two_block_config()
        idx = cfg.block_even_indices(1)
        v = np.zeros(cfg.ambient_dim)
        w = np.zeros(cfg.ambient_dim)
        v[idx[0]], w[idx[1]] = 1.0, 1.0
        out = ambient_curvature(cfg, w, v)
        assert out[idx[1]] == pytest.approx(1.0 / 0.7 ** 2)
        out[idx[1]] = 0.0
        assert np.max(np.abs(out)) < 1e-14

    def test_finite_difference_riemann(self):
        # chart-based FD Riemann tensor of S^2(1) x S^2(0.7), tolerance 1e-4
        cfg = SphereProductConfig(blocks=((3, 1.0), (3, 0.7)), k1=0, rprime=(),
                                  k2=0, ambient_dim=12)
        radii = [r for _, r in cfg.blocks]

        def embed(u):
            # u = (theta1, phi1, theta2, phi2), spherical chart per block
            x = np.zeros(cfg.ambient_dim)
            for b in range(2):
                th, ph = u[2 * b], u[2 * b + 1]
                r = radii[b]
                idx = cfg.block_even_indices(b)
                x[idx] = r * np.array([np.sin(th) * np.cos(ph),
                                       np.sin(th) * np.sin(ph), np.cos(th)])
            return x

        h = 1e-3

        def jacobian(u):
            cols = []
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                cols.append((embed(u + e) - embed(u - e)) / (2 * h))
            return np.stack(cols, axis=1)

        def metric(u):
            j = jacobian(u)
            return j.T @ j

        def christoffel(u):
            g = metric(u)
            ginv = np.linalg.inv(g)
            dg = np.zeros((4, 4, 4))
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                dg[i] = (metric(u + e) - metric(u - e)) / (2 * h)
            gamma = np.zeros((4, 4, 4))
            for l in range(4):
                for j in range(4):
                    for k in range(4):
                        gamma[l, j, k] = 0.5 * np.sum(
                            ginv[l] * (dg[j, :, k] + dg[k, :, j] - dg[:, j, k]))
            return gamma

        u0 = np.array([1.1, 0.6, 0.9, -0.4])
        dgamma = np.zeros((4, 4, 4, 4))
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            dgamma[i] = (christoffel(u0 + e) - christoffel(u0 - e)) / (2 * h)
        gamma = christoffel(u0)
        # R^l_{ikj} w^i v^k v^j  (convention matching R(w, v)v)
        riem = np.zeros((4, 4, 4, 4))
        for l in range(4):
            for i in range(4):
                for k in range(4):
                    for j in range(4):
                        riem[l, i, k, j] = (dgamma[k, l, i, j] - dgamma[i, l, k, j]
                                            + np.sum(gamma[:, i, j] * gamma[l, k, :])
                                            - np.sum(gamma[:, k, j] * gamma[l, i, :]))
        rng = np.random.default_rng(17)
        jmat = jacobian(u0)
        for _ in range(5):
            wc = rng.normal(size=4)
            vc = rng.normal(size=4)
            chart = np.einsum("likj,k,i,j->l", riem, wc, vc, vc)
            amb = ambient_curvature(cfg, jmat @ wc, jmat @ vc)
            pulled, *_ = np.linalg.lstsq(jmat, amb, rcond=None)
            assert np.max(np.abs(chart - pulled)) < 1e-4


class TestFocalAgainstMatrixJacobi:
    def test_det_sign_changes_match(self):
        # dense matrix Jacobi system on a small 2-block model
        cfg = two_block_config()
        model = build_model(cfg, 1, seed=18)
        rng = np.random.default_rng(19)
        xi = random_normal_vector(model, 0, rng)
        grid = eigen_grid_of(model, 0, xi)
        window = Window(0.05, 4.0)
        radii = focal.focal_set(grid, window).radii
        jac, shape = dense_operators(model, 0, xi)
        d = jac.shape[0]

        def q_and_det(n_steps=8000):
            # RK4 on Q'' = -jac Q, Q(0)=I, Q'(0)=-shape; track det sign changes
            hstep = 4.0 / n_steps
            q = np.eye(d)
            qp = -shape.copy()
            dets = [np.linalg.det(q)]
            ss = [0.0]
            for k in range(n_steps):
                def f(state):
                    a, b = state
                    return (b, -jac @ a)
                k1 = f((q, qp))
                k2 = f((q + 0.5 * hstep * k1[0], qp + 0.5 * hstep * k1[1]))
                k3 = f((q + 0.5 * hstep * k2[0], qp + 0.5 * hstep * k2[1]))
                k4 = f((q + hstep * k3[0], qp + hstep * k3[1]))
                q = q + (hstep / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
                qp = qp + (hstep / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
                dets.append(np.linalg.det(q))
                ss.append((k + 1) * hstep)
            return np.array(ss), np.array(dets)

        ss, dets = q_and_det()
        crossings = []
        for i in range(len(ss) - 1):
            if dets[i] == 0.0 or dets[i] * dets[i + 1] < 0:
                crossings.append(0.5 * (ss[i] + ss[i + 1]))
        # every closed-form radius of odd multiplicity flips the determinant;
        # even multiplicities touch zero without a sign change, so check
        # containment of crossings in the radius list instead of equality
        for c in crossings:
            assert np.min(np.abs(radii - c)) < 1e-3
        odd = [r for r, m in zip(radii, focal.focal_set(grid, window).multiplicities)
               if r >= 0.05 and m % 2 == 1]
        for r in odd:
            assert np.min(np.abs(np.array(crossings) - r)) < 1e-3


class TestClosedFormTrace:
    def test_reports_both_weights(self):
        model = build_model(default_config(), 1, seed=20)
        cfg = model.config
        xi = model.normal_bases[0][:, : cfg.k1] @ np.ones(cfg.k1)
        report = trace_closed_form(model, 0, xi)
        # slice tangent dimension is m_j - 2; the printed weights use m_j - 1
        assert report["block_dims"] == [m - 2 for m, _ in cfg.blocks[: cfg.k1]]
        assert not report["weights_match"]
        spec = eigen_grid_of(model, 0, xi).shape_spectrum()
        from focalis.spectral import reg_trace
        assert reg_trace(spec) == pytest.approx(report["trace_from_block_dims"], abs=1e-10)
