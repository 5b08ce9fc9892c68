"""Truncated product-of-spheres submanifold with explicit curvature data.

The ambient space is a truncation of a separable Hilbert space with
orthonormal coordinates split into "even" slots (carrying K sphere blocks:
block k uses m_k even slots constrained to a sphere of radius r_k) and "odd"
slots (a flat factor).  The submanifold fixes, in each of the first k1
blocks, the block's last even coordinate at the height h_j = sqrt(r_j^2 -
rprime_j^2), so the block slice is a sphere of radius rprime_j, and freezes
the first k2 odd coordinates at 0.

On the slice tangent space of block j both the normal Jacobi operator and
the shape operator act as scalars:

    R(., xi)xi  =  |xi_j|^2 / r_j^2 * id
    A_xi        =  sqrt(1/rprime_j^2 - 1/r_j^2) * <xi, nu_j> * id

where xi_j is the block component of the normal vector xi and nu_j is the
block's unit normal oriented toward positive height.  Everything else (free
blocks, free odd slots) is flat and uncurved, so the two operators commute
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .focal import EigenGrid

NORMAL_TOL = 1e-9  # relative size of the tangential part a normal vector may carry


@dataclass(frozen=True)
class SphereProductConfig:
    blocks: tuple                  # ((m_k, r_k), ...), m_k >= 2, r_k > 0
    k1: int                        # number of height-constrained blocks
    rprime: tuple                  # slice radii, 0 < rprime_j < r_j, len k1
    k2: int                        # number of frozen odd slots
    ambient_dim: int               # truncation dimension N
    _block_idx: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k1 > len(self.blocks):
            raise ValidationError("k1 exceeds the number of blocks")
        if len(self.rprime) != self.k1:
            raise ValidationError("rprime must have k1 entries")
        for m, r in self.blocks:
            if m < 2 or not 0.0 < r < np.inf:
                raise ValidationError(f"bad block (m={m}, r={r})")
        for (m, r), rp in zip(self.blocks[: self.k1], self.rprime):
            if not (0.0 < rp < r):
                raise ValidationError(f"need 0 < rprime={rp} < r={r}")
        even_needed = sum(m for m, _ in self.blocks)
        even_slots = self.ambient_dim // 2
        odd_slots = self.ambient_dim - even_slots
        if even_needed > even_slots:
            raise ValidationError(
                f"ambient_dim={self.ambient_dim} has {even_slots} even slots, "
                f"blocks need {even_needed}")
        if self.k2 > odd_slots:
            raise ValidationError("k2 exceeds the number of odd slots")
        # even coordinate i (1-based) sits at ambient index 2i - 1, so block k's
        # even slots start + 1 .. start + m_k are ambient 2 start + 1, 2 start + 3, ...
        starts = np.cumsum([0] + [m for m, _ in self.blocks])
        table = []
        for start, (m, _) in zip(starts, self.blocks):
            idx = np.arange(2 * start + 1, 2 * (start + m), 2)
            idx.setflags(write=False)
            table.append(idx)
        object.__setattr__(self, "_block_idx", tuple(table))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def heights(self) -> np.ndarray:
        return np.array([np.sqrt(r * r - rp * rp)
                         for (_, r), rp in zip(self.blocks, self.rprime)])

    def block_even_indices(self, k: int) -> np.ndarray:
        """Ambient (0-based) indices of block k's even coordinates (read-only)."""
        return self._block_idx[k]

    def odd_indices(self) -> np.ndarray:
        n_odd = self.ambient_dim - self.ambient_dim // 2
        return np.arange(0, 2 * n_odd, 2)

    def frozen_odd_indices(self) -> np.ndarray:
        return self.odd_indices()[: self.k2]

    def free_odd_indices(self) -> np.ndarray:
        return self.odd_indices()[self.k2:]

    def free_even_indices(self) -> np.ndarray:
        """Even slots beyond the block truncation (always zero here)."""
        used = sum(m for m, _ in self.blocks)
        even_slots = self.ambient_dim // 2
        return np.arange(2 * used + 1, 2 * even_slots, 2)


def default_config() -> SphereProductConfig:
    """Desk-scale default: 4 blocks, ambient dimension 64."""
    return SphereProductConfig(
        blocks=((4, 1.0), (4, 0.8), (3, 0.6), (3, 0.5)),
        k1=4,
        rprime=(0.8, 0.6, 0.45, 0.35),
        k2=2,
        ambient_dim=64,
    )


@dataclass(eq=False)
class ModelSubmanifold:
    config: SphereProductConfig
    points: np.ndarray              # (n_points, N)
    tangent_bases: np.ndarray       # (n_points, N, d), orthonormal columns per point
    normal_bases: np.ndarray        # (n_points, N, c), orthonormal columns per point

    @property
    def tangent_dim(self) -> int:
        return self.tangent_bases.shape[2]

    @property
    def normal_dim(self) -> int:
        return self.normal_bases.shape[2]


def _sample_point(cfg: SphereProductConfig, rng: np.random.Generator) -> np.ndarray:
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


def _frames(cfg: SphereProductConfig, points: np.ndarray):
    """Tangent/normal orthonormal frames of M inside the ambient product manifold,
    for every point of the (P, N) stack at once.

    The ambient manifold's own tangent space excludes each block's radial
    direction and the unused even slots; within it, M's normals are the
    projected height directions nu_j (constrained blocks) and the frozen odd
    slots.  Column order: per block its local tangent directions, then the
    free odd slots; normals nu_1 .. nu_k1, then the frozen odd slots.
    """
    n_pts, n_amb = points.shape
    frozen, free = cfg.frozen_odd_indices(), cfg.free_odd_indices()
    d = sum(m - 1 for m, _ in cfg.blocks) - cfg.k1 + len(free)
    tangent = np.zeros((n_pts, n_amb, d))
    normal = np.zeros((n_pts, n_amb, cfg.k1 + len(frozen)))
    col = 0
    for k in range(cfg.n_blocks):
        idx = cfg.block_even_indices(k)
        m = len(idx)
        xk = points[:, idx]
        radial = xk / np.linalg.norm(xk, axis=1, keepdims=True)
        if k < cfg.k1:
            # nu = e_h - <e_h, radial> radial, normalised, on the block's slots
            nu = -radial[:, -1:] * radial
            nu[:, -1] += 1.0
            normal[:, idx, k] = nu / np.linalg.norm(nu, axis=1, keepdims=True)
            killed = np.zeros((n_pts, m, 2))     # columns: radial, e_h
            killed[:, :, 0] = radial
            killed[:, -1, 1] = 1.0
        else:
            killed = radial[:, :, None]
        q, _ = np.linalg.qr(killed, mode="complete")
        n_local = m - killed.shape[2]   # block-local tangent directions
        tangent[:, idx, col:col + n_local] = q[:, :, killed.shape[2]:]
        col += n_local
    tangent[:, free, np.arange(col, d)] = 1.0
    normal[:, frozen, np.arange(cfg.k1, normal.shape[2])] = 1.0
    return tangent, normal


def build_model(config: SphereProductConfig, n_points: int,
                seed: int) -> ModelSubmanifold:
    """Seeded random sample of the submanifold with per-point frames."""
    if n_points < 1:
        raise ValidationError(f"need at least one point, got {n_points}")
    rng = np.random.default_rng(seed)
    points = np.empty((n_points, config.ambient_dim))
    for i in range(n_points):
        points[i] = _sample_point(config, rng)
    tangent, normal = _frames(config, points)
    return ModelSubmanifold(config, points, tangent, normal)


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
    for i in cfg.free_even_indices():
        res = max(res, abs(x[i]))
    return res


def random_normal_vector(model: ModelSubmanifold, point_index: int,
                         rng: np.random.Generator) -> np.ndarray:
    basis = model.normal_bases[point_index]
    return basis @ rng.normal(size=basis.shape[1])


def _check_normal(model: ModelSubmanifold, point_index: int, xi: np.ndarray):
    t = model.tangent_bases[point_index]
    n = model.normal_bases[point_index]
    in_span = n @ (n.T @ xi)
    if np.linalg.norm(xi - in_span) > NORMAL_TOL * (1.0 + np.linalg.norm(xi)):
        raise ValidationError("xi is not a normal vector at this point")
    if np.linalg.norm(t.T @ xi) > NORMAL_TOL * (1.0 + np.linalg.norm(xi)):
        raise ValidationError("xi has a tangential component")


def _constrained_blocks(model: ModelSubmanifold, point_index: int, xi: np.ndarray):
    """Per constrained block j: <xi, nu_j>, the dimension of (block even span
    intersect T_x M) by rank, and the shape eigenvalue lam_a,j =
    sqrt(1/rprime_j^2 - 1/r_j^2) <xi, nu_j>."""
    cfg = model.config
    t = model.tangent_bases[point_index]
    comps = model.normal_bases[point_index][:, : cfg.k1].T @ xi   # <xi, nu_j>
    dims = np.array([np.linalg.matrix_rank(t[cfg.block_even_indices(j), :], tol=1e-9)
                     for j in range(cfg.k1)], dtype=int)
    lam_a = [np.sqrt(1.0 / rp ** 2 - 1.0 / r ** 2) * c
             for (_, r), rp, c in zip(cfg.blocks, cfg.rprime, comps)]
    return comps, dims, lam_a


def eigen_grid_of(model: ModelSubmanifold, point_index: int,
                  xi: np.ndarray) -> EigenGrid:
    """Joint eigen grid feeding the focal-radius machinery: per-block
    closed-form (lam_r, lam_a, mult) eigendata for a normal xi."""
    cfg = model.config
    _check_normal(model, point_index, xi)
    comps, dims, lam_a = _constrained_blocks(model, point_index, xi)
    rows = [(float(c ** 2 / r ** 2), float(la), int(d))
            for (_, r), c, d, la in zip(cfg.blocks, comps, dims, lam_a) if d > 0]
    flat_mult = model.tangent_bases[point_index].shape[1] - int(dims.sum())
    if flat_mult > 0:
        rows.append((0.0, 0.0, flat_mult))
    return EigenGrid(tuple(rows), label=f"x{point_index}")


def ambient_curvature(cfg: SphereProductConfig, w: np.ndarray,
                      v: np.ndarray) -> np.ndarray:
    """Blockwise round-sphere curvature R(w, v)v of the ambient product."""
    out = np.zeros_like(w)
    for k, (m, r) in enumerate(cfg.blocks):
        idx = cfg.block_even_indices(k)
        wk, vk = w[idx], v[idx]
        out[idx] = ((vk @ vk) * wk - (wk @ vk) * vk) / r ** 2
    return out


def dense_operators(model: ModelSubmanifold, point_index: int,
                    xi: np.ndarray):
    """Dense matrices of the normal Jacobi and shape operators on T_x M.

    Independent of the block eigenvalue formulas: the Jacobi operator comes
    from applying the full constant-curvature tensor to the tangent frame,
    the shape operator from the quadric-constraint Hessians (the normal is
    written in the constraint gradients of M inside flat space; linear
    constraints contribute no Hessian).  Both act block by block: with
    T_k = t[idx_k, :] and xi_k = xi[idx_k],

        jac   = sum_k (|xi_k|^2 T_k^T T_k - (T_k^T xi_k)(T_k^T xi_k)^T) / r_k^2
        shape = sum_k -2 c_k T_k^T T_k

    where c_k is the coefficient of the gradient 2 x_k of block k's sphere
    constraint in the least-squares expansion of xi.  Every other gradient
    (block k's height e_h, the frozen odd and free even slots) is supported
    on slots of its own, so that expansion splits into one solve per block.
    In a constrained block e_h alone reaches the height slot; dropping that
    slot leaves a one-column problem for c_k.
    """
    cfg = model.config
    x = model.points[point_index]
    t = model.tangent_bases[point_index]
    _check_normal(model, point_index, xi)
    n_rows = sum(m for m, _ in cfg.blocks)
    rows = np.empty((n_rows, t.shape[1]))      # T_k stacked over the blocks
    jac_w = np.empty(n_rows)                   # |xi_k|^2 / r_k^2 on block k's rows
    shape_w = np.empty(n_rows)                 # -2 c_k on block k's rows
    proj = np.empty((t.shape[1], cfg.n_blocks))  # column k: T_k^T xi_k / r_k
    start = 0
    for k, (m, r) in enumerate(cfg.blocks):
        idx = cfg.block_even_indices(k)
        tk = rows[start:start + m] = t[idx, :]
        xik = xi[idx]
        lsq = slice(0, m - 1) if k < cfg.k1 else slice(0, m)
        g = 2.0 * x[idx[lsq]]
        jac_w[start:start + m] = (xik @ xik) / r ** 2
        shape_w[start:start + m] = -2.0 * (g @ xik[lsq]) / (g @ g)
        proj[:, k] = (tk.T @ xik) / r
        start += m
    jac = rows.T @ (jac_w[:, None] * rows) - proj @ proj.T
    shape = rows.T @ (shape_w[:, None] * rows)
    return jac, shape


def curvature_adapted_check(model: ModelSubmanifold, n_trials: int,
                            seed: int) -> dict:
    """Max commutator norm of the dense operator pair over random (point, xi)."""
    if n_trials < 1:
        raise ValidationError(f"need at least one trial, got {n_trials}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        pi = int(rng.integers(len(model.points)))
        xi = random_normal_vector(model, pi, rng)
        jac, shape = dense_operators(model, pi, xi)
        comm = jac @ shape - shape @ jac
        worst = max(worst, float(np.linalg.norm(comm)))
    return {"trials": n_trials, "max_commutator_norm": worst,
            "passed": worst < 1e-9}


def trace_closed_form(model: ModelSubmanifold, point_index: int,
                      xi: np.ndarray) -> dict:
    """Shape-operator trace from actual block dimensions, plus the printed
    (m_j - 1)-weighted variant, flagging any mismatch."""
    cfg = model.config
    _, dims, lam_a = _constrained_blocks(model, point_index, xi)
    tr_actual, tr_printed = 0.0, 0.0
    for (m, _), d, la in zip(cfg.blocks, dims, lam_a):
        tr_actual += la * d
        tr_printed += la * (m - 1)
    return {
        "trace_from_block_dims": float(tr_actual),
        "trace_printed_weights": float(tr_printed),
        "weights_match": bool(np.all(dims == np.array([m - 1 for m, _ in cfg.blocks[: cfg.k1]]))),
        "block_dims": dims.tolist(),
    }
