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

from .errors import COMMUTATOR_TOL, NORMAL_TOL, ValidationError, verdict
from .focal import _eigen_grids

# P N (d + c), the floats of dense frames: 100 points at N = 512, 5 at 2000.
# The model stores P n_c (d + c - free odd) frame floats on its n_c curved rows
# and the P N points, each at most that; dense_operators' d x d (d <= N) fits too.
MAX_FRAME_ENTRIES = 2 ** 24
TRIAL_CHUNK_ENTRIES = 2 ** 20  # floats of factors per chunk of commutator trials
MAX_TRIALS = 2 ** 16  # commutator trials of one curvature_adapted_check
RADIUS_RANGE = (2.0 ** -250, 2.0 ** 250)  # commutators hold radii to the power -4


@dataclass(frozen=True)
class SphereProductConfig:
    blocks: tuple                  # ((m_k, r_k), ...), m_k >= 2, r_k > 0
    k1: int                        # number of height-constrained blocks
    rprime: tuple                  # slice radii, 0 < rprime_j < r_j, len k1
    k2: int                        # number of frozen odd slots
    ambient_dim: int               # truncation dimension N
    _block_idx: tuple = field(init=False, repr=False, compare=False)
    _curved_idx: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k1 > len(self.blocks):
            raise ValidationError("k1 exceeds the number of blocks")
        if len(self.rprime) != self.k1:
            raise ValidationError("rprime must have k1 entries")
        lo, hi = RADIUS_RANGE
        for m, r in self.blocks:
            if m < 2 or not lo <= r <= hi:
                raise ValidationError(f"bad block (m={m}, r={r}): need m >= 2 and "
                                      "2**-250 <= r <= 2**250")
        for (m, r), rp in zip(self.blocks[: self.k1], self.rprime):
            if not (lo <= rp < r):
                raise ValidationError(f"need 2**-250 <= rprime={rp} < r={r}")
        even_needed = sum(m for m, _ in self.blocks)
        even_slots = self.ambient_dim // 2
        odd_slots = self.ambient_dim - even_slots
        if even_needed > even_slots:
            raise ValidationError(
                f"ambient_dim={self.ambient_dim} has {even_slots} even slots, "
                f"blocks need {even_needed}")
        if not 0 <= self.k2 <= odd_slots:
            raise ValidationError(f"k2={self.k2} is not in [0, {odd_slots}] (the odd slots)")
        # even coordinate i (1-based) sits at ambient index 2i - 1, so block k's
        # even slots start + 1 .. start + m_k are ambient 2 start + 1, 2 start + 3, ...
        starts = np.cumsum([0] + [m for m, _ in self.blocks])
        table = []
        for start, (m, _) in zip(starts, self.blocks):
            idx = np.arange(2 * start + 1, 2 * (start + m), 2)
            idx.setflags(write=False)
            table.append(idx)
        object.__setattr__(self, "_block_idx", tuple(table))
        curved = np.concatenate([*table, np.arange(0, 2 * self.k2, 2)])
        curved.setflags(write=False)
        object.__setattr__(self, "_curved_idx", curved)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def heights(self) -> np.ndarray:
        return np.array([np.sqrt(r * r - rp * rp)
                         for (_, r), rp in zip(self.blocks, self.rprime)])

    def block_even_indices(self, k: int) -> np.ndarray:
        """Ambient (0-based) indices of block k's even coordinates (read-only)."""
        return self._block_idx[k]

    def curved_indices(self) -> np.ndarray:
        """Ambient indices of the rows the model's frames are stored on
        (read-only): every block's even slots, block after block, then the
        frozen odd slots."""
        return self._curved_idx

    def odd_indices(self) -> np.ndarray:
        n_odd = self.ambient_dim - self.ambient_dim // 2
        return np.arange(0, 2 * n_odd, 2)

    def frozen_odd_indices(self) -> np.ndarray:
        return self.odd_indices()[: self.k2]

    def free_odd_indices(self) -> np.ndarray:
        return self.odd_indices()[self.k2:]


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
    """Sampled points and their frames on the n_c curved rows of
    config.curved_indices() only.  The tangent frame's other columns are the
    free odd slots, implied as trailing identity columns; every other slot
    (the unused even slots) lies outside both frames."""
    config: SphereProductConfig
    points: np.ndarray              # (n_points, N)
    tangent_bases: np.ndarray       # (n_points, n_c, d - free odd), orthonormal columns
    normal_bases: np.ndarray        # (n_points, n_c, c), orthonormal columns per point

    @property
    def tangent_dim(self) -> int:
        return self.tangent_bases.shape[2] + len(self.config.free_odd_indices())

    @property
    def normal_dim(self) -> int:
        return self.normal_bases.shape[2]


def _frame_dims(cfg: SphereProductConfig):
    """Tangent and normal dimension of M inside the ambient product manifold."""
    n_free = cfg.ambient_dim - cfg.ambient_dim // 2 - cfg.k2   # free odd slots
    return sum(m - 1 for m, _ in cfg.blocks) - cfg.k1 + n_free, cfg.k1 + cfg.k2


def _sample_points(cfg: SphereProductConfig, rng: np.random.Generator,
                   n_points: int) -> np.ndarray:
    """n_points seeded points of M from one rng.normal call: row i is point
    i's stream, split by columns over the blocks (m - 1 draws scaled to the
    slice radius, the height fixed, or m scaled to r) and the free odd slots."""
    free_odd = cfg.free_odd_indices()
    widths = [m - 1 if k < cfg.k1 else m for k, (m, _) in enumerate(cfg.blocks)]
    draws = rng.normal(size=(n_points, sum(widths) + len(free_odd)))
    x = np.zeros((n_points, cfg.ambient_dim))
    col = 0
    for k, ((m, r), w) in enumerate(zip(cfg.blocks, widths)):
        idx = cfg.block_even_indices(k)
        v = draws[:, col:col + w]
        col += w
        # row norms as np.linalg.norm takes them, bit for bit: one dot per row
        norms = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
        x[:, idx[:w]] = v * ((cfg.rprime[k] if k < cfg.k1 else r) / norms)[:, None]
        if k < cfg.k1:
            x[:, idx[-1]] = cfg.heights()[k]
    x[:, free_odd] = 0.3 * draws[:, col:]
    return x


def _frames(cfg: SphereProductConfig, points: np.ndarray):
    """Tangent/normal orthonormal frames of M inside the ambient product manifold,
    for every point of the (P, N) stack at once, on the curved rows
    cfg.curved_indices(): (P, n_c, d - free odd) and (P, n_c, c).

    The ambient manifold's own tangent space excludes each block's radial
    direction and the unused even slots; within it, M's normals are the
    projected height directions nu_j (constrained blocks) and the frozen odd
    slots.  Column order: per block its local tangent directions (the free
    odd slots follow, implied); normals nu_1 .. nu_k1, then the frozen odd
    slots.

    A constrained block's point is (u, h) with |u| = r': its radial and height
    directions span (u/|u|, 0) and e_h, orthogonal by construction, and nu is
    (-h u/|u|, |u|) normalised, so no difference cancels at a small r'/r.
    """
    n_pts, n_rows = len(points), len(cfg.curved_indices())
    tangent = np.zeros((n_pts, n_rows, sum(m - 1 for m, _ in cfg.blocks) - cfg.k1))
    normal = np.zeros((n_pts, n_rows, cfg.k1 + cfg.k2))
    row = col = 0
    for k, (m, _) in enumerate(cfg.blocks):
        xk = points[:, cfg.block_even_indices(k)]
        if k < cfg.k1:
            size = np.linalg.norm(xk[:, :-1], axis=1, keepdims=True)     # |u|
            killed = np.zeros((n_pts, m, 2))     # columns: (u/|u|, 0), e_h
            killed[:, :-1, 0] = xk[:, :-1] / size
            killed[:, -1, 1] = 1.0
            nu = np.hstack([-xk[:, -1:] * killed[:, :-1, 0], size])
            normal[:, row:row + m, k] = nu / np.linalg.norm(nu, axis=1, keepdims=True)
        else:
            killed = (xk / np.linalg.norm(xk, axis=1, keepdims=True))[:, :, None]
        q, _ = np.linalg.qr(killed, mode="complete")
        n_local = m - killed.shape[2]   # block-local tangent directions
        tangent[:, row:row + m, col:col + n_local] = q[:, :, killed.shape[2]:]
        row, col = row + m, col + n_local
    normal[:, row:, cfg.k1:] = np.eye(cfg.k2)     # the frozen odd slots
    return tangent, normal


def build_model(config: SphereProductConfig, n_points: int,
                seed: int) -> ModelSubmanifold:
    """Seeded random sample of the submanifold with per-point frames; a model
    whose dense frames would hold more than MAX_FRAME_ENTRIES floats is
    refused before allocation."""
    if n_points < 1:
        raise ValidationError(f"need at least one point, got {n_points}")
    entries = n_points * config.ambient_dim * sum(_frame_dims(config))
    if entries > MAX_FRAME_ENTRIES:
        raise ValidationError(f"{n_points} points at ambient dimension {config.ambient_dim} "
                              f"need {entries} frame entries, above {MAX_FRAME_ENTRIES}")
    points = _sample_points(config, np.random.default_rng(seed), n_points)
    tangent, normal = _frames(config, points)
    return ModelSubmanifold(config, points, tangent, normal)


def _normal_rows(model: ModelSubmanifold, points, xis: np.ndarray) -> np.ndarray:
    """The rows of xis (P, N) on the curved rows (P, n_c), for the points
    model.points[points]; any row that leaves the span of its point's normal
    frame is refused.  Off the curved rows a normal vanishes: the free odd
    slots are tangent, the unused even slots outside both frames.  A
    component along the tangent frame leaves that span too, as the frames are
    orthonormal and complementary, so it is refused by the same bound."""
    cfg = model.config
    n = model.normal_bases[points]
    if xis.shape != (len(n), cfg.ambient_dim):
        raise ValidationError(f"normal vectors of shape {xis.shape} for {len(n)} points "
                              f"at ambient dimension {cfg.ambient_dim}")
    bound = NORMAL_TOL * (1.0 + np.linalg.norm(xis, axis=1))
    rows = xis[:, None, cfg.curved_indices()]
    off = np.ones(cfg.ambient_dim, dtype=bool)
    off[cfg.curved_indices()] = False
    in_span = (rows @ n) @ np.swapaxes(n, 1, 2)
    if not (np.hypot(np.linalg.norm((rows - in_span)[:, 0], axis=1),
                     np.linalg.norm(xis[:, off], axis=1)) <= bound).all():
        raise ValidationError("xi is not a normal vector at this point")
    return rows[:, 0]


def _block_data(model: ModelSubmanifold, points: slice, xis: np.ndarray):
    """Per point of model.points[points], its normal (row of xis) and each
    constrained block j: <xi, nu_j>, m_j - 2 (the slice sphere's dimension, the
    tangent columns of _frames on its slots) and lam_a,j = sqrt(1/rprime_j^2 -
    1/r_j^2) <xi, nu_j>."""
    cfg = model.config
    rows = _normal_rows(model, points, xis)
    comps = (rows[:, None, :] @ model.normal_bases[points, :, : cfg.k1])[:, 0]  # <xi, nu_j>
    dims = np.broadcast_to(np.array([m - 2 for m, _ in cfg.blocks[: cfg.k1]], dtype=int),
                           comps.shape)
    lam_a = np.array([np.sqrt(1.0 / rp ** 2 - 1.0 / r ** 2)
                      for (_, r), rp in zip(cfg.blocks, cfg.rprime)]) * comps
    return comps, dims, lam_a


def eigen_grids(model: ModelSubmanifold, xis: np.ndarray) -> list:
    """Joint eigen grids of the normals xis (P, N) at points 0 .. P - 1: per
    constrained block the closed-form (lam_r, lam_a, mult) = (|xi_j|^2 / r_j^2,
    lam_a,j, m_j - 2), the flat rest as (0, 0, mult)."""
    cfg = model.config
    comps, dims, lam_a = _block_data(model, slice(len(xis)), xis)
    radii = np.array([r for _, r in cfg.blocks[: cfg.k1]])
    flat = model.tangent_dim - dims.sum(axis=1, keepdims=True)
    zero = np.zeros_like(flat, dtype=float)
    rows = np.stack([np.hstack([comps ** 2 / radii ** 2, zero]), np.hstack([lam_a, zero]),
                     np.hstack([dims, flat])], axis=-1)
    keep = rows[:, :, 2] > 0
    return _eigen_grids(rows[keep], keep.sum(axis=1), [f"x{p}" for p in range(len(xis))])


def _factors(model: ModelSubmanifold, pis: np.ndarray, xi_rows: np.ndarray):
    """Factors of the normal Jacobi and shape operators on T_x M for normals
    xi at the points pis, given on the curved rows as xi_rows (T, n_c).

    Independent of the block eigenvalue formulas: the Jacobi operator comes
    from the full constant-curvature tensor on the tangent frame, the shape
    operator from the quadric-constraint Hessians.  With T_k = t[idx_k, :],
    xi_k = xi[idx_k], R the T_k stacked and P the columns T_k^T xi_k / r_k,

        jac   = sum_k (|xi_k|^2 T_k^T T_k - (T_k^T xi_k)(T_k^T xi_k)^T) / r_k^2
        shape = sum_k -2 c_k T_k^T T_k,

    that is jac = B diag(m_j) B^T and shape = B diag(m_s) B^T with B = [R^T |
    P] (T, d, n_rows + K): m_j is |xi_k|^2 / r_k^2 on block k's rows and -1
    on P, m_s is -2 c_k on block k's rows and 0 on P.  c_k is the coefficient
    of 2 x_k in the least-squares expansion of xi in the constraint gradients;
    the others (heights e_h, frozen odd and free even slots) have slots of
    their own, so it is a one-column solve on the block's slots but the
    height.  Only the block rows (the first n_rows curved rows) are read, and B
    has a row per stored tangent column: the free odd directions are flat.
    """
    cfg = model.config
    n_rows, n_blocks = sum(m for m, _ in cfg.blocks), cfg.n_blocks
    r_t = np.swapaxes(model.tangent_bases[pis, :n_rows], 1, 2)
    scaled = np.zeros((len(pis), n_rows, n_blocks))   # xi_k / r_k in column k
    m_j = np.full((len(pis), n_rows + n_blocks), -1.0)
    m_s = np.zeros((len(pis), n_rows + n_blocks))
    start = 0
    for k, (m, r) in enumerate(cfg.blocks):
        xik = xi_rows[:, start:start + m]
        w = m - 1 if k < cfg.k1 else m
        g = 2.0 * model.points[pis[:, None], cfg.block_even_indices(k)[:w]]
        m_j[:, start:start + m] = (np.sum(xik * xik, axis=1) / r ** 2)[:, None]
        m_s[:, start:start + m] = (-2.0 * np.sum(g * xik[:, :w], axis=1)
                                   / np.sum(g * g, axis=1))[:, None]
        scaled[:, start:start + m, k] = xik / r
        start += m
    return np.concatenate([r_t, r_t @ scaled], axis=2), m_j, m_s


def dense_operators(model: ModelSubmanifold, point_index: int,
                    xi: np.ndarray):
    """Dense d x d matrices of the normal Jacobi and shape operators on T_x M:
    the products of the factors of _factors, whose B gains a zero row per
    free odd direction (the tangent frame's trailing columns)."""
    xi_rows = _normal_rows(model, [point_index], xi[None])
    b, m_j, m_s = _factors(model, np.array([point_index]), xi_rows)
    b = np.vstack([b[0], np.zeros((model.tangent_dim - b.shape[1], b.shape[2]))])
    return (b * m_j[0]) @ b.T, (b * m_s[0]) @ b.T


def _commutator_norms(model: ModelSubmanifold, pis: np.ndarray,
                      xi_rows: np.ndarray) -> np.ndarray:
    """Frobenius norm of jac shape - shape jac per trial, in the coordinates
    of _factors.  With H = B^T B the commutator is B C B^T, where the core
    C = H o (m_j m_s^T - m_s m_j^T) cancels equal weights of one block
    exactly; its squared norm is tr(C^T H C H) = sum((H C) o (C H))."""
    b, m_j, m_s = _factors(model, pis, xi_rows)
    h = np.swapaxes(b, 1, 2) @ b
    core = h * (m_j[:, :, None] * m_s[:, None, :] - m_s[:, :, None] * m_j[:, None, :])
    squares = np.sum((h @ core) * (core @ h), axis=(1, 2))
    return np.sqrt(np.maximum(squares, 0.0))   # a rounding below 0 reads as 0


def curvature_adapted_check(model: ModelSubmanifold, n_trials: int,
                            seed: int) -> dict:
    """Max commutator norm of the operator pair over random (point, xi).

    Each xi is drawn in the span of its point's normal frame.  Trials run
    in chunks of about TRIAL_CHUNK_ENTRIES floats of factors spanning all d
    tangent directions (the stored factors hold fewer), which fixes the split
    of the seeded draws.
    """
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValidationError(f"need 1 to {MAX_TRIALS} trials, got {n_trials}")
    rng = np.random.default_rng(seed)
    width = sum(m for m, _ in model.config.blocks) + model.config.n_blocks
    chunk = max(1, TRIAL_CHUNK_ENTRIES // max(1, width * (model.tangent_dim + width)))
    worst = 0.0
    for done in range(0, n_trials, chunk):
        n = min(chunk, n_trials - done)
        pis = rng.integers(len(model.points), size=n)
        coeffs = rng.normal(size=(n, model.normal_dim, 1))
        xi_rows = (model.normal_bases[pis] @ coeffs)[:, :, 0]
        worst = max(worst, float(_commutator_norms(model, pis, xi_rows).max()))
    return {"trials": n_trials, "max_commutator_norm": worst,
            **verdict(commutator=(worst, COMMUTATOR_TOL))}


def trace_closed_form(model: ModelSubmanifold, point_index: int,
                      xi: np.ndarray) -> dict:
    """Shape-operator trace weighted by the slice spheres' dimensions m_j - 2,
    plus the printed (m_j - 1)-weighted variant."""
    cfg = model.config
    point_index = range(len(model.points))[point_index]
    _, dims, lam_a = _block_data(model, slice(point_index, point_index + 1), xi[None])
    dims, lam_a = dims[0], lam_a[0]
    tr_actual, tr_printed = 0.0, 0.0
    for (m, _), d, la in zip(cfg.blocks, dims, lam_a):
        tr_actual += la * d
        tr_printed += la * (m - 1)
    return {
        "trace_from_block_dims": float(tr_actual),
        "trace_printed_weights": float(tr_printed),
        "block_dims": dims.tolist(),
    }
