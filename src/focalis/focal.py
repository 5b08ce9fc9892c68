"""Focal radii, Jacobi amplitudes and parallel shape operators.

On a joint eigenspace of the normal Jacobi operator (eigenvalue lam_r) and
the shape operator (eigenvalue lam_a), the scalar amplitude of a strongly
tangential Jacobi field along the normal geodesic is

    Y(s) = C(s) - lam_a * S(s),

where C, S solve Y'' = -lam_r Y with (C, C')(0) = (1, 0), (S, S')(0) = (0, 1)
(trig / hyperbolic / linear depending on the sign of lam_r).  Focal radii are
the zeros of Y; the parallel submanifold at distance r has shape eigenvalue
-Y'(r)/Y(r) on the same eigenspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from . import spectral
from .errors import OracleUndefinedError, ValidationError
from .spectral import DIVERGENT, FOCAL, Sentinel, SpectralData, TraceValue

FOCAL_TOL = 1e-9          # |Y(r)| < tol*(1+|Y'(r)|) gives the FOCAL sentinel
MERGE_TOL = 1e-9          # radii closer than this merge, multiplicities summed
SPEC_ABS_TOL = 1e-9       # multiset comparison tolerances
SPEC_REL_TOL = 1e-12
WITNESS_EPS = (0.1, 0.5, 1.0)  # lower ends of the gap scans in proper_fredholm_witness
MAX_FOCAL_RADII = 2 ** 16  # periods of one arctan family a window may span
_LINEAR_BRANCH = 1e-300   # |lam_r| below this is treated as exactly zero


@dataclass(frozen=True)
class Window:
    """Search interval [lo, hi] with 0 < lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 < self.lo < self.hi < math.inf):
            raise ValidationError(f"window [{self.lo}, {self.hi}] needs 0 < lo < hi < inf")


@dataclass(frozen=True, eq=False, init=False)
class EigenGrid:
    """Joint (lam_r, lam_a, mult) eigendata of the curvature-adapted pair: the
    rows merged by _merge_rows, held as three read-only arrays."""

    lam_r: np.ndarray
    lam_a: np.ndarray
    mult: np.ndarray
    label: Optional[str] = None

    def __init__(self, pairs, label: Optional[str] = None):
        (grid,) = _eigen_grids(pairs, [len(pairs)], [label])
        vars(self).update(vars(grid))

    @property
    def pairs(self) -> tuple:
        """The rows as (lam_r, lam_a, mult) tuples of Python numbers."""
        return tuple(zip(self.lam_r.tolist(), self.lam_a.tolist(), self.mult.tolist()))

    def shape_spectrum(self) -> SpectralData:
        return SpectralData.from_eigenvalues(self.lam_a, mults=self.mult)


def _merge_rows(rows, counts):
    """Validate stacked (lam_r, lam_a, mult) rows, grid i holding the next
    counts[i], and merge each grid's equal rows into the first one seen (of
    0.0 and -0.0 the first stays), sorted as sorted() sorts tuples.  Returns
    the merged columns, read-only, and offsets: grid i's are bounds[i]:bounds[i + 1]."""
    rows = spectral._as_array(rows, None, "pairs")
    if rows.size and rows.shape[1:] != (3,):
        raise ValidationError("pairs must be (lambda_R, lambda_A, mult) rows")
    rows = rows.reshape(-1, 3)
    mult = spectral._multiplicities(rows[:, 2], "pair")
    lam_r, lam_a = spectral._as_array(rows[:, :2], float, "pairs").T
    if not (finite := np.isfinite(lam_r) & np.isfinite(lam_a)).all():
        i = np.argmin(finite)
        raise ValidationError(f"pair {(float(lam_r[i]), float(lam_a[i]))} is not finite")
    gid = np.repeat(np.arange(len(counts)), counts)
    order = np.lexsort((lam_a, lam_r, gid))        # stable: the first row seen leads
    gid, lam_r, lam_a = gid[order], lam_r[order], lam_a[order]
    head = np.ones(len(gid), dtype=bool)
    head[1:] = (gid[1:] != gid[:-1]) | (lam_r[1:] != lam_r[:-1]) | (lam_a[1:] != lam_a[:-1])
    # float sums of whole numbers, unlike int64 sums, reach 2**53 when the total does
    mult = np.bincount(np.cumsum(head) - 1, weights=mult[order])
    gid = gid[head]
    if (np.bincount(gid, weights=mult, minlength=len(counts)) >= spectral.MAX_BRANCH_RANK).any():
        raise ValidationError("total multiplicity must stay below 2**53")
    columns = lam_r[head], lam_a[head], mult.astype(np.int64)
    for column in columns:
        column.flags.writeable = False
    return (*columns, np.searchsorted(gid, np.arange(len(counts) + 1)))


def _eigen_grids(rows, counts, labels) -> list:
    """EigenGrids of stacked rows, merged by one _merge_rows call, as views."""
    lam_r, lam_a, mult, bounds = _merge_rows(rows, counts)
    grids = [EigenGrid.__new__(EigenGrid) for _ in labels]
    for grid, lo, hi, label in zip(grids, bounds.tolist(), bounds[1:].tolist(), labels):
        vars(grid).update(lam_r=lam_r[lo:hi], lam_a=lam_a[lo:hi], mult=mult[lo:hi], label=label)
    return grids


@dataclass(frozen=True, eq=False)
class FocalRadiusSet:
    """Strictly increasing focal radii inside a window, with multiplicities."""

    radii: np.ndarray
    multiplicities: np.ndarray
    window: Window

    def __post_init__(self):
        if (np.diff(self.radii) <= MERGE_TOL).any():
            raise ValidationError("focal radii not separated; merge before constructing")
        outside = ~((self.window.lo <= self.radii) & (self.radii <= self.window.hi))
        if outside.any():
            raise ValidationError(f"radius {float(self.radii[outside][0])} outside window")
        if (self.multiplicities < 1).any():
            raise ValidationError("radius multiplicity must be >= 1")


def _amplitudes(lam_r, lam_a, s: float):
    """(Y(s), Y'(s)) of arrays of rows at one s.  C(s), S(s) are cos(s q),
    sin(s q)/q with q = sqrt(lam_r), their hyperbolic forms for lam_r < 0, and
    (1, s) at lam_r = 0.  A row whose Y or Y' leaves the float range is refused."""
    lam_r, lam_a = np.asarray(lam_r, dtype=float), np.asarray(lam_a, dtype=float)
    q = np.sqrt(np.abs(lam_r))
    c, sn = np.ones(lam_r.shape), np.full(lam_r.shape, float(s))
    with np.errstate(over="ignore", invalid="ignore"):   # inf and nan are refused below
        for rows, cos, sin in ((lam_r > _LINEAR_BRANCH, np.cos, np.sin),
                               (lam_r < -_LINEAR_BRANCH, np.cosh, np.sinh)):
            x = s * q[rows]
            c[rows], sn[rows] = cos(x), sin(x) / q[rows]
        y, yp = c - lam_a * sn, -lam_r * sn - lam_a * c
    bad = ~(np.isfinite(y) & np.isfinite(yp))
    if bad.any():
        raise ValidationError(f"Jacobi amplitude at lambda_R={float(lam_r[bad][0])}, "
                              f"r={float(s)} is out of floating-point range")
    return y, yp


def jacobi_amplitude(lam_r: float, lam_a: float, s: float) -> float:
    """Scalar Jacobi amplitude Y(s) = C(s) - lam_a S(s) on the eigenspace."""
    return float(_amplitudes([lam_r], [lam_a], s)[0][0])


def jacobi_amplitude_deriv(lam_r: float, lam_a: float, s: float) -> float:
    """Y'(s) = -lam_r S(s) - lam_a C(s)."""
    return float(_amplitudes([lam_r], [lam_a], s)[1][0])


def _stack(grids: Sequence[EigenGrid]):
    """Every grid's (lam_r, lam_a, mult) rows, grid after grid, and each row's grid."""
    columns = (np.concatenate([getattr(g, name) for g in grids])
               for name in ("lam_r", "lam_a", "mult"))
    return (*columns, np.repeat(np.arange(len(grids)), [len(g.mult) for g in grids]))


def _row_radii(lam_r, lam_a, window: Window):
    """The zeros of each row's Jacobi amplitude in the window, each row's
    increasing, and their rows.  Closed forms: base + k pi/q for lam_r > 0
    (q = sqrt(lam_r), k from floor((lo - base) q/pi) up), atanh(q/lam_a)/q for
    lam_r < 0 when lam_a > q = sqrt(-lam_r), and 1/lam_a when flat.  An arctan
    family spanning MAX_FOCAL_RADII periods of the window is refused first."""
    lam_r, lam_a = np.asarray(lam_r, dtype=float), np.asarray(lam_a, dtype=float)
    lo, hi = window.lo, window.hi
    trig, hyp, q = lam_r > _LINEAR_BRANCH, lam_r < -_LINEAR_BRANCH, np.sqrt(np.abs(lam_r))
    flat = np.flatnonzero(~trig & ~hyp & (lam_a != 0.0))
    # lam_a > q: the root of cosh - lam_a sinh/q at positive s
    trig, hyp = np.flatnonzero(trig), np.flatnonzero(hyp & (lam_a > q))
    # atan2 handles lam_a <= 0 (first root in (0, pi))
    base = np.array([math.atan2(*p) for p in zip(q[trig].tolist(), lam_a[trig].tolist())])
    base, period = base / q[trig], math.pi / q[trig]
    with np.errstate(over="ignore"):                            # inf on overflow
        spans, flat_radii = (hi - lo) / period, 1.0 / lam_a[flat]
    if (spans >= MAX_FOCAL_RADII).any():
        raise ValidationError(f"lambda_R={float(lam_r[trig][spans >= MAX_FOCAL_RADII][0])} "
                              f"places more than {MAX_FOCAL_RADII} focal radii in [{lo}, {hi}]")
    first = np.floor((lo - base) / period)
    # base + k period rises with k, so the radii <= hi are a prefix of the
    # candidates once the last one exceeds hi; rounding rarely asks for more
    count = spans.astype(np.int64) + 3
    while True:
        ends = np.cumsum(count)
        k = np.repeat(first, count) + (np.arange(count.sum()) - np.repeat(ends - count, count))
        arctan = np.repeat(base, count) + k * np.repeat(period, count)
        if not (short := arctan[ends - 1] <= hi).any():
            break
        count[short] *= 2
    arctanh = np.array([math.atanh(x) for x in (q[hyp] / lam_a[hyp]).tolist()]) / q[hyp]
    radii = np.concatenate((arctan, arctanh, flat_radii))
    rows = np.concatenate((np.repeat(trig, count), hyp, flat))
    keep = (lo <= radii) & (radii <= hi)
    return radii[keep], rows[keep]


def focal_radii_pair(lam_r: float, lam_a: float, window: Window) -> List[float]:
    """All zeros of the Jacobi amplitude for (lam_r, lam_a) inside the window,
    increasing: the one-row view of _row_radii."""
    return _row_radii([lam_r], [lam_a], window)[0].tolist()


def focal_sets(grids: Sequence[EigenGrid], window: Window):
    """focal_set of every grid from the stacked rows: the radii, grid after grid
    and increasing, their multiplicities, and offsets (grid i's entries are
    bounds[i]:bounds[i + 1]).  A radius within MERGE_TOL of its cluster's
    first radius joins the cluster, which keeps that first radius."""
    lam_r, lam_a, mult, gid = _stack(grids)
    radii, rows = _row_radii(lam_r, lam_a, window)
    order = np.lexsort((radii, gid[rows]))
    radii, gid, mult = radii[order], gid[rows][order], mult[rows][order]
    head = np.ones(len(radii), dtype=bool)
    head[1:] = (gid[1:] != gid[:-1]) | (radii[1:] - radii[:-1] > MERGE_TOL)
    # a chain of gaps <= MERGE_TOL splits where a radius lies beyond
    # MERGE_TOL of its cluster's first radius h
    for i in np.flatnonzero(~head).tolist():
        h = i - 1 if head[i - 1] else h
        head[i] = radii[i] - radii[h] > MERGE_TOL
    mults = np.bincount(np.cumsum(head) - 1, weights=mult)  # exact below 2**53
    if (mults >= spectral.MAX_BRANCH_RANK).any():
        raise ValidationError("focal radius multiplicity must stay below 2**53")
    bounds = np.searchsorted(gid[head], np.arange(len(grids) + 1))
    return radii[head], mults.astype(np.int64), bounds.tolist()


def focal_set(grid: EigenGrid, window: Window) -> FocalRadiusSet:
    """Union of per-pair focal radii, multiplicities summed on coincidence."""
    radii, mults, _ = focal_sets([grid], window)
    return FocalRadiusSet(radii, mults, window)


def proper_fredholm_witness(fset: FocalRadiusSet) -> dict:
    """Truncation surrogate of the proper-Fredholm property.

    Reports the (finite) focal count in the window, the max multiplicity and
    the minimal gap between consecutive radii on [eps, hi] for each tested
    eps.  Accumulation away from 0 cannot occur for a finite grid; the report
    documents that.
    """
    radii = fset.radii
    report = {
        "count": int(len(radii)),
        "max_multiplicity": int(fset.multiplicities.max()) if len(radii) else 0,
        "min_gaps": {},
        "accumulation_flag": False,
    }
    for eps in WITNESS_EPS:
        sub = radii[radii >= eps]
        gap = float(np.min(np.diff(sub))) if len(sub) >= 2 else float("inf")
        report["min_gaps"][eps] = gap
        if gap < 10 * MERGE_TOL:
            report["accumulation_flag"] = True
    return report


def _parallel_rows(lam_r, lam_a, r: float):
    """parallel_shape_eigenvalue on arrays of rows: the eigenvalues (0 on a
    focal row) and the rows for which r is focal."""
    y, yp = _amplitudes(lam_r, lam_a, r)
    focal = np.abs(y) < FOCAL_TOL * (1.0 + np.abs(yp))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(focal, 0.0, -yp / y), focal


def parallel_shape_eigenvalue(lam_r: float, lam_a: float,
                              r: float) -> Union[float, Sentinel]:
    """Shape eigenvalue -Y'(r)/Y(r) of the parallel submanifold at distance r."""
    lam, focal = _parallel_rows([lam_r], [lam_a], r)
    return FOCAL if focal[0] else float(lam[0])


def riccati_oracle(lam_r: float, lam_a: float, r: float, steps: int = 1000) -> float:
    """Independent oracle: RK4 on Y'' = -lam_r Y, Y(0)=1, Y'(0)=-lam_a.

    Returns -Y'(r)/Y(r); raises if r sits within tolerance of a focal radius.
    """
    if steps < 10:
        raise ValidationError("riccati_oracle needs steps >= 10")
    # the ODE is linear with constant coefficients, so one RK4 step is the
    # fixed matrix I + d on (Y, Y'), d = a + a^2/2 + a^3/6 + a^4/24 with
    # a = h [[0, 1], [-lam_r, 0]].  Its power is taken by squaring in offset
    # form, (I + d)^2 = I + (2d + d^2): squaring I + d itself rounds at the
    # scale of I and compounds that linearly in the step count.
    a = (r / steps) * np.array([[0.0, 1.0], [-lam_r, 0.0]])
    eye = np.eye(2)
    d = a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)
    power, n = np.zeros((2, 2)), steps
    while n:
        if n & 1:
            power = power + d + d @ power
        d = 2.0 * d + d @ d
        n >>= 1
    y, yp = (eye + power) @ np.array([1.0, -lam_a])
    if abs(y) < FOCAL_TOL * (1.0 + abs(yp)):
        raise OracleUndefinedError(f"r={r} is (numerically) a focal radius")
    return -yp / y


def _parallel_traces(stack, n_grids: int, r: float) -> list:
    """parallel_reg_mean_curvature of every stacked grid.  The transformed
    rows (lam_r, -Y'/Y, mult) are merged as a transformed grid's are, so a
    finite-rank grid's trace is the stored sum of its merged m * lam, and a
    longer one reads the same SpectralData as its transformed grid."""
    lam_r, lam_a, mult, gid = stack
    lam, focal = _parallel_rows(lam_r, lam_a, r)
    is_focal = np.bincount(gid[focal], minlength=n_grids) > 0
    _, lam, mult, bounds = _merge_rows(np.column_stack((lam_r, lam, mult)),
                                       np.bincount(gid, minlength=n_grids))
    gid = np.repeat(np.arange(n_grids), np.diff(bounds))
    finite = spectral._is_finite_rank(np.bincount(gid[lam != 0.0], minlength=n_grids))
    # a zero entry adds +0.0 or -0.0 to a stored sum, which leaves it unchanged
    sums = spectral._stored_sums(f"parallel mean curvature at r={r}", lam, mult, bounds)
    traces = []
    for i, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        if is_focal[i]:
            traces.append(FOCAL)
        elif finite[i]:
            traces.append(sums[i])
        else:
            traces.append(spectral.reg_trace(
                SpectralData.from_eigenvalues(lam[lo:hi], mults=mult[lo:hi])))
    return traces


def transformed_grid(grid: EigenGrid, r: float) -> Union[EigenGrid, Sentinel]:
    """EigenGrid of the parallel submanifold at distance r (FOCAL on collision)."""
    lam, focal = _parallel_rows(grid.lam_r, grid.lam_a, r)
    if focal.any():
        return FOCAL
    return _eigen_grids(np.column_stack((grid.lam_r, lam, grid.mult)), [len(lam)], [grid.label])[0]


def parallel_reg_mean_curvature(grid: EigenGrid, r: float) -> TraceValue:
    """Paired trace of the parallel submanifold's shape spectrum at distance r."""
    return _parallel_traces(_stack([grid]), 1, r)[0]


def _multisets_close(a, b) -> bool:
    """Compare two (values, mults) multisets as their sorted sequences compare
    elementwise, once per run on which both are constant."""
    (va, ma), (vb, mb) = a, b
    if ma.sum() != mb.sum():
        return False
    oa, ob = np.argsort(va), np.argsort(vb)
    _, x, y = spectral.align_runs((va[oa], ma[oa]), (vb[ob], mb[ob]))
    return bool(np.all(np.abs(x - y)
                       <= SPEC_ABS_TOL + SPEC_REL_TOL * np.maximum(np.abs(x), np.abs(y))))


def weakly_isoparametric_check(grids: Sequence[EigenGrid]) -> bool:
    """Orthogonal equivalence across base points: equal spectra with multiplicity
    (zero eigenvalues included)."""
    if not grids:
        raise ValidationError("need at least one grid")
    ref = grids[0]
    return all(_multisets_close((ref.lam_r, ref.mult), (g.lam_r, g.mult))
               and _multisets_close((ref.lam_a, ref.mult), (g.lam_a, g.mult)) for g in grids[1:])


def isoparametric_check(grids: Sequence[EigenGrid], radii: Sequence[float],
                        tol: float = 1e-8) -> dict:
    """Constancy of the parallel regularized mean curvature over base points.

    Returns a report with per-(grid, r) values, the max spread per radius,
    focal collisions, and the overall verdict.
    """
    if not grids:
        raise ValidationError("need at least one grid")
    report = {"radii": {}, "focal_collisions": [], "regularizable": True, "passed": True}
    for g in grids:
        # a finite-rank spectrum is regularizable; the others take the truncated route
        if not (spectral._is_finite_rank(np.count_nonzero(g.lam_a))
                or spectral.is_regularizable(g.shape_spectrum())):
            report["regularizable"] = False
            report["passed"] = False
    stack = _stack(grids)
    for r in radii:
        values = []
        for idx, (g, v) in enumerate(zip(grids, _parallel_traces(stack, len(grids), r))):
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


def equifocal_check(grids: Sequence[EigenGrid], window: Window,
                    tol: float = 1e-8) -> bool:
    """Focal radii and multiplicities independent of the base point."""
    if not grids:
        raise ValidationError("need at least one grid")
    radii, mults, bounds = focal_sets(grids, window)
    counts = np.diff(bounds)
    if (counts != counts[0]).any():
        return False
    radii, mults = radii.reshape(len(grids), counts[0]), mults.reshape(len(grids), counts[0])
    return bool(np.all(mults == mults[0]) and not np.any(np.abs(radii - radii[0]) > tol))
