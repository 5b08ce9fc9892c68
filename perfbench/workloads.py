"""Seeded inputs, report mixes and reference checks for the four workloads.

A workload is a fixed cycle of CLI reports that the runner repeats.  The
composition of the cycle (which subcommands, at which sizes) is the same for
every seed; the seed draws the numbers inside the input files and the
``--seed`` arguments.  A fixed composition keeps the latency percentiles on
the same report kind from run to run: each mix below is chosen so that, with
its reports sorted by cost, p50 and p90 fall inside a block of one kind, not
on the edge between two kinds with different costs.

Every report is checked against a reference the benchmark computes itself
(scipy/numpy closed forms, never focalis); a check returns None when the
report is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

Check = Callable[[int, Optional[dict]], Optional[str]]


@dataclass(frozen=True)
class Report:
    """One CLI invocation: its kind (for per-kind statistics), argv and check."""

    kind: str
    argv: tuple
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    reports: List[Report]      # one cycle, in run order


def _interleave(reports: List[Report]) -> List[Report]:
    """Spread each report kind evenly through the cycle.

    The machine's speed drifts over seconds, so a kind run in one burst
    samples one moment of it; spread out, every kind sees the whole run.
    """
    groups = {}
    for r in reports:
        groups.setdefault(r.kind, []).append(r)
    keyed = [((i + 0.5) / len(group), kind, i, r)
             for kind, group in groups.items() for i, r in enumerate(group)]
    return [r for *_, r in sorted(keyed, key=lambda t: t[:3])]


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _complex_rows(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _read_complex(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _write_path(path: str, samples: np.ndarray) -> str:
    ts = np.linspace(0.0, 1.0, samples.shape[0])
    return _write_json(path, {"group": "SU", "samples": [
        [float(t), _complex_rows(m)] for t, m in zip(ts, samples)]})


def _exit_ok(code: int, report: Optional[dict]) -> Optional[str]:
    if code != 0:
        return f"exit code {code}, expected 0"
    if report is None or "result" not in report:
        return "no report written"
    if report["result"].get("passed", True) is not True:
        return "verdict 'passed' is not true"
    return None


def _checked(*tests: Callable[[dict], Optional[str]]) -> Check:
    """Exit code 0, a true verdict when the report has one, then each test."""
    def check(code, report):
        err = _exit_ok(code, report)
        if err:
            return err
        for test in tests:
            err = test(report["result"])
            if err:
                return err
        return None
    return check


def _close(name: str, got, want, tol: float) -> Optional[str]:
    dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not dev <= tol:
        return f"{name} deviates from the reference by {dev:.3e} (tol {tol:.1e})"
    return None


def _random_su(n: int, rng: np.random.Generator) -> np.ndarray:
    """Anti-Hermitian traceless matrix with unit Frobenius norm."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (a - a.conj().T) / 2.0
    a -= np.trace(a) / n * np.eye(n)
    return a / np.linalg.norm(a)


def _smooth_path(n: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Non-commuting su(n) path: a few random Fourier modes in the algebra."""
    t = np.linspace(0.0, 1.0, samples)[:, None, None]
    out = np.zeros((samples, n, n), dtype=complex)
    for j in range(3):
        out += np.sin((j + 1) * np.pi * t + rng.uniform(0, 2 * np.pi)) * _random_su(n, rng)
    return out


# ---------------------------------------------------------------- holonomy
# Why: transport stepping and the RK4 holonomy integrator (ROADMAP item 2)
# carry the load; algebras, geomodel and greenop are bypassed.
# (matrix size, sample intervals) of the transport reports in one cycle.
# Transport reports are 9 of 12, so p50 sits inside the transport block;
# the three holonomy reports are the slowest quarter, so p90 sits inside
# them.
_TRANSPORT_SHAPES = ((2, 100), (2, 150), (2, 200), (2, 300),
                     (3, 100), (3, 150), (3, 200), (3, 250), (3, 300))
_HOLONOMY_SIZES = (2, 3, 3)


def _transport_check(reference: np.ndarray) -> Check:
    def endpoint(res):
        return (_close("endpoint", _read_complex(res["endpoint"]), reference, 1e-9)
                or (None if res["unitarity_residual"] < 1e-10
                    else f"unitarity residual {res['unitarity_residual']:.3e}"))
    return _checked(endpoint)


def _holonomy_check(res) -> Optional[str]:
    if not res["factorization_residual"] < 1e-6:
        return f"factorization residual {res['factorization_residual']:.3e} >= 1e-6"
    hol = _read_complex(res["holonomy"])
    return _close("holonomy unitarity", hol.conj().T @ hol, np.eye(len(hol)), 1e-8)


def holonomy(seed: int, workdir: str, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    steps = 200 if tiny else 4000
    reports = []
    for i, (n, s) in enumerate(_TRANSPORT_SHAPES):
        if tiny:
            s = max(4, s // 25)
        direction = _random_su(n, rng)
        t = np.linspace(0.0, 1.0, s + 1)
        if i % 3 == 0:      # constant path
            f = np.full(s + 1, rng.uniform(0.5, 2.0))
        else:               # u(t) = f(t) A commutes with itself: endpoint is expm
            f = sum(rng.normal() * np.cos(k * np.pi * t) for k in range(4))
        path = _write_path(os.path.join(workdir, f"u{i}.json"), f[:, None, None] * direction)
        # midpoint steps aligned with the sample nodes integrate the linear
        # interpolant of f exactly, so the reference is expm(trapezoid(f) A)
        reference = expm(np.trapezoid(f, t) * direction)
        reports.append(Report(f"transport.su{n}",
                              ("transport", "--path", path, "--steps", str(steps)),
                              _transport_check(reference)))
    for i, n in enumerate(_HOLONOMY_SIZES):
        omega = _write_path(os.path.join(workdir, f"omega{i}.json"), _smooth_path(n, 21, rng))
        omega0 = _write_path(os.path.join(workdir, f"omega0_{i}.json"),
                             0.5 * _smooth_path(n, 21, rng))
        argv = ("holonomy", "--omega", omega, "--omega0", omega0)
        if tiny:
            argv += ("--steps", "200")
        reports.append(Report(f"holonomy.su{n}", argv, _checked(_holonomy_check)))
    reports = _interleave(reports)
    return Workload("holonomy", reports)


# ----------------------------------------------------------- sphere_product
# Why: geomodel, focal and the finite-rank path of spectral carry the load,
# with focal also fed from 100 grid files; the workload most sensitive to
# per-object overhead.  transport, algebras and greenop are bypassed.
# One cycle: 3 cheap grid-file reports, 6 default example41, 3 example41 at
# ambient dimension 512.  p50 falls in the default-example41 block
# (positions 4-9 of 12), p90 in the large-config block (positions 10-12).
_DEFAULT_BLOCKS = ((4, 1.0), (4, 0.8), (3, 0.6), (3, 0.5))
_DEFAULT_RPRIME = (0.8, 0.6, 0.45, 0.35)
_RADII = (0.05, 0.1, 0.2)
_WINDOW = (0.001, 10.0)


def _sphere_pairs(blocks, rprime, coeffs, free_odd: int):
    """Closed-form (lambdaR, lambdaA, mult) of a parallel normal field.

    Block j's slice is a sphere of dimension m_j - 2 and radius rprime_j
    inside a sphere of radius r_j; free odd slots are flat.
    """
    pairs = []
    for (m, r), rp, c in zip(blocks, rprime, coeffs):
        if m > 2:
            pairs.append((c * c / (r * r), math.sqrt(1.0 / rp ** 2 - 1.0 / r ** 2) * c, m - 2))
    if free_odd:
        pairs.append((0.0, 0.0, free_odd))
    return pairs


def _amplitude(lr: float, la: float, s):
    """Jacobi amplitude Y(s) and Y'(s) for Y'' = -lr Y, Y(0) = 1, Y'(0) = -la."""
    s = np.asarray(s, dtype=float)
    if lr > 0:
        q = math.sqrt(lr)
        return (np.cos(q * s) - la * np.sin(q * s) / q,
                -q * np.sin(q * s) - la * np.cos(q * s))
    if lr < 0:
        q = math.sqrt(-lr)
        return (np.cosh(q * s) - la * np.sinh(q * s) / q,
                q * np.sinh(q * s) - la * np.cosh(q * s))
    return 1.0 - la * s, np.full_like(s, -la)


def _parallel_trace(pairs, r: float) -> float:
    """Paired trace sum_i mult_i * (-Y_i'(r) / Y_i(r)) of the parallel shape operator."""
    total = 0.0
    for lr, la, m in pairs:
        y, yp = _amplitude(lr, la, r)
        total += m * float(-yp / y)
    return total


def _focal_reference(pairs, lo: float, hi: float):
    """Zeros of every Y_i in [lo, hi] by a sign scan and bisection, merged."""
    grid = np.linspace(lo, hi, 20001)
    found = []
    for lr, la, m in pairs:
        y, _ = _amplitude(lr, la, grid)
        for k in np.flatnonzero(np.sign(y[:-1]) * np.sign(y[1:]) < 0):
            r = brentq(lambda s: float(_amplitude(lr, la, s)[0]), grid[k], grid[k + 1],
                       xtol=1e-14)
            found.append((r, m))
    merged = []
    for r, m in sorted(found):
        if merged and abs(r - merged[-1][0]) <= 1e-9:
            merged[-1][1] += m
        else:
            merged.append([r, m])
    return [r for r, _ in merged], [m for _, m in merged]


def _focal_check(pairs) -> Check:
    radii, mults = _focal_reference(pairs, *_WINDOW)

    def test(res):
        if res["multiplicities"] != mults:
            return f"focal multiplicities {res['multiplicities']} != {mults}"
        if res["witness"]["count"] != len(radii):
            return "witness count differs from the number of focal radii"
        return _close("focal radii", res["radii"], radii, 1e-9)
    return _checked(test)


def _iso_check(pairs, n_grids: int) -> Check:
    def test(res):
        if res["n_grids"] != n_grids:
            return f"read {res['n_grids']} grids, wrote {n_grids}"
        for r in _RADII:
            values = res["radii"][str(r)]["values"]
            want = _parallel_trace(pairs, r)
            err = _close(f"parallel trace at r={r}", values, [want] * n_grids,
                         1e-9 * (1.0 + abs(want)))
            if err:
                return err
        return None
    return _checked(test)


def _equifocal_check(n_grids: int) -> Check:
    return _checked(lambda res: None if res["n_grids"] == n_grids
                    else f"read {res['n_grids']} grids, wrote {n_grids}")


def _example41_check() -> Check:
    block_dims = [m - 2 for m, _ in _DEFAULT_BLOCKS]

    def test(res):
        # criterion 4's spread bound, relative to the size of the traces
        for r, v in res["trace_constancy"]["radii"].items():
            bound = 1e-12 * (1.0 + max(abs(x) for x in v["values"]))
            if not v["spread"] < bound:
                return f"trace spread {v['spread']:.3e} at r={r} >= {bound:.3e}"
        comm = res["curvature_adapted"]["max_commutator_norm"]
        if not comm < 1e-10:
            return f"commutator norm {comm:.3e} >= 1e-10"
        if res["closed_form_traces"]["block_dims"] != block_dims:
            return f"block dims {res['closed_form_traces']['block_dims']} != {block_dims}"
        sets = list(res["focal_sets"].values())
        for fs in sets[1:]:
            if fs["multiplicities"] != sets[0]["multiplicities"]:
                return "focal multiplicities differ between base points"
            err = _close("focal radii across base points", fs["radii"], sets[0]["radii"], 1e-9)
            if err:
                return err
        return None
    return _checked(test)


def _sphere_config(path: str, rng: np.random.Generator, ambient_dim: int) -> str:
    radii = [r * rng.uniform(0.9, 1.1) for _, r in _DEFAULT_BLOCKS]
    rprime = [r * rng.uniform(0.5, 0.9) for r in radii]
    return _write_json(path, {"blocks": [[m, r] for (m, _), r in zip(_DEFAULT_BLOCKS, radii)],
                              "k1": len(_DEFAULT_BLOCKS), "rprime": rprime, "k2": 2,
                              "ambient_dim": ambient_dim})


def sphere_product(seed: int, workdir: str, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    n_grids = 10 if tiny else 100
    ambient = 64                                  # the CLI's default model
    pairs = _sphere_pairs(_DEFAULT_BLOCKS, _DEFAULT_RPRIME,
                          rng.normal(size=len(_DEFAULT_BLOCKS)),
                          free_odd=ambient - ambient // 2 - 2)
    grid_dir = os.path.join(workdir, "grids")
    os.makedirs(grid_dir)
    for i in range(n_grids):
        _write_json(os.path.join(grid_dir, f"g{i:03d}.json"), {
            "label": f"x{i}",
            "pairs": [{"lambdaR": lr, "lambdaA": la, "mult": m} for lr, la, m in pairs]})
    configs = [_sphere_config(os.path.join(workdir, f"config{i}.json"), rng,
                              128 if tiny else 512) for i in range(3)]
    points, trials = ("10", "10") if tiny else ("100", "100")
    big_points, big_trials = ("5", "3") if tiny else ("20", "20")
    ex41 = _example41_check()
    base = int(rng.integers(1_000_000))
    reports = [
        Report("focal", ("focal", "--grid", os.path.join(grid_dir, "g000.json")),
               _focal_check(pairs)),
        Report("check.equifocal", ("check", "equifocal", "--grids", grid_dir),
               _equifocal_check(n_grids)),
        Report("check.iso", ("check", "iso", "--grids", grid_dir), _iso_check(pairs, n_grids)),
    ]
    reports += [Report("example41.default",
                       ("example41", "--points", points, "--trials", trials,
                        "--seed", str(base + j)), ex41) for j in range(6)]
    reports += [Report("example41.config",
                       ("example41", "--config", cfg, "--points", big_points,
                        "--trials", big_trials, "--seed", str(base + 10 + j)), ex41)
                for j, cfg in enumerate(configs)]
    return Workload("sphere_product", _interleave(reports))


# ---------------------------------------------------------- symmetric_pairs
# Why: Lie-algebra construction and verification (ROADMAP item 3), roots and
# hyperpolar carry the load; io, transport, geomodel and greenop are bypassed.
def _algebra_dim(alg: str) -> int:
    n = int(alg[2:])
    return n * n - 1 if alg.startswith("su") else n * (n - 1) // 2


def _split(alg: str, theta: str):
    """(rank of the symmetric pair, dim of the fixed subalgebra k)."""
    n = int(alg[2:])
    if theta == "conj":                       # SU(n)/SO(n)
        return n - 1, n * (n - 1) // 2
    p = int(theta.rsplit("_", 1)[1]) if theta.startswith("ad_diag_") else n - 1
    q = n - p
    if alg.startswith("su"):                  # S(U(p) x U(q))
        return min(p, q), p * p + q * q - 1
    return min(p, q), p * (p - 1) // 2 + q * (q - 1) // 2


def _roots_check(alg: str, theta: str) -> Check:
    rank, _ = _split(alg, theta)

    def test(res):
        if res["rank"] != rank:
            return f"rank {res['rank']} != {rank}"
        if res["n0"] + sum(res["multiplicities"]) != _algebra_dim(alg):
            return "dimensions of g_0 and the root spaces do not add up to dim g"
        if not res["dimension_identity"]:
            return "dimension identity false"
        if not res["bracket_max_residual"] < 1e-9:
            return f"bracket residual {res['bracket_max_residual']:.3e} >= 1e-9"
        return None
    return _checked(test)


_HYPERPOLAR_SUBGROUPS = {"so2": "conj", "so3": "conj", "son": "conj", "u1diag": "ad_diag"}


def _hyperpolar_check(alg: str, subgroup: str) -> Check:
    rank, k_dim = _split(alg, _HYPERPOLAR_SUBGROUPS[subgroup])

    def test(res):
        if (res["section_dim"], res["subgroup_dim"]) != (rank, k_dim):
            return (f"section/subgroup dims {res['section_dim']}/{res['subgroup_dim']} "
                    f"!= {rank}/{k_dim}")
        if not res["max_orthogonality_residual"] < 1e-8:
            return f"orthogonality residual {res['max_orthogonality_residual']:.3e} >= 1e-8"
        if not res["flatness_residual"] < 1e-12:
            return f"flatness residual {res['flatness_residual']:.3e} >= 1e-12"
        return None
    return _checked(test)


# One cycle of 20, cheapest first: su2 (4), su3 roots (4), su3 hyperpolar
# (4, so3 at the middle so p50 sits on it), so5 (4), then su4 (4, one
# report in five).  The heavy block is su4 only: so6 costs about three
# quarters of su4, and with it in the block p90 fell on the edge between the
# two.  so8 is left out: one load costs several seconds.
_PAIR_MIX = (
    ("roots", "su2", "conj"), ("roots", "su2", "ad_diag"),
    ("hyperpolar", "su2", "so2"), ("hyperpolar", "su2", "u1diag"),
    ("roots", "su3", "conj"), ("roots", "su3", "conj"),
    ("roots", "su3", "ad_diag"), ("roots", "su3", "ad_diag"),
    ("hyperpolar", "su3", "so3"), ("hyperpolar", "su3", "so3"),
    ("hyperpolar", "su3", "so3"), ("hyperpolar", "su3", "u1diag"),
    ("roots", "so5", "ad_diag"), ("roots", "so5", "ad_diag_2"),
    ("hyperpolar", "so5", "u1diag"), ("hyperpolar", "so5", "u1diag"),
    ("roots", "su4", "conj"), ("roots", "su4", "ad_diag_2"),
    ("hyperpolar", "su4", "son"), ("hyperpolar", "su4", "u1diag"),
)
_TINY_PAIR_MIX = (
    ("roots", "su2", "conj"), ("roots", "su3", "ad_diag"),
    ("hyperpolar", "su2", "u1diag"), ("hyperpolar", "su3", "so3"),
)


def symmetric_pairs(seed: int, workdir: str, tiny: bool = False) -> Workload:
    base = int(np.random.default_rng(seed).integers(1_000_000))
    reports = []
    for j, (cmd, alg, spec) in enumerate(_TINY_PAIR_MIX if tiny else _PAIR_MIX):
        if cmd == "roots":
            argv = ("roots", "--algebra", alg, "--theta", spec)
            check = _roots_check(alg, spec)
        else:
            group = f"{alg[:2].upper()}({alg[2:]})"
            argv = ("hyperpolar", "--group", group, "--k1", spec, "--k2", spec)
            if tiny:
                argv += ("--samples", "3")
            check = _hyperpolar_check(alg, spec)
        reports.append(Report(f"{cmd}.{alg}", argv + ("--seed", str(base + j)), check))
    return Workload("symmetric_pairs", _interleave(reports))


# ----------------------------------------------------------- operator_files
# Why: JSON reading, report emission, the truncated (certified) spectral path
# and greenop carry the load; catches a change that bloats the report.
# transport, geomodel and algebras are bypassed.
def _spectrum_file(path: str, positives, negatives, tail) -> str:
    return _write_json(path, {
        "positives": [{"value": float(v), "mult": 1} for v in positives],
        "negatives": [{"value": float(v), "mult": 1} for v in negatives],
        "tail": tail})


def _trace_check(tr_ref: float, tr_tol: float, zeta_ref: float, sq_lo: float,
                 sq_hi: float) -> Check:
    def test(res):
        if res["regularizable"] is not True:
            return "spectrum reported as not regularizable"
        for key in ("tr_r", "tr_zeta", "tr_sq"):
            if not isinstance(res[key], float):
                return f"{key} is {res[key]!r}"
        err = (_close("tr_r", res["tr_r"], tr_ref, tr_tol + (res["tr_r_error"] or 0.0))
               or _close("tr_zeta", res["tr_zeta"], zeta_ref, 1e-6 * (1.0 + abs(zeta_ref))))
        if err:
            return err
        # the square trace is certified to the program's 1e-6 convergence threshold
        if not sq_lo - 1e-9 <= res["tr_sq"] <= sq_hi + 1e-6 * (1.0 + sq_hi):
            return f"tr_sq {res['tr_sq']!r} outside [{sq_lo!r}, {sq_hi!r}]"
        return None
    return _checked(test)


def _alternating(path: str, n: int, rng: np.random.Generator):
    """n entries c * (1/2 - 1 + 1/4 - 1/3 ...): trace -c ln 2 (acceptance bound 1e-3)."""
    c = rng.uniform(0.5, 2.0)
    i = np.arange(1, n // 2 + 1, dtype=float)
    pos, neg = c / (2.0 * i), c / (2.0 * i - 1.0)
    _spectrum_file(path, pos, neg, None)
    sq = np.concatenate([pos, neg]) ** 2
    return ("alternating", path,
            _trace_check(-c * math.log(2.0), 1e-3 * c, math.fsum(pos) - math.fsum(neg),
                         math.fsum(sq), c * c * math.pi ** 2 / 6.0))


def _geometric(path: str, n: int, rng: np.random.Generator):
    """n entries in branches C q^i and C' q^i, q^(n/2) = e^-30, with a tail model."""
    q = math.exp(-60.0 / n)
    cp, cn = rng.uniform(0.5, 2.0, size=2)
    powers = q ** np.arange(n // 2, dtype=float)
    pos, neg = cp * powers, cn * powers
    # the declared tail bound sits below every stored entry
    _spectrum_file(path, pos, neg, {"ratio": q, "scale": 0.5 * min(cp, cn)})
    reg = (cp - cn) / (1.0 - q)
    sq = (cp * cp + cn * cn) / (1.0 - q * q)
    return ("geometric", path, _trace_check(reg, 1e-9 * (1.0 + abs(reg)), reg, sq, sq))


def _green(workdir: str, i: int, n: int, rng: np.random.Generator):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (q * rng.uniform(1.0, 10.0, size=n)) @ q.T
    a = (a + a.T) / 2.0
    psi = rng.normal(size=n)
    op = _write_json(os.path.join(workdir, f"op{i}.json"), a.tolist())
    vec = _write_json(os.path.join(workdir, f"psi{i}.json"), psi.tolist())
    sigma = np.linalg.solve(a, psi)

    def test(res):
        return (_close("sigma vs numpy.linalg.solve", res["sigma"], sigma,
                       1e-9 * float(np.max(np.abs(sigma))))
                or (None if res["residual"] < 1e-9 else f"residual {res['residual']:.3e}"))
    return Report(f"green.n{n}", ("green", "--op", op, "--psi", vec), _checked(test))


def _box1d(samples: int, speed: float) -> Report:
    h = 1.0 / samples
    k = np.arange(samples)
    eig = 1.0 + (2.0 / (speed * h)) ** 2 * np.sin(np.pi * k / samples) ** 2
    off = 1.0 / (speed * h) ** 2
    matrix = np.eye(samples) * (1.0 + 2.0 * off)
    matrix[k, (k + 1) % samples] -= off
    matrix[k, (k - 1) % samples] -= off
    tol = 1e-9 * float(eig.max())

    def test(res):
        return (_close("smallest eigenvalue", res["smallest_eigenvalue"], eig.min(), tol)
                or _close("largest eigenvalue", res["largest_eigenvalue"], eig.max(), tol)
                or _close("matrix", res["matrix"], matrix, tol))
    return Report(f"box1d.s{samples}", ("box1d", "--samples", str(samples),
                                        "--speed", repr(speed), "--periodic"), _checked(test))


# One cycle of 10, by cost: box1d 128, three traces, four green (N 384 to
# 512), two box1d 512.  p50 falls between the green reports, p90 inside the
# box1d-512 pair.
_TRACE_SPECTRA = (("alternating", 10_000), ("geometric", 30_000), ("geometric", 100_000))
_GREEN_SIZES = (384, 416, 448, 512)
_BOX_SIZES = (128, 512, 512)


def operator_files(seed: int, workdir: str, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    shrink = 10 if tiny else 1
    reports = []
    for i, (family, n) in enumerate(_TRACE_SPECTRA):
        make = _alternating if family == "alternating" else _geometric
        name, path, check = make(os.path.join(workdir, f"spec{i}.json"), n // shrink, rng)
        reports.append(Report(f"trace.{name}", ("trace", "--spec", path, "--zeta", "--square"),
                              check))
    reports += [_green(workdir, i, n // (16 if tiny else 1), rng)
                for i, n in enumerate(_GREEN_SIZES)]
    boxes = [_box1d(s // (16 if tiny else 1), float(rng.uniform(1.0, 3.0))) for s in _BOX_SIZES]
    reports = _interleave(boxes + reports)
    return Workload("operator_files", reports)


BUILDERS = {
    "holonomy": holonomy,
    "sphere_product": sphere_product,
    "symmetric_pairs": symmetric_pairs,
    "operator_files": operator_files,
}
