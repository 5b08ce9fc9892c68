"""Command-line front-end.

Every command writes a versioned report ({"schema": 1, ...}) echoing the
resolved configuration, as JSON or flattened CSV.  Exit codes: 0 success,
1 a mathematical check failed, 2 input or usage error.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from . import focal, geomodel, greenop, hyperpolar, io, roots, spectral, transport
from .errors import SingularOperatorError, ValidationError
from .focal import Window
from .spectral import FOCAL, Sentinel

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _jsonable(x):
    """JSON value of a scalar leaf; a complex number becomes [re, im] and a
    sentinel its report spelling."""
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        # strict JSON has no NaN or Infinity
        return float(x) if math.isfinite(x) else None
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, Sentinel):
        return x.value
    if isinstance(x, complex):
        return [_jsonable(x.real), _jsonable(x.imag)]
    return x


# JSON text of the plain scalar types, as json.dumps writes them after
# _jsonable (encode_basestring_ascii is json.dumps' string encoder)
_SCALAR_JSON = {
    type(None): lambda v: "null",
    bool: lambda v: "true" if v else "false",
    int: int.__repr__,
    float: lambda v: float.__repr__(v) if math.isfinite(v) else "null",
    str: json.encoder.encode_basestring_ascii,
}


def _walk(x, path: tuple, out: list):
    """Append x to out in the layout of json.dumps(indent=2, sort_keys=True).

    Brackets, separators and keys go in as text.  Each leaf goes in as
    (path, value): path is a tuple of str keys and int indices, and value is
    the leaf's JSON text or a real, integer or boolean ndarray, written whole
    (a complex one as its stacked [re, im] parts).
    Dict keys are str()-ed and sorted, as in json.dumps after _jsonable.
    """
    encode = _SCALAR_JSON.get(type(x))
    if encode:
        out.append((path, encode(x)))
    elif isinstance(x, (dict, list, tuple)):
        if isinstance(x, dict):
            keyed = {str(k): v for k, v in x.items()}
            items = [(k, keyed[k]) for k in sorted(keyed)]
            brackets = "{}"
        else:
            items = list(enumerate(x))
            brackets = "[]"
        if not items:
            out.append(brackets)
            return
        inner = "\n" + "  " * (len(path) + 1)
        for i, (k, v) in enumerate(items):
            out.append((brackets[0] if i == 0 else ",") + inner)
            if brackets == "{}":
                out.append(json.encoder.encode_basestring_ascii(k) + ": ")
            _walk(v, path + (k,), out)
        out.append("\n" + "  " * len(path) + brackets[1])
    elif isinstance(x, np.ndarray):
        if x.dtype.kind == "c":
            x = np.stack((x.real, x.imag), axis=-1)
        if x.dtype.kind in "biu" or (x.dtype.kind == "f" and x.dtype.itemsize <= 8):
            out.append((path, x))
        else:
            _walk(x.tolist(), path, out)
    else:
        value = _jsonable(x)
        if isinstance(value, list):
            _walk(value, path, out)
        else:
            out.append((path, json.dumps(value)))


_BATCH_MAX = 4096  # elements: a larger array leaf is formatted alone, when written


def _flat_texts(flat: np.ndarray) -> list:
    """JSON text of every element of a flat real, integer or boolean array."""
    if flat.dtype.kind == "b":
        return ["true" if v else "false" for v in flat.tolist()]
    items = list(map(float.__repr__ if flat.dtype.kind == "f" else int.__repr__, flat.tolist()))
    for k in np.flatnonzero(~np.isfinite(flat)).tolist():
        items[k] = "null"
    return items


def _element_texts(arrays: list) -> list:
    """JSON texts of the elements of each array of at most _BATCH_MAX elements,
    in C order, and None for a larger one, so that no large leaf is copied and
    no two large leaves' texts are held at once.  The small arrays of one
    dtype kind go through one tolist()/repr pass over their concatenation."""
    groups, texts = {}, [None] * len(arrays)
    for i, a in enumerate(arrays):
        if a.size <= _BATCH_MAX:
            groups.setdefault(a.dtype.kind, []).append(i)
    for members in groups.values():
        parts = [arrays[i].ravel() for i in members]
        items = _flat_texts(np.concatenate(parts))
        ends = np.cumsum([p.size for p in parts]).tolist()
        for i, lo, hi in zip(members, [0] + ends, ends):
            texts[i] = items[lo:hi]
    return texts


def _leaf_texts(value: np.ndarray, texts: list) -> list:
    """The next leaf's element texts from the reversed _element_texts list."""
    items = texts.pop()
    return _flat_texts(value.ravel()) if items is None else items


def _array_json(items: list, shape: tuple, level: int) -> str:
    """An array of this shape and element texts, as json.dumps(a.tolist(),
    indent=2) writes it at nesting `level`."""
    for axis in reversed(range(len(shape))):
        n = shape[axis]
        if n == 0:
            items = ["[]"] * math.prod(shape[:axis])
            continue
        inner = "\n" + "  " * (level + axis + 1)
        close = "\n" + "  " * (level + axis) + "]"
        sep = "," + inner
        items = ["[" + inner + sep.join(items[i:i + n]) + close
                 for i in range(0, len(items), n)]
    return items[0]


_CSV_WORDS = {"null": "None", "true": "True", "false": "False"}


def _csv_rows(leaves, texts: list) -> list:
    """key,value rows: one per scalar leaf and per array element.  texts holds
    the element texts of the array leaves, the last leaf's first."""
    rows = ["key,value"]
    for path, value in leaves:
        keys = ["".join(f"{k}." for k in path)]
        items = [value] if isinstance(value, str) else _leaf_texts(value, texts)
        for n in () if isinstance(value, str) else value.shape:
            keys = [f"{k}{i}." for k in keys for i in range(n)]
        rows += [f"{k.rstrip('.')},{_CSV_WORDS.get(t, t)}" for k, t in zip(keys, items)]
    return rows


def _emit(report: dict, fmt: str, out: str):
    chunks = []
    _walk(report, (), chunks)
    leaves = [c for c in chunks if isinstance(c, tuple)]
    # popped leaf by leaf, so that each leaf's texts are freed once written
    texts = _element_texts([v for _, v in leaves if not isinstance(v, str)])[::-1]
    if fmt == "json":
        parts = [c if isinstance(c, str) else c[1] if isinstance(c[1], str)
                 else _array_json(_leaf_texts(c[1], texts), c[1].shape, len(c[0]))
                 for c in chunks]
    else:
        parts = ["\n".join(_csv_rows(leaves, texts))]
    parts.append("\n")
    if out:
        try:
            with open(out, "w") as fh:
                fh.writelines(parts)
        except OSError as exc:
            raise ValidationError(f"cannot write report file '{out}': {exc}") from exc
    else:
        sys.stdout.writelines(parts)


def _finite_float(text: str) -> float:
    """argparse type of every float option: NaN and infinities are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got '{text}'")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type of every seed: numpy seeds are integers >= 0."""
    try:
        value = int(text)
    except ValueError:   # the text argparse gives for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got '{text}'")
    return value


def _parse_window(text: str) -> Window:
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad window '{text}', expected 'lo,hi'") from exc
    return Window(lo, hi)


def _parse_radii(text) -> list:
    """Comma-separated finite radii; None or empty gives the default three."""
    if not text:
        return [0.05, 0.1, 0.2]
    try:
        radii = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad radii '{text}', expected 'r1,r2,...'") from exc
    if not all(math.isfinite(r) for r in radii):
        raise ValidationError(f"radii must be finite, got '{text}'")
    return radii


def _cmd_trace(args):
    spec = io.read_spectrum(args.spec)
    info = spectral.reg_trace_info(spec)
    square = spectral.trace_square_info(spec)
    result = {
        "tr_r": info.as_trace(),
        "tr_r_error": info.error if info.converged else None,
        "method": info.method,
        # spectral.is_regularizable, from the two infos already computed
        "regularizable": info.converged and square.converged,
    }
    if args.zeta:
        result["tr_zeta"] = spectral.zeta_trace(spec)
    if args.square:
        result["tr_sq"] = square.as_trace()
    return result, EXIT_OK


def _cmd_focal(args):
    grid = io.read_eigen_grid(args.grid)
    window = _parse_window(args.window)
    fset = focal.focal_set(grid, window)
    result = {
        "label": grid.label,
        "window": [window.lo, window.hi],
        "radii": fset.radii,
        "multiplicities": fset.multiplicities,
        "witness": focal.proper_fredholm_witness(fset),
    }
    return result, EXIT_OK


def _cmd_parallel(args):
    grid = io.read_eigen_grid(args.grid)
    tg = focal.transformed_grid(grid, args.r)
    result = {"label": grid.label, "r": args.r}
    if tg is FOCAL:
        result["focal_collision"] = True
        result["tr_r"] = None
        return result, EXIT_CHECK_FAILED
    result["focal_collision"] = False
    result["pairs"] = [list(p) for p in tg.pairs]
    result["tr_r"] = spectral.reg_trace(tg.shape_spectrum())
    return result, EXIT_OK


def _read_grid_dir(path: str):
    files = sorted(glob.glob(os.path.join(path, "*.json")))
    if not files:
        raise ValidationError(f"no grid files in '{path}'")
    return io.read_eigen_grids(files)


def _cmd_check(args):
    grids = _read_grid_dir(args.grids)
    if args.kind == "weak":
        ok = focal.weakly_isoparametric_check(grids)
        result = {"check": "weak", "n_grids": len(grids), "passed": ok}
    elif args.kind == "iso":
        report = focal.isoparametric_check(grids, _parse_radii(args.radii), tol=args.tol)
        ok = report["passed"]
        result = {"check": "iso", "n_grids": len(grids), **report}
    else:
        window = _parse_window(args.window)
        ok = focal.equifocal_check(grids, window, tol=args.tol)
        result = {"check": "equifocal", "n_grids": len(grids),
                  "window": [window.lo, window.hi], "passed": ok}
    return result, EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_example41(args):
    cfg = io.read_sphere_config(args.config) if args.config else geomodel.default_config()
    model = geomodel.build_model(cfg, args.points, args.seed)
    rng = np.random.default_rng(args.seed + 1)
    # fixed normal-field coefficients shared across points keep the field parallel
    coeffs = rng.normal(size=cfg.k1)
    window = _parse_window(args.window)
    radii = _parse_radii(args.radii)
    xis = model.normal_bases[:, :, : cfg.k1] @ coeffs
    grids = geomodel.eigen_grids(model, xis)
    focal_radii, focal_mults, bounds = focal.focal_sets(grids, window)
    focal_sets = {g.label: {"radii": focal_radii[lo:hi], "multiplicities": focal_mults[lo:hi]}
                  for g, lo, hi in zip(grids, bounds, bounds[1:])}
    iso = focal.isoparametric_check(grids, radii, tol=args.tol)
    adapted = geomodel.curvature_adapted_check(model, args.trials, args.seed + 2)
    result = {
        "n_points": args.points,
        "trace_constancy": iso,
        "curvature_adapted": adapted,
        "focal_sets": focal_sets,
        "closed_form_traces": geomodel.trace_closed_form(model, 0, xis[0]),
        "passed": bool(iso["passed"] and adapted["passed"]),
    }
    return result, EXIT_OK if result["passed"] else EXIT_CHECK_FAILED


def _residual(compute, name: str) -> float:
    """A report's residual compute(), refused unless finite (its answer left the float range)."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(compute())
    if not math.isfinite(value):
        raise ValidationError(f"the {name} is beyond float range")
    return value


def _cmd_transport(args):
    u = io.read_path(args.path)
    g1 = transport.transport(u, steps=args.steps)
    unit = _residual(lambda: np.max(np.abs(np.conj(g1.T) @ g1 - np.eye(g1.shape[0]))),
                     "unitarity residual")
    result = {"steps": args.steps, "endpoint": g1, "unitarity_residual": unit}
    return result, EXIT_OK


def _cmd_holonomy(args):
    omega = io.read_path(args.omega)
    omega0 = io.read_path(args.omega0) if args.omega0 else None
    hol = transport.holonomy_element(omega, omega0, steps=args.steps)
    mu = transport.pullback_connection(omega, omega0, steps=args.steps)
    phi_mu = transport.transport(mu, steps=args.steps)
    agreement = _residual(lambda: np.max(np.abs(hol - phi_mu)), "factorization residual")
    result = {"holonomy": hol, "transport_of_pullback": phi_mu,
              "factorization_residual": agreement, "passed": agreement < 1e-6}
    return result, EXIT_OK if result["passed"] else EXIT_CHECK_FAILED


def _cmd_roots(args):
    data = roots.restricted_root_decomposition(args.algebra, args.theta, seed=args.seed)
    report = roots.verify_bracket_pattern(data)
    identity = report["dimension_identity"]
    result = {
        "algebra": data.algebra.name,
        "theta": args.theta,
        "rank": len(data.a_basis),
        "n0": data.n0,
        "roots": [r.tolist() for r in data.roots],
        "multiplicities": list(data.multiplicities),
        "dimension_identity": identity,
        "bracket_max_residual": report["max_residual"],
        "bracket_max_residual_sum_only": report["max_residual_sum_only"],
        "passed": bool(report["passed"] and identity),
    }
    return result, EXIT_OK if result["passed"] else EXIT_CHECK_FAILED


_INVOLUTIONS = {"u1diag": "ad_diag", "son": "conj"}


def _cmd_hyperpolar(args):
    if args.k1 != args.k2:
        raise ValidationError("only symmetric pairs with k1 == k2 are supported")
    algebra = args.group.lower().replace("(", "").replace(")", "")
    spec = args.k1.lower()
    # soK is SO(n), the fixed group of conj in SU(n), only for K = n
    theta = _INVOLUTIONS.get("son" if spec == re.sub(r"^su_?0*", "so", algebra) else spec)
    if theta is None:
        raise ValidationError(f"unknown subgroup spec '{args.k1}' for group '{args.group}'")
    result = hyperpolar.section_orthogonality_check(
        algebra, theta, n_samples=args.samples, seed=args.seed)
    return result, EXIT_OK if result["passed"] else EXIT_CHECK_FAILED


def _cmd_green(args):
    op = greenop.OperatorMatrix(io.read_matrix(args.op))
    psi = io.read_vector(args.psi)
    sigma = greenop.green_apply(op, psi, project=args.project)
    residual = _residual(lambda: np.linalg.norm(op.apply(sigma) - psi), "residual")
    result = {"sigma": sigma, "residual": residual,
              "projected": bool(args.project)}
    return result, EXIT_OK


def _cmd_box1d(args):
    op = greenop.box_operator_1d(args.samples, args.speed, periodic=args.periodic)
    eigenvalues = greenop.box_eigenvalues_1d(args.samples, args.speed,
                                            periodic=args.periodic)
    result = {
        "samples": args.samples,
        "speed": args.speed,
        "periodic": bool(args.periodic),
        "smallest_eigenvalue": float(eigenvalues[0]),
        "largest_eigenvalue": float(eigenvalues[-1]),
        "matrix": op.entries,
    }
    return result, EXIT_OK


_REQUIRED = {"required": True}
_FLAG = {"action": "store_true"}
_WINDOW = ("--window", {"default": "0.001,10"})
_TOL = ("--tol", {"type": _finite_float, "default": 1e-8})
_SEED = ("--seed", {"type": _non_negative_int, "default": 0})

# name: (help, handler, its arguments as (name, add_argument keywords));
# every command also takes --format and --out
_COMMANDS = {
    "trace": ("regularized / power-sum traces of a spectrum", _cmd_trace, (
        ("--spec", _REQUIRED), ("--zeta", _FLAG), ("--square", _FLAG))),
    "focal": ("focal radii of an eigen grid in a window", _cmd_focal, (
        ("--grid", _REQUIRED), _WINDOW)),
    "parallel": ("parallel shape spectrum at distance r", _cmd_parallel, (
        ("--grid", _REQUIRED), ("--r", {"type": _finite_float, "required": True}))),
    "check": ("multi-point isoparametric checks", _cmd_check, (
        ("kind", {"choices": ("weak", "iso", "equifocal")}), ("--grids", _REQUIRED),
        _WINDOW, ("--radii", {"default": None}), _TOL)),
    "example41": ("product-of-spheres verification report", _cmd_example41, (
        ("--config", {"default": None}), ("--points", {"type": int, "default": 100}),
        ("--trials", {"type": int, "default": 100}), ("--radii", {"default": None}),
        _WINDOW, _TOL, _SEED)),
    "transport": ("endpoint of the group path for u", _cmd_transport, (
        ("--path", _REQUIRED), ("--steps", {"type": int, "default": 1000}))),
    "holonomy": ("holonomy element of a connection path", _cmd_holonomy, (
        ("--omega", _REQUIRED), ("--omega0", {"default": None}),
        ("--steps", {"type": int, "default": 4000}))),
    "roots": ("restricted-root decomposition report", _cmd_roots, (
        ("--algebra", _REQUIRED), ("--theta", {"default": "conj"}), _SEED)),
    "hyperpolar": ("two-sided action section check", _cmd_hyperpolar, (
        ("--group", _REQUIRED), ("--k1", _REQUIRED), ("--k2", _REQUIRED),
        ("--samples", {"type": int, "default": 25,
                       "help": f"sample points, 1 to {hyperpolar.MAX_SAMPLES}"}), _SEED)),
    "green": ("apply the spectral Green operator", _cmd_green, (
        ("--op", _REQUIRED), ("--psi", _REQUIRED), ("--project", _FLAG))),
    "box1d": ("discrete id - (1/a^2) D^2 operator", _cmd_box1d, (
        ("--samples", {"type": int, "required": True,
                       "help": f"grid size, 4 to {greenop.MAX_BOX_SAMPLES}"}),
        ("--speed", {"type": _finite_float, "required": True}), ("--periodic", _FLAG))),
}
_OUTPUT = (("--format", {"choices": ("json", "csv"), "default": "json"}), ("--out", {}))


def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI parser.  Given a command name, only that subcommand's parser is
    built, and a metavar keeps every command in the usage line that top-level
    errors print (the full parser keeps none: it would rename the argument)."""
    parser = argparse.ArgumentParser(prog="focalis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if command else None)
    for name in [command] if command else _COMMANDS:
        help_text, func, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments + _OUTPUT:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command line naming a command parses with that command's parser
    # alone; --help, --version and an empty or unknown one take the full one
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    config = {k: v for k, v in sorted(vars(args).items()) if not callable(v)}
    try:
        result, code = args.func(args)
        _emit({"schema": 1, "version": __version__, "config": config, "result": result},
              args.format, args.out)
    except (ValidationError, SingularOperatorError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
