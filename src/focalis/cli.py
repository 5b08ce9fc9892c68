"""Command-line front-end.

Every command writes a versioned report ({"schema": 1, ...}) echoing the
resolved configuration, as JSON or flattened CSV.  Exit codes: 0 success,
1 the report's "passed" is false (a mathematical check failed), 2 input or
usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import glob
import itertools
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

from . import __version__
from . import focal, geomodel, greenop, hyperpolar, io, roots, spectral, transport
from .errors import (CHECK_TOL, FACTORIZATION_TOL, UNITARY_TOL, SingularOperatorError,
                     ValidationError, verdict)
from .focal import Window
from .spectral import FOCAL

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


_JSON_OPTIONS = (orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_NON_STR_KEYS
                 | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)
_CSV_WORDS = {"null": "None", "true": "True", "false": "False"}


def _default(x):
    """What orjson does not write itself: complex values as [re, im] pairs, an array
    that is not C-contiguous as a copy, float16 and 0-d ones and numpy scalars by tolist()."""
    if isinstance(x, (complex, np.complexfloating)):
        return [x.real, x.imag]
    if not isinstance(x, (np.ndarray, np.generic)):
        raise TypeError(f"type {type(x).__name__} is not JSON serializable")
    if x.dtype.kind == "c":
        return np.stack((x.real, x.imag), axis=-1)
    return x.tolist() if x.flags.c_contiguous else np.ascontiguousarray(x)


_dumps = functools.partial(orjson.dumps, default=_default, option=orjson.OPT_SERIALIZE_NUMPY)
_index_texts = functools.lru_cache(8)(lambda n: tuple(f"{i}," for i in range(n)))  # "0,", ...


def _csv_rows(report: dict):
    """Text of the key,value rows in the JSON report's order, walked by a stack, not
    recursion; an array's come one last-axis run at a time, by slice assignment."""
    todo = [(report, "")]
    while todo:
        x, key = todo.pop()
        if isinstance(x, (complex, np.complexfloating, np.ndarray)) and np.iscomplexobj(x):
            x = _default(x)
        if isinstance(x, dict):
            keyed = {k if isinstance(k, str) else _dumps(k).decode(): v for k, v in x.items()}
            todo.extend((keyed[k], f"{key}{k}.") for k in sorted(keyed, reverse=True))
        elif isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype.kind in "biuf" and x.size:
            texts = _dumps(x)[1:-1].decode().split(",")
            parts = ["\n" + key] * (3 * len(texts))
            parts[1::3] = _index_texts(len(texts))
            parts[2::3] = map(_CSV_WORDS.get, texts, texts)
            yield "".join(parts)
        elif isinstance(x, (list, tuple)) or isinstance(x, np.ndarray) and x.ndim:
            todo.extend((x[i], f"{key}{i}.") for i in reversed(range(len(x))))
        else:
            text = encode_basestring_ascii(x) if isinstance(x, str) else _dumps(x).decode()
            yield f"\n{key.rstrip('.')},{_CSV_WORDS.get(text, text)}"


def _emit(report: dict, fmt: str, out: str):
    """Write the report as UTF-8; a JSON one is encoded before out is opened."""
    try:
        chunks = ([orjson.dumps(report, default=_default, option=_JSON_OPTIONS)] if fmt == "json"
                  else map(str.encode, itertools.chain(["key,value"], _csv_rows(report), ["\n"])))
        sys.stdout.flush()
        with open(out, "wb") if out else contextlib.nullcontext(sys.stdout.buffer) as fh:
            fh.writelines(chunks)
    except orjson.JSONEncodeError as exc:
        raise ValidationError(f"cannot encode the report: {exc}") from exc
    except OSError as exc:
        if not out:
            raise
        raise ValidationError(f"cannot write report file '{out}': {exc}") from exc


def _finite_float(text: str) -> float:
    """argparse type of every float option: NaN and infinities are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got '{text}'")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type of every seed: numpy seeds are integers >= 0, and below
    2**64 here."""
    try:
        value = int(text)
    except ValueError:   # the text argparse gives for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got '{text}'")
    # the report echoes it, and no 64-bit JSON integer reader holds more
    if value >= 2 ** 64:
        raise argparse.ArgumentTypeError(f"must be below 2**64, got '{text}'")
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
    return result


def _cmd_focal(args):
    grid = io.read_eigen_grid(args.grid)
    window = _parse_window(args.window)
    radii, mults = focal.focal_set(grid, window)
    return {
        "label": grid.label,
        "window": [window.lo, window.hi],
        "radii": radii,
        "multiplicities": mults,
        "witness": focal.proper_fredholm_witness(radii, mults),
    }


def _cmd_parallel(args):
    grid = io.read_eigen_grid(args.grid)
    tg = focal.transformed_grid(grid, args.r)
    result = {"label": grid.label, "r": args.r, "focal_collision": tg is FOCAL,
              **verdict(tg is not FOCAL)}
    if tg is FOCAL:
        return {**result, "tr_r": None}
    return {**result, "pairs": [list(p) for p in tg.pairs],
            "tr_r": spectral.reg_trace(tg.shape_spectrum())}


def _read_grid_dir(path: str):
    files = sorted(glob.glob(os.path.join(path, "*.json")))
    if not files:
        raise ValidationError(f"no grid files in '{path}'")
    return io.read_eigen_grids(files)


def _cmd_check(args):
    grids = _read_grid_dir(args.grids)
    result = {"check": args.kind, "n_grids": len(grids)}
    if args.kind == "weak":
        return {**result, **verdict(focal.weakly_isoparametric_check(grids))}
    if args.kind == "iso":
        return {**result, **focal.isoparametric_check(grids, _parse_radii(args.radii), args.tol)}
    window = _parse_window(args.window)
    return {**result, "window": [window.lo, window.hi],
            **focal.equifocal_check(grids, window, tol=args.tol)}


def _cmd_example41(args):
    cfg = io.read_sphere_config(args.config) if args.config else geomodel.default_config()
    model = geomodel.build_model(cfg, args.points, args.seed)
    rng = np.random.default_rng(args.seed + 1)
    # fixed normal-field coefficients shared across points keep the field parallel
    coeffs = rng.normal(size=cfg.k1)
    window = _parse_window(args.window)
    radii = _parse_radii(args.radii)
    xis = np.zeros((args.points, cfg.ambient_dim))
    xis[:, cfg.curved_indices()] = model.normal_bases[:, :, : cfg.k1] @ coeffs
    grids = geomodel.eigen_grids(model, xis)
    focal_radii, focal_mults, bounds = focal.focal_sets(grids, window)
    focal_sets = {g.label: {"radii": focal_radii[lo:hi], "multiplicities": focal_mults[lo:hi]}
                  for g, lo, hi in zip(grids, bounds, bounds[1:])}
    iso = focal.isoparametric_check(grids, radii, tol=args.tol)
    adapted = geomodel.curvature_adapted_check(model, args.trials, args.seed + 2)
    return {
        "n_points": args.points,
        "trace_constancy": iso,
        "curvature_adapted": adapted,
        "focal_sets": focal_sets,
        "closed_form_traces": geomodel.trace_closed_form(model, 0, xis[0]),
        **verdict(iso["passed"], adapted["passed"]),
    }


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
    return {"steps": args.steps, "fine_steps": transport.fine_steps(args.steps, u),
            "integrator": transport.INTEGRATOR, "endpoint": g1,
            "unitarity_residual": unit, **verdict(unitarity=(unit, UNITARY_TOL))}


def _cmd_holonomy(args):
    omega = io.read_path(args.omega)
    omega0 = io.read_path(args.omega0) if args.omega0 else None
    hol = transport.holonomy_element(omega, omega0, steps=args.steps)
    mu = transport.pullback_connection(omega, omega0, steps=args.steps)
    phi_mu = transport.transport(mu, steps=args.steps)
    agreement = _residual(lambda: np.max(np.abs(hol - phi_mu)), "factorization residual")
    return {"fine_steps": transport.fine_steps(args.steps, mu),
            "integrator": transport.INTEGRATOR, "oracle": transport.ORACLE,
            "holonomy": hol, "transport_of_pullback": phi_mu,
            "factorization_residual": agreement,
            **verdict(factorization=(agreement, FACTORIZATION_TOL))}


def _cmd_roots(args):
    data = roots.restricted_root_decomposition(args.algebra, args.theta, seed=args.seed)
    report = roots.verify_bracket_pattern(data)
    return {
        "algebra": data.algebra.name,
        "theta": args.theta,
        "rank": len(data.a_basis),
        "n0": data.n0,
        "roots": data.roots.tolist(),
        "multiplicities": list(data.multiplicities),
        "bracket_max_residual": report["max_residual"],
        "bracket_max_residual_sum_only": report["max_residual_sum_only"],
        # the verdict verify_bracket_pattern built, with the identity it conjoined
        **{k: report[k] for k in ("dimension_identity", "bracket_tol", "passed")},
    }


_INVOLUTIONS = {"u1diag": "ad_diag", "son": "conj"}


def _so_name(algebra: str) -> str:
    """'soK' for a group name 'su' + K, after dropping one '_' and the zeros '0'
    that lead K ('su_03' gives 'so3'); a name not starting with 'su' as it is."""
    if not algebra.startswith("su"):
        return algebra
    rest = algebra[2:]
    return "so" + (rest[1:] if rest.startswith("_") else rest).lstrip("0")


def _cmd_hyperpolar(args):
    spec = args.k1.lower()
    if spec != args.k2.lower():
        raise ValidationError("only symmetric pairs with k1 == k2 are supported")
    algebra = args.group.lower().replace("(", "").replace(")", "")
    # soK is SO(n), the fixed group of conj in SU(n), only for K = n
    theta = _INVOLUTIONS.get("son" if spec == _so_name(algebra) else spec)
    if theta is None:
        raise ValidationError(f"unknown subgroup spec '{args.k1}' for group '{args.group}'")
    return hyperpolar.section_orthogonality_check(algebra, theta, n_samples=args.samples,
                                                  seed=args.seed)


def _cmd_green(args):
    op = greenop.OperatorMatrix(io.read_matrix(args.op))
    psi = io.read_vector(args.psi)
    sigma = greenop.green_apply(op, psi, project=args.project)
    residual = _residual(lambda: np.linalg.norm(op.apply(sigma) - psi), "residual")
    return {"sigma": sigma, "residual": residual, "projected": bool(args.project)}


def _cmd_box1d(args):
    op = greenop.box_operator_1d(args.samples, args.speed, periodic=args.periodic)
    eigenvalues = greenop.box_eigenvalues_1d(args.samples, args.speed,
                                            periodic=args.periodic)
    return {
        "samples": args.samples,
        "speed": args.speed,
        "periodic": bool(args.periodic),
        "smallest_eigenvalue": float(eigenvalues[0]),
        "largest_eigenvalue": float(eigenvalues[-1]),
        "matrix": op.entries,
    }


_REQUIRED = {"required": True}
_FLAG = {"action": "store_true"}
_WINDOW = ("--window", {"default": "0.001,10"})
_TOL = ("--tol", {"type": _finite_float, "default": CHECK_TOL})
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
        ("--trials", {"type": int, "default": 100,
                      "help": f"commutator trials, 1 to {geomodel.MAX_TRIALS}"}),
        ("--radii", {"default": None}), _WINDOW, _TOL, _SEED)),
    "transport": ("endpoint of the group path for u", _cmd_transport, (
        ("--path", _REQUIRED), ("--steps", {"type": int, "default": 1000}))),
    "holonomy": ("holonomy element of a connection path", _cmd_holonomy, (
        ("--omega", _REQUIRED), ("--omega0", {"default": None}),
        ("--steps", {"type": int, "default": 500}))),
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


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, for the lines that _plain_args declines."""
    parser = argparse.ArgumentParser(prog="focalis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments + _OUTPUT:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def _plain_args(argv: list):
    """The namespace build_parser().parse_args(argv) returns, read
    straight from the command table, for a plain command line; None for any
    other, which argparse then parses (and alone prints help, versions and
    errors for).  A line is plain when it names a command, then gives each
    option once by its exact name, each value as the next word, which does
    not start with '-' (check's kind anywhere); and every required option is
    present and every type and choices test passes."""
    _, func, arguments = _COMMANDS[argv[0]]
    table = dict(arguments + _OUTPUT)
    positionals = [flag for flag in table if not flag.startswith("-")]
    given = {}
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if not positionals:
                return None
            given[positionals.pop(0)] = word
        elif word not in table or word in given:
            return None
        elif table[word].get("action") == "store_true":
            given[word] = True
        else:
            given[word] = value = next(words, "-")
            if value.startswith("-"):
                return None
    values = {"command": argv[0], "func": func}
    for flag, options in table.items():
        if flag in given:
            value = given[flag]
        elif options.get("required") or flag in positionals:
            return None
        else:
            value = False if options.get("action") == "store_true" else options.get("default")
        # argparse types a given value and a str default, and tests choices
        # on a given value only
        if isinstance(value, str) and "type" in options:
            try:
                value = options["type"](value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if flag in given and value not in options.get("choices", (value,)):
            return None
        values[flag.lstrip("-").replace("-", "_")] = value
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a plain line naming a command is read from the command table, any other by argparse
    args = (argv and argv[0] in _COMMANDS and _plain_args(argv)) or build_parser().parse_args(argv)
    config = {k: v for k, v in sorted(vars(args).items()) if not callable(v)}
    try:
        result = args.func(args)
        _emit({"schema": 1, "version": __version__, "config": config, "result": result},
              args.format, args.out)
    except (ValidationError, SingularOperatorError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    return EXIT_CHECK_FAILED if result.get("passed") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
