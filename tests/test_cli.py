import contextlib
import io as textio
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from focalis import cli, focal, hyperpolar, io, spectral, transport
from focalis.algebras import MAX_MATRIX_SIZE, load_algebra
from focalis.cli import build_parser, main
from focalis.errors import FACTORIZATION_TOL, UNITARY_TOL, ValidationError
from focalis.focal import FOCAL, EigenGrid
from focalis.geomodel import MAX_TRIALS, default_config
from focalis.greenop import MAX_BOX_SAMPLES, box_operator_1d
from focalis.spectral import DIVERGENT, SpectralData, TailModel


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _reject_constant(token):
    raise ValueError(f"report holds {token}, which strict JSON does not allow")


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out, parse_constant=_reject_constant)


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def write_spectrum(path, spec):
    def entries(values, mults):
        return [{"value": float(v), "mult": int(m)} for v, m in zip(values, mults)]
    tail = None if spec.tail is None else {"ratio": spec.tail.ratio, "scale": spec.tail.scale}
    _write_json(path, {"positives": entries(spec.positives, spec.pos_mults),
                       "negatives": entries(spec.negatives, spec.neg_mults), "tail": tail})


def write_eigen_grid(path, grid):
    _write_json(path, {"label": grid.label, "pairs": [
        {"lambdaR": lr, "lambdaA": la, "mult": m} for lr, la, m in grid.pairs]})


def write_path(path, samples):
    """Path file of a (S+1, n, n) stack on the uniform grid over [0, 1]."""
    ts = np.linspace(0.0, 1.0, len(samples))
    _write_json(path, {"group": "SU2", "samples": [
        [float(t), [[[float(z.real), float(z.imag)] for z in row] for row in m]]
        for t, m in zip(ts, np.asarray(samples, dtype=complex))]})


def usage_error(capsys, *argv):
    """argparse refuses the command line: exit status 2 and no report."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


class _Stdout(textio.TextIOWrapper):
    """A stand-in for sys.stdout with a byte buffer, which the CLI writes
    reports to; getvalue() gives what was written, decoded."""

    def __init__(self):
        super().__init__(textio.BytesIO(), encoding="utf-8", write_through=True)

    def getvalue(self):
        return self.buffer.getvalue().decode()


# The reference encoder: the report as plain JSON values, then json.dumps or
# a flat key,value list.  A non-str key is spelled as its JSON text, a float
# one as orjson spells it.  The elements of a float32 array stay np.float32,
# to be compared at float32: orjson writes its shortest float32 round trip.
def _key_text(k):
    if isinstance(k, str):
        return k
    return orjson.dumps(k).decode() if isinstance(k, float) else json.dumps(k)


def _reference_jsonable(x):
    if isinstance(x, dict):
        return {_key_text(k): _reference_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)) or isinstance(x, np.ndarray) and x.ndim:
        return [_reference_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _reference_jsonable(x[()])
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (complex, np.complexfloating)):
        return _reference_jsonable([x.real, x.imag])
    if isinstance(x, np.float32):
        return x if math.isfinite(x) else None
    if isinstance(x, (np.floating, float)):
        return float(x) if math.isfinite(x) else None
    if isinstance(x, (np.integer, int)):
        return int(x)
    if x is DIVERGENT:
        return "divergent"
    if x is FOCAL:
        return "focal"
    return x


def _reference_flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            rows.extend(_reference_flatten(obj[k], f"{prefix}{k}."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            rows.extend(_reference_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix.rstrip("."), obj))
    return rows


def _same_values(got, want):
    """got, read back from a report, equals the reference value want: by type
    and repr, sign included, and a float32 leaf at float32."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and sorted(got) == sorted(want)
                and all(_same_values(got[k], v) for k, v in want.items()))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(_same_values, got, want)))
    if isinstance(want, np.float32):
        return isinstance(got, float) and repr(np.float32(got)) == repr(want)
    return type(got) is type(want) and repr(got) == repr(want)


_FLOAT_TEXT = re.compile(r"\d[.eE]")   # floats, and no int or JSON word
# orjson writes every character from U+007F up as itself, json.dumps escapes it
_PRINTABLE_ASCII = re.compile(r"[ -~]*")


def _assert_matches_reference(report):
    """The JSON report reads back to the reference's values and equals its
    json.dumps(indent=2, sort_keys=True) text on every line that holds no
    float and no character beyond printable ASCII; every CSV row has the
    reference's key, and its float or, on the other rows, its text."""
    want = _reference_jsonable(report)
    text = _emitted(report, "json")
    assert _same_values(json.loads(text, parse_constant=_reject_constant), want)
    lines = text.split("\n")
    ref_lines = (json.dumps(want, indent=2, sort_keys=True, default=float) + "\n").split("\n")
    assert len(lines) == len(ref_lines)
    for line, ref in zip(lines, ref_lines):
        if _PRINTABLE_ASCII.fullmatch(line) and not _FLOAT_TEXT.search(ref + line):
            assert line == ref
    # the last word of each leaf's line, in the order of the CSV rows
    leaf_words = [line.rstrip(",").rsplit(" ", 1)[-1] for line in lines[:-1]
                  if not line.rstrip(",").endswith(("{", "[", "{}", "[]", "}", "]"))]
    ref_rows = _reference_flatten(want)
    assert len(leaf_words) == len(ref_rows)
    # keys may hold newlines, values never do
    text = _emitted(report, "csv")
    assert text.startswith("key,value") and text.endswith("\n")
    pos = len("key,value")
    for (key, value), word in zip(ref_rows, leaf_words):
        head = f"\n{key},"
        assert text.startswith(head, pos), (text[pos:pos + 80], head)
        end = text.index("\n", pos + len(head))
        got, pos = text[pos + len(head):end], end
        if isinstance(value, (float, np.float32)):
            # JSON and CSV spell every float alike
            assert _same_values(float(got), value) and got == word, (head, got, value, word)
        else:
            assert got == (json.dumps(value) if isinstance(value, str) else str(value)), head
    assert pos == len(text) - 1


def _emitted(report, fmt):
    out = _Stdout()
    with contextlib.redirect_stdout(out):
        cli._emit(report, fmt, None)
    return out.getvalue()


_SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-310, 1e308, 0.1]
_float_elements = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(_SPECIAL_FLOATS)
_shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
_arrays = st.one_of(
    hnp.arrays(np.float64, _shapes, elements=_float_elements),
    hnp.arrays(np.float32, _shapes, elements=st.floats(width=32)),
    hnp.arrays(np.int64, _shapes),
    hnp.arrays(np.uint8, _shapes),
    hnp.arrays(np.bool_, _shapes),
    hnp.arrays(np.complex128, _shapes,
               elements=st.complex_numbers(allow_nan=False, allow_infinity=False)),
    # orjson writes neither a view that is not C-contiguous (whose rows may
    # be) nor float16 itself
    hnp.arrays(np.float32, _shapes, elements=st.floats(width=32)).map(
        lambda a: a[::-1] if a.ndim else a),
    hnp.arrays(np.float16, _shapes, elements=st.floats(width=16)),
)
# integers in the 64-bit range that orjson writes (test_emitter_refusals
# holds the ones beyond it)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 63, 2 ** 64 - 1), _float_elements,
    st.text(max_size=4),
    st.sampled_from([DIVERGENT, FOCAL, np.float64(-0.0), np.int32(7), np.bool_(True)]),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)
_keys = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.booleans(),
                  st.floats(allow_nan=False), st.none())


def _spelled_apart(d):
    """No two keys of d share a spelling, such as None and "null"."""
    return len({_key_text(k) for k in d}) == len(d)


_reports = st.recursive(
    _scalars | _arrays,
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.tuples(children, children),
        st.dictionaries(_keys, children, max_size=3).filter(_spelled_apart)),
    max_leaves=12)


@given(_reports)
@settings(max_examples=300, deadline=None)
def test_emitter_matches_reference_encoder(report):
    _assert_matches_reference(report)


# many array leaves of every kind next to each other, and up to two large ones
_big_leaves = st.sampled_from([
    None, np.arange(4097, dtype=np.int64) - 7,
    np.concatenate([np.full(4096, -0.0), [np.nan, np.inf, 0.1, -np.inf, 5e-324]]).reshape(3, -1),
    np.arange(8192) % 3 == 0])


@given(st.lists(_arrays | _scalars, min_size=10, max_size=60),
       st.lists(_big_leaves, max_size=2))
@settings(max_examples=100, deadline=None)
def test_emitter_matches_reference_encoder_on_many_leaves(leaves, big):
    report = {"leaves": leaves, "keyed": {f"k{i}": v for i, v in enumerate(leaves)},
              "big": big, "empty": [np.zeros((2, 0)), np.array([], dtype=bool)]}
    _assert_matches_reference(report)


def test_emitter_writes_nonfinite_complex_parts_as_null():
    text = _emitted({"z": complex(float("nan"), 1.0)}, "json")
    assert json.loads(text, parse_constant=_reject_constant) == {"z": [None, 1.0]}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("periodic", [True, False])
def test_box1d_report_matches_per_element_route(capsys, fmt, periodic):
    # every printed element of the matrix is the operator's entry, exactly
    argv = ["box1d", "--samples", "512", "--speed", "1.7", "--format", fmt,
            *(["--periodic"] if periodic else [])]
    code, out = run(capsys, *argv)
    entries = box_operator_1d(512, 1.7, periodic=periodic).entries
    if fmt == "json":
        matrix = np.array(json.loads(out)["result"]["matrix"])
    else:
        rows = [line.split(",") for line in out.splitlines()
                if line.startswith("result.matrix.")]
        assert [key for key, _ in rows] == [
            f"result.matrix.{i}.{j}" for i in range(512) for j in range(512)]
        matrix = np.array([value for _, value in rows], dtype=float).reshape(512, 512)
    assert code == 0 and matrix.dtype == entries.dtype
    assert np.array_equal(matrix, entries)
    assert np.array_equal(np.signbit(matrix), np.signbit(entries))


def _nested(depth, leaf=0):
    for _ in range(depth):
        leaf = [leaf]
    return leaf


@pytest.mark.parametrize("leaf", [2 ** 64, -2 ** 63 - 1, "\ud800", _nested(300)],
                         ids=["2**64", "-2**63-1", "lone surrogate", "nested 300 deep"])
def test_emitter_refusals(tmp_path, leaf):
    # orjson writes no integer beyond 64 bits, no lone surrogate and no
    # nesting deeper than 255; the report is refused before its file is opened
    path = tmp_path / "r.json"
    with pytest.raises(ValidationError, match="^cannot encode the report: "):
        cli._emit({"result": leaf}, "json", str(path))
    assert not path.exists()


def test_unencodable_reports_exit_2_and_write_no_file(capsys, tmp_path):
    grid = tmp_path / "g.json"
    _write_json(grid, {"label": _nested(300), "pairs": [
        {"lambdaR": 1.0, "lambdaA": 0.0, "mult": 2}]})
    # a file name with a byte that is not UTF-8, echoed in the report's config
    not_utf8 = os.fsdecode(os.fsencode(str(tmp_path)) + b"/\xff.json")
    for argv in (["focal", "--grid", str(grid), "--out", str(tmp_path / "r.json")],
                 ["box1d", "--samples", "4", "--speed", "1", "--out", not_utf8]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err.startswith("error: cannot encode the report"), argv
    assert os.listdir(tmp_path) == ["g.json"]


def test_labels_nested_1000_deep_are_written_as_csv(capsys, tmp_path):
    # the readers let 1024 levels through; the CSV rows, walked by recursion,
    # ended in a RecursionError traceback after the first rows were written
    grid = tmp_path / "g.json"
    grid.write_text('{"label": ' + "[" * 1000 + "0" + "]" * 1000
                    + ', "pairs": [{"lambdaR": 1.0, "lambdaA": 0.0, "mult": 2}]}')
    code, out = run(capsys, "focal", "--grid", str(grid), "--format", "csv")
    assert code == 0 and "\nresult.label" + ".0" * 1000 + ",0\n" in out
    assert main(["focal", "--grid", str(grid)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot encode the report")


def test_seed_must_be_below_2_to_the_64(capsys):
    # a seed is echoed in the report, and no 64-bit JSON integer reader holds
    # 2**64: argparse refuses it, as the plain reader declines the line
    argv = ["roots", "--algebra", "su2", "--seed", str(2 ** 64)]
    assert cli._plain_args(argv) is None
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "--seed: must be below 2**64" in err
    code, report = run_json(capsys, "roots", "--algebra", "su2", "--seed", str(2 ** 64 - 1))
    assert code == 0 and report["config"]["seed"] == 2 ** 64 - 1


def test_box_report_memory_at_the_cap(tmp_path):
    # a 1024-sample periodic box report: formatting every +0.0 on its own held
    # 11.5 x the matrix's bytes (92 MiB) under tracemalloc, the shared text 4.9 x
    op = box_operator_1d(1024, 1.7, periodic=True)
    report = {"schema": 1, "result": {"matrix": op.entries, "samples": 1024}}
    tracemalloc.start()
    try:
        cli._emit(report, "json", str(tmp_path / "box.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(json.loads((tmp_path / "box.json").read_text())["result"]["matrix"],
                          op.entries)
    assert peak < 6 * op.entries.nbytes


def test_box_csv_report_memory_at_the_cap(tmp_path):
    # the CSV rows of a 1024-sample periodic box report are written one matrix
    # row at a time: holding a key and a row string per element peaked at
    # 22 x the matrix's bytes (177 MiB) under tracemalloc, the streamed rows 1.3 x
    op = box_operator_1d(1024, 1.7, periodic=True)
    report = {"schema": 1, "result": {"matrix": op.entries, "samples": 1024}}
    tracemalloc.start()
    try:
        cli._emit(report, "csv", str(tmp_path / "box.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = (tmp_path / "box.csv").read_text().splitlines()
    assert lines[:2] == ["key,value", f"result.matrix.0.0,{float(op.entries[0, 0])!r}"]
    assert lines[-2:] == ["result.samples,1024", "schema,1"]
    values = [line.rpartition(",")[2] for line in lines[1:-2]]
    assert np.array_equal(np.array(values, dtype=float).reshape(op.entries.shape), op.entries)
    assert peak < 2 * op.entries.nbytes


# a valid command line of every subcommand
_COMMAND_LINES = {
    "trace": ["--spec", "s.json", "--zeta"],
    "focal": ["--grid", "g.json", "--window", "0.1,2"],
    "parallel": ["--grid", "g.json", "--r", "0.5"],
    "check": ["iso", "--grids", "d", "--radii", "0.1"],
    "example41": ["--points", "3", "--seed", "4", "--format", "csv"],
    "transport": ["--path", "u.json", "--steps", "20"],
    "holonomy": ["--omega", "w.json", "--out", "r.json"],
    "roots": ["--algebra", "su3", "--theta", "ad_diag"],
    "hyperpolar": ["--group", "SU(2)", "--k1", "so2", "--k2", "so2", "--samples", "3"],
    "green": ["--op", "a.json", "--psi", "b.json", "--project"],
    "box1d": ["--samples", "8", "--speed", "1.5", "--periodic"],
}


class _Parsed(Exception):
    """Raised by a command in place of its report, with the namespace it got."""


def _parsed(args):
    raise _Parsed(vars(args))


def _outcome(parse, capsys):
    """The namespace parse() hands a command, or the exit status and output
    of an argparse exit."""
    try:
        parse()
    except _Parsed as exc:
        return exc.args[0]
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err


class TestOneSubparser:
    """One parser reads every command line that the plain reader declines."""

    def test_every_command_is_listed(self):
        assert set(_COMMAND_LINES) == set(cli._COMMANDS)

    @pytest.mark.parametrize("command", sorted(_COMMAND_LINES))
    def test_command_parser_matches_full_parser(self, monkeypatch, capsys, command):
        # main hands the command the full parser's namespace, plain line or
        # not, and prints its usage, help and errors
        help_text, _, arguments = cli._COMMANDS[command]
        monkeypatch.setitem(cli._COMMANDS, command, (help_text, _parsed, arguments))
        lines = [_COMMAND_LINES[command], ["--help"], [], ["--bogus", "1"],
                 _COMMAND_LINES[command] + ["--format", "xml"],
                 _COMMAND_LINES[command] + ["extra"]]
        for line in lines:
            argv = [command] + line
            full = _outcome(lambda: _parsed(build_parser().parse_args(argv)), capsys)
            assert _outcome(lambda: main(argv), capsys) == full, argv
            # a usage line names the command, or lists them all
            every = "{" + ",".join(cli._COMMANDS) + "}"
            assert isinstance(full, dict) or " ".join((full[1] + full[2]).split()).startswith(
                (f"usage: focalis {command} ", f"usage: focalis [-h] [--version] {every} "))

    def test_main_builds_a_parser_only_for_declined_lines(self, monkeypatch, capsys):
        # a plain line builds no parser; any other line builds the full one
        built = []
        make_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or make_parser())
        for argv in (["box1d", "--samples", "4", "--speed", "1"],
                     ["box1d", "--samples=4", "--speed", "1"], ["--version"], [],
                     ["bogus"], ["--help"]):
            try:
                main(argv)
            except SystemExit:
                pass
        capsys.readouterr()
        assert len(built) == 5


def _argparse_vars(argv):
    """vars() of build_parser().parse_args(argv), or None where argparse
    exits (an error, --help or --version)."""
    out, err = textio.StringIO(), textio.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None


@pytest.mark.parametrize("command", sorted(_COMMAND_LINES))
def test_plain_reader_reads_every_command_line(command):
    argv = [command] + _COMMAND_LINES[command]
    plain = cli._plain_args(argv)
    assert plain is not None and vars(plain) == _argparse_vars(argv)


# Command-line fuzz of the plain reader against argparse: each command's
# options in any order, some left out or given twice, with values of their
# kind (Unicode digits among them) or bad ones (a leading "-", NaN, a bad
# choice), and hostile words anywhere
_HOSTILE_WORDS = ["-1", "-", "--", "", "--out=x", "--sam", "-h", "--version", "x"]
_WORD_VALUES = {  # an option's type: its good values, then bad ones
    int: (["0", "3", "25", "\u0663", "\uff18", " 7 ", "1_0"], ["-1", "1.5", "x"]),
    cli._non_negative_int: (["0", "4", "\u0664"], ["-3", "abc", "1e3"]),
    cli._finite_float: (["0.5", "1e-3", "\u0661.\u0665"], ["-2.5", "nan", "inf", "x"]),
    None: (["s.json", "0.1,2", "SU(2)", "so2", "SO3", "a b", "json", "iso", ""], []),
}


@st.composite
def command_lines(draw):
    """argv of one command line: a clean one, with every required option and
    values of their kind, or a hostile one."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    hostile = draw(st.booleans())
    words = []
    for flag, options in draw(st.permutations(cli._COMMANDS[command][2] + cli._OUTPUT)):
        required = options.get("required") or not flag.startswith("-")
        if not (required and not hostile) and draw(st.integers(0, 3 if required else 1)) == 0:
            continue
        if options.get("action") == "store_true":
            words.append(flag)
            continue
        if "choices" in options:
            good, bad = list(options["choices"]), ["xml", "bad", ""]
        else:
            good, bad = _WORD_VALUES[options.get("type")]
        value = draw(st.sampled_from(bad + _HOSTILE_WORDS if hostile and draw(st.booleans())
                                     else good))
        words += [value] if not flag.startswith("-") else [flag, value]
    for _ in range(draw(st.integers(0, 2)) if hostile else 0):
        extra = st.sampled_from(_HOSTILE_WORDS + words[:1] + words[-2:])
        words.insert(draw(st.integers(0, len(words))), draw(extra))
    return [command] + words


@given(command_lines())
@settings(max_examples=400, deadline=None)
def test_plain_reader_agrees_with_argparse(argv):
    # the plain reader declines every line argparse exits on, and reads every
    # line it accepts as argparse does
    expected = _argparse_vars(argv)
    plain = cli._plain_args(argv)
    assert plain is None or vars(plain) == expected, argv


def test_import_builds_no_parser():
    # parsers are built per command line, in main: none while focalis.cli imports
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: (built.append(1),"
            " init(self, *a, **k))[1]\n"
            "import focalis.cli\n"
            "print(len(built))\n"
            "focalis.cli.build_parser()\n"
            "print(len(built))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # the full parser: the top-level one and one per command
    assert proc.stdout.split() == ["0", str(1 + len(cli._COMMANDS))]


@pytest.fixture
def spectrum_file(tmp_path):
    spec = SpectralData([0.5, 0.25], [1, 1], [1.0], [1])
    path = tmp_path / "spec.json"
    write_spectrum(str(path), spec)
    return str(path)


@pytest.fixture
def grid_file(tmp_path):
    grid = EigenGrid(((1.0, 0.0, 2), (0.0, 2.0, 1)), label="x0")
    path = tmp_path / "grid.json"
    write_eigen_grid(str(path), grid)
    return str(path)


class TestReportEnvelope:
    def test_schema_version_and_config_echo(self, capsys, spectrum_file):
        code, report = run_json(capsys, "trace", "--spec", spectrum_file)
        assert code == 0
        assert report["schema"] == 1
        assert isinstance(report["version"], str)
        assert report["config"]["spec"] == spectrum_file
        assert report["config"]["command"] == "trace"
        assert "result" in report

    def test_csv_format(self, capsys, spectrum_file):
        code, out = run(capsys, "trace", "--spec", spectrum_file,
                        "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("result.tr_r,") for line in lines)

    def test_out_file(self, capsys, tmp_path, spectrum_file):
        out_path = tmp_path / "report.json"
        code, out = run(capsys, "trace", "--spec", spectrum_file,
                        "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["schema"] == 1

    def test_deterministic_output(self, capsys, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            p = tmp_path / name
            code, _ = run(capsys, "roots", "--algebra", "su2",
                          "--theta", "conj", "--out", str(p))
            assert code == 0
            paths.append(p.read_text())
        # the config echo contains the out path; drop it before comparing
        a = json.loads(paths[0])
        b = json.loads(paths[1])
        a["config"].pop("out")
        b["config"].pop("out")
        assert a == b

    @pytest.mark.parametrize("target", ["missing/r.json", "."])
    def test_unwritable_out_is_input_error(self, capsys, tmp_path, target):
        # a missing directory or a directory as --out ended in a traceback
        code = main(["box1d", "--samples", "4", "--speed", "1",
                     "--out", str(tmp_path / target)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: cannot write report file")

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _ = run(capsys, "trace", "--spec", str(tmp_path / "nope.json"))
        assert code == 2

    def test_malformed_file_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(capsys, "focal", "--grid", str(bad))
        assert code == 2

    @pytest.mark.parametrize("content", [b"\xff{}", b"{}\xc3", b"[" * 200_000],
                             ids=["not UTF-8", "cut UTF-8", "nested too deep"])
    @pytest.mark.parametrize("argv", [
        ("trace", "--spec", "{bad}"), ("focal", "--grid", "{bad}"),
        ("check", "weak", "--grids", "{dir}"), ("transport", "--path", "{bad}"),
        ("holonomy", "--omega", "{bad}"), ("green", "--op", "{bad}", "--psi", "{vector}"),
        ("green", "--op", "{matrix}", "--psi", "{bad}"),
        ("example41", "--config", "{bad}", "--points", "2", "--trials", "2")])
    def test_unreadable_json_is_input_error(self, capsys, tmp_path, argv, content):
        # bytes that are not UTF-8 and 200,000 open brackets ended in tracebacks
        (tmp_path / "d").mkdir()
        files = {"bad": tmp_path / "d" / "bad.json", "dir": tmp_path / "d",
                 "matrix": tmp_path / "m.json", "vector": tmp_path / "v.json"}
        files["bad"].write_bytes(content)
        _write_json(files["matrix"], [[2.0, 0.0], [0.0, 4.0]])
        _write_json(files["vector"], [1.0, 1.0])
        code = main([a.format(**files) for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: cannot read JSON file '{files['bad']}'")

    def test_files_are_read_as_utf8(self, capsys, tmp_path):
        grid = tmp_path / "g.json"
        grid.write_bytes('{"label": "∂é", "pairs": []}'.encode("utf-8"))
        code, report = run_json(capsys, "focal", "--grid", str(grid))
        assert code == 0 and report["result"]["label"] == "∂é"


class TestTraceCommand:
    def test_finite_rank_sum(self, capsys, spectrum_file):
        code, report = run_json(capsys, "trace", "--spec", spectrum_file)
        assert code == 0
        assert report["result"]["tr_r"] == pytest.approx(0.5 + 0.25 - 1.0)
        assert report["result"]["method"] == "finite-rank"
        assert report["result"]["regularizable"] is True

    def test_square_divergent(self, capsys, tmp_path):
        n = 5000
        spec = SpectralData(1.0 / np.sqrt(np.arange(1, n + 1)), np.ones(n, dtype=np.int64))
        path = tmp_path / "slow.json"
        write_spectrum(str(path), spec)
        code, report = run_json(capsys, "trace", "--spec", str(path), "--square")
        assert code == 0
        assert report["result"]["tr_sq"] == "divergent"

    def test_zeta_flag(self, capsys, tmp_path):
        spec = SpectralData(2.0 ** -np.arange(1, 40), np.ones(39, dtype=np.int64))
        path = tmp_path / "geo.json"
        write_spectrum(str(path), spec)
        code, report = run_json(capsys, "trace", "--spec", str(path), "--zeta")
        assert code == 0
        assert report["result"]["tr_zeta"] == pytest.approx(1.0, abs=1e-6)


    def test_nan_tail_scale_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"positives": [{"value": 0.5, "mult": 1}],
                                    "tail": {"ratio": 0.5, "scale": float("nan")}}))
        code, _ = run(capsys, "trace", "--spec", str(path))
        assert code == 2

    @pytest.mark.parametrize("scale, spelling", [(True, "booleans"), ("1.0", "strings")])
    def test_tail_scale_must_be_a_number(self, capsys, tmp_path, scale, spelling):
        # a boolean scale was read as 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"positives": [{"value": 2.0}],
                                    "tail": {"ratio": 0.5, "scale": scale}}))
        code = main(["trace", "--spec", str(path), "--zeta"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: tail scale: numbers are given as {spelling}\n"

    def test_empty_spectrum_reports_its_tail_bound(self, capsys, tmp_path):
        # the tail declares eigenvalues up to 1, so the trace is 0 within 2 * 1 / (1 - 0.5)
        path = tmp_path / "tail.json"
        path.write_text(json.dumps({"tail": {"ratio": 0.5, "scale": 1.0}}))
        code, report = run_json(capsys, "trace", "--spec", str(path), "--zeta", "--square")
        assert code == 0
        res = report["result"]
        assert (res["tr_r"], res["tr_r_error"], res["method"]) == (0.0, 4.0, "tail-certified")
        assert res["tr_sq"] == 0.0 and res["tr_zeta"] == "divergent"

    def test_empty_spectrum_tail_bound_beyond_float_range_is_input_error(self, capsys, tmp_path):
        # the square's bound 2 * (1e300)^2 / (1 - 0.25) is beyond float range
        path = tmp_path / "tail.json"
        path.write_text(json.dumps({"tail": {"ratio": 0.5, "scale": 1e300}}))
        code = main(["trace", "--spec", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: tail-certified trace 0.0 with error inf")

    def test_trace_computes_each_trace_once(self, capsys, monkeypatch, tmp_path):
        calls = []
        for name in ("reg_trace_info", "trace_square_info"):
            fn = getattr(spectral, name)
            monkeypatch.setattr(spectral, name,
                                lambda spec, fn=fn, name=name: calls.append(name) or fn(spec))
        # the paired trace converges, the trace of the square does not
        i = np.arange(1, 200)
        spec = SpectralData(i ** -0.5, np.ones(199, dtype=np.int64),
                            (i + 0.5) ** -0.5, np.ones(199, dtype=np.int64))
        path = tmp_path / "spec.json"
        write_spectrum(str(path), spec)
        code, report = run_json(capsys, "trace", "--spec", str(path), "--square")
        assert code == 0
        assert sorted(calls) == ["reg_trace_info", "trace_square_info"]
        assert report["result"]["method"] == "ratio-extrapolation"
        assert report["result"]["regularizable"] is False
        assert report["result"]["tr_sq"] == "divergent"

    def test_multiplicity_beyond_int64_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"positives": [{"value": 0.5, "mult": 10 ** 30}]}))
        code, out = run(capsys, "trace", "--spec", str(path))
        assert code == 2 and out == ""

    def test_high_multiplicity_traces_in_bounded_memory(self, capsys, tmp_path):
        # one entry of multiplicity 1e10 is read as one run, never expanded
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"positives": [{"value": 0.5, "mult": 10 ** 10}]}))
        tracemalloc.start()
        try:
            code, report = run_json(capsys, "trace", "--spec", str(path), "--zeta", "--square")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1 << 20
        res = report["result"]
        assert res["method"] == "finite-rank"
        assert res["tr_r"] == 0.5e10 and res["tr_sq"] == 0.25e10
        assert res["tr_zeta"] == pytest.approx(0.5e10, rel=1e-9)

    @pytest.mark.parametrize("doc, flags, trace", [
        # the paired sum overflows inside fsum
        ({"positives": [{"value": 1e308}, {"value": 1e308}]}, (), "paired trace"),
        # the weighted terms are +inf and -inf
        ({"positives": [{"value": 1e308, "mult": 10}],
          "negatives": [{"value": 1e308, "mult": 10}]}, (), "paired trace"),
        # the square of 1e200 is beyond float range
        ({"positives": [{"value": 1e200}, {"value": 1.0}]}, ("--square",), "trace of the square"),
        # 100 entries take the truncated routes, whose partial sums overflow
        # before the zeta trace's stored sum would
        ({"positives": [{"value": 1e308}] + [{"value": 1e307}] * 99}, ("--zeta",), "paired trace"),
    ])
    def test_sum_beyond_float_range_is_input_error(self, capsys, tmp_path, doc, flags, trace):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code = main(["trace", "--spec", str(path), *flags])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {trace}:")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_spectrum_is_input_error(self, capsys, tmp_path, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"positives": [{"value": 0.5, "mult": 1},
                                                  {"value": value, "mult": 1}],
                                    "negatives": [], "tail": None}))
        code, _ = run(capsys, "trace", "--spec", str(path))
        assert code == 2


class TestFocalAndParallel:
    def test_focal_radii(self, capsys, grid_file):
        code, report = run_json(capsys, "focal", "--grid", grid_file,
                                "--window", "0.001,4")
        assert code == 0
        radii = report["result"]["radii"]
        # lambdaR=1, lambdaA=0 contributes pi/2 and 3pi/2
        assert any(abs(r - np.pi / 2) < 1e-12 for r in radii)

    def test_parallel_regular_distance(self, capsys, grid_file):
        code, report = run_json(capsys, "parallel", "--grid", grid_file,
                                "--r", "0.1")
        assert code == 0
        assert report["result"]["focal_collision"] is False
        assert isinstance(report["result"]["tr_r"], float)

    def test_parallel_evaluates_its_rows_once(self, capsys, monkeypatch, tmp_path):
        # the transformed grid and tr_r each evaluated every row
        calls = []
        rows = focal._parallel_rows
        monkeypatch.setattr(focal, "_parallel_rows",
                            lambda *args: calls.append(args) or rows(*args))
        path = tmp_path / "grid.json"
        write_eigen_grid(str(path), EigenGrid(((1.0, 0.5, 2), (0.0, 1.0, 1), (-1.0, 0.3, 1),
                                               (4.0, -0.2, 3), (0.25, 0.0, 1))))
        code, report = run_json(capsys, "parallel", "--grid", str(path), "--r", "0.3")
        assert code == 0
        assert len(calls) == 1 and len(calls[0][0]) == 5
        assert report["result"]["tr_r"] == focal.parallel_reg_mean_curvature(
            io.read_eigen_grid(str(path)), 0.3)

    @pytest.mark.parametrize("r", ["inf", "nan"])
    def test_parallel_nonfinite_distance_is_usage_error(self, capsys, grid_file, r):
        usage_error(capsys, "parallel", "--grid", grid_file, "--r", r)

    def test_parallel_high_multiplicity_matches_spectrum_file(self, capsys, tmp_path):
        # a grid pair of multiplicity 100 is one stored entry, as in a spectrum file
        grid_path, spec_path = tmp_path / "grid.json", tmp_path / "spec.json"
        write_eigen_grid(str(grid_path), EigenGrid(((0.0, 0.5, 100),)))
        code, report = run_json(capsys, "parallel", "--grid", str(grid_path),
                                "--r", "0.1")
        assert code == 0
        lam = report["result"]["pairs"][0][1]
        spec_path.write_text(json.dumps({"positives": [{"value": lam, "mult": 100}]}))
        code, trace = run_json(capsys, "trace", "--spec", str(spec_path))
        assert trace["result"]["method"] == "finite-rank"
        assert report["result"]["tr_r"] == trace["result"]["tr_r"]

    def test_parallel_multiplicity_beyond_cap_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"pairs": [{"lambdaR": 0.0, "lambdaA": 0.5,
                                               "mult": 10 ** 30}]}))
        code, out = run(capsys, "parallel", "--grid", str(path), "--r", "0.1")
        assert code == 2 and out == ""

    def test_focal_infinite_window_is_input_error(self, capsys, tmp_path):
        # flat pairs only, so the search ends even where the window is accepted
        path = tmp_path / "flat.json"
        write_eigen_grid(str(path), EigenGrid(((0.0, 2.0, 1),)))
        code, _ = run(capsys, "focal", "--grid", str(path), "--window", "0.001,inf")
        assert code == 2

    def test_focal_report_is_strict_json_without_gaps(self, capsys, tmp_path):
        # one radius leaves every min_gaps entry undefined
        path = tmp_path / "flat.json"
        write_eigen_grid(str(path), EigenGrid(((0.0, 2.0, 1),)))
        code, report = run_json(capsys, "focal", "--grid", str(path))
        assert code == 0
        assert report["result"]["radii"] == [0.5]
        assert set(report["result"]["witness"]["min_gaps"].values()) == {None}

    def test_focal_radius_just_outside_window_is_dropped(self, capsys, tmp_path):
        # 1/2.000000002 lies 5e-10 below the window; it used to be kept within
        # the merge tolerance and then refused by the radius set (exit 2)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"pairs": [{"lambdaR": 0.0, "lambdaA": 2.000000002,
                                               "mult": 1}]}))
        code, report = run_json(capsys, "focal", "--grid", str(path), "--window", "0.5,2")
        assert code == 0
        assert report["result"]["radii"] == []

    @pytest.mark.parametrize("argv", [("parallel", "--r", "1"),
                                      ("parallel", "--r", "-800")])
    def test_hyperbolic_overflow_is_input_error(self, capsys, tmp_path, argv):
        # cosh(r sqrt(-lambda_R)) is beyond float range
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"pairs": [{"lambdaR": -1e6, "lambdaA": 0.5}]}))
        code = main([argv[0], "--grid", str(path), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "lambda_R=-1000000.0" in captured.err and "r=" in captured.err

    def test_parallel_focal_collision(self, capsys, grid_file):
        code, report = run_json(capsys, "parallel", "--grid", grid_file,
                                "--r", str(np.pi / 2))
        assert code == 1
        assert report["result"]["focal_collision"] is True


class TestCheckCommand:
    def write_grids(self, tmp_path, grids):
        d = tmp_path / "grids"
        d.mkdir()
        for i, g in enumerate(grids):
            write_eigen_grid(str(d / f"g{i}.json"), g)
        return str(d)

    def test_weak_passes_on_identical_grids(self, capsys, tmp_path):
        g = EigenGrid(((1.0, 0.5, 2), (0.0, 1.0, 1)), label="p")
        d = self.write_grids(tmp_path, [g, g, g])
        code, report = run_json(capsys, "check", "weak", "--grids", d)
        assert code == 0
        assert report["result"]["passed"] is True

    def test_iso_fails_on_mismatched_grids(self, capsys, tmp_path):
        g1 = EigenGrid(((1.0, 0.5, 2),), label="p")
        g2 = EigenGrid(((1.0, 1.5, 2),), label="q")
        d = self.write_grids(tmp_path, [g1, g2])
        code, report = run_json(capsys, "check", "iso", "--grids", d,
                                "--radii", "0.05,0.1")
        assert code == 1
        assert report["result"]["passed"] is False

    @pytest.mark.parametrize("radii", ["abc", "0.05,inf", "0.05,nan", "0.1,-inf"])
    def test_iso_bad_radii_is_input_error(self, capsys, tmp_path, radii):
        g = EigenGrid(((1.0, 0.5, 2),), label="p")
        d = self.write_grids(tmp_path, [g, g])
        code, _ = run(capsys, "check", "iso", "--grids", d, "--radii", radii)
        assert code == 2

    @pytest.mark.parametrize("kind,tol", [("iso", "nan"), ("equifocal", "inf"),
                                          ("equifocal", "nan")])
    def test_nonfinite_tol_is_usage_error(self, capsys, tmp_path, kind, tol):
        g = EigenGrid(((1.0, 0.5, 2),), label="p")
        d = self.write_grids(tmp_path, [g, g])
        usage_error(capsys, "check", kind, "--grids", d, "--tol", tol)

    @pytest.mark.parametrize("kind", ["iso", "equifocal"])
    def test_negative_tol_is_input_error(self, capsys, tmp_path, kind):
        # a negative tol fails every comparison, so it decides nothing
        g = EigenGrid(((1.0, 0.5, 2),), label="p")
        d = self.write_grids(tmp_path, [g, g])
        code, out = run(capsys, "check", kind, "--grids", d, "--radii", "0.1", "--tol=-1")
        assert code == 2 and out == ""

    def test_nonfinite_grid_file_is_input_error(self, capsys, tmp_path):
        d = tmp_path / "grids"
        d.mkdir()
        (d / "g0.json").write_text(json.dumps(
            {"label": "p", "pairs": [{"lambdaR": float("nan"), "lambdaA": 1.0, "mult": 1}]}))
        code, _ = run(capsys, "check", "iso", "--grids", str(d))
        assert code == 2

    @pytest.mark.parametrize("pair", [
        {"lambdaR": "abc", "lambdaA": 1.0, "mult": 1},
        {"lambdaR": 1.0, "lambdaA": "x", "mult": 1},
        {"lambdaR": 1.0, "lambdaA": 1.0, "mult": "many"},
        {"lambdaR": 1.0, "lambdaA": 1.0, "mult": float("inf")},
    ])
    @pytest.mark.parametrize("command", ["check", "focal"])
    def test_non_numeric_grid_value_is_input_error(self, capsys, tmp_path, command, pair):
        d = tmp_path / "grids"
        d.mkdir()
        (d / "g0.json").write_text(json.dumps({"label": "p", "pairs": [pair]}))
        argv = (["check", "iso", "--grids", str(d)] if command == "check"
                else ["focal", "--grid", str(d / "g0.json")])
        code, _ = run(capsys, *argv)
        assert code == 2

    def test_iso_high_multiplicity_passes(self, capsys, tmp_path):
        g = EigenGrid(((0.0, 0.5, 100),), label="p")
        d = self.write_grids(tmp_path, [g, g])
        code, report = run_json(capsys, "check", "iso", "--grids", d, "--radii", "0.1")
        assert code == 0
        assert report["result"]["regularizable"] is True

    def test_iso_all_focal_is_strict_json(self, capsys, tmp_path):
        # every grid is focal at r = 1, so the spread there is undefined
        g = EigenGrid(((0.0, 1.0, 1),), label="p")
        d = self.write_grids(tmp_path, [g, g])
        code, report = run_json(capsys, "check", "iso", "--grids", d, "--radii", "1.0")
        assert code == 1
        assert report["result"]["radii"]["1.0"] == {"values": [], "spread": None}

    def test_equifocal_radius_just_outside_window_passes(self, capsys, tmp_path):
        g = EigenGrid(((0.0, 2.000000002, 1),), label="p")
        d = self.write_grids(tmp_path, [g, g])
        code, report = run_json(capsys, "check", "equifocal", "--grids", d,
                                "--window", "0.5,2")
        assert code == 0
        assert report["result"]["passed"] is True

    def test_iso_hyperbolic_overflow_is_input_error(self, capsys, tmp_path):
        g = EigenGrid(((-1e6, 0.5, 1),), label="p")
        d = self.write_grids(tmp_path, [g, g])
        code = main(["check", "iso", "--grids", d, "--radii", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "lambda_R=-1000000.0, r=1.0" in captured.err

    def test_empty_dir_is_input_error(self, capsys, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        code, _ = run(capsys, "check", "weak", "--grids", str(d))
        assert code == 2


# Grid-file fuzz: JSON values of every kind where a grid file holds numbers,
# kept small (a few rows of small multiplicities or single huge ones).  orjson
# refuses NaN, Infinity and out-of-range tokens at decoding (tests/test_io.py
# runs them through every reader), so every file fuzz draws finite numbers,
# which reach the readers' own checks, and gives the tokens as examples.
def _fuzz_numbers(finite: bool):
    return st.one_of(
        st.floats(allow_nan=not finite, allow_infinity=not finite),
        st.sampled_from([0.0, -0.0, 1.0, 0.5, -1.0, 4.0, 1e-300, 5e-324, 1e300, -1e300,
                         1e154, -1e6, 2 ** 53, 2 ** 53 - 1, 10 ** 30, -1, 0, 2.5]),
        st.integers(min_value=-3, max_value=5))


def _fuzz_values(number):
    return st.one_of(number, st.booleans(), st.none(), st.sampled_from(["1.0", "", "x"]),
                     st.just([1.0]), st.just({"a": 1}))


_FUZZ_NUMBER = _fuzz_numbers(finite=True)
_FUZZ_VALUE = _fuzz_values(_FUZZ_NUMBER)
_ANY_NUMBER = _fuzz_numbers(finite=False)
_CLEAN_PAIR = st.fixed_dictionaries({"lambdaR": st.floats(-5, 5), "lambdaA": st.floats(-5, 5),
                                     "mult": st.integers(1, 4)})
_FUZZ_PAIR = st.one_of(
    _CLEAN_PAIR,
    st.fixed_dictionaries({"lambdaR": _FUZZ_NUMBER, "lambdaA": _FUZZ_NUMBER},
                          optional={"mult": st.one_of(st.integers(1, 4), _FUZZ_NUMBER)}),
    st.dictionaries(st.sampled_from(["lambdaR", "lambdaA", "mult"]), _FUZZ_VALUE, max_size=3),
    _FUZZ_VALUE)
_FUZZ_LABEL = st.one_of(st.none(), st.text(max_size=5), _FUZZ_NUMBER, st.just(["a", 1]),
                        st.just({"k": 1e300}))


def _report_or_input_error(argv):
    """Run the CLI: exit 0 or 1 with a strict JSON report, which is returned,
    or exit 2 with an error line and no report."""
    out, err = _Stdout(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:"), argv
        return None
    return json.loads(out.getvalue(), parse_constant=_reject_constant)


def _fuzz_document(draw, key):
    """A JSON document that is not a well-formed input file, or malformed JSON."""
    if draw(st.booleans()):
        return draw(st.sampled_from(["", "{", f'{{"{key}": [', "nul", f'{{"{key}": [1,]}}']))
    return json.dumps(draw(st.one_of(_FUZZ_VALUE, st.lists(_FUZZ_NUMBER, max_size=3),
                                     st.fixed_dictionaries({key: _FUZZ_VALUE}))))


@st.composite
def grid_file_texts(draw):
    """The text of one grid file: well-formed pairs, strange values, missing
    keys, empty pairs, other JSON documents or malformed JSON."""
    kind = draw(st.sampled_from(["clean", "clean", "grid", "grid", "other", "other"]))
    if kind == "other":
        return _fuzz_document(draw, "pairs")
    doc = {"pairs": draw(st.lists(_CLEAN_PAIR if kind == "clean" else _FUZZ_PAIR, max_size=5))}
    if draw(st.booleans()):
        doc["label"] = draw(_FUZZ_LABEL)
    return json.dumps(doc)


@given(st.lists(grid_file_texts(), min_size=1, max_size=3),
       st.sampled_from(["0.0", "0.1", "0.7853981633974483", "2.5"]))
@settings(max_examples=200, deadline=None)
# one-element lists for numbers ended in a TypeError traceback (float([1.0]))
@example(['{"pairs": [{"lambdaR": [1.0], "lambdaA": [0.5], "mult": [1]}]}'], "0.1")
# NaN and Infinity tokens are refused at decoding
@example(['{"pairs": [{"lambdaR": NaN, "lambdaA": 0.5}]}', '{"pairs": [], "label": Infinity}'],
         "0.1")
def test_grid_files_give_a_report_or_an_input_error(texts, r):
    with tempfile.TemporaryDirectory() as d:
        for i, text in enumerate(texts):
            with open(f"{d}/g{i}.json", "w") as fh:
                fh.write(text)
        for argv in (["focal", "--grid", f"{d}/g0.json"],
                     ["parallel", "--grid", f"{d}/g0.json", "--r", r],
                     ["check", "weak", "--grids", d], ["check", "iso", "--grids", d],
                     ["check", "equifocal", "--grids", d]):
            _report_or_input_error(argv)


# Spectrum-file fuzz: the grid fuzz's numbers and values in entries,
# multiplicities and tails, with sorted branches
# of up to 100 entries each so that both the finite-rank route (<= 64
# entries) and the truncated one run.
_FUZZ_ENTRY = st.one_of(
    st.fixed_dictionaries({"value": _FUZZ_NUMBER}, optional={"mult": _FUZZ_NUMBER}),
    st.dictionaries(st.sampled_from(["value", "mult"]), _FUZZ_VALUE, max_size=2),
    _FUZZ_VALUE)
_FUZZ_MULT = st.one_of(st.just(1), st.integers(1, 10 ** 6),
                       st.sampled_from([2 ** 40, 2 ** 52, 2 ** 53 - 1]))


@st.composite
def _spectrum_branch(draw):
    """A non-increasing run of n entries from a fuzzed top, or fuzzed entries
    in any order."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(_FUZZ_ENTRY, max_size=5))
    n = draw(st.integers(0, 100))
    top = draw(st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1e154, 1e200, 1e307, 1e308])))
    ratios = draw(st.sampled_from([1.0, 0.999, 0.9, 0.5])) ** np.arange(n)
    mults = draw(st.one_of(st.just([1] * n), st.lists(st.integers(1, 40), min_size=n, max_size=n),
                           st.lists(_FUZZ_MULT, min_size=n, max_size=n)))
    return [{"value": float(v), "mult": m} for v, m in zip((top * ratios).tolist(), mults)]


@st.composite
def spectrum_file_texts(draw):
    """The text of one spectrum file: sorted or fuzzed branches with or
    without a fuzzed tail, other JSON documents or malformed JSON."""
    if draw(st.integers(0, 4)) >= 3:
        return _fuzz_document(draw, "positives")
    doc = {"positives": draw(_spectrum_branch()), "negatives": draw(_spectrum_branch())}
    if draw(st.booleans()):
        doc["tail"] = draw(st.one_of(
            st.fixed_dictionaries({"ratio": st.one_of(st.floats(0.0, 1.0), _FUZZ_NUMBER),
                                   "scale": st.one_of(st.floats(0.0, 1e-3), _FUZZ_NUMBER)}),
            st.fixed_dictionaries({"ratio": st.floats(0.5, 0.999), "scale": st.just(0.0)}),
            st.dictionaries(st.sampled_from(["ratio", "scale"]), _FUZZ_VALUE, max_size=2),
            _FUZZ_VALUE))
    return json.dumps(doc)


@given(spectrum_file_texts())
@settings(max_examples=300, deadline=None)
# a file that is not a JSON object ended in an AttributeError traceback
@example("null")
# NaN, Infinity and out-of-range tokens are refused at decoding
@example('{"positives": [{"value": NaN}]}')
@example('{"positives": [{"value": 0.5}], "negatives": [{"value": Infinity}]}')
@example('{"positives": [{"value": 0.5, "mult": 1e400}]}')
@example('{"positives": [{"value": 0.5}], "tail": {"ratio": 0.5, "scale": -Infinity}}')
def test_spectrum_files_give_a_report_or_an_input_error(text):
    with tempfile.TemporaryDirectory() as d:
        with open(f"{d}/s.json", "w") as fh:
            fh.write(text)
        out, err = _Stdout(), textio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["trace", "--spec", f"{d}/s.json", "--zeta", "--square"])
    assert code in (0, 1, 2)
    if any(token in text for token in ("NaN", "Infinity", "1e400")):
        assert code == 2 and err.getvalue().startswith("error: cannot read JSON file")
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
        return
    res = json.loads(out.getvalue(), parse_constant=_reject_constant)["result"]
    for key in ("tr_r", "tr_sq", "tr_zeta"):
        assert res[key] == "divergent" or (isinstance(res[key], float)
                                           and math.isfinite(res[key])), (key, res[key])
    # a converged paired trace reports a finite error
    assert (res["tr_r_error"] is None) == (res["tr_r"] == "divergent")
    assert res["tr_r_error"] is None or math.isfinite(res["tr_r_error"])


# Path-file fuzz: up to 6 samples of matrices up to 4 x 4, anti-Hermitian at
# scales up to 1e300 or with fuzzed entries, on uniform or fuzzed times.
_FUZZ_SCALE = st.sampled_from([1.0, 5e-324, 1e-300, 1e6, 1e154, 1e300])


@st.composite
def path_file_texts(draw):
    kind = draw(st.sampled_from(["clean", "clean", "fuzzed", "other"]))
    if kind == "other":
        return _fuzz_document(draw, "samples")
    count, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    parts = draw(hnp.arrays(np.float64, (count, n, n, 2), elements=st.floats(-4, 4)))
    z = parts[..., 0] + 1j * parts[..., 1]
    z = draw(_FUZZ_SCALE) * (z - np.conj(np.swapaxes(z, 1, 2)))
    mats = np.stack((z.real, z.imag), axis=-1).tolist()
    times = np.linspace(0.0, 1.0, count).tolist()
    if kind == "fuzzed":
        entry = st.one_of(st.lists(_FUZZ_NUMBER, min_size=2, max_size=2), _FUZZ_VALUE)
        for i, j, k in draw(st.lists(st.tuples(*(st.integers(0, m - 1) for m in (count, n, n))),
                                     min_size=1, max_size=3)):
            mats[i][j][k] = draw(entry)
        times = [draw(st.one_of(st.just(t), _FUZZ_VALUE)) for t in times]
    return json.dumps({"group": "SU2", "samples": [list(s) for s in zip(times, mats)]})


@given(path_file_texts(), path_file_texts(), st.integers(-1, 64))
@settings(max_examples=200, deadline=None)
# matrices of different sizes ended in a ValueError traceback in holonomy
@example('{"samples": [[0.0, [[[0.0, 0.0]]]], [1.0, [[[0.0, 0.0]]]]]}',
         '{"samples": [[0.0, [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]], '
         '[1.0, [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]]}', 1)
# steps without a representable phase gave endpoint 0, or null holonomy entries
@example('{"samples": [[0.0, [[[0.0, 2e154]]]], [1.0, [[[0.0, 2e154]]]]]}', 'null', 1)
@example('{"samples": [[0.0, [[[0.0, 2e300]]]], [1.0, [[[0.0, 2e300]]]]]}', 'null', 1)
# the two RK4 endpoints were finite, but the holonomy g0^-1 g1 overflowed to null
@example(*[json.dumps({"samples": [[t, [[[0.0, 2e6]] * 3] * 3] for t in (0.0, 1.0)]})] * 2, 7)
# NaN and Infinity tokens are refused at decoding
@example('{"samples": [[0.0, [[[0.0, NaN]]]], [1.0, [[[0.0, 0.0]]]]]}',
         '{"samples": [[-Infinity, [[[0.0, 0.0]]]], [1.0, [[[0.0, 0.0]]]]]}', 1)
def test_path_files_give_a_report_or_an_input_error(text, text0, steps):
    with tempfile.TemporaryDirectory() as d:
        for name, t in (("u", text), ("u0", text0)):
            with open(f"{d}/{name}.json", "w") as fh:
                fh.write(t)
        for argv in (["transport", "--path", f"{d}/u.json"],
                     ["holonomy", "--omega", f"{d}/u.json"],
                     ["holonomy", "--omega", f"{d}/u.json", "--omega0", f"{d}/u0.json"]):
            report = _report_or_input_error(argv + ["--steps", str(steps)])
            for key in ("endpoint", "holonomy"):
                if report is not None and key in report["result"]:
                    assert None not in np.ravel(report["result"][key]).tolist(), argv


# Operator-file fuzz: symmetric (possibly singular) matrices up to 8 x 8 at
# fuzzed scales, fuzzed entries and shapes, and vectors of fuzzed lengths.
@st.composite
def operator_file_texts(draw):
    """The texts of one operator file and one vector file."""
    n = draw(st.integers(0, 8))
    m = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-4, 4)))
    m = draw(_FUZZ_SCALE) * (m + m.T)
    k = draw(st.sampled_from([0, 0, 0, 1, 2]))
    m[:k] = m[:, :k] = 0.0          # zero leading rows and columns make it singular
    op = m.tolist()
    psi = draw(hnp.arrays(np.float64, n, elements=st.floats(-4, 4))).tolist()
    kind = draw(st.sampled_from(["clean", "clean", "fuzzed", "other"]))
    if kind == "fuzzed" and n:
        if draw(st.booleans()):
            psi = psi[:-1] if draw(st.booleans()) else psi + [1.0]
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  min_size=1, max_size=3)):
            op[i][j] = draw(_FUZZ_VALUE)
        if draw(st.booleans()):
            op[-1] = op[-1][:-1]                # a ragged row
        if psi and draw(st.booleans()):
            psi[0] = draw(_FUZZ_VALUE)
    texts = [json.dumps(op), json.dumps(psi)]
    if kind == "other":
        texts[draw(st.integers(0, 1))] = _fuzz_document(draw, "rows")
    return texts


@given(operator_file_texts(), st.booleans())
@settings(max_examples=200, deadline=None)
# singular at scale 1e300 but not refused: the residual's norm overflowed to null
@example(['[[9.52319983478651e+87, 1e+300, 1e+300], [1e+300, 9.52319983478651e+87, '
          '9.52319983478651e+87], [1e+300, 9.52319983478651e+87, 9.52319983478651e+87]]',
          '[1.0, 1.0, 1.0]'], False)
# (m + m.T) / 2 overflowed: a RuntimeWarning, and a refusal with eigenvalue inf
@example(['[[8.98846567431158e+307]]', '[0.0]'], False)
def test_operator_files_give_a_report_or_an_input_error(texts, project):
    with tempfile.TemporaryDirectory() as d:
        for name, t in zip(("op", "psi"), texts):
            with open(f"{d}/{name}.json", "w") as fh:
                fh.write(t)
        _report_or_input_error(["green", "--op", f"{d}/op.json", "--psi", f"{d}/psi.json"]
                               + ["--project"] * project)


# Config-file fuzz: blocks, slice radii and slot counts with fuzzed values, an
# ambient dimension of at most 48 so that every accepted config stays small.
_FUZZ_DIM = st.one_of(st.integers(-2, 48), st.sampled_from([2.5, 0.0, 1e300]),
                      st.booleans(), st.none(), st.sampled_from(["8", ""]), st.just([8]))


@st.composite
def config_file_texts(draw):
    kind = draw(st.sampled_from(["clean", "clean", "fuzzed", "other"]))
    if kind == "other":
        return _fuzz_document(draw, "blocks")
    blocks = draw(st.lists(st.tuples(st.integers(2, 5), st.floats(0.1, 2.0)).map(list),
                           min_size=1, max_size=3))
    k1 = draw(st.integers(0, len(blocks)))
    doc = {"blocks": blocks, "k1": k1,
           "rprime": [r * draw(st.floats(0.05, 0.95)) for _, r in blocks[:k1]],
           "k2": draw(st.integers(0, 3)), "ambient_dim": draw(st.integers(8, 48))}
    if kind == "fuzzed":
        key = draw(st.sampled_from(["blocks", "block", "k1", "rprime", "k2", "ambient_dim"]))
        if key == "block":
            doc["blocks"][0][draw(st.integers(0, 1))] = draw(_FUZZ_VALUE)
        elif key == "ambient_dim":
            doc[key] = draw(_FUZZ_DIM)
        elif key == "rprime" and doc["rprime"]:
            doc["rprime"][0] = draw(_FUZZ_VALUE)
        elif draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(st.one_of(_FUZZ_VALUE, st.lists(_FUZZ_VALUE, max_size=2)))
    return json.dumps(doc)


@given(config_file_texts())
@settings(max_examples=150, deadline=None)
# a slice radius of 1e-300: the normal frame divided 0 by 0
@example('{"blocks": [[2, 1.0]], "k1": 1, "rprime": [1e-300], "k2": 1, "ambient_dim": 8}')
def test_config_files_give_a_report_or_an_input_error(text):
    with tempfile.TemporaryDirectory() as d:
        with open(f"{d}/cfg.json", "w") as fh:
            fh.write(text)
        _report_or_input_error(["example41", "--config", f"{d}/cfg.json",
                                "--points", "2", "--trials", "2"])


# Flag fuzz for roots and hyperpolar: su(n) and so(n) with n up to 6, so
# that every accepted algebra loads in milliseconds, names beyond the size cap
# or outside both families, involutions ad_diag_p with p from -1 to n + 1,
# and subgroup specs soK that may miss the group's n.  Options are written
# by _option, so that the lines reach both the plain reader and argparse.
_FUZZ_ALGEBRA_JUNK = st.one_of(st.sampled_from(["su17", "so17", "sp4", "su", "so-3", "su2x",
                                                "", " su3 ", "SU_3", "su03"]),
                               st.text(max_size=4))


def _option(flag, value):
    """An option's words: the flag and its value, or --flag=value where the
    value starts with "-" and so would be read as a flag."""
    value = str(value)
    return [f"{flag}={value}"] if value.startswith("-") else [flag, value]


@st.composite
def algebra_flags(draw):
    """argv of one roots or hyperpolar command line."""
    n = draw(st.integers(0, 6))
    family = draw(st.sampled_from(["su", "so"]))
    seed = _option("--seed", draw(st.integers(0, 2 ** 64))) if draw(st.booleans()) else []
    if draw(st.booleans()):
        algebra = draw(st.one_of(st.just(f"{family}{n}"), _FUZZ_ALGEBRA_JUNK))
        theta = draw(st.one_of(st.sampled_from(["conj", "ad_diag"]),
                               st.integers(-1, n + 1).map("ad_diag_{}".format)))
        return ["roots", *_option("--algebra", algebra), *_option("--theta", theta), *seed]
    group = draw(st.one_of(st.just(f"{family.upper()}({n})"), _FUZZ_ALGEBRA_JUNK))
    spec = st.one_of(st.sampled_from(["son", "u1diag", "so", "u1"]),
                     st.integers(0, 7).map("so{}".format))
    k1 = draw(spec)
    k2 = k1 if draw(st.booleans()) else draw(spec)
    samples = draw(st.sampled_from([[], *(_option("--samples", n) for n in (0, 1, 10001))]))
    return ["hyperpolar", *_option("--group", group), *_option("--k1", k1),
            *_option("--k2", k2), *samples, *seed]


@given(algebra_flags())
@settings(max_examples=150, deadline=None)
def test_algebra_flags_give_a_report_or_an_input_error(argv):
    report = _flags_report_or_error(argv)
    if report is not None:
        assert isinstance(report["result"]["passed"], bool), argv


# Flag fuzz for the flags no file fuzz reaches: box1d's --samples and --speed,
# and --window, --radii, --tol, --points and --trials of example41, focal and
# check.  Numbers are written as text, lists of them joined by commas, with
# junk among them; options are written by _option.  Points and trials stay at
# most 5, and box1d samples at most 40, so that every accepted command line
# runs in milliseconds; trials and box1d samples beyond their caps are drawn too.
_FLAG_NUMBER = st.one_of(_ANY_NUMBER.map(str),
                         st.sampled_from(["", "x", " 1", "1e", "-", "0x10", "1_0"]))


@st.composite
def _flag_list(draw, clean, max_size):
    """A comma-separated list: increasing clean numbers, or fuzzed entries."""
    if draw(st.booleans()):
        return ",".join(map(str, sorted(draw(st.lists(clean, min_size=1, max_size=max_size)))))
    return ",".join(draw(st.lists(_FLAG_NUMBER, max_size=max_size)))


_WINDOWS = _flag_list(st.floats(1e-4, 20.0), 3)
_RADII = _flag_list(st.floats(1e-3, 2.0), 4)
_TOLS = st.one_of(st.sampled_from(["1e-8", "1e-3"]), _FLAG_NUMBER)


def _flags_report_or_error(argv):
    """_report_or_input_error, or argparse's refusal: exit 2, no report and a
    usage line with the error.  The plain reader reads the line as argparse
    does, or declines it."""
    plain = cli._plain_args(argv)
    out, err = textio.StringIO(), textio.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            parsed = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 2 and out.getvalue() == "" and "error:" in err.getvalue(), argv
        assert plain is None, argv
        return None
    assert plain is None or vars(plain) == parsed, argv
    return _report_or_input_error(argv)


@given(st.one_of(st.integers(-2, 40), st.sampled_from([MAX_BOX_SAMPLES + 1, 10 ** 9])),
       _FLAG_NUMBER, st.booleans())
@settings(max_examples=150, deadline=None)
# speed 1e-300 squared underflowed to 0: a RuntimeWarning and an infinite matrix
@example(4, "1e-300", False)
def test_box1d_flags_give_a_report_or_an_input_error(samples, speed, periodic):
    argv = ["box1d", *_option("--samples", samples), *_option("--speed", speed),
            *["--periodic"] * periodic]
    report = _flags_report_or_error(argv)
    if report is not None:
        res = report["result"]
        assert 4 <= res["samples"] <= 40 and len(res["matrix"]) == res["samples"], argv
        assert 1.0 <= res["smallest_eigenvalue"] <= res["largest_eigenvalue"], argv


@given(st.integers(-1, 5),
       st.one_of(st.integers(-1, 5), st.sampled_from([MAX_TRIALS + 1, 10 ** 23])),
       _WINDOWS, _RADII, _TOLS)
@settings(max_examples=60, deadline=None)
def test_example41_flags_give_a_report_or_an_input_error(points, trials, window, radii, tol):
    report = _flags_report_or_error(
        ["example41", *_option("--points", points), *_option("--trials", trials),
         *_option("--window", window), *_option("--radii", radii), *_option("--tol", tol)])
    if report is not None:
        assert isinstance(report["result"]["passed"], bool)


@given(_WINDOWS, _RADII, _TOLS)
@settings(max_examples=100, deadline=None)
def test_focal_and_check_flags_give_a_report_or_an_input_error(window, radii, tol):
    with tempfile.TemporaryDirectory() as d:
        for i, radius in enumerate((1.0, 2.0)):
            write_eigen_grid(f"{d}/g{i}.json", EigenGrid(
                ((1.0 / radius, 0.0, 2), (0.0, 2.0, 1)), label=f"x{i}"))
        _flags_report_or_error(["focal", *_option("--grid", f"{d}/g0.json"),
                                *_option("--window", window)])
        for kind in ("weak", "iso", "equifocal"):
            report = _flags_report_or_error(
                ["check", kind, *_option("--grids", d), *_option("--window", window),
                 *_option("--radii", radii), *_option("--tol", tol)])
            if report is not None:
                assert isinstance(report["result"]["passed"], bool)


class TestInputNumbers:
    """Numbers in every input format must be JSON numbers, and multiplicities
    whole numbers; a string or a fraction used to be parsed or truncated."""

    @pytest.mark.parametrize("entry", [{"value": "0.5"}, {"value": 0.5, "mult": "2"},
                                       {"value": 0.5, "mult": 2.7},
                                       {"value": 0.5, "mult": True}])
    def test_spectrum_file(self, capsys, tmp_path, entry):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"positives": [entry]}))
        code, out = run(capsys, "trace", "--spec", str(path))
        assert code == 2 and out == ""

    def test_spectrum_file_whole_float_multiplicity(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"positives": [{"value": 0.5, "mult": 3.0}]}))
        code, report = run_json(capsys, "trace", "--spec", str(path))
        assert code == 0 and report["result"]["tr_r"] == 1.5

    @pytest.mark.parametrize("pair", [{"lambdaR": "1.0", "lambdaA": 0.5},
                                      {"lambdaR": 1.0, "lambdaA": 0.5, "mult": "2"},
                                      {"lambdaR": 1.0, "lambdaA": 0.5, "mult": 2.9}])
    def test_grid_file(self, capsys, tmp_path, pair):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"pairs": [pair]}))
        code, out = run(capsys, "parallel", "--grid", str(path), "--r", "0.1")
        assert code == 2 and out == ""

    def test_path_file(self, capsys, tmp_path):
        z = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"samples": [["0", z], ["0.5", z], ["1", z]]}))
        code, out = run(capsys, "transport", "--path", str(path))
        assert code == 2 and out == ""

    @pytest.mark.parametrize("op,psi", [([["1.5", "0"], ["0", "2"]], [1.0, 2.0]),
                                        ([[1.5, 0.0], [0.0, 2.0]], ["1", "2"]),
                                        ([[1.5, 10 ** 30], [10 ** 30, "2"]], [1.0, 2.0])])
    def test_matrix_and_vector_files(self, capsys, tmp_path, op, psi):
        op_path, psi_path = tmp_path / "op.json", tmp_path / "psi.json"
        op_path.write_text(json.dumps(op))
        psi_path.write_text(json.dumps(psi))
        code, out = run(capsys, "green", "--op", str(op_path), "--psi", str(psi_path))
        assert code == 2 and out == ""

    @pytest.mark.parametrize("key,value", [("k1", "1"), ("rprime", ["0.5"]),
                                           ("blocks", [["4", 1.0]])])
    def test_config_file(self, capsys, tmp_path, key, value):
        cfg = {"blocks": [[4, 1.0]], "k1": 1, "rprime": [0.5], "k2": 0, "ambient_dim": 64}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, key: value}))
        code, out = run(capsys, "example41", "--config", str(path), "--points", "2")
        assert code == 2 and out == ""


    @pytest.mark.parametrize("key,value", [("k1", 1.9), ("k1", True), ("k2", 1.5),
                                           ("k2", True), ("k2", -1), ("ambient_dim", 64.9),
                                           ("ambient_dim", True), ("blocks", [[4.7, 1.0]]),
                                           ("blocks", [[True, 1.0]])])
    def test_config_sizes_are_whole_numbers(self, capsys, tmp_path, key, value):
        # each size used to be truncated by int(): 1.9 read as 1 and true as 1
        cfg = {"blocks": [[4, 1.0]], "k1": 1, "rprime": [0.5], "k2": 1, "ambient_dim": 64}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, key: value}))
        code, out = run(capsys, "example41", "--config", str(path), "--points", "2",
                        "--trials", "2")
        assert code == 2 and out == ""
        path.write_text(json.dumps(cfg))
        assert run(capsys, "example41", "--config", str(path), "--points", "2",
                   "--trials", "2")[0] == 0

    def test_config_whole_floats_are_sizes(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"blocks": [[4.0, 1.0]], "k1": 1.0, "rprime": [0.5],
                                    "k2": 0.0, "ambient_dim": 64.0}))
        code, report = run_json(capsys, "example41", "--config", str(path), "--points", "2",
                                "--trials", "2")
        assert code == 0 and report["result"]["closed_form_traces"]["block_dims"] == [2]

    @pytest.mark.parametrize("entries", [
        [{"value": 0.5, "mult": True}, {"value": 0.25, "mult": 2}],
        [{"value": True}, {"value": 0.25}], [{"value": 0.5, "mult": 2}, {"value": False}]])
    def test_spectrum_booleans(self, capsys, tmp_path, entries):
        # a true multiplicity next to integer ones read as 1 (tr_r 1.0, exit 0)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"positives": entries}))
        code, out = run(capsys, "trace", "--spec", str(path))
        assert code == 2 and out == ""

    @pytest.mark.parametrize("op,psi", [([[True, False], [False, True]], [1.0, 2.0]),
                                        ([[1.5, 0.0], [0.0, 2.0]], [True, 1]),
                                        ([[1.5, True], [True, 2.0]], [1.0, 2.0]),
                                        ([[1.5, 0.0], [0.0, 2.0]], [1.0, False])])
    def test_matrix_and_vector_booleans(self, capsys, tmp_path, op, psi):
        # green on [[true, false], [false, true]] with psi [true, 1] exited 0
        op_path, psi_path = tmp_path / "op.json", tmp_path / "psi.json"
        op_path.write_text(json.dumps(op))
        psi_path.write_text(json.dumps(psi))
        code, out = run(capsys, "green", "--op", str(op_path), "--psi", str(psi_path))
        assert code == 2 and out == ""
        op_path.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
        psi_path.write_text(json.dumps([1.0, 0.0]))
        assert run(capsys, "green", "--op", str(op_path), "--psi", str(psi_path))[0] == 0

    @pytest.mark.parametrize("pair", [{"lambdaR": True, "lambdaA": 0.5},
                                      {"lambdaR": 1.0, "lambdaA": False, "mult": 1},
                                      {"lambdaR": 1.0, "lambdaA": 0.5, "mult": True}])
    def test_grid_booleans(self, capsys, tmp_path, pair):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"pairs": [{"lambdaR": 0.0, "lambdaA": 1.0, "mult": 2},
                                              pair]}))
        code, out = run(capsys, "focal", "--grid", str(path))
        assert code == 2 and out == ""

    @pytest.mark.parametrize("time,entry", [(True, [0.0, 1.0]), (1.0, [False, 1.0]),
                                            (1.0, [0.0, True])])
    def test_path_booleans(self, capsys, tmp_path, time, entry):
        z = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]
        last = [[entry, [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"samples": [[0.0, z], [0.5, z], [time, last]]}))
        code, out = run(capsys, "transport", "--path", str(path))
        assert code == 2 and out == ""

    def test_config_boolean_radius(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"blocks": [[4, 1.0]], "k1": 1, "rprime": [True],
                                    "k2": 1, "ambient_dim": 64}))
        code, out = run(capsys, "example41", "--config", str(path), "--points", "2")
        assert code == 2 and out == ""

    def test_points_beyond_the_frame_cap(self, capsys):
        code, out = run(capsys, "example41", "--points", str(10 ** 9))
        assert code == 2 and out == ""


_ANY_VALUES = st.floats(1e-6, 1e6)


@st.composite
def spectrum_documents(draw):
    """A valid spectrum document: two non-increasing branches, mult keys kept
    or left out entry by entry, a tail (below every entry) or none."""
    doc = {}
    for key in ("positives", "negatives"):
        values = sorted(draw(st.lists(_ANY_VALUES, max_size=20)), reverse=True)
        entries = []
        for v in values:
            mult = draw(st.one_of(st.none(), st.integers(1, 5), st.just(2.0)))
            entries.append({"value": v} if mult is None else {"value": v, "mult": mult})
        if entries or draw(st.booleans()):
            doc[key] = entries
    if draw(st.booleans()):
        doc["tail"] = {"ratio": draw(st.floats(0.01, 0.99)), "scale": 0.0}
    elif draw(st.booleans()):
        doc["tail"] = None
    return doc


@given(spectrum_documents())
@settings(max_examples=100, deadline=None)
def test_read_spectrum_matches_the_constructor(doc):
    with tempfile.TemporaryDirectory() as d:
        _write_json(f"{d}/s.json", doc)
        spec = io.read_spectrum(f"{d}/s.json")
    pos, neg, tail = doc.get("positives", []), doc.get("negatives", []), doc.get("tail")
    want = SpectralData([e["value"] for e in pos], [e.get("mult", 1) for e in pos],
                        [e["value"] for e in neg], [e.get("mult", 1) for e in neg],
                        TailModel(tail["ratio"], tail["scale"]) if tail else None)
    for field in ("positives", "pos_mults", "negatives", "neg_mults"):
        got, ref = getattr(spec, field), getattr(want, field)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), field
    assert spec.tail == want.tail


@pytest.mark.parametrize("doc, message", [
    ({"positives": [{"value": 0.5}, 0.25]}, "'float' object is not subscriptable"),
    ({"negatives": [[0.5, 1]]}, "list indices must be integers or slices, not str"),
    ({"positives": ["0.5"]}, "string indices must be integers, not 'str'"),
    ({"positives": [{"value": 0.5}, {"mult": 2}]}, "'value'"),
    ({"positives": 3}, "'int' object is not iterable"),
    ({"negatives": {"value": 0.5}}, "string indices must be integers, not 'str'"),
    ([1, 2], "'list' object has no attribute 'get'")])
def test_malformed_spectrum_file_message(capsys, tmp_path, doc, message):
    path = tmp_path / "spec.json"
    _write_json(path, doc)
    assert main(["trace", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed spectrum file '{path}': {message}\n"


def test_boolean_multiplicity_message(capsys, tmp_path):
    path = tmp_path / "spec.json"
    _write_json(path, {"positives": [{"value": 0.5, "mult": True}]})
    assert main(["trace", "--spec", str(path)]) == 2
    assert capsys.readouterr().err == "error: positives: numbers are given as booleans\n"


class TestModelCommand:
    def test_example41_small_run(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _ = run(capsys, "example41", "--points", "5", "--trials", "5",
                      "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        res = report["result"]
        assert res["passed"] is True
        assert res["trace_constancy"]["passed"] is True
        assert res["curvature_adapted"]["passed"] is True
        assert len(res["focal_sets"]) == 5


    def test_example41_block_beyond_finite_rank_cap(self, capsys, tmp_path):
        # a 70-slot block gives one grid entry of multiplicity 68: finite rank
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"blocks": [[70, 1.0], [4, 0.8]], "k1": 2,
                                   "rprime": [0.8, 0.6], "k2": 1, "ambient_dim": 200}))
        code, report = run_json(capsys, "example41", "--config", str(cfg),
                                "--points", "4", "--trials", "3")
        assert code == 0
        res = report["result"]
        assert res["trace_constancy"]["regularizable"] is True
        assert res["closed_form_traces"]["block_dims"] == [68, 2]

    def test_example41_slice_radius_far_below_its_sphere(self, capsys, tmp_path):
        # r'/r = 1e-9: the model's own normals were refused as tangential
        # (exit 2) while its frames lost nu and the slice direction to cancellation
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"blocks": [[4, 1.0]], "k1": 1, "rprime": [1e-9], "k2": 0,
                                   "ambient_dim": 10}))
        code, report = run_json(capsys, "example41", "--config", str(cfg))
        assert code == 0
        assert report["result"]["passed"] is True

    @pytest.mark.parametrize("ambient_dim,argv,bound", [
        (512, ("--points", "20", "--trials", "20"), 4 << 20), (None, (), 3 << 20)])
    def test_example41_stores_no_dense_frame_stack(self, capsys, tmp_path, ambient_dim,
                                                   argv, bound):
        # the model's frames live on the 16 curved rows; a (P, N, d) tangent
        # stack of the 512-dimensional model alone would take 21 MB
        if ambient_dim:
            cfg = default_config()
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"blocks": cfg.blocks, "k1": cfg.k1,
                                        "rprime": cfg.rprime, "k2": cfg.k2,
                                        "ambient_dim": ambient_dim}))
            argv = ("--config", str(path), *argv)
        tracemalloc.start()
        try:
            code, _ = run(capsys, "example41", *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < bound

    @pytest.mark.parametrize("cfg,block_dims", [
        ({"blocks": [[4, 1.0], [3, 0.7]], "k1": 0, "rprime": [], "k2": 1,
          "ambient_dim": 20}, []),
        ({"blocks": [[2, 1.0], [4, 0.8]], "k1": 2, "rprime": [0.5, 0.6], "k2": 1,
          "ambient_dim": 16}, [0, 2]),
        ({"blocks": [[4, 1.0], [3, 0.7]], "k1": 2, "rprime": [0.8, 0.5], "k2": 10,
          "ambient_dim": 20}, [2, 1]),
        ({"blocks": [], "k1": 0, "rprime": [], "k2": 1, "ambient_dim": 8}, [])],
        ids=["no_constrained_block", "two_slot_block", "every_odd_slot_frozen", "no_block"])
    def test_example41_edge_configs(self, capsys, tmp_path, cfg, block_dims):
        # a config with no stored tangent column, no free odd slot or no
        # curved row at all still passes
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, report = run_json(capsys, "example41", "--config", str(path),
                                "--points", "3", "--trials", "5")
        res = report["result"]
        assert code == 0 and res["passed"] is True
        assert res["trace_constancy"]["passed"] is res["curvature_adapted"]["passed"] is True
        assert res["closed_form_traces"]["block_dims"] == block_dims

    @pytest.mark.parametrize("argv", [
        ("--radii", "abc"), ("--radii", "0.05,inf"), ("--radii", "0.05,nan"),
        ("--radii", "0.05,"), ("--points", "0"), ("--points", "-2"),
        ("--trials", "0"), ("--trials", str(MAX_TRIALS + 1)), ("--trials", str(10 ** 23)),
        ("--tol=-1",)])
    def test_example41_bad_input_is_input_error(self, capsys, argv):
        code, out = run(capsys, "example41", "--points", "3", "--trials", "3", *argv)
        assert code == 2
        assert out == ""

    def test_example41_nonfinite_tol_is_usage_error(self, capsys):
        usage_error(capsys, "example41", "--points", "3", "--tol", "nan")

    def test_bad_config_value_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"blocks": [[4, 1.0], [3, float("nan")]], "k1": 1,
                                    "rprime": [0.5], "k2": 0, "ambient_dim": 64}))
        code, _ = run(capsys, "example41", "--config", str(path), "--points", "2")
        assert code == 2


class TestTransportCommands:
    def su2_sample(self, seed, n):
        alg = load_algebra("su2")
        rng = np.random.default_rng(seed)
        ts = np.linspace(0.0, 1.0, n)
        x = alg.from_coefficients(rng.normal(size=3))
        return np.stack([np.cos(t) * x for t in ts]), x

    def test_transport_constant_path(self, capsys, tmp_path):
        alg = load_algebra("su2")
        x = alg.from_coefficients([0.3, -0.2, 0.5])
        path = tmp_path / "u.json"
        write_path(str(path), np.repeat(x[None], 11, axis=0))
        code, report = run_json(capsys, "transport", "--path", str(path),
                                "--steps", "2000")
        assert code == 0
        got = np.array([[complex(re, im) for re, im in row]
                        for row in report["result"]["endpoint"]])
        assert np.max(np.abs(got - expm(x))) < 1e-8
        assert report["result"]["unitarity_residual"] < 1e-10
        assert report["result"]["passed"] is True

    @pytest.mark.parametrize("value,residual", [(2.0 ** 40, 1e-4), (2.0 ** 52, 0.3)],
                             ids=["2^40", "2^52"])
    def test_transport_unitarity_failure_exits_one(self, capsys, tmp_path, value, residual):
        # one step of i 2^40 is representable, but its endpoint is not unitary
        # to UNITARY_TOL; the report said nothing and exited 0
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"samples": [[0, [[[0, value]]]], [1, [[[0, value]]]]]}))
        code, report = run_json(capsys, "transport", "--path", str(path), "--steps", "1")
        assert code == 1
        assert report["result"]["passed"] is False
        assert report["result"]["unitarity_residual"] > residual
        # the report names the bound its verdict used
        assert report["result"]["unitarity_tol"] == UNITARY_TOL == 1e-10

    def test_holonomy_factorization(self, capsys, tmp_path):
        samples, _ = self.su2_sample(3, 21)
        samples0, _ = self.su2_sample(4, 21)
        p1, p0 = tmp_path / "om.json", tmp_path / "om0.json"
        write_path(str(p1), samples)
        write_path(str(p0), samples0)
        code, report = run_json(capsys, "holonomy", "--omega", str(p1),
                                "--omega0", str(p0))
        assert code == 0
        assert report["result"]["factorization_residual"] < 1e-6
        assert report["result"]["factorization_tol"] == FACTORIZATION_TOL == 1e-6
        assert report["result"]["passed"] is True

    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_holonomy_non_positive_steps_is_input_error(self, capsys, tmp_path, steps):
        samples, _ = self.su2_sample(3, 21)
        path = tmp_path / "om.json"
        write_path(str(path), samples)
        code, _ = run(capsys, "holonomy", "--omega", str(path), "--steps", steps)
        assert code == 2

    @pytest.mark.parametrize("command,flag", [("transport", "--path"),
                                              ("holonomy", "--omega")])
    def test_nan_path_is_input_error(self, capsys, tmp_path, command, flag):
        samples, _ = self.su2_sample(3, 21)
        samples[5, 0, 1] = np.nan
        path = tmp_path / "nan.json"
        write_path(str(path), samples)
        code, _ = run(capsys, command, flag, str(path))
        assert code == 2

    @pytest.mark.parametrize("argv,value", [
        (("transport", "--path", "{}", "--steps", "5"), 2e154),   # exit 0, endpoint 0
        (("holonomy", "--omega", "{}"), 1e5)])                    # exit 1, null entries
    def test_unrepresentable_transport_is_input_error(self, capsys, tmp_path, argv, value):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"samples": [[0, [[[0, value]]]], [1, [[[0, value]]]]]}))
        code = main([a.format(path) for a in argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err.startswith("error:")

    def test_nan_time_is_input_error(self, capsys, tmp_path):
        z = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"samples": [[0.0, z], [float("nan"), z], [1.0, z]]}))
        code, _ = run(capsys, "transport", "--path", str(bad))
        assert code == 2

    @pytest.mark.parametrize("command,flag", [("transport", "--path"),
                                              ("holonomy", "--omega")])
    @pytest.mark.parametrize("middle", [
        [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0]]],                     # ragged rows
        [[[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0], [0.0, 0.0]],
         [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],                       # 3 x 3 among 2 x 2
    ])
    def test_malformed_sample_is_input_error(self, capsys, tmp_path, command, flag, middle):
        z = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"samples": [[0.0, z], [0.5, middle], [1.0, z]]}))
        code, _ = run(capsys, command, flag, str(bad))
        assert code == 2

    @pytest.mark.parametrize("command,flag", [("transport", "--path"),
                                              ("holonomy", "--omega")])
    def test_steps_above_cap_is_input_error(self, capsys, tmp_path, command, flag):
        samples, _ = self.su2_sample(3, 21)
        path = tmp_path / "u.json"
        write_path(str(path), samples)
        code, _ = run(capsys, command, flag, str(path), "--steps", str(transport.MAX_STEPS + 1))
        assert code == 2

    def test_holonomy_pullback_uses_steps(self, capsys, tmp_path):
        samples, _ = self.su2_sample(3, 21)
        samples0, _ = self.su2_sample(4, 21)
        p1, p0 = tmp_path / "om.json", tmp_path / "om0.json"
        write_path(str(p1), samples)
        write_path(str(p0), samples0)
        code, report = run_json(capsys, "holonomy", "--omega", str(p1),
                                "--omega0", str(p0), "--steps", "2000")
        assert code == 0
        om, om0 = io.read_path(str(p1)), io.read_path(str(p0))
        want = transport.transport(transport.pullback_connection(om, om0, steps=2000), steps=2000)
        got = np.array([[complex(re, im) for re, im in row]
                        for row in report["result"]["transport_of_pullback"]])
        assert np.array_equal(got, want)
        assert report["result"]["fine_steps"] == 2000

    def test_reports_say_how_they_integrate(self, capsys, tmp_path):
        # 4000 steps on a 300-interval path round up to 4200; holonomy's
        # default 500 rounds up to 600
        p1, p0 = tmp_path / "om.json", tmp_path / "om0.json"
        write_path(str(p1), self.su2_sample(3, 301)[0])
        write_path(str(p0), self.su2_sample(4, 301)[0])
        code, report = run_json(capsys, "transport", "--path", str(p1), "--steps", "4000")
        res = report["result"]
        assert code == 0
        assert (res["steps"], res["fine_steps"], res["integrator"]) == (4000, 4200, "gauss-magnus-4")
        for reference in ([], ["--omega0", str(p0)]):
            code, report = run_json(capsys, "holonomy", "--omega", str(p1), *reference)
            res = report["result"]
            assert code == 0 and report["config"]["steps"] == 500
            assert (res["fine_steps"], res["integrator"], res["oracle"]) == (600, "gauss-magnus-4",
                                                                             "rk4")
            assert res["factorization_residual"] < 1e-10

    def test_nonuniform_path_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"samples": [
            [0.0, [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]],
            [0.3, [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]],
            [1.0, [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]],
        ]}))
        code, _ = run(capsys, "transport", "--path", str(bad))
        assert code == 2


class TestAlgebraCommands:
    def test_roots_su3(self, capsys):
        code, report = run_json(capsys, "roots", "--algebra", "su3",
                                "--theta", "conj")
        assert code == 0
        res = report["result"]
        assert res["rank"] == 2
        assert res["dimension_identity"] is True
        assert res["bracket_max_residual"] < 1e-9

    @pytest.mark.parametrize("alg,theta,multiplicities",
                             [("su2", "conj", [2]), ("su3", "ad_diag", [2, 4]),
                              ("so5", "ad_diag", [6])])
    def test_roots_with_a_small_generic_weight(self, capsys, alg, theta, multiplicities):
        # seed 116 draws a weight small enough to scale every root of these
        # rank-one pairs under an absolute root threshold
        code, report = run_json(capsys, "roots", "--algebra", alg, "--theta", theta,
                                "--seed", "116")
        assert code == 0
        res = report["result"]
        assert (res["rank"], res["passed"]) == (1, True)
        assert sorted(res["multiplicities"]) == multiplicities

    def test_hyperpolar_su2(self, capsys):
        code, report = run_json(capsys, "hyperpolar", "--group", "SU(2)",
                                "--k1", "u1diag", "--k2", "u1diag")
        assert code == 0
        assert report["result"]["passed"] is True

    @pytest.mark.parametrize("theta", ["ad_diag_x", "ad_diag_-1", "ad_diag_3"])
    def test_roots_bad_involution_is_input_error(self, capsys, theta):
        code = main(["roots", "--algebra", "su3", "--theta", theta])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_hyperpolar_no_samples_is_input_error(self, capsys):
        code = main(["hyperpolar", "--group", "SU(3)", "--k1", "so3", "--k2", "so3",
                     "--samples", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("roots", "--algebra", "su2"), ("example41", "--points", "2", "--trials", "2"),
        ("hyperpolar", "--group", "SU(2)", "--k1", "so2", "--k2", "so2")])
    def test_negative_seed_is_usage_error(self, capsys, argv):
        # numpy refused the seed with a ValueError traceback
        usage_error(capsys, *argv, "--seed", "-1")
        assert run(capsys, *argv, "--seed", "0")[0] == 0

    def test_negative_seed_message(self, capsys):
        with pytest.raises(SystemExit):
            main(["roots", "--algebra", "su2", "--seed", "-3"])
        assert "--seed: must be a non-negative integer, got '-3'" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["abc", "1.5", "a'b"])
    def test_non_integer_seed_message(self, capsys, seed):
        # the text argparse gave for type=int before seeds were checked
        with pytest.raises(SystemExit):
            main(["roots", "--algebra", "su2", "--seed", seed])
        assert f"argument --seed: invalid int value: {seed!r}\n" in capsys.readouterr().err

    def test_hyperpolar_samples_beyond_cap_is_input_error(self, capsys):
        # a 10**9-sample Python loop used to start
        code = main(["hyperpolar", "--group", "SU(2)", "--k1", "so2", "--k2", "so2",
                     "--samples", str(10 ** 9)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and str(hyperpolar.MAX_SAMPLES) in err

    @pytest.mark.parametrize("argv", [
        ("roots", "--algebra", "su40"), ("roots", "--algebra", f"so{MAX_MATRIX_SIZE + 1}"),
        ("hyperpolar", "--group", "SU(40)", "--k1", "son", "--k2", "son")])
    def test_algebra_beyond_size_cap_is_input_error(self, capsys, argv):
        # su40's bracket stack asked numpy for 61 GiB and ended in a traceback
        tracemalloc.start()
        try:
            code = main(list(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and str(MAX_MATRIX_SIZE) in err
        assert peak < 1 << 20

    def test_hyperpolar_mismatched_subgroups(self, capsys):
        code, _ = run(capsys, "hyperpolar", "--group", "SU(2)",
                      "--k1", "u1diag", "--k2", "so2")
        assert code == 2

    def test_hyperpolar_subgroups_compare_without_case(self, capsys):
        # SO3 and so3 name the same subgroup: the pair was refused as k1 != k2
        argv = ["hyperpolar", "--group", "SU(3)", "--samples", "3"]
        code, mixed = run_json(capsys, *argv, "--k1", "SO3", "--k2", "so3")
        _, lower = run_json(capsys, *argv, "--k1", "so3", "--k2", "so3")
        assert code == 0 and mixed["result"] == lower["result"]

    @pytest.mark.parametrize("group,spec,code,k_dim", [
        ("SU(4)", "so3", 2, None), ("SU(2)", "so3", 2, None), ("SU(3)", "so2", 2, None),
        ("SU(2)", "so2", 0, 1), ("SU(3)", "so3", 0, 3), ("SU(4)", "so4", 0, 6),
        ("SU(4)", "son", 0, 6), ("SU(3)", "u1diag", 0, 4)])
    def test_hyperpolar_numbered_subgroup_is_so_n_of_the_group(self, capsys, group, spec,
                                                              code, k_dim):
        # so3 on SU(4) ran so(4), the fixed algebra of complex conjugation
        got, out = run(capsys, "hyperpolar", "--group", group, "--k1", spec, "--k2", spec,
                       "--samples", "3")
        assert got == code
        assert (json.loads(out)["result"]["subgroup_dim"] if out else None) == k_dim


class TestGreenCommands:
    def test_green_solve(self, capsys, tmp_path):
        op_path, psi_path = tmp_path / "op.json", tmp_path / "psi.json"
        op_path.write_text(json.dumps([[2.0, 0.0], [0.0, 4.0]]))
        psi_path.write_text(json.dumps([2.0, 4.0]))
        code, report = run_json(capsys, "green", "--op", str(op_path),
                                "--psi", str(psi_path))
        assert code == 0
        assert report["result"]["sigma"] == pytest.approx([1.0, 1.0])
        assert report["result"]["residual"] < 1e-12

    def test_green_singular_is_input_error(self, capsys, tmp_path):
        op_path, psi_path = tmp_path / "op.json", tmp_path / "psi.json"
        op_path.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0]]))
        psi_path.write_text(json.dumps([1.0, 1.0]))
        code, _ = run(capsys, "green", "--op", str(op_path),
                      "--psi", str(psi_path))
        assert code == 2

    def test_green_singular_at_large_scale(self, capsys, tmp_path):
        # eigh gives the null mode (1, -1, 0) an eigenvalue of order 1e84; an
        # absolute rule took it as invertible and exited 0 with residual 0.714
        op_path, psi_path = tmp_path / "op.json", tmp_path / "psi.json"
        op_path.write_text(json.dumps([[1e100, 1e100, 3e99], [1e100, 1e100, 3e99],
                                       [3e99, 3e99, 7e99]]))
        psi_path.write_text(json.dumps([1.0, 2.0, 3.0]))
        code, out = run(capsys, "green", "--op", str(op_path), "--psi", str(psi_path))
        assert code == 2 and out == ""
        code, report = run_json(capsys, "green", "--op", str(op_path),
                                "--psi", str(psi_path), "--project")
        assert code == 0
        sigma = np.array(report["result"]["sigma"])
        # the null mode is dropped: the residual is psi's part along it, 1/sqrt(2)
        assert abs(sigma[0] - sigma[1]) < 1e-12 * np.linalg.norm(sigma)
        assert report["result"]["residual"] == pytest.approx(2 ** -0.5, rel=1e-12)

    def test_green_nan_operator_is_input_error(self, capsys, tmp_path):
        op_path, psi_path = tmp_path / "op.json", tmp_path / "psi.json"
        op_path.write_text(json.dumps([[1.0, float("nan")], [float("nan"), 1.0]]))
        psi_path.write_text(json.dumps([1.0, 1.0]))
        code, _ = run(capsys, "green", "--op", str(op_path), "--psi", str(psi_path))
        assert code == 2

    def test_green_singular_projection(self, capsys, tmp_path):
        op_path, psi_path = tmp_path / "op.json", tmp_path / "psi.json"
        op_path.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0]]))
        psi_path.write_text(json.dumps([1.0, 1.0]))
        code, report = run_json(capsys, "green", "--op", str(op_path),
                                "--psi", str(psi_path), "--project")
        assert code == 0
        assert report["result"]["sigma"] == pytest.approx([1.0, 0.0])

    def test_box1d(self, capsys):
        code, report = run_json(capsys, "box1d", "--samples", "32",
                                "--speed", "2.0", "--periodic")
        assert code == 0
        assert report["result"]["smallest_eigenvalue"] == pytest.approx(1.0)
        m = np.array(report["result"]["matrix"])
        assert m.shape == (32, 32)
        assert np.max(np.abs(m - m.T)) < 1e-12

    @pytest.mark.parametrize("op,psi", [
        ([["a", 1.0], [1.0, 2.0]], [1.0, 1.0]),
        ([[1.0, 0.0], [0.0, 1.0], [1.0]], [1.0, 1.0]),
        ({"rows": 2}, [1.0, 1.0]),
        ([[2.0, 0.0], [0.0, 4.0]], ["x", 1.0]),
        ([[2.0, 0.0], [0.0, 4.0]], [float("nan"), 1.0]),
        ([[2.0, 0.0], [0.0, 4.0]], [1.0, float("-inf")]),
    ])
    def test_green_bad_input_is_input_error(self, capsys, tmp_path, op, psi):
        op_path, psi_path = tmp_path / "op.json", tmp_path / "psi.json"
        op_path.write_text(json.dumps(op))
        psi_path.write_text(json.dumps(psi))
        code, out = run(capsys, "green", "--op", str(op_path), "--psi", str(psi_path))
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("samples", [3, MAX_BOX_SAMPLES + 1, 100_000_000])
    def test_box1d_samples_out_of_range_is_input_error(self, capsys, samples):
        code, out = run(capsys, "box1d", "--samples", str(samples), "--speed", "2.0")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("speed", ["nan", "inf"])
    def test_box1d_nonfinite_speed_is_usage_error(self, capsys, speed):
        usage_error(capsys, "box1d", "--samples", "8", "--speed", speed)

    @pytest.mark.parametrize("periodic", [True, False])
    def test_box1d_eigenvalues_in_closed_form(self, capsys, periodic):
        s, a = 33, 1.3
        code, report = run_json(capsys, "box1d", "--samples", str(s), "--speed", str(a),
                                *(("--periodic",) if periodic else ()))
        assert code == 0
        res = report["result"]
        k = np.arange(s)
        angle = np.pi * k / (s if periodic else 2 * s)
        exact = 1.0 + (2.0 * s / a) ** 2 * np.sin(angle) ** 2
        # the rows of the stored matrix sum to exactly 1
        assert res["smallest_eigenvalue"] == 1.0
        assert res["largest_eigenvalue"] == pytest.approx(exact.max(), rel=1e-15)
        assert np.linalg.eigvalsh(np.array(res["matrix"]))[-1] == pytest.approx(
            res["largest_eigenvalue"], rel=1e-12)


def _holds(residual, tol) -> bool:
    """The one rule of every verdict, on printed fields: each residual (a list
    holds several) is at most its bound, and a null one (NaN in the report) fails."""
    values = residual if isinstance(residual, list) else [residual]
    return all(v is not None and v <= tol for v in values)


def _iso_verdict(iso) -> bool:
    return (_holds([entry["spread"] for entry in iso["radii"].values()], iso["spread_tol"])
            and iso["regularizable"] and not iso["focal_collisions"])


def _printed_verdict(result) -> bool:
    """A report's verdict read off its printed (residual, *_tol) pairs and the
    conditions it conjoins."""
    if "trace_constancy" in result:           # example41, from its two blocks
        adapted = result["curvature_adapted"]
        blocks = (_iso_verdict(result["trace_constancy"]),
                  _holds(adapted["max_commutator_norm"], adapted["commutator_tol"]))
        assert blocks == (result["trace_constancy"]["passed"], adapted["passed"])
        return all(blocks)
    if "radii" in result:                     # check iso
        return _iso_verdict(result)
    if "focal_collision" in result:           # parallel
        return not result["focal_collision"]
    pairs = [(k[: -len("_tol")], k) for k in result if k.endswith("_tol")]
    residual_names = {"unitarity": "unitarity_residual", "factorization": "factorization_residual",
                      "bracket": "bracket_max_residual", "radii": "radii_residual",
                      "orthogonality": "max_orthogonality_residual",
                      "flatness": "flatness_residual"}
    assert pairs, "a verdict with no printed bound"
    return (all(_holds(result[residual_names[name]], result[tol]) for name, tol in pairs)
            and result.get("dimension_identity", True))


def _verdict_files(d):
    """Input files of the verdict cases, written into the directory d."""
    g = EigenGrid(((1.0, 0.5, 2), (0.0, 1.0, 1)), label="p")
    spread = EigenGrid(((1.0, 0.5 + 2e-9, 2), (0.0, 1.0, 1)), label="q")
    for name, grids in (("same", [g, g]), ("spread", [g, spread]),
                        ("apart", [g, EigenGrid(((1.0, 2.0, 2),), label="q")])):
        (d / name).mkdir()
        for i, grid in enumerate(grids):
            write_eigen_grid(str(d / name / f"g{i}.json"), grid)
    write_eigen_grid(str(d / "grid.json"), EigenGrid(((1.0, 0.0, 2), (0.0, 2.0, 1))))
    write_spectrum(str(d / "spec.json"), SpectralData([0.5, 0.25], [1, 1], [1.0], [1]))
    x = load_algebra("su2").from_coefficients([0.3, -0.2, 0.5])
    write_path(str(d / "u.json"), np.repeat(x[None], 11, axis=0))
    step = [[[0, 2.0 ** 40]]]                 # i 2^40: its endpoint is unitary to 1e-4 only
    (d / "big.json").write_text(json.dumps({"samples": [[0, step], [1, step]]}))
    (d / "om.json").write_text(json.dumps({"samples": [
        [0, [[[0, 1.0], [0, 0]], [[0, 0], [0, -1.0]]]],
        [1, [[[0, 5.0], [3, 0]], [[-3, 0], [0, -5.0]]]]]}))
    (d / "op.json").write_text(json.dumps([[2.0, 0.0], [0.0, 4.0]]))
    (d / "psi.json").write_text(json.dumps([2.0, 4.0]))


# a command line ({d}: the files' directory), its expected "passed" (None:
# the report has no verdict), and a bound of the table set to 0 for it, where
# no real input makes the report fail
_VERDICT_CASES = [
    ("trace --spec {d}/spec.json", None, None),
    ("focal --grid {d}/grid.json", None, None),
    ("green --op {d}/op.json --psi {d}/psi.json", None, None),
    ("box1d --samples 8 --speed 1.5", None, None),
    ("parallel --grid {d}/grid.json --r 0.3", True, None),
    ("parallel --grid {d}/grid.json --r 1.5707963267948966", False, None),
    ("check weak --grids {d}/same", True, None),
    ("check weak --grids {d}/apart", False, None),
    ("check iso --grids {d}/same --radii 0.1,0.2", True, None),
    ("check iso --grids {d}/spread --radii 0.1,0.2 --tol 0", False, None),
    ("check iso --grids {d}/same --radii 0.5,1.0", False, None),         # focal at 1.0
    ("check equifocal --grids {d}/same", True, None),
    ("check equifocal --grids {d}/spread --tol 0", False, None),
    ("check equifocal --grids {d}/apart", False, None),                   # counts differ
    ("example41 --points 4 --trials 4", True, None),
    ("example41 --points 4 --trials 4 --tol 0", False, None),
    ("transport --path {d}/u.json", True, None),
    ("transport --path {d}/big.json --steps 1", False, None),
    ("holonomy --omega {d}/om.json", True, None),
    ("holonomy --omega {d}/om.json --steps 1", False, None),
    ("roots --algebra su3", True, None),
    ("roots --algebra su3", False, "roots.BRACKET_TOL"),
    ("hyperpolar --group SU2 --k1 SO2 --k2 SO2 --samples 4", True, None),
    ("hyperpolar --group SU2 --k1 SO2 --k2 SO2 --samples 4", False, "hyperpolar.ORTHOGONALITY_TOL"),
]


@pytest.mark.parametrize("argv,want,zeroed", _VERDICT_CASES,
                         ids=[f"{i}-{c[0].split(' --')[0]}" for i, c in enumerate(_VERDICT_CASES)])
def test_passed_is_the_printed_verdicts_and_sets_the_exit_code(
        capsys, tmp_path, monkeypatch, argv, want, zeroed):
    if zeroed:
        module, name = zeroed.split(".")
        monkeypatch.setattr(f"focalis.{module}.{name}", 0.0)
    _verdict_files(tmp_path)
    code, report = run_json(capsys, *argv.format(d=tmp_path).split())
    result = report["result"]
    assert result.get("passed") is want
    assert code == (1 if want is False else 0)
    # the weak check compares spectra entry by entry, with a bound of its own
    # per entry, and prints no residual: its verdict is a condition alone
    if want is not None and not argv.startswith("check weak"):
        assert _printed_verdict(result) is want
