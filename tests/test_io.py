"""The JSON readers: orjson against the stdlib decoder, the nesting limit,
null and out-of-range whole numbers, and the package's declared dependencies."""

import ast
import contextlib
import io as textio
import json
import math
import pathlib
import random
import struct
import subprocess
import sys

import orjson
import pytest
from hypothesis import example, given, settings, strategies as st

from focalis import io
from focalis.cli import main
from focalis.errors import ValidationError

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _bits(x):
    return struct.pack("<d", x)


def _same(a, b):
    """Equal JSON values, floats bit for bit (so -0.0 is not 0.0)."""
    if isinstance(a, float) or isinstance(b, float):
        return type(a) is type(b) and _bits(a) == _bits(b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


# ------------------------------------------------------------ decoders agree
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(5e-324)
@example(2.2250738585072011e-308)
@example(-0.0)
@example(1.7976931348623157e308)
def test_orjson_reads_every_finite_double_back(x):
    assert _bits(orjson.loads(repr(x).encode())) == _bits(x)


@st.composite
def decimal_texts(draw):
    """A JSON number of up to 25 significant digits and exponent within +-330."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.integers(0, len(digits)))
    whole, frac = digits[:point].lstrip("0") or "0", digits[point:]
    text = whole + (f".{frac}" if frac else "")
    if draw(st.booleans()):
        text += draw(st.sampled_from(["e", "E", "e+", "e-", "E-"])) + str(draw(st.integers(0, 330)))
    return draw(st.sampled_from(["", "-"])) + text


@given(decimal_texts())
@settings(max_examples=2000)
@example("2.2250738585072011e-308")
@example("5e-324")
@example("-0.0")
@example("2.4703282292062327e-324")   # halfway to the least subnormal: rounds to even, 0
@example("2.4703282292062328e-324")
@example("1.7976931348623158e308")    # rounds down to the largest double
@example("1.7976931348623159e308")    # beyond it: infinity
@example("9007199254740993")          # 2**53 + 1, an int on both
@example("9007199254740993.0")        # halfway between doubles: rounds to even
@example("18446744073709551615")       # 2**64 - 1, the largest int orjson keeps
@example("18446744073709551616")
@example("-9223372036854775809")
def test_orjson_matches_the_stdlib_decoder(text):
    """Equal values; or a number beyond the double range, which the stdlib
    reads as an infinity (every reader refuses it) and orjson refuses; or an
    int beyond 64 bits, which orjson reads as the nearest double (the float
    readers read the int as that double, and the whole-number ones refuse both)."""
    want = json.loads(text)
    try:
        got = orjson.loads(text.encode())
    except orjson.JSONDecodeError:
        assert isinstance(want, float) and math.isinf(want)
        return
    if isinstance(want, int) and not -2 ** 63 <= want < 2 ** 64:
        want = float(want)
    assert _same(got, want)


# ---------------------------------------------------- the edge table, every reader
def _stdlib_load_json(path, stdlib=False):
    """The reader every file went through before orjson: the stdlib decoder
    on the UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValidationError(f"cannot read JSON file '{path}': {exc}") from exc


_Z = "[0.0, 0.0]"
_ZERO_2 = f"[[{_Z}, {_Z}], [{_Z}, {_Z}]]"
# each reader's command and a document with {x} at a number's place
_READERS = {
    "spectrum": (["trace", "--spec", "{f}"],
                 '{{"positives": [{{"value": 0.5}}, {{"value": {x}, "mult": 1}}], '
                 '"negatives": [{{"value": 0.25}}]}}'),
    "grid": (["focal", "--grid", "{f}"],
             '{{"label": "g", "pairs": [{{"lambdaR": 1.0, "lambdaA": {x}, "mult": 2}}]}}'),
    "path": (["transport", "--path", "{f}"],
             f'{{{{"group": "SU2", "samples": [[{{x}}, {_ZERO_2}], [1.0, {_ZERO_2}]]}}}}'),
    "matrix": (["green", "--op", "{f}", "--psi", "{vector}"], "[[2.0, {x}], [{x}, 3.0]]"),
    "vector": (["green", "--op", "{matrix}", "--psi", "{f}"], "[{x}, 1.0]"),
    "config": (["example41", "--config", "{f}", "--points", "2", "--trials", "2"],
               '{{"blocks": [[3, 1.0], [2, 2.0]], "k1": 1, "rprime": [{x}], '
               '"k2": 0, "ambient_dim": 12}}'),
}
_EDGES = {"NaN": "NaN", "Infinity": "Infinity", "1e400": "1e400", "-0.0": "-0.0",
          "least subnormal": "5e-324", "least normal": "2.2250738585072011e-308",
          "lone surrogate": '"\\ud800"', "nested 1025 deep": "[" * 1025 + "0.5" + "]" * 1025}


def _run(argv):
    # the CLI writes its report to stdout's byte buffer
    out = textio.TextIOWrapper(textio.BytesIO(), encoding="utf-8", write_through=True)
    err = textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.buffer.getvalue().decode(), err.getvalue()


@pytest.mark.parametrize("edge", [*_EDGES, "BOM"])
@pytest.mark.parametrize("reader", _READERS)
def test_edge_inputs_read_as_before_or_exit_2(tmp_path, monkeypatch, reader, edge):
    argv, doc = _READERS[reader]
    text = doc.format(x=_EDGES.get(edge, "0.5"))
    files = {"f": tmp_path / "edge.json", "matrix": tmp_path / "m.json",
             "vector": tmp_path / "v.json"}
    files["f"].write_bytes((b"\xef\xbb\xbf" if edge == "BOM" else b"") + text.encode())
    files["matrix"].write_text("[[2.0, 0.0], [0.0, 3.0]]")
    files["vector"].write_text("[1.0, 1.0]")
    argv = [a.format(**files) for a in argv]
    got = _run(argv)
    monkeypatch.setattr(io, "_load_json", _stdlib_load_json)
    before = _run(argv)
    if got[0] == 2 and got[1] == "":
        return
    assert got == before


@pytest.mark.parametrize("edge", ["NaN", "Infinity", "1e400", "lone surrogate",
                                  "nested 1025 deep", "BOM"])
def test_edges_outside_rfc_8259_are_refused(tmp_path, edge):
    f = tmp_path / "m.json"
    x = _EDGES.get(edge, "0.5")
    f.write_bytes((b"\xef\xbb\xbf" if edge == "BOM" else b"") + f"[[{x}]]".encode())
    with pytest.raises(ValidationError, match=f"cannot read JSON file '{f}'"):
        io.read_matrix(str(f))


# ------------------------------------------------------------ the nesting limit
def _depth(x):
    """How deep a decoded JSON value nests, without recursion."""
    best, stack = 0, [(x, 0)]
    while stack:
        x, d = stack.pop()
        if isinstance(x, (list, dict)):
            best = max(best, d + 1)
            stack += [(v, d + 1) for v in (x.values() if isinstance(x, dict) else x)]
    return best


def _nested_text(levels: int, rng: random.Random):
    """(text, depth): a JSON text nesting about `levels` deep through lists
    and objects, with strings full of brackets, quotes and backslashes on the
    way, and a string of opening brackets beside it that takes the count of
    brackets past MAX_NESTING."""
    def noise():
        return json.dumps("".join(rng.choices('[]{}"\\ab\n', k=rng.randint(0, 6))))
    text, depth = rng.choice([noise(), repr(rng.uniform(-1.0, 1.0))]), 0
    for _ in range(levels):
        strings = [noise() for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.5:
            text = f'{{{noise()}: {text}, "n": [{", ".join(strings)}]}}'
            depth = max(depth + 1, 2)
        else:
            text = f"[{''.join(s + ', ' for s in strings)}{text}]"
            depth += 1
    pad = json.dumps("".join(rng.choices("[{", k=rng.randint(0, 1200))))
    return f'{{"pad": {pad}, "doc": {text}}}', depth + 1


@given(st.integers(io.MAX_NESTING - 3, io.MAX_NESTING + 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_nesting_is_the_depth_of_the_document(levels, seed):
    text, depth = _nested_text(levels, random.Random(seed))
    raw = text.encode()
    assert _depth(orjson.loads(raw)) == depth
    n = io._nesting(raw)
    assert (n > io.MAX_NESTING) == (depth > io.MAX_NESTING)
    assert n >= depth and (n == depth or n <= io.MAX_NESTING)


def test_deep_file_is_refused_where_orjson_would_crash(tmp_path):
    # orjson builds 100,000 nested objects recursively and overflows the C
    # stack: without the limit the process dies with SIGSEGV
    f = tmp_path / "deep.json"
    f.write_text('{"a": ' * 100_000 + "1" + "}" * 100_000)
    proc = subprocess.run([sys.executable, "-m", "focalis.cli", "green", "--op", str(f),
                           "--psi", str(f)], capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: cannot read JSON file '{f}': nesting deeper than 1024\n"


# ------------------------------------------------ null and whole numbers in files
def _write_reader_files(tmp_path, doc):
    files = {"f": tmp_path / "f.json", "matrix": tmp_path / "m.json",
             "vector": tmp_path / "v.json"}
    files["f"].write_text(doc)
    files["matrix"].write_text("[[2.0, 0.0], [0.0, 3.0]]")
    files["vector"].write_text("[1.0, 1.0]")
    return files


@pytest.mark.parametrize("reader, doc, message", [
    ("spectrum", '{"positives": [{"value": 0.5}], "tail": {"ratio": null, "scale": 0.1}}',
     "tail ratio: numbers are given as null"),
    ("spectrum", '{"positives": [{"value": 0.5, "mult": null}]}',
     "positives: numbers are given as null"),
    ("grid", '{"pairs": [{"lambdaR": 1.0, "lambdaA": null}]}',
     "pairs: numbers are given as null"),
    ("path", '{"samples": [[0.0, [[[0.0, 0.0]]]], [null, [[[0.0, 0.0]]]]]}',
     "sample times: numbers are given as null"),
    ("path", '{"samples": [[0.0, [[[0.0, 0.0]]]], [1.0, [[[0.0, null]]]]]}',
     "sample matrices: numbers are given as null"),
    ("matrix", "[[1.0, null], [null, 1.0]]", "does not hold a dense matrix: numbers are given as null"),
    ("vector", "[null, 1.0]", "does not hold a flat vector: numbers are given as null"),
    ("config", '{"blocks": [[4, null]], "k1": 1, "rprime": [0.5], "k2": 0, "ambient_dim": 8}',
     "block radii: numbers are given as null"),
], ids=["spectrum", "spectrum mult", "grid", "path time", "path entry", "matrix", "vector", "config"])
def test_null_is_refused_as_null(tmp_path, reader, doc, message):
    # the null read as NaN: "tail ratio must lie in (0,1), got nan",
    # "bad block (m=4, r=nan)", "operator entries must be finite"
    files = _write_reader_files(tmp_path, doc)
    code, out, err = _run([a.format(**files) for a in _READERS[reader][0]])
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("value", ["1180591620717411303424", "18446744073709551616",
                                   "9223372036854775808", "-9223372036854775809", "1e300"])
@pytest.mark.parametrize("reader, doc", [
    ("grid", '{{"pairs": [{{"lambdaR": 1.0, "lambdaA": 0.5, "mult": {x}}}]}}'),
    ("config", '{{"blocks": [[3, 1.0]], "k1": 1, "rprime": [0.5], "k2": 0, "ambient_dim": {x}}}'),
    ("spectrum", '{{"positives": [{{"value": 0.5, "mult": {x}}}]}}'),
])
def test_whole_numbers_beyond_int64_are_refused_by_range(tmp_path, reader, doc, value):
    # 2**70 printed "Python int too large to convert to C long"; orjson reads
    # it as a float, which a whole-number test alone called fractional
    files = _write_reader_files(tmp_path, doc.format(x=value))
    code, out, err = _run([a.format(**files) for a in _READERS[reader][0]])
    assert code == 2 and out == ""
    assert "whole numbers must lie in the 64-bit range (|n| < 2**63)" in err


@pytest.mark.parametrize("reader, doc, message", [
    ("grid", '{"pairs": [{"lambdaR": 1.0, "lambdaA": 0.5, "mult": {"a": 1}}]}', "pair: int()"),
    ("grid", '{"pairs": [{"lambdaR": 1.0, "lambdaA": 0.5, "mult": 2}, '
             '{"lambdaR": 1.0, "lambdaA": 0.5, "mult": {"a": 1}}]}', "pair: int()"),
    ("config", '{"blocks": [[3, 1.0]], "k1": 1, "rprime": [0.5], "k2": 0, '
               '"ambient_dim": {"a": 1}}', "ambient_dim: int()"),
    ("config", '{"blocks": [[{"a": 1}, 1.0]], "k1": 1, "rprime": [0.5], "k2": 0, '
               '"ambient_dim": 8}', "block sizes: int()"),
    ("spectrum", '{"positives": [{"value": 0.5, "mult": {"a": 1}}]}', "positives: int()"),
    ("spectrum", '{"positives": [{"value": 0.5, "mult": 1180591620717411303424}, '
                 '{"value": 0.4, "mult": {"a": 1}}]}',
     "positives: whole numbers must lie in the 64-bit range (|n| < 2**63)"),
], ids=["grid", "grid second pair", "config ambient_dim", "config block", "spectrum",
        "spectrum beside 2**70"])
def test_whole_number_fields_holding_objects_are_refused(tmp_path, reader, doc, message):
    # the range test took abs() of a dict and ended in a TypeError traceback
    files = _write_reader_files(tmp_path, doc)
    code, out, err = _run([a.format(**files) for a in _READERS[reader][0]])
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err
    assert message.endswith("2**63)") or err.rstrip().endswith("not 'dict'")


# ------------------------------------------------------------ the dependencies
def _third_party_imports():
    names = set()
    for path in (ROOT / "src" / "focalis").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "focalis"}


def test_runtime_dependencies_are_the_imports():
    tomllib = pytest.importorskip("tomllib")     # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {dep.split(">")[0].split("=")[0].split("<")[0].strip()
                for dep in project["dependencies"]}
    assert declared == _third_party_imports()
