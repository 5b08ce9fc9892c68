"""The JSON readers: orjson against the stdlib decoder, spectrum files read a
slice at a time against the whole file, the nesting limit, null and
out-of-range whole numbers, and the package's declared dependencies."""

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
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings, strategies as st

from focalis import io
from focalis.cli import main
from focalis.errors import ValidationError
from focalis.spectral import SpectralData, TailModel

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
def _stdlib_load_json(path):
    """The reader every file went through before orjson: the stdlib decoder
    on the UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValidationError(f"cannot read JSON file '{path}': {exc}") from exc


def _spectrum_of(data, path):
    """The spectrum of a spectrum file's whole decoded value, read as
    read_spectrum read it before it decoded the file a slice at a time."""
    try:
        branches = []
        for key in ("positives", "negatives"):
            entries = data.get(key, [])
            branches += [[e["value"] for e in entries], [e.get("mult", 1) for e in entries]]
        tail = data.get("tail")
        model = TailModel(tail["ratio"], tail["scale"]) if tail else None
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed spectrum file '{path}': {exc}") from exc
    return SpectralData(*branches, model)


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
    monkeypatch.setattr(io, "read_spectrum", lambda path: _spectrum_of(_stdlib_load_json(path), path))
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


# ------------------------------------------- spectrum files a slice at a time
# strings full of brackets, quotes, backslashes and commas, and other JSON
# values under keys no reader reads
_NOISE = st.text('[]{}"\\,: a\n\u00e9', max_size=6)
_OTHER = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([0.5, -0.0, 1e300]),
              _NOISE),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_NOISE, inner, max_size=3),
    max_leaves=10)
_ENTRY = st.fixed_dictionaries({"value": st.sampled_from([4.0, 2.0, 1.0, 0.5, 5e-324, 0.0])},
                               optional={"mult": st.integers(1, 3), 'k[\\"{': _NOISE})
_TAIL = st.one_of(st.none(), st.just([]), _OTHER,
                  st.fixed_dictionaries({"ratio": st.floats(0.5, 0.9), "scale": st.just(0.0)}))
_SORTED = st.lists(_ENTRY, max_size=9).map(lambda entries: sorted(entries,
                                                                  key=lambda e: -e["value"]))
_BRANCH = st.one_of(_SORTED, _SORTED, _SORTED, _OTHER)
# what a mutation inserts, or puts in a byte's place: structure, number and
# literal starts, a byte that is no UTF-8 and one that leads a two-byte character
_INSERTS = [b"[", b"]", b"{", b"}", b'"', b"\\", b",", b":", b" ", b"0", b"-", b"e", b"n",
            b"NaN", b"1e400", b'"\\ud800"', b"\xff", b"\xc3"]


@st.composite
def spectrum_texts(draw):
    """The bytes of a spectrum file: key-value pairs (keys repeated, and keys
    no reader reads, among them) under a top-level object or another value,
    written compact or spaced, then up to three bytes inserted, deleted or replaced."""
    keys = st.sampled_from(["positives", "positives", "negatives", "tail", 'x[\\"', "n"])
    pairs = [(key, draw(_TAIL if key == "tail" else _BRANCH if key in ("positives", "negatives")
                        else _OTHER)) for key in draw(st.lists(keys, max_size=5))]
    gap = draw(st.sampled_from(["", " ", "\n  "]))
    text = "{" + ",".join(f"{gap}{json.dumps(k)}:{gap}{json.dumps(v)}" for k, v in pairs) + "}"
    if draw(st.integers(0, 9)) == 0:
        text = json.dumps(draw(_OTHER))
    raw = text.encode()
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at, kept = draw(st.integers(0, len(raw))), draw(st.integers(0, 1))
        raw = raw[:at] + draw(st.sampled_from([b"", *_INSERTS])) + raw[at + 1 - kept:]
    return raw


def _read(reader, path):
    """The arrays (dtype and bytes) and tail reader gives path, or None where
    it refuses the file."""
    try:
        spec = reader(path)
    except ValidationError:
        return None
    arrays = (spec.positives, spec.pos_mults, spec.negatives, spec.neg_mults)
    tail = spec.tail and (_bits(spec.tail.ratio), _bits(spec.tail.scale))
    return [(a.dtype.str, a.tobytes()) for a in arrays], tail


@given(spectrum_texts(), st.integers(1, 3), st.integers(1, 9))
@settings(max_examples=1500, deadline=None)
# a trailing comma on a slice boundary leaves an empty last slice
@example(b'{"positives": [{"value": 0.5}, {"value": 0.25},]}', 2, 4)
@example(b'{"positives": [{"value": 0.5},]}', 1, 9)
@example(b'{"positives": [,{"value": 0.5}]}', 1, 9)
@example(b'{"positives": [{"value": 0.5},, {"value": 0.25}]}', 1, 9)
# unbalanced and mismatched brackets
@example(b'{"positives": [{"value": 0.5}}', 1, 9)
@example(b'{"positives": [{"value": 0.5}}}', 1, 9)
@example(b'{"positives": [{"value": 0.5}]]}', 1, 9)
@example(b'{"positives": [[{"value": 0.5}]}', 1, 9)
@example(b'{"positives": [{"value": 0.5}]', 1, 9)
@example(b'{"positives": 1[{"value": 0.5}]}', 1, 9)
@example(b'{"negatives": [0} "x": [1]}', 1, 9)
# top levels that are not an object
@example(b'[{"value": 0.5}]', 1, 9)
@example(b'[[1, 2], [3]]', 1, 9)
@example(b'"positives"', 1, 9)
@example(b"", 1, 9)
# duplicate keys: orjson keeps the last value
@example(b'{"positives": [{"value": 0.5}], "positives": [{"value": 0.25}]}', 1, 9)
@example(b'{"positives": [{"value": 0.5}], "positives": 5}', 1, 9)
@example(b'{"positives": 5, "positives": [{"value": 0.5}]}', 1, 9)
# a malformed token inside an array under a key no reader reads
@example(b'{"po,sitives": [{"value": 0.47:116}], "positives": [{"value": 0.5}]}', 1, 9)
@example(b'{"x": [1, NaN], "positives": []}', 1, 9)
@example(b'{"x": [1, "\\ud800"]}', 2, 9)
# escapes and brackets in strings, across block boundaries
@example(b'{"positives": [{"value": 0.5, "\\\\": "[\\"]\\\\"}], "n\\"": "]"}', 1, 1)
@example(b'{"positives": [{"value": 0.5, "k": "\\\\\\"["}]}', 2, 2)
# nesting just past MAX_NESTING and just within it
@example(b'{"positives": [], "x": ' + b"[" * 1024 + b"]" * 1024 + b"}", 2, 9)
@example(b'{"positives": [], "x": ' + b"[" * 1023 + b"]" * 1023 + b"}", 2, 9)
@example(b'{"tail": []}', 1, 9)
@example(b'{"tail": [1]}', 1, 9)
@example(b'{"tail": {"ratio": 0.5, "scale": 0.0}, "positives": [{"value": 1.0}, {"value": 0.5}]}',
         1, 3)
def test_slices_read_as_the_whole_file(text, slice_entries, block):
    """read_spectrum refuses exactly the texts that whole-file orjson (with the
    nesting limit) and the entry reading refuse, and gives every other one
    bit-identical arrays and tail, at slices of 1 to 3 entries and scan blocks
    of 1 to 9 bytes."""
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/s.json"
        with open(path, "wb") as fh:
            fh.write(text)
        want = _read(lambda p: _spectrum_of(io._load_json(p), p), path)
        with mock.patch.multiple(io, SLICE_ENTRIES=slice_entries, _BLOCK=block):
            got = _read(io.read_spectrum, path)
    assert got == want


def test_spectrum_of_100k_entries_peaks_below_20_mib(tmp_path):
    # perfbench's 100k-entry spectrum file: two geometric branches and a tail,
    # written by json.dump; the stdlib decoder peaked at 25.0 MiB on it
    n = 100_000
    q = math.exp(-60.0 / n)
    powers = (q ** np.arange(n // 2)).tolist()
    f = tmp_path / "spec.json"
    f.write_text(json.dumps({"positives": [{"value": 1.5 * v, "mult": 1} for v in powers],
                             "negatives": [{"value": 0.75 * v, "mult": 1} for v in powers],
                             "tail": {"ratio": q, "scale": 0.375}}))
    tracemalloc.start()
    try:
        spec = io.read_spectrum(str(f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.rank == n
    assert peak < 20 * 2 ** 20


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
