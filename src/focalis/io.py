"""JSON readers for spectra, eigen grids, paths, matrices and model configs.

io only reads; the CLI writes every report, through orjson.  Files are
decoded by orjson, strictly to RFC 8259: a spectrum one slice of
SLICE_ENTRIES entries at a time (read_spectrum), every other file whole.
Numbers must be JSON numbers, not strings, booleans or nulls, and
multiplicities and sizes whole numbers below 2**63 in magnitude.

Formats:
  spectrum   {"positives":[{"value":x,"mult":n},...], "negatives":[...],
              "tail":{"ratio":q,"scale":C} | null}
  eigen grid {"label":"x0","pairs":[{"lambdaR":.., "lambdaA":.., "mult":..},...]}
  path       {"group":"SU2","samples":[[t, [[re,im],...]], ...]} row-major,
             complex entries as [re, im]; any algebra path, a connection
             coefficient included
  matrix     dense row-major nested lists; vectors as flat lists
  config     {"blocks":[[m, r],...], "k1":.., "rprime":[..], "k2":.., "ambient_dim":..}
"""

from __future__ import annotations

import contextlib

import numpy as np
import orjson

from .errors import PATH_END_TOL, PATH_SPACING_TOL, ValidationError
from .focal import EigenGrid, _eigen_grids
from .geomodel import SphereProductConfig
from .spectral import SpectralData, TailModel, _as_array, _whole_numbers
from .transport import AlgebraPath

# orjson builds the Python objects of its parse tree recursively, with no
# depth limit of its own, and overflows the C stack some 10^5 levels down;
# deeper files are refused before it reads them.
MAX_NESTING = 1024
# entries of a spectrum file's array decoded by one orjson call: the dicts
# of one slice are alive at a time, not those of the file
SLICE_ENTRIES = 4096
# bytes the structure scan takes at a time, so that its arrays stay small
_BLOCK = 1 << 17
# the bytes the structure scan stops at: quotes and backslashes, which
# decide what lies in a string, and brackets and commas
_MARKS = np.zeros(256, dtype=bool)
_MARKS[list(b'"\\[]{},')] = True
# +1 where an array or object opens, -1 where one closes
_STEP = np.zeros(256, dtype=np.int64)
_STEP[list(b"[{")], _STEP[list(b"]}")] = 1, -1
_QUOTE, _BACKSLASH, _OPEN, _CLOSE, _COMMA = b'"\\[],'


def _unescaped(pos, marks, slash, escaped: bool, size: int):
    """pos and marks of one block less its backslashes and the marks they
    escape, and whether its last byte escapes the next block's first.  A run
    of backslashes escapes the byte after each of its 1st, 3rd, ... members;
    escaped stands for an escaping backslash just before the block."""
    slashes = pos[slash]
    if escaped:
        slashes = np.concatenate(([-1], slashes))
    index = np.arange(len(slashes))
    first = np.maximum.accumulate(np.where(np.diff(slashes, prepend=-3) != 1, index, 0))
    hits = slashes[(index - first) % 2 == 0] + 1
    keep = ~slash & ~np.isin(pos, hits)
    return pos[keep], marks[keep], bool(len(hits)) and hits[-1] == size


def _structure(raw: bytes):
    """Yields, one block of raw at a time, the positions of its brackets and
    commas outside strings, those bytes, and the depth after each; exact for
    well-formed JSON text, the only kind orjson builds objects from."""
    text = np.frombuffer(raw, np.uint8)
    escaped, quoted, depth = False, 0, 0
    for lo in range(0, len(text), _BLOCK):
        block = text[lo:lo + _BLOCK]
        pos = np.flatnonzero(_MARKS.take(block))
        marks = block[pos]
        slash = marks == _BACKSLASH
        if escaped or slash.any():
            pos, marks, escaped = _unescaped(pos, marks, slash, escaped, len(block))
        quote = (marks == _QUOTE).view(np.uint8)
        inside = np.bitwise_xor.accumulate(quote) ^ quoted   # a closing quote reads 0
        keep = (inside | quote) == 0
        quoted = inside[-1] if len(inside) else quoted
        pos, marks = pos[keep], marks[keep]
        after = np.cumsum(_STEP[marks]) + depth
        depth = after[-1] if len(after) else depth
        yield lo + pos, marks, after


def _nesting(raw: bytes) -> int:
    """How deep the JSON text raw nests, exact for well-formed text; any
    number <= MAX_NESTING stands for "not deeper than MAX_NESTING"."""
    text = np.frombuffer(raw, np.uint8)
    opens = np.count_nonzero(text == ord("[")) + np.count_nonzero(text == ord("{"))
    if opens <= MAX_NESTING:
        return opens
    return max((int(after.max()) for _, _, after in _structure(raw) if len(after)), default=0)


@contextlib.contextmanager
def _json_bytes(path: str):
    """The bytes of the file at path; a file that cannot be read, or whose
    decoding in the block raises a ValueError (orjson's JSONDecodeError), is
    refused as a JSON file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        yield raw
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read JSON file '{path}': {exc}") from exc


def _load_json(path: str):
    """The JSON value of a UTF-8 file, decoded strictly to RFC 8259 by
    orjson.  A file that is not UTF-8 text or nests deeper than MAX_NESTING
    is refused like malformed JSON."""
    with _json_bytes(path) as raw:
        if _nesting(raw) > MAX_NESTING:
            raise ValueError(f"nesting deeper than {MAX_NESTING}")
        return orjson.loads(raw)


def _split(raw: bytes):
    """raw with each array directly inside its top-level value replaced by
    [i], i its index, and those arrays as lists of the byte ranges of their
    slices of SLICE_ENTRIES entries, cut at item commas.  A text nesting
    deeper than MAX_NESTING, or with such an array not closed by a "]", is
    refused; the scan is exact on well-formed text, so it refuses no other."""
    found, deepest = ([], [], []), 0
    for pos, marks, after in _structure(raw):
        deepest = max(deepest, after.max(initial=0))
        for parts, hit in zip(found, ((marks == _OPEN) & (after == 2),
                                      (_STEP[marks] < 0) & (after == 1),
                                      (marks == _COMMA) & (after == 2))):
            parts.append(pos[hit])
    if deepest > MAX_NESTING:
        raise ValueError(f"nesting deeper than {MAX_NESTING}")
    opens, closes, commas = (np.concatenate([np.empty(0, np.intp), *parts]) for parts in found)
    # an array closes where the depth first falls back to 1 after it
    at = np.searchsorted(closes, opens)
    if (at == len(closes)).any() or (np.frombuffer(raw, np.uint8)[closes[at]] != _CLOSE).any():
        raise ValueError("unbalanced brackets")
    view, pieces, arrays, last = memoryview(raw), [], [], 0
    for i, (lo, hi) in enumerate(zip(opens.tolist(), closes[at].tolist())):
        items = commas[np.searchsorted(commas, lo):np.searchsorted(commas, hi)]
        cuts = items[SLICE_ENTRIES - 1::SLICE_ENTRIES].tolist()
        arrays.append(list(zip([lo + 1] + [c + 1 for c in cuts], cuts + [hi])))
        pieces += [view[last:lo], b"[%d]" % i]
        last = hi + 1
    return b"".join(pieces + [view[last:]]), arrays


def _decode_slice(view: memoryview, count: int) -> list:
    """The entries of one of count slices of an array: an empty one is
    refused unless it is the array's only slice (orjson reads "[1, ]")."""
    entries = orjson.loads(b"[%b]" % view)
    if not entries and count > 1:
        raise ValueError("empty array entry")
    return entries


class _Branch:
    """The values and multiplicities of a branch's entries, read a slice at
    a time; error is the KeyError or TypeError of the first entry without a
    "value" (or of entries that are no list), after which none is read."""

    def __init__(self, entries=()):
        self.values, self.mults, self.error = [], [], None
        self.extend(entries)

    def extend(self, entries):
        if self.error is None:
            try:
                self.values += [e["value"] for e in entries]
                # an entry whose "value" reads is an object, so .get cannot fail
                self.mults += [e.get("mult", 1) for e in entries]
            except (KeyError, TypeError) as exc:
                self.error = exc


def _load_spectrum_json(path: str):
    """The JSON value of a spectrum file, decoded by orjson without the dicts
    of all its entries at once: the text with each top-level array replaced
    by its index, then every slice of every such array, those under keys no
    reader reads too.  A branch's array reads as a _Branch, whose values and
    multiplicities of a slice are taken before the next is decoded.  The file
    is refused where _load_json refuses it."""
    with _json_bytes(path) as raw:
        skeleton, arrays = _split(raw)
        data = orjson.loads(skeleton)
        adds = {}    # where the slices of each array go, by its index
        for key, value in data.items() if isinstance(data, dict) else ():
            if isinstance(value, list) and key in ("positives", "negatives", "tail"):
                data[key] = _Branch() if key != "tail" else []
                adds[value[0]] = data[key].extend
        view = memoryview(raw)
        for i, ranges in enumerate(arrays):
            add = adds.get(i, len)   # len: a slice no reader reads is dropped
            for lo, hi in ranges:
                add(_decode_slice(view[lo:hi], len(ranges)))
        return data


def read_spectrum(path: str) -> SpectralData:
    data = _load_spectrum_json(path)
    try:
        branches = []
        for key in ("positives", "negatives"):
            branch = data.get(key, [])       # AttributeError: not an object
            branch = branch if isinstance(branch, _Branch) else _Branch(branch)
            if branch.error:
                raise branch.error
            branches += [branch.values, branch.mults]
        tail = data.get("tail")
        model = TailModel(tail["ratio"], tail["scale"]) if tail else None
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed spectrum file '{path}': {exc}") from exc
    return SpectralData(*branches, model)


def read_eigen_grids(paths) -> list:
    """The eigen grids of the files in paths, all rows merged by one call."""
    rows, counts, labels = [], [], []
    for path in paths:
        data = _load_json(path)
        try:
            pairs = [(p["lambdaR"], p["lambdaA"], p.get("mult", 1)) for p in data["pairs"]]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed grid file '{path}': {exc}") from exc
        rows += pairs
        counts.append(len(pairs))
        labels.append(data.get("label"))
    return _eigen_grids(rows, counts, labels)


def read_eigen_grid(path: str) -> EigenGrid:
    return read_eigen_grids([path])[0]


def read_path(path: str) -> AlgebraPath:
    """Sampled algebra path; samples must sit on a uniform grid over [0, 1]."""
    data = _load_json(path)
    # ValueError: ragged rows, samples of different sizes, or a non-numeric time
    try:
        samples = data["samples"]
        ts = _as_array([e[0] for e in samples], float, "sample times")
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        parts = _as_array([samples[i][1] for i in order.tolist()], float, "sample matrices")
        if parts.ndim != 4 or parts.shape[-1] != 2:
            raise ValueError("samples must be matrices of [re, im] entries")
        mats = parts.view(complex)[..., 0]
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"malformed path file '{path}': {exc}") from exc
    if len(ts) < 2 or abs(ts[0]) > PATH_END_TOL or abs(ts[-1] - 1.0) > PATH_END_TOL:
        raise ValidationError(f"path in '{path}' must span t in [0, 1]")
    # written so that a NaN time fails it
    if not np.all(np.abs(np.diff(ts) - 1.0 / (len(ts) - 1)) <= PATH_SPACING_TOL):
        raise ValidationError(f"path in '{path}' is not uniformly sampled")
    return AlgebraPath(mats)


def _read_array(path: str, ndim: int, what: str) -> np.ndarray:
    arr = _as_array(_load_json(path), float, f"'{path}' does not hold {what}")
    if arr.ndim != ndim:
        raise ValidationError(f"'{path}' does not hold {what}")
    return arr


def read_matrix(path: str) -> np.ndarray:
    return _read_array(path, 2, "a dense matrix")


def read_vector(path: str) -> np.ndarray:
    return _read_array(path, 1, "a flat vector")


def read_sphere_config(path: str) -> SphereProductConfig:
    data = _load_json(path)
    try:
        blocks = [(m, r) for m, r in data["blocks"]]
        slots = _whole_numbers([m for m, _ in blocks], "block sizes").tolist()
        radii = _as_array([r for _, r in blocks], float, "block radii").tolist()
        k1, k2, ambient_dim = (int(_whole_numbers(data[key], key))
                               for key in ("k1", "k2", "ambient_dim"))
        return SphereProductConfig(
            blocks=tuple(zip(slots, radii)),
            k1=k1,
            rprime=tuple(float(v) for v in _as_array(data["rprime"], float, "rprime")),
            k2=k2,
            ambient_dim=ambient_dim,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed config file '{path}': {exc}") from exc
