"""JSON readers for spectra, eigen grids, paths, matrices and model configs.

io only reads; the CLI writes every report, through orjson.  Files are
decoded by orjson, strictly to RFC 8259, and spectra by the stdlib json
module.  Numbers must be JSON numbers, not strings, booleans or nulls, and
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

import json
import re

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
# every byte but brackets and quotes, which decide how deep a text nests
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b'[]{}"')))
# +1 where an array or object opens, -1 where one closes
_STEP = np.zeros(256, dtype=np.int64)
_STEP[list(b"[{")], _STEP[list(b"]}")] = 1, -1


def _nesting(raw: bytes) -> int:
    """How deep the JSON text raw nests, exact for well-formed text (the only
    kind orjson builds objects from); any number <= MAX_NESTING stands for
    "not deeper than MAX_NESTING"."""
    text = np.frombuffer(raw, np.uint8)
    opens = np.count_nonzero(text == ord("[")) + np.count_nonzero(text == ord("{"))
    if opens <= MAX_NESTING:
        return opens
    if b"\\" in raw:     # drop escapes, so that every quote left opens or closes a string
        raw = re.sub(rb"\\.", b"", raw, flags=re.DOTALL)
    marks = np.frombuffer(raw.translate(None, _NOT_MARKS), np.uint8)
    in_string = np.cumsum(marks == ord('"')) % 2 == 1
    return int(np.cumsum(np.where(in_string, 0, _STEP[marks])).max())


def _load_json(path: str, stdlib: bool = False):
    """The JSON value of a UTF-8 file, decoded strictly to RFC 8259 by orjson
    or, with stdlib, by the json module.  A file that is not UTF-8 text or
    nests deeper than MAX_NESTING (orjson) or the recursion limit (json) is
    refused like malformed JSON."""
    try:
        if stdlib:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        with open(path, "rb") as fh:
            raw = fh.read()
        if _nesting(raw) > MAX_NESTING:
            raise ValueError(f"nesting deeper than {MAX_NESTING}")
        return orjson.loads(raw)
    # ValueError: JSONDecodeError (both decoders) and UnicodeDecodeError
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read JSON file '{path}': {exc}") from exc


def read_spectrum(path: str) -> SpectralData:
    # the stdlib decoder: orjson would hold the text and its own tree of the
    # entries until the Python objects exist, 12 MB more at 100k entries
    data = _load_json(path, stdlib=True)
    try:
        branches = []
        for key in ("positives", "negatives"):
            entries = data.get(key, [])
            # an entry whose "value" reads is an object, so .get cannot fail
            branches += [[e["value"] for e in entries], [e.get("mult", 1) for e in entries]]
        tail = data.get("tail")
        model = TailModel(tail["ratio"], tail["scale"]) if tail else None
    except (KeyError, TypeError, AttributeError) as exc:   # AttributeError: not an object
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
