"""JSON readers and writers for spectra, eigen grids, paths and matrices.

Formats:
  spectrum   {"positives":[{"value":x,"mult":n},...], "negatives":[...],
              "tail":{"ratio":q,"scale":C} | null}
  eigen grid {"label":"x0","pairs":[{"lambdaR":.., "lambdaA":.., "mult":..},...]}
  path       {"group":"SU2","samples":[[t, [[re,im],...]], ...]} row-major,
             complex entries as [re, im]
  matrix     dense row-major nested lists; vectors as flat lists
"""

from __future__ import annotations

import json
from typing import Union

import numpy as np

from .errors import ValidationError
from .focal import EigenGrid
from .geomodel import SphereProductConfig
from .spectral import SpectralData, TailModel
from .transport import AlgebraPath, ConnectionPath


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read JSON file '{path}': {exc}") from exc


def read_spectrum(path: str) -> SpectralData:
    data = _load_json(path)
    try:
        pos = [(e["value"], e.get("mult", 1)) for e in data.get("positives", [])]
        neg = [(e["value"], e.get("mult", 1)) for e in data.get("negatives", [])]
        tail = data.get("tail")
        model = TailModel(tail["ratio"], tail["scale"]) if tail else None
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed spectrum file '{path}': {exc}") from exc
    return SpectralData.from_entries(pos, neg, model)


def write_spectrum(path: str, spec: SpectralData):
    data = {
        "positives": [{"value": float(v), "mult": int(m)}
                      for v, m in zip(spec.positives, spec.pos_mults)],
        "negatives": [{"value": float(v), "mult": int(m)}
                      for v, m in zip(spec.negatives, spec.neg_mults)],
        "tail": None if spec.tail is None else
                {"ratio": spec.tail.ratio, "scale": spec.tail.scale},
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)


def read_eigen_grid(path: str) -> EigenGrid:
    data = _load_json(path)
    try:
        pairs = tuple((float(p["lambdaR"]), float(p["lambdaA"]), int(p.get("mult", 1)))
                      for p in data["pairs"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed grid file '{path}': {exc}") from exc
    return EigenGrid(pairs, label=data.get("label"))


def write_eigen_grid(path: str, grid: EigenGrid):
    data = {
        "label": grid.label,
        "pairs": [{"lambdaR": lr, "lambdaA": la, "mult": m}
                  for lr, la, m in grid.pairs],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)


def _matrix_from_pairs(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _matrix_to_pairs(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def read_path(path: str, kind: str = "algebra") -> Union[AlgebraPath, ConnectionPath]:
    """Sampled matrix path; samples must sit on a uniform grid over [0, 1]."""
    data = _load_json(path)
    # ValueError: ragged rows, samples of different sizes, or a non-numeric time
    try:
        samples = sorted(data["samples"], key=lambda e: e[0])
        ts = np.array([e[0] for e in samples], dtype=float)
        mats = np.stack([_matrix_from_pairs(e[1]) for e in samples])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"malformed path file '{path}': {exc}") from exc
    if len(ts) < 2 or abs(ts[0]) > 1e-12 or abs(ts[-1] - 1.0) > 1e-12:
        raise ValidationError(f"path in '{path}' must span t in [0, 1]")
    # written so that a NaN time fails it
    if not np.all(np.abs(np.diff(ts) - 1.0 / (len(ts) - 1)) <= 1e-9):
        raise ValidationError(f"path in '{path}' is not uniformly sampled")
    cls = AlgebraPath if kind == "algebra" else ConnectionPath
    return cls(mats)


def write_path(path: str, samples: np.ndarray, group: str = "SU2"):
    ts = np.linspace(0.0, 1.0, samples.shape[0])
    data = {"group": group,
            "samples": [[float(t), _matrix_to_pairs(m)]
                        for t, m in zip(ts, samples)]}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)


def _read_array(path: str, ndim: int, what: str) -> np.ndarray:
    data = _load_json(path)
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"'{path}' does not hold {what}: {exc}") from exc
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
        return SphereProductConfig(
            blocks=tuple((int(m), float(r)) for m, r in data["blocks"]),
            k1=int(data["k1"]),
            rprime=tuple(float(v) for v in data["rprime"]),
            k2=int(data["k2"]),
            ambient_dim=int(data["ambient_dim"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed config file '{path}': {exc}") from exc
