"""Signed spectra of compact self-adjoint operators and their traces.

A spectrum is stored as two non-increasing lists of positive reals (the
positive eigenvalues and the magnitudes of the negative ones), each entry
carrying an integer multiplicity, plus an optional geometric tail model
describing the eigenvalues beyond the stored truncation.  Every trace reads
the entries as runs of equal values and never expands them: a finite-rank
trace is the weighted sum of m * lambda, the paired trace sums
lambda_i^+ - lambda_i^- index-wise over the runs of both branches aligned
on their common ends, and the zeta trace is the signed sum of the stored
entries: the power sums of a finite list are entire in s, so their value at
s = 1 is that sum.  The finite-rank and zeta totals are each one correctly
rounded fsum, and a sum of stored entries beyond float range is an input error.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Union

import numpy as np

from .errors import CAUCHY_THRESHOLD, ZETA_TOLERANCE, ValidationError

CAUCHY_WINDOW = 0.10       # fraction of trailing partial sums examined
RATIO_MAX = 0.95           # increment ratio above which we refuse to extrapolate
FINITE_RANK_MAX = 64       # at most this many stored entries reads as finite rank
MAX_BRANCH_RANK = 2 ** 53  # a branch's total multiplicity stays below this
INT64_BOUND = 2.0 ** 63    # whole numbers not read as int64 lie below this in magnitude


class Sentinel(enum.Enum):
    """A value where no number can be given, valued by its report spelling:
    DIVERGENT for a trace that fails its convergence test, FOCAL for a focal
    radius (the end-point map degenerates there)."""

    DIVERGENT = "divergent"
    FOCAL = "focal"


DIVERGENT, FOCAL = Sentinel.DIVERGENT, Sentinel.FOCAL

TraceValue = Union[float, Sentinel]


@dataclass(frozen=True)
class TailModel:
    """Geometric decay bound C * ratio**i for eigenvalues beyond the truncation."""

    ratio: float
    scale: float

    def __post_init__(self):
        for name in ("ratio", "scale"):
            value = _as_array(getattr(self, name), float, f"tail {name}")
            if value.ndim:
                raise ValidationError(f"tail {name} must be a number")
            object.__setattr__(self, name, float(value))
        if not (0.0 < self.ratio < 1.0):
            raise ValidationError(f"tail ratio must lie in (0,1), got {self.ratio}")
        if not (0.0 <= self.scale < np.inf):
            raise ValidationError(f"tail scale must be finite and >= 0, got {self.scale}")

    def remainder(self, start_index: int, power: float = 1.0) -> float:
        """Bound on sum_{i >= start_index} (C q^i)**power; inf beyond float range."""
        try:
            return (self.scale * self.ratio ** start_index) ** power / (1.0 - self.ratio ** power)
        except OverflowError:   # a float power beyond range raises
            return math.inf


def _as_array(x, dtype, name: str) -> np.ndarray:
    """x as an array of dtype; numbers given as strings, booleans or nulls are
    refused, not parsed or read as 1, 0 and NaN.  A string entry makes the
    inferred dtype a string one, or an object one (searched entry by entry)
    when x also holds nulls or ints beyond 64 bits; a null makes it an object
    one.  Booleans alone infer a boolean dtype; next to numbers they cast to
    0 or 1, so x is searched entry by entry only when it holds a 0 or a 1."""
    try:
        arr = np.asarray(x)
        kind, types = arr.dtype.kind, set()
        if kind == "O":
            types = set(map(type, arr.flat))
        elif not isinstance(x, np.ndarray) and ((arr == 0) | (arr == 1)).any():
            items = [x]
            for _ in range(arr.ndim):
                items = chain.from_iterable(items)
            types = set(map(type, items))
        if kind in "SU" or any(issubclass(t, str) for t in types):
            raise TypeError("numbers are given as strings")
        if kind == "b" or any(issubclass(t, (bool, np.bool_)) for t in types):
            raise TypeError("numbers are given as booleans")
        if type(None) in types:
            raise TypeError("numbers are given as null")
        return np.asarray(arr, dtype=dtype)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: {exc}") from exc


def _whole_numbers(x, name: str) -> np.ndarray:
    """x as int64 whole numbers: a fractional one is refused, where a cast
    would truncate 2.7 to 2, and so is one outside the int64 range, where a
    cast would wrap or overflow (and _as_array refuses booleans and nulls).
    An int beyond 64 bits reads as a Python int from the stdlib decoder and
    as a float from orjson; both get the range message."""
    raw = _as_array(x, None, name)
    if raw.dtype.kind == "i":
        return raw.astype(np.int64, copy=False)
    # uint64, object (ints beyond 64 bits) and float arrays; comparisons of
    # Python ints with the float bound are exact, and a NaN fails the whole
    # test.  A float -2**63 may be orjson's reading of -2**63 - 1.
    with np.errstate(invalid="ignore"):
        try:
            beyond = (np.abs(raw) >= INT64_BOUND).any()
        except TypeError:   # an entry that is no number (a JSON object): the cast names it
            beyond = any(isinstance(v, (int, float)) and abs(v) >= INT64_BOUND
                         for v in raw.flat)
        if beyond:
            raise ValidationError(f"{name}: whole numbers must lie in the 64-bit range "
                                  "(|n| < 2**63)")
        m = _as_array(raw, np.int64, name)
    if (m != raw).any():
        raise ValidationError(f"{name}: sizes and multiplicities must be whole numbers")
    return m


def _multiplicities(mults, name: str) -> np.ndarray:
    """Multiplicities as int64, each a whole number >= 1."""
    m = _whole_numbers(mults, name)
    if m.size and m.min() < 1:
        raise ValidationError(f"{name}: multiplicities must be >= 1")
    return m


def _as_branch(values, mults, name):
    values = _as_array(values, float, name)
    mults = _multiplicities(mults, name)
    if values.ndim != 1 or mults.shape != values.shape:
        raise ValidationError(f"{name}: values/mults must be 1-d of equal length")
    if not np.isfinite(values).all():
        raise ValidationError(f"{name}: entries must be finite")
    keep = values != 0.0
    values, mults = values[keep], mults[keep]
    if (values <= 0.0).any():
        raise ValidationError(f"{name}: entries must be positive magnitudes")
    # below 2**53 every run end and run length is exact in float64; a float
    # sum cannot wrap, and it reaches 2**53 exactly when the integer total does
    if mults.sum(dtype=float) >= MAX_BRANCH_RANK:
        raise ValidationError(f"{name}: total multiplicity must stay below 2**53")
    if (values[1:] > values[:-1]).any():
        raise ValidationError(f"{name}: values must be sorted non-increasing")
    return values, mults


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Signed eigenvalue multiset of a compact self-adjoint operator."""

    positives: np.ndarray = field(default_factory=lambda: np.empty(0))
    pos_mults: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    negatives: np.ndarray = field(default_factory=lambda: np.empty(0))
    neg_mults: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    tail: Optional[TailModel] = None

    def __post_init__(self):
        pv, pm = _as_branch(self.positives, self.pos_mults, "positives")
        nv, nm = _as_branch(self.negatives, self.neg_mults, "negatives")
        object.__setattr__(self, "positives", pv)
        object.__setattr__(self, "pos_mults", pm)
        object.__setattr__(self, "negatives", nv)
        object.__setattr__(self, "neg_mults", nm)
        if self.tail is not None:
            for vals, mults in ((pv, pm), (nv, nm)):
                idx = np.cumsum(mults) - 1  # sequence index of each run's last element
                if np.any(vals < self.tail.scale * self.tail.ratio ** idx):
                    raise ValidationError("stored eigenvalue below the declared tail bound")

    @classmethod
    def from_eigenvalues(cls, eigenvalues, tail: Optional[TailModel] = None,
                         mults=None) -> "SpectralData":
        """Build from finite signed eigenvalues, each with a multiplicity
        (one by default); zeros are dropped."""
        ev = _as_array(eigenvalues, float, "eigenvalues").ravel()
        # uncast: the constructor's _multiplicities refuses a fractional one
        mults = (np.ones(len(ev), dtype=np.int64) if mults is None
                 else _as_array(mults, None, "multiplicities").ravel())
        if mults.shape != ev.shape:
            raise ValidationError("eigenvalues and multiplicities differ in length")
        if not np.isfinite(ev).all():
            raise ValidationError("eigenvalues must be finite")
        # sorting the entries by value sorts the sequence they stand for;
        # ascending order puts the negatives first by decreasing magnitude
        # and the positives last
        order = np.argsort(ev)
        ev, mults = ev[order], mults[order]
        n_neg, n_nonpos = np.searchsorted(ev, 0.0, "left"), np.searchsorted(ev, 0.0, "right")
        return cls(ev[n_nonpos:][::-1], mults[n_nonpos:][::-1],
                   -ev[:n_neg], mults[:n_neg], tail)

    @property
    def rank(self) -> int:
        return int(self.pos_mults.sum() + self.neg_mults.sum())


@dataclass(frozen=True)
class TraceInfo:
    value: float
    error: float
    converged: bool
    method: str

    def __post_init__(self):
        if self.converged and not (math.isfinite(self.value) and math.isfinite(self.error)):
            raise ValidationError(f"{self.method} trace {self.value!r} with error {self.error!r} "
                                  "is out of floating-point range")

    def as_trace(self) -> TraceValue:
        return self.value if self.converged else DIVERGENT


def _stored_sums(name: str, values, mults, bounds=(0, None), power: int = 1) -> list:
    """The sums of m * v**power over the entries bounds[i]:bounds[i + 1] of (values,
    mults), all by default, each rounded once: signed terms often nearly cancel.
    A sum that leaves the float range is refused, naming the trace."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (mults * values ** power).tolist()
    try:
        sums = [math.fsum(terms[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    except (OverflowError, ValueError):   # intermediate overflow, inf - inf
        sums = [math.inf]
    if not all(map(math.isfinite, sums)):
        raise ValidationError(f"{name}: the sum of the stored entries is out of "
                              "floating-point range")
    return sums


def _partial_sums(name: str, values, mults, power: int = 1) -> np.ndarray:
    """The running sums of m * v**power in stored order, refused as
    _stored_sums refuses a sum that leaves the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.cumsum(mults * values ** power)
    if len(sums) and not np.isfinite(sums[-1]):   # a non-finite sum stays so
        raise ValidationError(f"{name}: the partial sums of the stored entries are out "
                              "of floating-point range")
    return sums


def _signed_entries(spec: SpectralData):
    """The stored entries as one list of signed values and one of multiplicities."""
    return (np.concatenate((spec.positives, -spec.negatives)),
            np.concatenate((spec.pos_mults, spec.neg_mults)))


def _limit_of_partial_sums(s: np.ndarray, tail_remainder: Optional[float]) -> TraceInfo:
    """Decide convergence of a partial-sum sequence and estimate its limit.

    Primary test: Cauchy window over the trailing 10%.  If that fails, the
    trailing increments S_N - S_{N/2}, S_{N/2} - S_{N/4} are compared; a
    stable ratio < RATIO_MAX certifies power/geometric decay and the limit is
    extrapolated from it.  A declared tail model always certifies the
    truncation remainder.
    """
    n = len(s)
    tail_err = float(tail_remainder) if tail_remainder is not None else 0.0
    if n == 0:   # only a declared tail makes an empty spectrum truncated
        return TraceInfo(0.0, tail_err, True, "tail-certified")
    last = float(s[-1])
    w = max(1, int(np.ceil(n * CAUCHY_WINDOW)))
    window = s[n - w:]
    spread = float(np.max(window) - np.min(window)) if w > 1 else 0.0
    if spread < CAUCHY_THRESHOLD:
        return TraceInfo(last, spread + tail_err, True, "cauchy")
    if n >= 4:
        d1 = float(s[-1] - s[n // 2 - 1])
        d2 = float(s[n // 2 - 1] - s[n // 4 - 1])
        if d2 != 0.0:
            rho = d1 / d2
            if 0.0 < abs(rho) < RATIO_MAX:
                corr = d1 * rho / (1.0 - rho)
                return TraceInfo(last + corr, abs(corr) * abs(rho) + tail_err,
                                 True, "ratio-extrapolation")
    if tail_remainder is not None:
        # the declared tail shifts the burden to the caller
        return TraceInfo(last, spread + tail_err, True, "tail-certified")
    return TraceInfo(last, np.inf, False, "cauchy-failed")


def align_runs(a, b):
    """Align two run-length sequences on the union of their run ends.

    a and b are (values, mults) pairs, each standing for its values repeated
    by their multiplicities.  Returns (lengths, x, y): the length of every
    aligned run and the value of each sequence on it, 0.0 past that
    sequence's end.
    """
    (va, ma), (vb, mb) = a, b
    ca, cb = np.cumsum(ma), np.cumsum(mb)
    # both cumsums are increasing, so the stable sort is one merge; an end
    # that both share gives a run of length 0, which is dropped
    ends = np.sort(np.concatenate(([0], ca, cb)), kind="stable")
    lengths = ends[1:] - ends[:-1]
    ends, lengths = ends[1:][lengths > 0], lengths[lengths > 0]
    # the run of a sequence holding the aligned run that ends at e is the
    # first whose end is >= e; one past the last run reads the padded 0.0
    x = np.concatenate((va, [0.0]))[np.searchsorted(ca, ends)]
    y = np.concatenate((vb, [0.0]))[np.searchsorted(cb, ends)]
    return lengths, x, y


def _is_finite_rank(n_entries, tail: Optional[TailModel] = None):
    """A short entry list without a tail model is the complete spectrum.

    Asymptotic convergence diagnostics are meaningless on a few dozen
    samples, and the trace of a finite-rank operator is its plain sum; long
    stored sequences are treated as truncations of an unknown continuation.
    n_entries counts the nonzero stored entries; an array of counts of
    tail-free spectra gives an array of verdicts.
    """
    return tail is None and n_entries <= FINITE_RANK_MAX


def reg_trace_info(spec: SpectralData) -> TraceInfo:
    if _is_finite_rank(len(spec.positives) + len(spec.negatives), spec.tail):
        value, = _stored_sums("paired trace", *_signed_entries(spec))
        return TraceInfo(value, 0.0, True, "finite-rank")
    # one partial sum per aligned run: inside a run the sums are linear, and a
    # high-multiplicity entry's steps say nothing about the continuation
    lengths, pos, neg = align_runs((spec.positives, spec.pos_mults),
                                   (spec.negatives, spec.neg_mults))
    rem = None if spec.tail is None else 2.0 * spec.tail.remainder(spec.rank)
    return _limit_of_partial_sums(_partial_sums("paired trace", pos - neg, lengths), rem)


def reg_trace(spec: SpectralData) -> TraceValue:
    """Paired trace sum(lambda_i^+ - lambda_i^-), or DIVERGENT."""
    return reg_trace_info(spec).as_trace()


def trace_square_info(spec: SpectralData) -> TraceInfo:
    if _is_finite_rank(len(spec.positives) + len(spec.negatives), spec.tail):
        value, = _stored_sums("trace of the square", *_signed_entries(spec), power=2)
        return TraceInfo(value, 0.0, True, "finite-rank")
    values = np.concatenate([spec.positives, spec.negatives])
    mults = np.concatenate([spec.pos_mults, spec.neg_mults])
    order = np.argsort(values)[::-1]
    sums = _partial_sums("trace of the square", values[order], mults[order], power=2)
    rem = None if spec.tail is None else 2.0 * spec.tail.remainder(spec.rank, power=2.0)
    return _limit_of_partial_sums(sums, rem)


def trace_square(spec: SpectralData) -> TraceValue:
    """Trace of the square: sum of all eigenvalues squared, or DIVERGENT."""
    return trace_square_info(spec).as_trace()


def zeta_trace_info(spec: SpectralData) -> TraceInfo:
    """The signed sum of the stored entries, with the tail model's bound on
    the paired remainder as its error."""
    value, = _stored_sums("zeta trace", *_signed_entries(spec))
    err = 0.0 if spec.tail is None else 2.0 * spec.tail.remainder(spec.rank)
    return TraceInfo(value, err, err <= ZETA_TOLERANCE * (1.0 + abs(value)), "stored-sum")


def zeta_trace(spec: SpectralData) -> TraceValue:
    """Value at s = 1 of the signed power sums of the stored entries, or DIVERGENT."""
    return zeta_trace_info(spec).as_trace()


def is_regularizable(spec: SpectralData) -> bool:
    """True iff the paired trace and the trace of the square both converge."""
    return reg_trace_info(spec).converged and trace_square_info(spec).converged
