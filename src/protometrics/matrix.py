"""Labeled square matrices and the tolerance settings shared by every check."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, InvalidMatrixError, _real_number

__all__ = [
    "DEFAULT_TOLERANCE",
    "InequalityType",
    "Interval",
    "LabeledMatrix",
    "ToleranceConfig",
    "auto_labels",
]


class InequalityType(enum.Enum):
    """The four orientations a triangle-style inequality can take.

    For a function d on ordered pairs and a triple (x, y, z) the left-hand
    sides are:

    - OUTGOING  ("o"): d(x, y) + d(x, z)
    - INCOMING  ("i"): d(y, x) + d(z, x)
    - TRANSITIVE ("t"): d(y, x) + d(x, z)
    - CYCLIC    ("c"): d(z, x) + d(x, y)

    each compared against d(y, z), plus d(x, x) in the pre-quadrangle form.
    """

    OUTGOING = "o"
    INCOMING = "i"
    TRANSITIVE = "t"
    CYCLIC = "c"

    @classmethod
    def parse(cls, code: "InequalityType | str") -> "InequalityType":
        """Coerce a one-letter code (or an existing member) to a member."""
        try:
            return cls(code)
        except ValueError:
            raise InputError(
                f"unknown inequality type {code!r}; expected one of o, i, t, c"
            ) from None


@dataclass(frozen=True)
class ToleranceConfig:
    """Comparison tolerances, each applied by one rule below.

    A rule takes what a check compares and returns where the check fails: a
    bool for a float, an elementwise mask for an array, written into ``out``.
    """

    eps_ineq: float = 1e-9
    eps_eq: float = 1e-9
    eps_strict: float = 1e-9

    def __post_init__(self):
        for name in ("eps_ineq", "eps_eq", "eps_strict"):
            v = getattr(self, name)
            eps = _real_number(name, v)
            if not (math.isfinite(eps) and eps >= 0):
                raise InputError(f"{name} must be finite and nonnegative, got {v!r}")
            # A numpy float32 would round every threshold computed from it to float32.
            object.__setattr__(self, name, eps)

    def ineq_fails(self, slack, out=None):
        """a >= b, with slack a - b, fails when slack < -eps_ineq.

        A NaN would pass, but no slack is NaN: two finite floats summed, less one
        or two more, keep the one infinity they may overflow to. A float is
        compared without numpy, whose call on a scalar costs about 1 us.
        """
        return slack < -self.eps_ineq if out is None else np.less(slack, -self.eps_ineq, out=out)

    def ineq_threshold(self, d: float) -> float:
        """The least float s at which ineq_fails(s - d) is false, for a finite d.

        Rounding is monotone, so fl(s - d) never falls as s rises: s - d fails
        exactly when s < ineq_threshold(d), and ineq_threshold(0) is -eps_ineq.
        A difference up to half an ulp of eps_ineq below -eps_ineq still rounds
        to -eps_ineq, so the search starts at fl(d - eps_ineq) less that half
        ulp and steps float by float, testing the rule itself, to the answer.
        The start bounds the steps: fl(d - eps_ineq) is exact when d and
        eps_ineq are within a factor of two (Sterbenz's lemma) and off by less
        than an ulp of the answer otherwise. Adding 0.0 turns -0.0 into 0.0.
        """
        s = (d - self.eps_ineq) - 0.5 * math.ulp(self.eps_ineq)
        while self.ineq_fails(s - d):
            s = math.nextafter(s, math.inf)
        while not self.ineq_fails(math.nextafter(s, -math.inf) - d):
            s = math.nextafter(s, -math.inf)
        return s + 0.0

    def interval_fails(self, value, lo, hi, out=None):
        """lo <= value <= hi fails unless lo - eps_eq <= value <= hi + eps_eq; a NaN fails."""
        with np.errstate(over="ignore"):  # an end widened past the float range is +-inf
            inside = np.less_equal(np.subtract(lo, self.eps_eq), value, out=out)
            inside &= np.less_equal(value, np.add(hi, self.eps_eq))
        return np.logical_not(inside, out=out)

    def eq_fails(self, delta, out=None):
        """a = b, with delta a - b, fails unless delta lies in [0, 0] by interval_fails."""
        return self.interval_fails(delta, 0.0, 0.0, out)

    def strict_fails(self, slack, out=None):
        """a > b, with slack a - b, fails unless slack > eps_strict; a NaN fails."""
        return np.logical_not(np.greater(slack, self.eps_strict, out=out), out=out)

    def transition_fails(self, lhs, rhs, out=None):
        """lhs <= rhs fails when lhs > rhs * (1 + eps_ineq) + eps_ineq; a NaN passes."""
        return np.greater(lhs, rhs * (1.0 + self.eps_ineq) + self.eps_ineq, out=out)


DEFAULT_TOLERANCE = ToleranceConfig()


def auto_labels(n: int) -> tuple[str, ...]:
    """Default point labels x1..xn, used when input carries none."""
    return tuple(f"x{i + 1}" for i in range(n))


class LabeledMatrix:
    """A finite set of labeled points with a real value on every ordered pair.

    Entries are held as a read-only, C-ordered float64 array. Construction
    rejects non-square data, non-finite values, and empty or duplicate labels.
    """

    __slots__ = ("labels", "entries", "_index")

    def __init__(self, labels: Sequence[str], entries) -> None:
        labels = tuple(labels)
        if not labels:
            raise InvalidMatrixError("a matrix needs at least one point")
        for lbl in labels:
            if not isinstance(lbl, str) or lbl == "":
                raise InvalidMatrixError(f"labels must be nonempty strings, got {lbl!r}")
        index: dict[str, int] = {}
        for i, lbl in enumerate(labels):
            if index.setdefault(lbl, i) != i:
                raise InvalidMatrixError(f"duplicate label {lbl!r}")
        try:
            arr = np.array(entries, dtype=np.float64, copy=True, order="C")
        except (TypeError, ValueError) as exc:
            raise InvalidMatrixError(f"entries must form a square matrix: {exc}") from None
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidMatrixError(f"entries must form a square matrix, got shape {arr.shape}")
        if arr.shape[0] != len(labels):
            raise InvalidMatrixError(
                f"{len(labels)} labels but a {arr.shape[0]}x{arr.shape[1]} matrix"
            )
        finite = np.isfinite(arr)
        if not finite.all():
            i, j = divmod(int(np.argmin(finite)), len(labels))
            raise InvalidMatrixError(
                f"non-finite entry {float(arr[i, j])!r} at ({labels[i]!r}, {labels[j]!r})"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, value):
        raise AttributeError("LabeledMatrix is immutable")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"label {label!r} is not a point of this matrix") from None

    def entry(self, x: str, y: str) -> float:
        return float(self.entries[self.index(x), self.index(y)])

    def reordered(self, labels: Iterable[str]) -> "LabeledMatrix":
        """The same matrix with its points listed in a new order."""
        new = tuple(labels)
        if sorted(new) != sorted(self.labels):
            raise InputError("reordered() needs a permutation of the existing labels")
        idx = [self.index(l) for l in new]
        return LabeledMatrix(new, self.entries[np.ix_(idx, idx)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledMatrix):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        # == compares values, so -0.0 must hash as 0.0 does.
        return hash((self.labels, (self.entries + 0.0).tobytes()))

    def __repr__(self) -> str:
        return f"LabeledMatrix(n={self.n}, labels={list(self.labels)!r})"


@dataclass(frozen=True)
class Interval:
    """A closed real interval [lo, hi]; nonempty when interval_fails(lo, lo, hi) is false."""

    lo: float
    hi: float
    nonempty: bool
