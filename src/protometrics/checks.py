"""Exhaustive inequality checkers.

Every checker scans all n^3 ordered triples (or all n^2 ordered pairs),
including fully degenerate ones; there are no sampling or pruning shortcuts.
Evaluation is vectorized one x-slab at a time so memory stays O(n^2) while
the scan order remains row-major in (x, y, z).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .matrix import DEFAULT_TOLERANCE, InequalityType, Interval, LabeledMatrix, ToleranceConfig

__all__ = [
    "BASE_FLAGS",
    "DEFAULT_WITNESS_CAP",
    "DERIVED_FLAGS",
    "PropertyVerdict",
    "Status",
    "ViolationWitness",
    "check_prequadrangle",
    "check_strict",
    "check_transition",
    "check_triangle",
    "degenerate_pairs",
    "diagonal_bounds",
    "first_violation",
]

DEFAULT_WITNESS_CAP = 10


class Status(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True)
class ViolationWitness:
    """One violated instance: the triple, both sides, and the shortfall.

    ``deficit`` is derived from the same slack value the scan used to flag
    the violation, so it can differ from rhs - lhs in the last binary digit
    when the two sides were accumulated in a different order. A failing pair
    (x, y) of a ``BASE_FLAGS`` test is recorded with z = y and deficit
    |lhs - rhs|.
    """

    x: str
    y: str
    z: str
    lhs: float
    rhs: float
    deficit: float


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of one exhaustive check.

    min_slack is the smallest lhs - rhs over every checked instance (None
    when nothing was checked). For the additive checkers, status is PASS
    exactly when min_slack >= -eps_ineq and FAIL exactly when at least one
    witness was found.
    """

    status: Status
    witnesses: tuple[ViolationWitness, ...]
    min_slack: float | None
    count_checked: int
    count_violations: int


def _lhs_slab(E: np.ndarray, x: int, ty: InequalityType) -> np.ndarray:
    """Left-hand sides for all (y, z) at a fixed x, as an (n, n) array."""
    row = E[x, :]
    col = E[:, x]
    if ty is InequalityType.OUTGOING:  # d(x,y) + d(x,z)
        return row[:, None] + row[None, :]
    if ty is InequalityType.INCOMING:  # d(y,x) + d(z,x)
        return col[:, None] + col[None, :]
    if ty is InequalityType.TRANSITIVE:  # d(y,x) + d(x,z)
        return col[:, None] + row[None, :]
    # CYCLIC: d(z,x) + d(x,y)
    return row[:, None] + col[None, :]


def _validate_cap(max_witnesses: int) -> None:
    # A FAIL verdict must carry at least one witness.
    if max_witnesses < 1:
        raise InputError(f"max_witnesses must be >= 1, got {max_witnesses}")


def _additive_check(
    M: LabeledMatrix,
    ty: InequalityType,
    tol: ToleranceConfig,
    with_self_term: bool,
    max_witnesses: int,
) -> PropertyVerdict:
    _validate_cap(max_witnesses)
    E = M.entries
    n = M.n
    labels = M.labels
    eps = tol.eps_ineq
    min_slack = math.inf
    violations = 0
    witnesses: list[ViolationWitness] = []
    for x in range(n):
        slack = _lhs_slab(E, x, ty) - E
        if with_self_term:
            slack = slack - E[x, x]
        m = float(slack.min())
        if m < min_slack:
            min_slack = m
        mask = slack < -eps
        hits = int(mask.sum())
        if hits == 0:
            continue
        violations += hits
        if len(witnesses) >= max_witnesses:
            continue
        lhs = _lhs_slab(E, x, ty)
        for y, z in np.argwhere(mask):
            if len(witnesses) >= max_witnesses:
                break
            y = int(y)
            z = int(z)
            rhs = float(E[y, z] + E[x, x]) if with_self_term else float(E[y, z])
            witnesses.append(
                ViolationWitness(
                    x=labels[x],
                    y=labels[y],
                    z=labels[z],
                    lhs=float(lhs[y, z]),
                    rhs=rhs,
                    deficit=-float(slack[y, z]),
                )
            )
    status = Status.PASS if violations == 0 else Status.FAIL
    return PropertyVerdict(
        status=status,
        witnesses=tuple(witnesses),
        min_slack=min_slack,
        count_checked=n * n * n,
        count_violations=violations,
    )


def check_triangle(
    M: LabeledMatrix,
    ty: InequalityType | str,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
    *,
    max_witnesses: int = DEFAULT_WITNESS_CAP,
) -> PropertyVerdict:
    """Check the type-ty triangle inequality lhs(x,y,z) >= d(y,z) on all triples."""
    ty = InequalityType.parse(ty)
    return _additive_check(M, ty, tol, with_self_term=False, max_witnesses=max_witnesses)


def check_prequadrangle(
    M: LabeledMatrix,
    ty: InequalityType | str,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
    *,
    max_witnesses: int = DEFAULT_WITNESS_CAP,
) -> PropertyVerdict:
    """Check the type-ty pre-quadrangle inequality lhs(x,y,z) >= p(y,z) + p(x,x).

    Passing for type t is the defining property of a protometric.
    """
    ty = InequalityType.parse(ty)
    return _additive_check(M, ty, tol, with_self_term=True, max_witnesses=max_witnesses)


def check_strict(
    M: LabeledMatrix,
    ty: InequalityType | str,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
    *,
    max_witnesses: int = DEFAULT_WITNESS_CAP,
) -> PropertyVerdict:
    """Check strictness of the degenerate (z = y, y != x) pre-quadrangle instances.

    For type t this reads p(y,x) + p(x,y) > p(y,y) + p(x,x) for every pair of
    distinct points; passing requires lhs - rhs > eps_strict on each pair.
    Witnesses record the failing pair with z = y. With a single point there
    is nothing to check and the verdict passes vacuously.
    """
    ty = InequalityType.parse(ty)
    _validate_cap(max_witnesses)
    E = M.entries
    n = M.n
    labels = M.labels
    if ty is InequalityType.OUTGOING:
        lhs = E + E  # 2 p(x,y)
    elif ty is InequalityType.INCOMING:
        lhs = E.T + E.T  # 2 p(y,x)
    else:  # TRANSITIVE and CYCLIC both reduce to p(y,x) + p(x,y)
        lhs = E.T + E
    diag = np.diagonal(E)
    rhs = diag[None, :] + diag[:, None]  # p(y,y) + p(x,x)
    slack = lhs - rhs
    off = ~np.eye(n, dtype=bool)
    mask = off & (slack <= tol.eps_strict)
    violations = int(mask.sum())
    witnesses = []
    for x, y in np.argwhere(mask)[:max_witnesses]:
        x = int(x)
        y = int(y)
        witnesses.append(
            ViolationWitness(
                x=labels[x],
                y=labels[y],
                z=labels[y],
                lhs=float(lhs[x, y]),
                rhs=float(rhs[x, y]),
                deficit=-float(slack[x, y]),
            )
        )
    min_slack = float(slack[off].min()) if n > 1 else None
    return PropertyVerdict(
        status=Status.PASS if violations == 0 else Status.FAIL,
        witnesses=tuple(witnesses),
        min_slack=min_slack,
        count_checked=n * (n - 1),
        count_violations=violations,
    )


def check_transition(
    M: LabeledMatrix,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
    *,
    for_log_transform: bool = False,
    max_witnesses: int = DEFAULT_WITNESS_CAP,
) -> PropertyVerdict:
    """Check the multiplicative transition inequality on a similarity matrix.

    For every ordered triple: s(y,x) * s(x,z) <= s(y,z) * s(x,x), with the
    inequality tolerance applied multiplicatively, lhs <= rhs * (1 + eps_ineq)
    + eps_ineq. min_slack reports the raw smallest rhs - lhs.

    With ``for_log_transform=True`` the verdict is NOT_APPLICABLE whenever
    some entry is <= 0, since the entrywise -ln bridge to the protometric
    test is undefined there.
    """
    _validate_cap(max_witnesses)
    E = M.entries
    n = M.n
    labels = M.labels
    if for_log_transform and not bool((E > 0).all()):
        return PropertyVerdict(
            status=Status.NOT_APPLICABLE,
            witnesses=(),
            min_slack=None,
            count_checked=0,
            count_violations=0,
        )
    eps = tol.eps_ineq
    min_slack = math.inf
    violations = 0
    witnesses: list[ViolationWitness] = []
    for x in range(n):
        row = E[x, :]
        col = E[:, x]
        lhs = col[:, None] * row[None, :]  # s(y,x) * s(x,z)
        rhs = E * E[x, x]  # s(y,z) * s(x,x)
        slack = rhs - lhs
        m = float(slack.min())
        if m < min_slack:
            min_slack = m
        mask = lhs > rhs * (1.0 + eps) + eps
        hits = int(mask.sum())
        if hits == 0:
            continue
        violations += hits
        for y, z in np.argwhere(mask):
            if len(witnesses) >= max_witnesses:
                break
            y = int(y)
            z = int(z)
            witnesses.append(
                ViolationWitness(
                    x=labels[x],
                    y=labels[y],
                    z=labels[z],
                    lhs=float(lhs[y, z]),
                    rhs=float(rhs[y, z]),
                    deficit=float(lhs[y, z] - rhs[y, z]),
                )
            )
    return PropertyVerdict(
        status=Status.PASS if violations == 0 else Status.FAIL,
        witnesses=tuple(witnesses),
        min_slack=min_slack,
        count_checked=n * n * n,
        count_violations=violations,
    )


def diagonal_bounds(
    M: LabeledMatrix,
    ty: InequalityType | str,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
) -> list[tuple[str, Interval, bool]]:
    """Admissible diagonal interval per point, given off-diagonal structure.

    For each point x the returned interval is the set of values d(x,x) may
    take if the type-ty triangle inequality is to hold on the triples that
    pin the diagonal; membership of the actual d(x,x) is judged with eps_eq
    slack. The extrema run over every y, including y = x. For arbitrary
    input an empty interval or a non-member diagonal is reported, never
    raised.
    """
    ty = InequalityType.parse(ty)
    E = M.entries
    diag = np.diagonal(E)
    if ty is InequalityType.OUTGOING:
        lo = (E.T - E).max(axis=1)  # max_y d(y,x) - d(x,y)
        hi = 2.0 * E.min(axis=0)  # 2 min_y d(y,x)
    elif ty is InequalityType.INCOMING:
        lo = (E - E.T).max(axis=1)  # max_y d(x,y) - d(y,x)
        hi = 2.0 * E.min(axis=1)  # 2 min_y d(x,y)
    elif ty is InequalityType.TRANSITIVE:
        lo = np.zeros(M.n)
        hi = (E + E.T).min(axis=1)  # min_y d(x,y) + d(y,x)
    else:  # CYCLIC
        lo = np.abs(E - E.T).max(axis=1)  # max_y |d(x,y) - d(y,x)|
        hi = (E + E.T).min(axis=1)
    out = []
    for i, label in enumerate(M.labels):
        interval = Interval(
            lo=float(lo[i]),
            hi=float(hi[i]),
            nonempty=bool(lo[i] <= hi[i] + tol.eps_eq),
        )
        out.append((label, interval, interval.contains(float(diag[i]), tol.eps_eq)))
    return out


def first_violation(verdict: PropertyVerdict) -> ViolationWitness | None:
    """The first witness of a failed verdict, or None when it passed."""
    return verdict.witnesses[0] if verdict.status is Status.FAIL else None


def degenerate_pairs(E: np.ndarray) -> np.ndarray:
    """p(x,y) + p(y,x) - p(x,x) - p(y,y) for every pair, as an (n, n) array."""
    diag = np.diagonal(E)
    return (E + E.T) - (diag[:, None] + diag[None, :])


def _first_pair(M: LabeledMatrix, bad: np.ndarray, sides) -> ViolationWitness | None:
    """The first pair (x, y) in row-major order where ``bad`` holds, or None.

    ``sides(E, x, y)`` gives the two compared values at that pair. The
    witness has z = y and deficit |lhs - rhs|.
    """
    k = int(np.argmax(bad))
    if not bad.flat[k]:
        return None
    x, y = divmod(k, M.n)
    lhs, rhs = map(float, sides(M.entries, x, y))
    return ViolationWitness(M.labels[x], M.labels[y], M.labels[y], lhs, rhs, abs(lhs - rhs))


def _entry(E: np.ndarray, x: int, y: int) -> tuple[float, float]:
    """Sides of a flag that compares d(x, y) with 0."""
    return E[x, y], 0.0


def _symmetric(M: LabeledMatrix, tol: ToleranceConfig) -> ViolationWitness | None:
    E = M.entries
    return _first_pair(M, np.abs(E - E.T) > tol.eps_eq, lambda E, x, y: (E[x, y], E[y, x]))


def _nonnegative(M: LabeledMatrix, tol: ToleranceConfig) -> ViolationWitness | None:
    return _first_pair(M, M.entries < -tol.eps_ineq, _entry)


def _zero_diagonal(M: LabeledMatrix, tol: ToleranceConfig) -> ViolationWitness | None:
    return _first_pair(M, np.diag(np.abs(np.diagonal(M.entries)) > tol.eps_eq), _entry)


def _identity_of_indiscernibles(M: LabeledMatrix, tol: ToleranceConfig) -> ViolationWitness | None:
    # Zero diagonal, and every pair of distinct points at |d| > eps_strict.
    A = np.abs(M.entries)
    off = ~np.eye(M.n, dtype=bool)
    return _first_pair(M, np.where(off, A <= tol.eps_strict, A > tol.eps_eq), _entry)


def _zero_protometric(M: LabeledMatrix, tol: ToleranceConfig) -> ViolationWitness | None:
    # Written as not(<=) so that a NaN from overflowing sums fails.
    bad = ~(np.abs(degenerate_pairs(M.entries)) <= tol.eps_eq)
    return _first_pair(M, bad, lambda E, x, y: (E[x, y] + E[y, x], E[x, x] + E[y, y]))


def _potential_difference(M: LabeledMatrix, tol: ToleranceConfig) -> ViolationWitness | None:
    # d(x,y) = h(x) - h(y) with h(x) = d(x, ref), ref the first label.
    E = M.entries
    h = E[:, 0]
    bad = np.abs((E - h[:, None]) + h[None, :]) > tol.eps_eq
    return _first_pair(M, bad, lambda E, x, y: (E[x, y], E[x, 0] - E[y, 0]))


# The base flags of classify that take O(n^2) work, each mapped to a test
# that returns the first failing pair, or None when the flag holds. The one
# other base flag, prequad_t, is the type-t check_prequadrangle verdict.
BASE_FLAGS = {
    "symmetric": _symmetric,
    "nonnegative": _nonnegative,
    "zero_diagonal": _zero_diagonal,
    "identity_of_indiscernibles": _identity_of_indiscernibles,
    "zero_protometric": _zero_protometric,
    "potential_difference": _potential_difference,
}

# Each derived flag is the AND of these base flags, listed so that the
# n^3 scan behind prequad_t comes last.
DERIVED_FLAGS = {
    "difference_protometric": ("zero_diagonal", "prequad_t"),
    "quasi_semi_metric": ("zero_diagonal", "nonnegative", "prequad_t"),
    "semi_metric": ("zero_diagonal", "nonnegative", "symmetric", "prequad_t"),
    "metric": (
        "zero_diagonal",
        "nonnegative",
        "symmetric",
        "identity_of_indiscernibles",
        "prequad_t",
    ),
}
