"""Transforms between the classes: gauges, the protometric/distance bijection,
coordinate extraction, the specialization preorder, and the similarity bridge
(Gromov product, Farris transform, entrywise log)."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .checks import (
    BASE_FLAGS,
    DERIVED_FLAGS,
    _entry,
    _first_pair,
    check_prequadrangle,
    check_triangle,
    degenerate_pairs,
    first_violation,
)
from .errors import InputError, PreconditionError, TransitivityError, _real_number
from .matrix import DEFAULT_TOLERANCE, InequalityType, LabeledMatrix, ToleranceConfig

__all__ = [
    "Decomposition",
    "PreorderResult",
    "ZeroCoordinates",
    "add",
    "affine_gauge",
    "compose",
    "decompose",
    "farris_transform",
    "gromov_product",
    "log_transform",
    "metrize",
    "min_farris_constant",
    "potential_of",
    "specialization_preorder",
    "transpose",
    "zero_coordinates",
]


@dataclass(frozen=True)
class Decomposition:
    """A protometric split into its distance part d and diagonal gauge f."""

    d: LabeledMatrix
    f: dict[str, float]


@dataclass(frozen=True)
class ZeroCoordinates:
    """Separable coordinates of a 0-protometric: p(x,y) = a(x) + b(y).

    The gauge is fixed by b(ref) = 0 where ref is the first label, so the
    coordinates are unique.
    """

    a: dict[str, float]
    b: dict[str, float]
    ref: str


@dataclass(frozen=True)
class PreorderResult:
    """Specialization preorder of a quasi-semi-metric.

    relation holds every ordered pair (x, y) with d(x, y) ~ 0; classes are the
    mutual-reachability blocks, each sorted by label order and listed by first
    member; quotient_order holds the pairs (rep_i, rep_j) between distinct
    classes whose blocks compare.
    """

    relation: tuple[tuple[str, str], ...]
    classes: tuple[tuple[str, ...], ...]
    quotient_order: tuple[tuple[str, str], ...]


def _gauge_vector(M: LabeledMatrix, f: Mapping[str, float], what: str) -> np.ndarray:
    missing = [l for l in M.labels if l not in f]
    if missing:
        raise InputError(f"{what} is missing a value for label {missing[0]!r}")
    if len(f) > M.n:  # every label has a value, so some key is not a label
        extra = next(l for l in f if l not in M.labels)
        raise InputError(f"{what} has a value for unknown label {extra!r}")
    vec = np.array([_real_number(f"{what} at label {l!r}", f[l]) for l in M.labels])
    if not np.isfinite(vec).all():
        bad = M.labels[int(np.argmax(~np.isfinite(vec)))]
        raise InputError(f"{what} has a non-finite value at label {bad!r}")
    return vec


def _check_positive_factor(alpha: float) -> float:
    alpha = _real_number("alpha", alpha)
    if not (np.isfinite(alpha) and alpha > 0):
        raise InputError(f"alpha must be finite and > 0, got {alpha!r}")
    return alpha


def _require(M: LabeledMatrix, tol: ToleranceConfig, op: str, flag: str) -> None:
    """Raise PreconditionError unless M has the classify flag ``flag``.

    The error names op, the first failing base flag and its witness. The
    O(n^2) base flags are tested before the one n^3 scan, prequad_t, which
    stops at the first x whose slab fails.
    """
    for base in DERIVED_FLAGS.get(flag, (flag,)):
        if base in BASE_FLAGS:
            w = BASE_FLAGS[base](M, tol)
        else:
            verdict = check_prequadrangle(M, InequalityType.TRANSITIVE, tol, max_witnesses=1,
                                          stop_at_first_failure=True)
            w = first_violation(verdict)
        if w is not None:
            raise PreconditionError(
                f"{op} needs {flag}, but {base} fails at "
                f"(x={w.x!r}, y={w.y!r}, z={w.z!r}): lhs={w.lhs!r}, rhs={w.rhs!r}",
                witness=w,
            )


def transpose(M: LabeledMatrix) -> LabeledMatrix:
    """Swap the roles of the two arguments: output (x, y) = input (y, x)."""
    return LabeledMatrix(M.labels, M.entries.T)


def add(a: LabeledMatrix, b: LabeledMatrix) -> LabeledMatrix:
    """Entrywise sum of two matrices over the same labels in the same order."""
    if a.labels != b.labels:
        raise InputError(
            "entrywise sum needs identical label sequences, got "
            f"{list(a.labels)!r} and {list(b.labels)!r}"
        )
    with np.errstate(over="ignore"):  # LabeledMatrix rejects an overflowed sum
        return LabeledMatrix(a.labels, a.entries + b.entries)


def affine_gauge(M: LabeledMatrix, alpha: float, f: Mapping[str, float]) -> LabeledMatrix:
    """Positive scaling plus a point gauge: output = alpha * p(x,y) + f(x) + f(y).

    This preserves each pre-quadrangle verdict, since the gauge terms cancel
    from both sides and the scaling is positive.
    """
    alpha = _check_positive_factor(alpha)
    g = _gauge_vector(M, f, "gauge f")
    with np.errstate(over="ignore"):  # LabeledMatrix rejects an overflowed result
        return LabeledMatrix(M.labels, (alpha * M.entries + g[:, None]) + g[None, :])


def metrize(
    p: LabeledMatrix,
    alpha: float,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
) -> LabeledMatrix:
    """Symmetrized gauge-invariant distance of a protometric.

    d(x,y) = alpha * (p(x,y) + p(y,x) - p(x,x) - p(y,y)). The input must pass
    the type-t pre-quadrangle check. The output is symmetric with a zero
    diagonal, and nonnegative up to the scaled inequality tolerance; strict
    protometrics produce a metric.
    """
    alpha = _check_positive_factor(alpha)
    _require(p, tol, "metrize", "prequad_t")
    d = degenerate_pairs(p.entries, InequalityType.TRANSITIVE)
    with np.errstate(over="ignore"):  # LabeledMatrix rejects an overflowed result
        return LabeledMatrix(p.labels, alpha * d)


def compose(
    d: LabeledMatrix,
    f: Mapping[str, float],
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
) -> LabeledMatrix:
    """Build the protometric p(x,y) = (d(x,y) + f(x) + f(y)) / 2.

    d must be a difference protometric: zero diagonal and type-t
    pre-quadrangle inequality.
    Inverse of decompose, entry for entry.
    """
    _require(d, tol, "compose", "difference_protometric")
    g = _gauge_vector(d, f, "gauge f")
    with np.errstate(over="ignore"):  # LabeledMatrix rejects an overflowed result
        return LabeledMatrix(d.labels, ((d.entries + g[:, None]) + g[None, :]) * 0.5)


def decompose(p: LabeledMatrix, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> Decomposition:
    """Split a protometric into f(x) = p(x,x) and d(x,y) = 2 p(x,y) - p(x,x) - p(y,y).

    d is the type-o degenerate slack of ``checks.degenerate_pairs``, a difference
    protometric, and compose(d, f) rebuilds p entry for entry: the inverse of compose.
    """
    _require(p, tol, "decompose", "prequad_t")
    d = degenerate_pairs(p.entries, InequalityType.OUTGOING)
    f = dict(zip(p.labels, np.diagonal(p.entries).tolist()))
    return Decomposition(d=LabeledMatrix(p.labels, d), f=f)


def zero_coordinates(
    p: LabeledMatrix,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
) -> ZeroCoordinates:
    """Separable coordinates a(x) + b(y) of a 0-protometric.

    With ref the first label: a(x) = p(x, ref) and b(y) = p(ref, y) - p(ref, ref),
    so b(ref) = 0. Raises when the degenerate-pair equality
    p(x,y) + p(y,x) = p(x,x) + p(y,y) fails, and also when the equality holds
    but the entries are not reproduced by a(x) + b(y); the error says which
    condition failed and where.
    """
    _require(p, tol, "zero_coordinates", "zero_protometric")
    E = p.entries
    labels = p.labels
    a = E[:, 0]
    b = E[0, :] - E[0, 0]
    w = _first_pair(p, tol.eq_fails(E - (a[:, None] + b[None, :])),
                    lambda E, x, y: (E[x, y], float(a[x]) + float(b[y])))
    if w is not None:  # w.deficit is the residual's magnitude
        raise PreconditionError(
            "zero_coordinates: entries are not separable as a(x) + b(y); "
            f"residual {w.deficit!r} at ({w.x!r}, {w.y!r})",
            witness=w,
        )
    return ZeroCoordinates(
        a={l: float(a[i]) for i, l in enumerate(labels)},
        b={l: float(b[i]) for i, l in enumerate(labels)},
        ref=labels[0],
    )


def potential_of(d: LabeledMatrix, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> dict[str, float]:
    """Recover h with d(x,y) = h(x) - h(y), gauged by h(ref) = d(ref, ref).

    ref is the first label, so h(x) = d(x, ref). Raises when some entry
    misses h(x) - h(y) by more than eps_eq; h is otherwise unique up to an
    additive constant.
    """
    _require(d, tol, "potential_of", "potential_difference")
    return {l: float(h) for l, h in zip(d.labels, d.entries[:, 0])}


def specialization_preorder(
    d: LabeledMatrix,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
) -> PreorderResult:
    """Preorder x <= y iff d(x, y) ~ 0, for a quasi-semi-metric d.

    The relation is reflexive by the zero diagonal and transitive by the
    type-t pre-quadrangle inequality; transitivity is re-verified on the
    thresholded relation, and a failure (possible only when the tolerances
    disagree with the data) raises TransitivityError. Ties in the quotient
    construction are broken by label order.
    """
    E = d.entries
    n = d.n
    labels = d.labels
    _require(d, tol, "specialization_preorder", "quasi_semi_metric")
    # (-inf, 0], not eq_fails' [0, 0]: x <= y also when d(x,y) < -eps_eq, as eps_ineq allows.
    rel = ~tol.interval_fails(E, -np.inf, 0.0)  # reflexive: eq_fails(d(x,x)) was false
    # Two-step reachability. The float32 products are 0 or 1, and a sum of
    # nonnegative terms never rounds to 0, so this is exact for any n.
    step = rel.astype(np.float32)
    reach2 = (step @ step) > 0
    broken = reach2 & ~rel
    if bool(broken.any()):
        x, z = divmod(int(np.argmax(broken)), n)
        y = int(np.argmax(rel[x, :] & rel[:, z]))
        raise TransitivityError(
            "thresholded relation is not transitive: "
            f"{labels[x]!r} <= {labels[y]!r} <= {labels[z]!r} but "
            f"d({labels[x]!r},{labels[z]!r}) = {float(E[x, z])!r} > eps_eq; "
            "the equality tolerance is inconsistent with the inequality tolerance"
        )
    relation = tuple((labels[i], labels[j]) for i, j in np.argwhere(rel).tolist())
    mutual = rel & rel.T
    assigned = np.zeros(n, dtype=bool)
    classes: list[tuple[str, ...]] = []
    reps: list[int] = []
    for i in range(n):
        if assigned[i]:
            continue
        members = np.flatnonzero(mutual[i])
        assigned[members] = True
        classes.append(tuple(labels[j] for j in members.tolist()))
        reps.append(i)
    between = rel[np.ix_(reps, reps)] & ~np.eye(len(reps), dtype=bool)
    quotient = tuple((labels[reps[a]], labels[reps[b]]) for a, b in np.argwhere(between).tolist())
    return PreorderResult(relation=relation, classes=tuple(classes), quotient_order=quotient)


def gromov_product(
    d: LabeledMatrix,
    x0: str,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
) -> LabeledMatrix:
    """Gromov product of a metric at base point x0.

    G(x,y) = (d(x,x0) + d(y,x0) - d(x,y)) / 2. Nonnegative and symmetric,
    with G(x0, x0) = 0; -G is a symmetric protometric with entries <= 0.
    """
    _require(d, tol, "gromov_product", "metric")
    i0 = d.index(x0)
    v = d.entries[:, i0]
    return LabeledMatrix(d.labels, ((v[:, None] + v[None, :]) - d.entries) * 0.5)


def farris_transform(
    d: LabeledMatrix,
    x0: str,
    constant: float,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
) -> LabeledMatrix:
    """Constant minus the Gromov product: output (x, y) = C - G(x, y).

    For C at or above min_farris_constant the output is nonnegative and
    satisfies the symmetric triangle inequality. The output diagonal is not
    required to be zero.
    """
    constant = _real_number("constant", constant)
    if not np.isfinite(constant):
        raise InputError(f"constant must be finite, got {constant!r}")
    G = gromov_product(d, x0, tol)
    with np.errstate(over="ignore"):  # LabeledMatrix rejects an overflowed result
        return LabeledMatrix(d.labels, constant - G.entries)


def min_farris_constant(
    d: LabeledMatrix,
    x0: str,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
) -> float:
    """Least C for which the Farris transform passes triangle plus nonnegativity.

    C = max over ordered triples of G(x,y) + G(x,z) - G(y,z), the type-o
    triangle slack of G, joined with the largest pairwise product and with 0.
    At this C at least one constraint is tight, so any smaller constant breaks
    a triangle or nonnegativity check.

    The maximum is -m, m the min_slack of the type-o triangle scan of -G: each
    slack of -G is the negated slack of G, bit for bit. -G fails at most x, so
    the scan takes a tolerance at which nothing fails and builds no mask.
    """
    G = gromov_product(d, x0, tol)
    scan = check_triangle(LabeledMatrix(G.labels, -G.entries), InequalityType.OUTGOING,
                          ToleranceConfig(eps_ineq=sys.float_info.max))
    return max(0.0, -scan.min_slack, float(G.entries.max()))  # 0.0 wins a tie with -0.0


def log_transform(s: LabeledMatrix) -> LabeledMatrix:
    """Entrywise -ln of a strictly positive similarity matrix.

    Maps the transition inequality onto the type-t pre-quadrangle inequality.
    """
    w = _first_pair(s, ~(s.entries > 0), _entry)
    if w is not None:
        raise PreconditionError(
            f"log transform needs strictly positive entries, but "
            f"s({w.x!r},{w.y!r}) = {w.lhs!r}",
            witness=w,
        )
    return LabeledMatrix(s.labels, -np.log(s.entries))
