"""Exhaustive inequality checkers.

Every checker scans all n^3 ordered triples (or all n^2 ordered pairs),
including fully degenerate ones; there are no sampling or pruning shortcuts.
The one exception is opt-in: a pre-quadrangle check asked to stop at the
first failure ends after the first x whose slab fails. Evaluation is
vectorized one x-slab at a time so memory stays O(n^2) while the scan order
remains row-major in (x, y, z).

No float in a verdict is -0.0: ``_verdict`` reports min_slack and each
witness's lhs, rhs and deficit as v + 0.0, which maps -0.0 to 0.0 and keeps
every other float bit for bit. No status, count or witness position depends
on the sign of a zero, so the code below ignores it.

The triangle and pre-quadrangle checks of all four types share one pass
over x (``_scan``). Per x it builds a slab in an (n, n) buffer reused
across x, indexed [y, z]: the outer sum a[y] + b[z] minus d(y, z), where a
and b are each the row d(x, .) or the column d(., x). What does not change
with x is made once per scan: a C-ordered copy of the columns, which points
are symmetric and the diagonal. The loop over x then runs only the kernels
and Python float compares, and builds masks and witnesses only at an x where
a pair fails.

The outer sum is one BLAS product (``_OuterSum``), [a 1] @ [1; b], of an
(n, 2) and a (2, n) matrix that are allocated once per scan. Entry
(y, z) is a[y]*1 + 1*b[z]: both products are exact, so one rounding is
left, and IEEE rounding makes it fl(a[y] + b[z]), whatever order the kernel
sums in and whether it fuses the multiply and add. Only the sign of a zero
may differ: a kernel that starts its sum at +0.0 turns -0.0 + -0.0 into
+0.0.

Two rules build each distinct slab once:

- The types differ only in whether a[y] and b[z] read the row or the
  column (``_READS_COLUMN``). Where row x equals column x, as at every
  point of a symmetric matrix, the four types read the same values, so one
  slab serves every requested (type, form) pair; one vectorized compare
  finds every such point.
- A pre-quadrangle slack is its triangle slack minus d(x, x), and the slab
  is never changed after its minimum. Rounding is monotone, so the minimum
  of fl(s - d(x,x)) is exactly fl(min s - d(x,x)), which tells whether any
  entry fails, and fl(s - d(x,x)) fails exactly where s lies below
  ``ToleranceConfig.ineq_threshold(d(x,x))``. The triangle forms fail below
  ineq_threshold(0), found once per scan, as does a zero d(x, x).

Only when a pair fails is the violation mask filled, in one reused buffer,
once per distinct bound for all the failing pairs of the slab. Witnesses
come from its leading rows, recomputed as scalar sums in the same order.

Scans of matrices on a coarse grid run in float32, with the same verdict
bits. A matrix qualifies (``_exact_float32``) when every entry is an
integer multiple k * u of one power of two u = 2**ceil(log2(3 max|E|) - 24),
u is at least 2**-126 and max|E| is at most 2**100. Every
a[y] + b[z] - d(y, z) is then an integer of at most 3 max|k| <= 2**24
units, a normal number in float32 and float64 alike, so both dtypes hold
every partial and final sum exactly, whatever order a BLAS kernel sums in
and whether it fuses. Such a matrix is scanned from a float32 copy, at half
the bytes per pass; any other, in float64. Only the slabs change dtype:
witnesses are float64 scalar sums as before, the pre-quadrangle threshold
is applied to the float64 minimum, and a mask compares a float32 slab with
the least float32 at or above its bound (``_least_float32_at_or_above``),
which fails at the same entries. min_slack, count_violations and the
witnesses are thus bit for bit those of the float64 scan. Every scan
certifies E once, before its first slab, so even a scan that stops at
x = 0 pays the n**2 certificate. The generators' min-plus closure, which
takes the same certificate, ``perturb_violation`` and ``check_transition``
build their slabs with the same ``_OuterSum``; ``min_farris_constant`` runs
the type-o triangle scan of -G.
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
    (x, y), of a ``BASE_FLAGS`` test or of a transform's pair refusal, is
    recorded with z = y and deficit |lhs - rhs|.
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
    exactly when ToleranceConfig.ineq_fails(min_slack) is false and FAIL
    exactly when at least one witness was found.
    """

    status: Status
    witnesses: tuple[ViolationWitness, ...]
    min_slack: float | None
    count_checked: int
    count_violations: int


def _verdict(witnesses, min_slack: float | None, checked: int, violations: int) -> PropertyVerdict:
    """The verdict, with every float reported as v + 0.0, so none is -0.0."""
    status = Status.PASS if violations == 0 else Status.FAIL
    witnesses = tuple(ViolationWitness(w.x, w.y, w.z, w.lhs + 0.0, w.rhs + 0.0, w.deficit + 0.0)
                      for w in witnesses)
    min_slack = None if min_slack is None else min_slack + 0.0
    return PropertyVerdict(status, witnesses, min_slack, checked, violations)


def _validate_cap(max_witnesses: int) -> None:
    # A FAIL verdict must carry at least one witness.
    if max_witnesses < 1:
        raise InputError(f"max_witnesses must be >= 1, got {max_witnesses}")


_O, _I, _T, _C = InequalityType
# The type-ty left side at (x, y, z) is a[y] + b[z], where a and b each read
# the column d(., x) (True) or the row d(x, .) (False).
_READS_COLUMN = {_O: (False, False), _I: (True, True), _T: (True, False), _C: (False, True)}


def _exact_float32(E: np.ndarray) -> np.ndarray | None:
    """A C-ordered float32 copy of E on which every slab is exact, or None.

    E qualifies when every entry is an integer multiple of
    u = 2**ceil(log2(3 max|E|) - 24), with u >= 2**-126 and max|E| <= 2**100
    (see the module docstring). An all-zero E qualifies. The copy holds 0.0
    wherever E holds a zero of either sign.
    """
    # Every qualifying entry is a float32, so a row 0 that is not refuses E
    # in O(n), before the passes over all n**2 entries below.
    with np.errstate(over="ignore"):
        row = E[0].astype(np.float32)
    if not np.array_equal(row, E[0]):
        return None
    top = max(float(E.max()), -float(E.min()))
    if top > 2.0**100:
        return None
    # The least j with 3 * top <= 2**(24 + j), in integers: top = p / 2**s.
    p, q = top.as_integer_ratio()
    j = (3 * p - 1).bit_length() - q.bit_length() + 1 - 24 if top else -126
    if j < -126:
        return None
    # Adding 1.5 * 2**52 * u rounds each entry to a multiple of u, and
    # subtracting it again is exact. An entry comes back equal exactly when
    # it is such a multiple; a zero comes back as 0.0.
    shift = math.ldexp(1.5, 52 + j)
    snapped = np.add(E, shift)
    snapped -= shift
    if not np.array_equal(snapped, E):
        return None
    return snapped.astype(np.float32, order="C")


def _least_float32_at_or_above(bound: float) -> np.float32:
    """The least float32 that is >= ``bound``, a float within the float32 range.

    A float32 slab S has S < bound exactly where S < this value. It is found
    by comparing Python floats: numpy would round the bound to the nearest
    float32, which can lie below it. A float32 slab is compared only with a
    bound that some entry falls below and that is ineq_threshold(0) or at
    most d(x, x), so the bound lies within [-3 * 2**100, 2**100].
    """
    v = np.float32(bound)
    return v if float(v) >= bound else np.nextafter(v, np.float32(math.inf))


class _OuterSum:
    """Writes a[y] + b[z], or with ``product`` a[y] * b[z], into an (n, n) buffer.

    Either is one rank-2 product: the sum [a 1] @ [1; b], the product
    [a 0] @ [b; 0]. A sum entry equals fl(a[y] + b[z]) (see the module
    docstring); a product entry is fl(a[y] * b[z]) plus exact zeros, so it
    equals the broadcast product. Only the sign of a zero may differ.
    """

    __slots__ = ("_lhs", "_rhs", "_a", "_b")

    def __init__(self, n: int, dtype=np.float64, *, product: bool = False):
        fill = 0.0 if product else 1.0
        self._lhs = np.full((n, 2), fill, dtype)
        self._rhs = np.full((2, n), fill, dtype)
        self._a = self._lhs[:, 0]  # the views of the operands that hold a and b
        self._b = self._rhs[0 if product else 1]

    def __call__(self, a, b, out) -> np.ndarray:
        self._a[...] = a
        self._b[...] = b
        return np.matmul(self._lhs, self._rhs, out=out)


def _leading_hits(mask: np.ndarray, room: int) -> list[tuple[int, int]]:
    """The first ``room`` indices (y, z) where ``mask`` holds, in row-major order.

    Each row that holds gives at least one, so only its first ``room`` such rows are read.
    """
    hits: list[tuple[int, int]] = []
    for y in mask.any(axis=1).nonzero()[0][:room].tolist() if room else ():
        hits += [(y, z) for z in mask[y].nonzero()[0][: room - len(hits)].tolist()]
    return hits


def _scan(
    M: LabeledMatrix,
    tol: ToleranceConfig,
    kinds: list[tuple[InequalityType, bool]],
    max_witnesses: int,
    *,
    stop_at_first_failure: bool = False,
) -> list[PropertyVerdict]:
    """The verdict of each (type, with_self_term) pair of ``kinds``, from one pass over x.

    A pair with the self term is the pre-quadrangle check of that type, one
    without it the triangle check.

    With ``stop_at_first_failure`` the pass ends after the first x at which
    every pair has failed, so with one pair after the first x whose slab
    holds a violation. Each status and first witness are then those of the
    full scan. The other fields cover only the x values scanned, 0..x:
    count_checked is (x + 1) * n**2, and count_violations, min_slack and the
    witnesses count only those slabs. A passing pair scans every x, so its
    verdict is the full scan's.

    Everything that does not change with x is set up once per scan: the
    float32 certificate, the operand lines of each distinct type and which
    points are symmetric. Per x and distinct slab the loop writes two operand
    lines, runs the product, the subtraction and the minimum, and compares
    Python floats; masks and witnesses are built only at an x where some
    pair fails.
    """
    _validate_cap(max_witnesses)
    E = M.entries
    n = M.n
    labels = M.labels
    # Each distinct type builds one slab per x for its (k, with_self_term)
    # pairs. Where row x equals column x, every type reads the same values,
    # so the first type's slab serves every pair.
    by_type: dict[InequalityType, list[tuple[int, bool]]] = {}
    for k, (ty, self_term) in enumerate(kinds):
        by_type.setdefault(ty, []).append((k, self_term))
    reads = [(_READS_COLUMN[ty], pairs) for ty, pairs in by_type.items()]
    shared = len(reads) > 1
    every = [(reads[0][0], [(k, self_term) for k, (_, self_term) in enumerate(kinds)])]
    diag = E.diagonal().tolist()
    fails = tol.ineq_fails
    flat = tol.ineq_threshold(0.0)  # the triangle forms' bound
    mins = [math.inf] * len(kinds)
    violations = [0] * len(kinds)
    found: list[list[ViolationWitness]] = [[] for _ in kinds]
    mask = np.empty((n, n), dtype=bool)
    # The slabs are float32 when E is certified, float64 otherwise. Row x of
    # A is A[x] and column x is cols[x], a C-ordered copy made once when
    # some type reads a column.
    F = _exact_float32(E)
    A = E if F is None else F
    cols = np.ascontiguousarray(A.T) if any(a or b for (a, b), _ in reads) else None
    outer = _OuterSum(n, A.dtype)
    S = np.empty((n, n), A.dtype)
    distinct, at_symmetric = ([((A, cols)[a], (A, cols)[b], pairs) for (a, b), pairs in r]
                              for r in (reads, every))
    plan = [distinct] * n
    if shared:
        plan = [at_symmetric if s else distinct for s in (A == cols).all(axis=1).tolist()]
    scanned = n
    for x in range(n):
        d = diag[x]
        cut = None  # tol.ineq_threshold(d), found at the first failing pre-quadrangle pair
        for a_lines, b_lines, pairs in plan[x]:
            outer(a_lines[x], b_lines[x], S)
            low = float(np.subtract(S, A, out=S).min())
            # The pairs failing at x, by the bound that S falls below where
            # they fail: ineq_threshold(0) for S, ineq_threshold(d) for S - d(x,x).
            # Equal bounds share a mask, as both forms do when d(x,x) is zero.
            groups: dict[float, list[int]] = {}
            for k, self_term in pairs:
                # Rounding is monotone, so min(fl(s - d)) = fl(min(s) - d).
                m = low - d if self_term else low
                mins[k] = min(mins[k], m)
                if fails(m):
                    if self_term and cut is None:
                        cut = tol.ineq_threshold(d)
                    groups.setdefault(cut if self_term else flat, []).append(k)
            for bound, group in groups.items():
                below = bound if F is None else _least_float32_at_or_above(bound)
                count = int(np.count_nonzero(np.less(S, below, out=mask)))
                at = _leading_hits(mask, max(max_witnesses - len(found[k]) for k in group))
                for k in group:
                    violations[k] += count
                    for y, z in at[: max_witnesses - len(found[k])]:
                        a, b = (E[:, x] if c else E[x] for c in _READS_COLUMN[kinds[k][0]])
                        lhs = float(a[y]) + float(b[z])
                        rhs = float(E[y, z])
                        s = lhs - rhs
                        if kinds[k][1]:
                            rhs, s = rhs + d, s - d
                        w = ViolationWitness(labels[x], labels[y], labels[z], lhs, rhs, -s)
                        found[k].append(w)
        if stop_at_first_failure and all(violations):
            scanned = x + 1
            break
    return [_verdict(found[k], mins[k], scanned * n * n, violations[k]) for k in range(len(kinds))]


def check_triangle(
    M: LabeledMatrix,
    ty: InequalityType | str,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
    *,
    max_witnesses: int = DEFAULT_WITNESS_CAP,
) -> PropertyVerdict:
    """Check the type-ty triangle inequality lhs(x,y,z) >= d(y,z) on all triples."""
    ty = InequalityType.parse(ty)
    return _scan(M, tol, [(ty, False)], max_witnesses)[0]


def check_prequadrangle(
    M: LabeledMatrix,
    ty: InequalityType | str,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
    *,
    max_witnesses: int = DEFAULT_WITNESS_CAP,
    stop_at_first_failure: bool = False,
) -> PropertyVerdict:
    """Check the type-ty pre-quadrangle inequality lhs(x,y,z) >= p(y,z) + p(x,x).

    Passing for type t is the defining property of a protometric.

    With ``stop_at_first_failure=True`` the scan ends after the first x whose
    slab holds a violation, as a caller that only needs one witness wants.
    The status and the first witness equal the full scan's, but
    count_checked is the (x + 1) * n**2 triples actually scanned, and
    count_violations, min_slack and the other witnesses cover only x values
    up to that x. A passing verdict is the full scan's either way.
    """
    ty = InequalityType.parse(ty)
    return _scan(M, tol, [(ty, True)], max_witnesses,
                 stop_at_first_failure=stop_at_first_failure)[0]


def degenerate_pairs(E: np.ndarray, ty: InequalityType | str) -> np.ndarray:
    """The type-ty pre-quadrangle slack at each degenerate triple (x, y, y), as an (n, n) array.

    Entry (x, y) is (a[y] + b[y]) - (p(x,x) + p(y,y)), a and b read at x as the
    scans read them (``_READS_COLUMN``). check_strict, the zero_protometric flag
    (type t), metrize (type t) and decompose (type o, as its d) all read it.
    """
    A, B = (E.T if c else E for c in _READS_COLUMN[InequalityType.parse(ty)])
    diag = np.diagonal(E)
    return (A + B) - (diag[:, None] + diag[None, :])


def check_strict(
    M: LabeledMatrix,
    ty: InequalityType | str,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
    *,
    max_witnesses: int = DEFAULT_WITNESS_CAP,
) -> PropertyVerdict:
    """Check strictness of the degenerate (z = y, y != x) pre-quadrangle instances.

    For type t this reads p(y,x) + p(x,y) > p(x,x) + p(y,y) for every pair of
    distinct points; each pair passes unless strict_fails fails its slack in
    ``degenerate_pairs``, so a NaN slack fails.
    Witnesses record the failing pair with z = y; their sides are the scalar
    sums that the slack subtracts. With a single point there is nothing to
    check and the verdict passes vacuously.
    """
    ty = InequalityType.parse(ty)
    _validate_cap(max_witnesses)
    E = M.entries
    n = M.n
    labels = M.labels
    A, B = (E.T if c else E for c in _READS_COLUMN[ty])
    slack = degenerate_pairs(E, ty)
    off = ~np.eye(n, dtype=bool)
    mask = off & tol.strict_fails(slack)
    witnesses = [ViolationWitness(labels[x], labels[y], labels[y], float(A[x, y]) + float(B[x, y]),
                                  float(E[x, x]) + float(E[y, y]), -float(slack[x, y]))
                 for x, y in _leading_hits(mask, max_witnesses)]
    min_slack = float(slack[off].min()) if n > 1 else None
    return _verdict(witnesses, min_slack, n * (n - 1), int(np.count_nonzero(mask)))


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

    The loop over x builds its products with the scans' ``_OuterSum``, in
    float64, into two (n, n) buffers reused across x: lhs, and rhs made into
    the slack rhs - lhs in place. Only an x where some triple may fail makes
    rhs again, for a violation mask and witnesses.
    With e = eps_ineq >= 2**-40, an x where every rhs is >= 0 is skipped when
    its least rounded slack m lies above -e/2, a floor that every failing
    triple's rounded slack is at or below, whatever the magnitude of rhs.
    The bound is B = fl(fl(rhs * c) + e) with c = fl(1 + e), and fl has a
    relative error of at most 2**-53 on a normal result (a subnormal rhs * c
    is off by at most 2**-1074, which changes nothing below). With
    k = 1 - 2**-53, c >= (1 + e) k, so rhs * c and B do not round below
    rhs (1 + e) k**2 and (rhs (1 + e) k**2 + e) k, and a failing triple has
    rhs - lhs < rhs - B <= -rhs ((1 + e) k**3 - 1) - e k. The first term is
    <= 0, as (1 + e) k**3 >= 1 + e - 3 * 2**-53 (1 + e) > 1, and the second
    rounds to at most -e (1 - 2**-52) <= -e/2. A NaN slack makes m NaN,
    which never exceeds the floor. A smaller e has no floor: m is never above
    0, as the triple at y = x has slack exactly 0.

    The floor is a proof about transition_fails, not a tolerance rule.
    """
    _validate_cap(max_witnesses)
    E = M.entries
    n = M.n
    if for_log_transform and not bool((E > 0).all()):
        return PropertyVerdict(Status.NOT_APPLICABLE, (), None, 0, 0)
    low, high = float(E.min()), float(E.max())
    floor = -0.5 * tol.eps_ineq if tol.eps_ineq >= 2.0**-40 else math.inf
    min_slack = math.inf
    violations = 0
    witnesses: list[ViolationWitness] = []
    lhs, work = np.empty((2, n, n))
    mask = np.empty((n, n), dtype=bool)
    outer = _OuterSum(n, product=True)
    for x in range(n):
        d = float(E[x, x])
        outer(E[:, x], E[x], lhs)  # s(y,x) * s(x,z)
        np.multiply(E, d, out=work)  # s(y,z) * s(x,x)
        m = float(np.subtract(work, lhs, out=work).min())
        min_slack = min(min_slack, m)
        if m > floor and not (d > 0 > low or d < 0 < high):  # and every rhs >= 0
            continue
        rhs = np.multiply(E, d, out=work)  # again, for the mask and witnesses
        hits = int(np.count_nonzero(tol.transition_fails(lhs, rhs, out=mask)))
        if hits == 0:
            continue
        violations += hits
        for y, z in _leading_hits(mask, max_witnesses - len(witnesses)):
            l, r = float(lhs[y, z]), float(rhs[y, z])
            witnesses.append(ViolationWitness(M.labels[x], M.labels[y], M.labels[z], l, r, l - r))
    return _verdict(witnesses, min_slack, n**3, violations)


def diagonal_bounds(
    M: LabeledMatrix,
    ty: InequalityType | str,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
) -> list[tuple[str, Interval, bool]]:
    """Admissible diagonal interval per point, given off-diagonal structure.

    For each point x the returned interval is the set of values d(x,x) may
    take if the type-ty triangle inequality is to hold on the triples that
    pin the diagonal. It is nonempty, and d(x,x) a member, unless
    ``ToleranceConfig.interval_fails`` fails lo, or d(x,x), on [lo, hi]. The
    extrema run over every y, including y = x. For arbitrary input an empty
    interval or a non-member diagonal is reported, never raised.

    The bounds come from the operand table: A and B are E.T or E as
    ``_READS_COLUMN`` says, so that row w of A and of B holds a and b at the
    centre w, and a_w[x] = b_w[x] = d(x, x) at w = x. The triples (x, x, z)
    and (x, y, x) give d(x,x) >= d(x,z) - b_x[z] and d(x,x) >= d(y,x) - a_x[y];
    the triples (w, x, x) give d(x,x) <= a_w[x] + b_w[x]. No bound is -0.0:
    each is reported as v + 0.0, as verdict floats are.

    A bound that leaves the float range, as sums of entries near +-1e308 may,
    is reported as +inf or -inf, and emptiness and membership are judged on it.
    """
    ty = InequalityType.parse(ty)
    E = M.entries
    diag = np.diagonal(E)
    A, B = (E.T if c else E for c in _READS_COLUMN[ty])
    with np.errstate(over="ignore"):  # a bound may be +-inf
        lo = np.maximum((E - B).max(axis=1), (E.T - A).max(axis=1)) + 0.0
        hi = (A + B).min(axis=0) + 0.0
    nonempty, member = (~tol.interval_fails(v, lo, hi) for v in (lo, diag))
    return [(label, Interval(a, b, e), m) for label, a, b, e, m
            in zip(M.labels, lo.tolist(), hi.tolist(), nonempty.tolist(), member.tolist())]


def first_violation(verdict: PropertyVerdict) -> ViolationWitness | None:
    """The first witness of a failed verdict, or None when it passed."""
    return verdict.witnesses[0] if verdict.status is Status.FAIL else None


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
    return _first_pair(M, tol.eq_fails(E - E.T), lambda E, x, y: (E[x, y], E[y, x]))


def _nonnegative(M: LabeledMatrix, tol: ToleranceConfig) -> ViolationWitness | None:
    return _first_pair(M, tol.ineq_fails(M.entries), _entry)


def _zero_diagonal(M: LabeledMatrix, tol: ToleranceConfig) -> ViolationWitness | None:
    return _first_pair(M, np.diag(tol.eq_fails(np.diagonal(M.entries))), _entry)


def _identity_of_indiscernibles(M: LabeledMatrix, tol: ToleranceConfig) -> ViolationWitness | None:
    # Zero diagonal, and every pair of distinct points at |d| > eps_strict.
    E = M.entries
    off = ~np.eye(M.n, dtype=bool)
    return _first_pair(M, np.where(off, tol.strict_fails(np.abs(E)), tol.eq_fails(E)), _entry)


def _zero_protometric(M: LabeledMatrix, tol: ToleranceConfig) -> ViolationWitness | None:
    bad = tol.eq_fails(degenerate_pairs(M.entries, _T))  # a NaN from overflowing sums fails
    return _first_pair(M, bad, lambda E, x, y: (E[x, y] + E[y, x], E[x, x] + E[y, y]))


def _potential_difference(M: LabeledMatrix, tol: ToleranceConfig) -> ViolationWitness | None:
    # d(x,y) = h(x) - h(y) with h(x) = d(x, ref), ref the first label.
    E = M.entries
    h = E[:, 0]
    bad = tol.eq_fails((E - h[:, None]) + h[None, :])
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
