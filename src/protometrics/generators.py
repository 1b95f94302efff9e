"""Seeded instance generators for every class in the taxonomy.

Reproducibility contract: all randomness comes from SplitMix64, a fixed
64-bit generator that is trivial to reimplement (see the class docstring),
and every real draw lands on a dyadic grid, k * 2^-20 times the scale.
Each documented run of draws (a generator's edges, its surjection, its
gauge) is evaluated as one numpy uint64 block; the draw order is the one
each generator's docstring gives, and the stream is the scalar one.
Grid draws keep all downstream linear arithmetic (closures, composition,
decomposition, metrization) exact in float64 when the scale is m * 2**e
with an integer m below 2**29, as the default 10.0 and every power of two
are: each draw is then an integer of at most 2**49 units of 2**(e - 20),
and each sum the generators and their checks take stays below 2**53 units.
That is what makes the bijection round-trips bit-exact rather than merely
close. At any other scale each draw rounds, and once that error exceeds the
absolute eps_ineq (from a scale of about 4e6 at the default 1e-9) a
generated matrix can fail its own class check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import (
    _READS_COLUMN,
    _OuterSum,
    _exact_float32,
    check_prequadrangle,
    first_violation,
)
from .errors import InputError, PreconditionError, _integer, _real_number
from .matrix import (
    DEFAULT_TOLERANCE,
    InequalityType,
    LabeledMatrix,
    ToleranceConfig,
    auto_labels,
)
from .transforms import compose

__all__ = [
    "GenSpec",
    "SplitMix64",
    "gen_metric",
    "gen_protometric",
    "gen_quasi_semi_metric",
    "gen_zero_protometric",
    "perturb_violation",
    "shortest_path_closure",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_GRID = 2.0 ** -20
_MAX_SCALE = 2.0 ** 1021
_U64 = np.uint64


class SplitMix64:
    """SplitMix64: state advances by 0x9E3779B97F4A7C15 per draw, output is
    the state mixed by two xor-shift-multiply rounds (0xBF58476D1CE4E5B9,
    0x94D049BB133111EB) and a final right shift by 31. All arithmetic is
    modulo 2^64.

    The state after k draws is seed + k * 0x9E3779B97F4A7C15, so a block of
    k draws is evaluated at once, in uint64 arrays, with the same outputs in
    the same order as k single draws; the scalar methods are blocks of one.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def _block(self, k: int) -> np.ndarray:
        """The next k outputs, in draw order, as a uint64 array."""
        # Only uint64 operands, so no operand is ever promoted to float64.
        z = np.arange(1, k + 1, dtype=_U64) * _U64(_GAMMA) + _U64(self.state)
        self.state = (self.state + k * _GAMMA) & _MASK64
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))

    def _units(self, k: int) -> np.ndarray:
        return (self._block(k) >> _U64(44)).astype(np.float64) * _GRID

    def _units_pos(self, k: int) -> np.ndarray:
        return ((self._block(k) >> _U64(44)) + _U64(1)).astype(np.float64) * _GRID

    def _signed(self, k: int) -> np.ndarray:
        return (self._block(k) >> _U64(43)).astype(np.float64) * _GRID - 1.0

    def next_u64(self) -> int:
        return int(self._block(1)[0])

    def unit(self) -> float:
        """Uniform on the grid {k * 2^-20 : 0 <= k < 2^20}, so in [0, 1)."""
        return float(self._units(1)[0])

    def unit_pos(self) -> float:
        """Uniform on the grid points of (0, 1]."""
        return float(self._units_pos(1)[0])

    def signed(self) -> float:
        """Uniform on the grid points of [-1, 1)."""
        return float(self._signed(1)[0])


@dataclass(frozen=True)
class GenSpec:
    """Size, seed, and magnitude scale for one generated instance."""

    n: int
    seed: int
    scale: float = 10.0

    def __post_init__(self):
        n, seed = _integer("n", self.n), _integer("seed", self.seed)
        if n < 1:
            raise InputError(f"n must be an integer >= 1, got {n!r}")
        if not (0 <= seed < (1 << 64)):
            raise InputError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        # No generator sums more than three drawn magnitudes, so 2**1021 cannot overflow.
        scale = _real_number("scale", self.scale)
        if not 0 < scale <= _MAX_SCALE:
            raise InputError(f"scale must be > 0 and at most 2**1021, got {self.scale!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "scale", scale)


def shortest_path_closure(M: LabeledMatrix) -> LabeledMatrix:
    """Min-plus closure: replace each entry by the cheapest path value.

    Iterated relaxation over intermediate points; the result satisfies the
    type-t triangle inequality exactly, because every output is a min of
    sums of inputs.
    """
    return LabeledMatrix(M.labels, _closure(M.entries))


def _closure(E: np.ndarray) -> np.ndarray:
    """The min-plus closure of E, relaxed through each k in turn by np.minimum.

    A nonnegative E that ``_exact_float32`` certifies is closed in float32,
    with the same bits. Every entry of the closure then lies in [0, max E]
    and is a multiple of the certificate's unit u, so every sum a + b is an
    integer of at most 2 max E < 2**24 units, exact in either dtype, and a
    minimum is one of its operands. Any other E is closed in float64, as
    E + 0.0.

    Neither copy holds -0.0, and a sum is -0.0 only when both its terms are,
    so no closure holds -0.0. It is the broadcast closure of E, bit for bit
    once -0.0 is read as 0.0.
    """
    F = _exact_float32(E) if float(E.min()) >= 0 else None
    out = E + 0.0 if F is None else F
    n = len(out)
    outer, via = _OuterSum(n, out.dtype), np.empty((n, n), out.dtype)
    for k in range(n):
        np.minimum(out, outer(out[:, k], out[k], via), out=out)
    return out if F is None else out.astype(np.float64)


def _closed(rng: SplitMix64, n: int, scale: float, symmetric: bool) -> np.ndarray:
    """Zero diagonal, uniform (0, scale] edges, min-plus closed.

    Draws one edge per unordered pair (upper triangle row by row, mirrored)
    when symmetric, else one per ordered pair, row by row.
    """
    off = ~np.eye(n, dtype=bool)
    drawn = np.triu(off) if symmetric else off
    k = int(np.count_nonzero(drawn))
    for _ in range(1000):
        edges = rng._units_pos(k) * scale
        # A sum of nonnegative floats never rounds below a term, so the least
        # off-diagonal entry of the closure is the least edge: test before closing.
        if n == 1 or not DEFAULT_TOLERANCE.strict_fails(float(edges.min())):
            E = np.zeros((n, n))
            E[drawn] = edges  # a boolean mask assigns in row-major order
            if symmetric:
                E = E + E.T  # the lower triangle is zero, so this mirrors exactly
            return _closure(E)
    raise InputError(f"scale {scale!r} is too small to keep distances away from zero")


def gen_metric(spec: GenSpec) -> LabeledMatrix:
    """A random metric: closed symmetric positive edge draws.

    Draw order: upper-triangle entries row by row, then the closure. Any
    instance whose closure drops an off-diagonal to eps_strict or below is
    discarded and redrawn from the continuing stream (unreachable at default
    scale, where the grid quantum is about 1e-5).
    """
    rng = SplitMix64(spec.seed)
    return LabeledMatrix(auto_labels(spec.n), _closed(rng, spec.n, spec.scale, symmetric=True))


def gen_quasi_semi_metric(spec: GenSpec) -> LabeledMatrix:
    """A random quasi-semi-metric: closed asymmetric positive edge draws.

    Draw order: all ordered pairs row by row, then the directed closure.
    """
    rng = SplitMix64(spec.seed)
    return LabeledMatrix(auto_labels(spec.n), _closed(rng, spec.n, spec.scale, symmetric=False))


def gen_protometric(
    spec: GenSpec,
    ty: InequalityType | str = InequalityType.TRANSITIVE,
    strict: bool = False,
) -> LabeledMatrix:
    """A random protometric of the given type.

    Built as compose(base, f): the base is a quasi-semi-metric for type t
    and a metric for types o, i, c (whose protometrics are symmetric), and f
    is a uniform [-scale, scale) gauge. With strict=True the base keeps all
    points distinct, which makes the degenerate-pair inequality strict; with
    strict=False the base is drawn on ceil(n/2) points and lifted through a
    random surjection, so tied pairs occur whenever n >= 2.

    Draw order: base entries, then the surjection targets (non-strict only),
    then f values in label order. At a scale off the exact grid (see the
    module docstring) the closed base can miss the type-t pre-quadrangle
    inequality by a rounding; that is an InputError naming the scale.
    """
    ty = InequalityType.parse(ty)
    rng = SplitMix64(spec.seed)
    n = spec.n
    m = n if strict else max(1, (n + 1) // 2)
    base = _closed(rng, m, spec.scale, symmetric=ty is not InequalityType.TRANSITIVE)
    targets = (rng._block(n - m) % _U64(m)).astype(np.intp)
    sigma = np.concatenate((np.arange(m), targets))
    labels = auto_labels(n)
    d = LabeledMatrix(labels, base[np.ix_(sigma, sigma)])
    f = dict(zip(labels, (rng._signed(n) * spec.scale).tolist()))
    try:
        return compose(d, f)
    except PreconditionError as e:  # only prequad_t can fail: the base has a zero diagonal
        w = e.witness
        raise InputError(
            f"scale {spec.scale!r} rounds the draws, and the closed base then fails prequad_t "
            f"at (x={w.x!r}, y={w.y!r}, z={w.z!r}): lhs={w.lhs!r}, rhs={w.rhs!r}"
        ) from None


def gen_zero_protometric(spec: GenSpec) -> LabeledMatrix:
    """A random 0-protometric p(x,y) = a(x) + b(y).

    Draw order: all a values in label order, then all b values. Its
    metrization is the zero matrix for every seed.
    """
    rng = SplitMix64(spec.seed)
    labels = auto_labels(spec.n)
    a = rng._signed(spec.n) * spec.scale
    b = rng._signed(spec.n) * spec.scale
    return LabeledMatrix(labels, a[:, None] + b[None, :])


def perturb_violation(
    M: LabeledMatrix,
    ty: InequalityType | str,
    magnitude: float,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
) -> LabeledMatrix:
    """Break one pre-quadrangle check by raising a single right-side entry.

    Scans the triples whose right-side entry p(y,z) does not also sit on the
    left side (those degenerate triples hold identically and cannot be
    broken this way) and takes one with minimum slack, preferring an
    off-diagonal target entry among exact ties, then row-major order. Its
    p(y,z) is raised by slack + magnitude, or an InputError is raised if
    that leaves the float range. The returned matrix fails check_prequadrangle
    for ty with a deficit of about magnitude; other types may or may not fail.

    A matrix that already fails the check is refused from the same pass:
    rounding is monotone, so the least slack of the whole slab at x is the
    scan's min_slack at x. At the first x where it fails, the error and its
    witness come from check_prequadrangle stopped at its first failure,
    which is the same x.
    """
    ty = InequalityType.parse(ty)
    magnitude = _real_number("magnitude", magnitude)
    if not (np.isfinite(magnitude) and magnitude > 0):
        raise InputError(f"magnitude must be finite and > 0, got {magnitude!r}")
    if not tol.ineq_fails(-magnitude):  # a deficit of magnitude must be detected
        raise InputError(
            f"magnitude {magnitude!r} must exceed eps_ineq {tol.eps_ineq!r} "
            "to guarantee a detectable violation"
        )
    if M.n < 2:
        raise InputError("perturbation needs at least two points")
    E = M.entries
    n = M.n
    off_diagonal = ~np.eye(n, dtype=bool)
    a_col, b_col = _READS_COLUMN[ty]
    outer, slack = _OuterSum(n), np.empty((n, n))
    best = []  # per x: (slack, target-is-diagonal, x, y, z) of its first best triple
    with np.errstate(over="ignore"):  # a slack beyond the float range is +-inf
        for x in range(n):
            outer(E[:, x] if a_col else E[x], E[:, x] if b_col else E[x], slack)
            np.subtract(np.subtract(slack, E, out=slack), E[x, x], out=slack)
            if tol.ineq_fails(float(slack.min())):
                verdict = check_prequadrangle(M, ty, tol, max_witnesses=1,
                                              stop_at_first_failure=True)
                w = first_violation(verdict)
                raise PreconditionError(
                    f"matrix already fails the type-{ty.value} pre-quadrangle check at "
                    f"(x={w.x!r}, y={w.y!r}, z={w.z!r})",
                    witness=w,
                )
            # Raising p(y,z) raises the right side only, unless (y,z) is also a
            # left-side slot; the inequality then holds identically. Such slots are
            # a[y] = d(y,x) at z = x, b[z] = d(x,z) at y = x, and (x, x). As NaN
            # they take no part in the minimum or its ties, even beside a +inf.
            if a_col:
                slack[:, x] = np.nan
            if not b_col:
                slack[x] = np.nan
            slack[x, x] = np.nan
            ties = slack == np.fmin.reduce(slack, axis=None)
            off = ties & off_diagonal
            y, z = divmod(int(np.argmax(off if off.any() else ties)), n)
            best.append((float(slack[y, z]), y == z, x, y, z))
    s, _, x, y, z = min(best)
    raised = float(E[y, z]) + (s + magnitude)
    if not np.isfinite(raised):
        raise InputError(f"raising p({M.labels[y]!r},{M.labels[z]!r}) by its slack plus "
                         f"magnitude {magnitude!r} leaves the float range")
    out = np.array(E, copy=True)
    out[y, z] = raised
    return LabeledMatrix(M.labels, out)
