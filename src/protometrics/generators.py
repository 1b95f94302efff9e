"""Seeded instance generators for every class in the taxonomy.

Reproducibility contract: all randomness comes from SplitMix64, a fixed
64-bit generator that is trivial to reimplement (see the class docstring),
and every real draw lands on a dyadic grid, k * 2^-20 times the scale.
Grid draws keep all downstream linear arithmetic (closures, composition,
decomposition, metrization) exact in float64 at these magnitudes, which is
what makes the bijection round-trips bit-exact rather than merely close.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import _lhs_slab, check_prequadrangle, first_violation
from .errors import InputError, PreconditionError
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
_GRID = 2.0 ** -20


class SplitMix64:
    """SplitMix64: state advances by 0x9E3779B97F4A7C15 per draw, output is
    the state mixed by two xor-shift-multiply rounds (0xBF58476D1CE4E5B9,
    0x94D049BB133111EB) and a final right shift by 31. All arithmetic is
    modulo 2^64.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def unit(self) -> float:
        """Uniform on the grid {k * 2^-20 : 0 <= k < 2^20}, so in [0, 1)."""
        return (self.next_u64() >> 44) * _GRID

    def unit_pos(self) -> float:
        """Uniform on the grid points of (0, 1]."""
        return ((self.next_u64() >> 44) + 1) * _GRID

    def signed(self) -> float:
        """Uniform on the grid points of [-1, 1)."""
        return (self.next_u64() >> 43) * _GRID - 1.0


@dataclass(frozen=True)
class GenSpec:
    """Size, seed, and magnitude scale for one generated instance."""

    n: int
    seed: int
    scale: float = 10.0

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise InputError(f"n must be an integer >= 1, got {self.n!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise InputError(f"seed must be an integer, got {self.seed!r}")
        if not (0 <= self.seed < (1 << 64)):
            raise InputError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if isinstance(self.scale, bool) or not isinstance(self.scale, (int, float)):
            raise InputError(f"scale must be a real number, got {self.scale!r}")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise InputError(f"scale must be finite and > 0, got {self.scale!r}")


def shortest_path_closure(M: LabeledMatrix) -> LabeledMatrix:
    """Min-plus closure: replace each entry by the cheapest path value.

    Iterated relaxation over intermediate points; the result satisfies the
    type-t triangle inequality exactly, because every output is a min of
    sums of inputs.
    """
    return LabeledMatrix(M.labels, _closure(M.entries))


def _closure(E: np.ndarray) -> np.ndarray:
    out = E.copy()
    n = E.shape[0]
    for k in range(n):
        np.minimum(out, out[:, k, None] + out[None, k, :], out=out)
    return out


def _closed(rng: SplitMix64, n: int, scale: float, symmetric: bool) -> np.ndarray:
    """Zero diagonal, uniform (0, scale] edges, min-plus closed.

    Draws one edge per unordered pair (upper triangle row by row, mirrored)
    when symmetric, else one per ordered pair, row by row.
    """
    pairs = [(i, j) for i in range(n) for j in range(n) if (i < j if symmetric else i != j)]
    for _ in range(1000):
        E = np.zeros((n, n))
        for i, j in pairs:
            E[i, j] = rng.unit_pos() * scale
        if symmetric:
            E = E + E.T  # the lower triangle is zero, so this mirrors exactly
        E = _closure(E)
        if n == 1:
            return E
        off = ~np.eye(n, dtype=bool)
        if float(E[off].min()) > DEFAULT_TOLERANCE.eps_strict:
            return E
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
    then f values in label order.
    """
    ty = InequalityType.parse(ty)
    rng = SplitMix64(spec.seed)
    n = spec.n
    m = n if strict else max(1, (n + 1) // 2)
    base = _closed(rng, m, spec.scale, symmetric=ty is not InequalityType.TRANSITIVE)
    if m == n:
        sigma = list(range(n))
    else:
        sigma = list(range(m)) + [rng.next_u64() % m for _ in range(m, n)]
    labels = auto_labels(n)
    d = LabeledMatrix(labels, base[np.ix_(sigma, sigma)])
    f = {l: rng.signed() * spec.scale for l in labels}
    return compose(d, f)


def gen_zero_protometric(spec: GenSpec) -> LabeledMatrix:
    """A random 0-protometric p(x,y) = a(x) + b(y).

    Draw order: all a values in label order, then all b values. Its
    metrization is the zero matrix for every seed.
    """
    rng = SplitMix64(spec.seed)
    labels = auto_labels(spec.n)
    a = np.array([rng.signed() * spec.scale for _ in range(spec.n)])
    b = np.array([rng.signed() * spec.scale for _ in range(spec.n)])
    return LabeledMatrix(labels, a[:, None] + b[None, :])


def _bump_breaks_check(ty: InequalityType, x: int, y: int, z: int) -> bool:
    # Raising p(y,z) must raise the right side only. The (y,z) slot collides
    # with a left-side slot exactly in these degenerate patterns, where the
    # inequality then holds identically and no bump can break it.
    if ty is InequalityType.OUTGOING:
        return y != x
    if ty is InequalityType.INCOMING:
        return z != x
    if ty is InequalityType.TRANSITIVE:
        return y != x and z != x
    return not (x == y == z)  # CYCLIC


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
    p(y,z) is raised by slack + magnitude. The returned matrix fails
    check_prequadrangle for ty with a deficit of about magnitude; other
    types may or may not fail.
    """
    ty = InequalityType.parse(ty)
    if isinstance(magnitude, bool) or not isinstance(magnitude, (int, float)):
        raise InputError(f"magnitude must be a real number, got {magnitude!r}")
    magnitude = float(magnitude)
    if not (np.isfinite(magnitude) and magnitude > 0):
        raise InputError(f"magnitude must be finite and > 0, got {magnitude!r}")
    if magnitude <= tol.eps_ineq:
        raise InputError(
            f"magnitude {magnitude!r} must exceed eps_ineq {tol.eps_ineq!r} "
            "to guarantee a detectable violation"
        )
    if M.n < 2:
        raise InputError("perturbation needs at least two points")
    w = first_violation(check_prequadrangle(M, ty, tol, max_witnesses=1))
    if w is not None:
        raise PreconditionError(
            f"matrix already fails the type-{ty.value} pre-quadrangle check at "
            f"(x={w.x!r}, y={w.y!r}, z={w.z!r})",
            witness=w,
        )
    E = M.entries
    n = M.n
    best = None
    best_key = None  # (slack, target-is-diagonal); first row-major wins ties
    for x in range(n):
        slack = (_lhs_slab(E, x, ty) - E) - E[x, x]
        for y in range(n):
            for z in range(n):
                if not _bump_breaks_check(ty, x, y, z):
                    continue
                key = (float(slack[y, z]), y == z)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (float(slack[y, z]), x, y, z)
    s, x, y, z = best
    out = np.array(E, copy=True)
    out[y, z] += s + magnitude
    return LabeledMatrix(M.labels, out)
