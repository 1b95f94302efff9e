"""Workload inputs, made from the seed by the benchmark's own numpy code.

Entries lie on the grid k * 2**-17 and stay below 2**5 in magnitude, so
sums, halvings and min-plus closures of them are exact in float64. Every
input is therefore a member of its class by construction, not merely within
a tolerance, and the program under test receives only matrices or files.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

STEP = 2.0 ** -17
SCALE = 8.0  # largest edge drawn; closures and gauges stay below 2**5


def labels(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def grid(rng: np.random.Generator, shape, lo: float, hi: float) -> np.ndarray:
    """Uniform draws on the grid points of (lo, hi]."""
    k = rng.integers(round(lo / STEP) + 1, round(hi / STEP), size=shape, endpoint=True)
    return k * STEP


def closure(E: np.ndarray) -> np.ndarray:
    """Min-plus closure; the result meets the type-t triangle inequality exactly."""
    D = E.copy()
    for k in range(len(D)):
        np.minimum(D, D[:, k, None] + D[None, k, :], out=D)
    return D


def qsm(rng, n: int) -> np.ndarray:
    """Quasi-semi-metric: closed asymmetric positive edges, zero diagonal."""
    W = grid(rng, (n, n), 0.0, SCALE)
    np.fill_diagonal(W, 0.0)
    return closure(W)


def metric(rng, n: int) -> np.ndarray:
    """Metric: closed symmetric positive edges, zero diagonal."""
    W = np.triu(grid(rng, (n, n), 0.0, SCALE), 1)
    return closure(W + W.T)


def qsm_with_ties(rng, n: int) -> np.ndarray:
    """Quasi-semi-metric on ceil(n/2) points lifted onto n, so some pairs are at 0."""
    m = (n + 1) // 2
    sigma = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
    return qsm(rng, m)[np.ix_(sigma, sigma)]


def gauge(rng, n: int) -> np.ndarray:
    return grid(rng, n, -SCALE, SCALE)


def compose(d: np.ndarray, f: np.ndarray) -> np.ndarray:
    """p(x,y) = (d(x,y) + f(x) + f(y)) / 2, the gauged protometric over d."""
    return ((d + f[:, None]) + f[None, :]) * 0.5


def protometric(rng, n: int) -> np.ndarray:
    """Type-t protometric: a quasi-semi-metric under a random diagonal gauge."""
    return compose(qsm(rng, n), gauge(rng, n))


def perturbed(rng, p: np.ndarray) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Raise one entry p(y,z) so that exactly one type-t pre-quadrangle triple fails.

    The raise is halfway between the two smallest slacks over x, so the
    failing triple (x, y, z) is known and no other triple comes near the
    tolerance.
    """
    n = len(p)
    diag = np.diagonal(p)
    for _ in range(10_000):
        y, z = (int(v) for v in rng.choice(n, size=2, replace=False))
        xs = np.array([x for x in range(n) if x not in (y, z)])
        slack = (p[y, xs] + p[xs, z]) - (p[y, z] + diag[xs])
        order = np.argsort(slack, kind="stable")
        s0, s1 = slack[order[0]], slack[order[1]]
        if s1 - s0 >= 2.0 ** -8:
            out = p.copy()
            out[y, z] += (s0 + s1) * 0.5
            return out, (int(xs[order[0]]), y, z)
    raise RuntimeError("no entry of this protometric separates its two smallest slacks")


def unstructured(rng, n: int) -> np.ndarray:
    """Asymmetric entries of both signs and a nonzero diagonal: fails most checks."""
    return grid(rng, (n, n), -SCALE, SCALE)


def broken_metric(rng, n: int) -> np.ndarray:
    """Symmetric, zero diagonal, positive off the diagonal, but not a metric.

    d(x2,x3) is far above d(x2,x1) + d(x1,x3), so the type-t triangle
    inequality fails at the first x of the scan and every transform whose
    precondition includes it must reject the matrix.
    """
    W = np.triu(grid(rng, (n, n), 0.0, SCALE), 1)
    W[1, 2] = 4 * SCALE
    return W + W.T


def similarity(p: np.ndarray) -> np.ndarray:
    """exp(-p) of a protometric, which meets the transition inequality."""
    return np.exp(-p)


def potential(rng, n: int) -> np.ndarray:
    """h(x) - h(y) for a random h."""
    h = gauge(rng, n)
    return h[:, None] - h[None, :]


def zero_protometric(rng, n: int) -> np.ndarray:
    """a(x) + b(y) for random a and b."""
    return gauge(rng, n)[:, None] + gauge(rng, n)[None, :]


def positive(rng, n: int) -> np.ndarray:
    return grid(rng, (n, n), 0.0, SCALE)


def to_csv(E: np.ndarray, header: bool = True) -> str:
    names = labels(len(E))
    rows = [",".join(repr(float(v)) for v in row) for row in E]
    if not header:
        return "\n".join(rows) + "\n"
    return "\n".join(["," + ",".join(names)] + [f"{l},{r}" for l, r in zip(names, rows)]) + "\n"


def to_json(E: np.ndarray) -> str:
    return json.dumps({"labels": labels(len(E)), "matrix": E.tolist()}) + "\n"


def gauge_csv(f: np.ndarray) -> str:
    return "".join(f"{l},{float(v)!r}\n" for l, v in zip(labels(len(f)), f))


def read_matrix(text: str) -> tuple[list[str], np.ndarray]:
    """Labels and entries of a CSV or JSON matrix document."""
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        return list(doc["labels"]), np.array(doc["matrix"], dtype=np.float64)
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if rows[0][0] == "":
        return rows[0][1:], np.array([[float(c) for c in r[1:]] for r in rows[1:]])
    return labels(len(rows)), np.array([[float(c) for c in r] for r in rows])
