"""Reference answers and output checks that do not depend on the code under test.

The scans here restate the paper's inequalities with numpy, in the
evaluation order of ``tests/oracles.py``; the flags restate the documented
class definitions. A check compares one output of the program with these
answers and returns a description of the first mismatch, or None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = 1e-9  # every tolerance of the default ToleranceConfig
CAP = 10  # the default witness cap

# Left-hand side at fixed x for all (y, z), from the row E[x, :] and column E[:, x].
LHS = {
    "o": lambda row, col: row[:, None] + row[None, :],  # d(x,y) + d(x,z)
    "i": lambda row, col: col[:, None] + col[None, :],  # d(y,x) + d(z,x)
    "t": lambda row, col: col[:, None] + row[None, :],  # d(y,x) + d(x,z)
    "c": lambda row, col: row[:, None] + col[None, :],  # d(z,x) + d(x,y)
}
TYPES = "oitc"


@dataclass(frozen=True)
class Expected:
    """What a verdict must report: status, counts, min slack and leading witnesses.

    ``first`` holds the index triples of the first witnesses in scan order
    with their two sides; ``min_slack`` None means it is not compared.
    """

    status: str
    checked: int
    count: int
    min_slack: float | None
    first: tuple[tuple[int, int, int, float, float], ...]


def expected(checked, count, min_slack, first) -> Expected:
    """An Expected verdict that passes exactly when nothing was violated."""
    return Expected("PASS" if count == 0 else "FAIL", checked, count, min_slack, tuple(first))


def additive(E: np.ndarray, ty: str, prequad: bool) -> Expected:
    """Type-ty triangle (or pre-quadrangle) scan over all ordered triples."""
    n = len(E)
    count, min_slack, first = 0, math.inf, []
    for x in range(n):
        lhs = LHS[ty](E[x, :], E[:, x])
        rhs = E + E[x, x] if prequad else E
        slack = lhs - rhs
        min_slack = min(min_slack, float(slack.min()))
        bad = slack < -EPS
        hits = int(np.count_nonzero(bad))
        count += hits
        if hits and len(first) < CAP:
            for y, z in np.argwhere(bad)[: CAP - len(first)]:
                first.append((x, int(y), int(z), float(lhs[y, z]), float(rhs[y, z])))
    return expected(n ** 3, count, min_slack, first)


def strict(E: np.ndarray, ty: str) -> Expected:
    """Degenerate (z = y, y != x) pre-quadrangle instances must hold strictly."""
    n = len(E)
    diag = np.diagonal(E)
    lhs = {"o": E + E, "i": E.T + E.T}.get(ty, E.T + E)
    rhs = diag[None, :] + diag[:, None]
    slack = lhs - rhs
    off = ~np.eye(n, dtype=bool)
    bad = off & (slack <= EPS)
    first = [(int(x), int(y), int(y), float(lhs[x, y]), float(rhs[x, y]))
             for x, y in np.argwhere(bad)[:CAP]]
    min_slack = float(slack[off].min()) if n > 1 else None
    return expected(n * (n - 1), int(bad.sum()), min_slack, first)


def transition(E: np.ndarray, for_log: bool = False) -> Expected:
    """s(y,x) s(x,z) <= s(y,z) s(x,x) with the multiplicative tolerance."""
    if for_log and not bool((E > 0).all()):
        return Expected("NOT_APPLICABLE", 0, 0, None, ())
    n = len(E)
    count, min_slack, first = 0, math.inf, []
    for x in range(n):
        lhs = E[:, x][:, None] * E[x, :][None, :]
        rhs = E * E[x, x]
        min_slack = min(min_slack, float((rhs - lhs).min()))
        bad = lhs > rhs * (1.0 + EPS) + EPS
        hits = int(np.count_nonzero(bad))
        count += hits
        if hits and len(first) < CAP:
            for y, z in np.argwhere(bad)[: CAP - len(first)]:
                first.append((x, int(y), int(z), float(lhs[y, z]), float(rhs[y, z])))
    return expected(n ** 3, count, min_slack, first)


def classify_verdicts(E: np.ndarray) -> dict[str, Expected]:
    """The nine verdicts a classification report carries, keyed as in its JSON."""
    out = {f"triangle_{ty}": additive(E, ty, False) for ty in TYPES}
    out.update({f"prequad_{ty}": additive(E, ty, True) for ty in TYPES})
    out["strict_t"] = strict(E, "t")
    return out


def flags(E: np.ndarray, verdicts: dict[str, Expected]) -> dict[str, bool]:
    """The 21 report flags, from their definitions."""
    n = len(E)
    diag = np.diagonal(E)
    off = ~np.eye(n, dtype=bool)
    f = {
        "symmetric": float(np.abs(E - E.T).max()) <= EPS,
        "nonnegative": float(E.min()) >= -EPS,
        "zero_diagonal": float(np.abs(diag).max()) <= EPS,
    }
    f["identity_of_indiscernibles"] = f["zero_diagonal"] and (
        n == 1 or bool((np.abs(E[off]) > EPS).all()))
    for ty in TYPES:
        f[f"triangle_{ty}"] = verdicts[f"triangle_{ty}"].count == 0
    for ty in TYPES:
        f[f"prequad_{ty}"] = verdicts[f"prequad_{ty}"].count == 0
    f["strict_protometric"] = f["prequad_t"] and verdicts["strict_t"].count == 0
    f["zero_protometric"] = float(
        np.abs((E + E.T) - (diag[:, None] + diag[None, :])).max()) <= EPS
    f["difference_protometric"] = f["prequad_t"] and f["zero_diagonal"]
    f["quasi_semi_metric"] = f["difference_protometric"] and f["nonnegative"]
    f["semi_metric"] = f["quasi_semi_metric"] and f["symmetric"]
    f["metric"] = f["semi_metric"] and f["identity_of_indiscernibles"]
    h = E[:, 0]
    f["potential_difference"] = float(np.abs((E - h[:, None]) + h[None, :]).max()) <= EPS
    f["symmetric_protometric"] = all(f[f"prequad_{ty}"] for ty in TYPES)
    f["weak_partial_pseudo_metric"] = f["symmetric_protometric"] and float(diag.min()) >= -EPS
    return f


# Each flag implies the next one in its chain (the ClassificationReport contract).
IMPLICATIONS = (
    ("metric", "semi_metric"),
    ("semi_metric", "quasi_semi_metric"),
    ("quasi_semi_metric", "difference_protometric"),
    ("difference_protometric", "prequad_t"),
    ("weak_partial_pseudo_metric", "symmetric_protometric"),
    ("strict_protometric", "prequad_t"),
)


def chain_problem(report_flags: dict[str, bool]) -> str | None:
    for a, b in IMPLICATIONS:
        if report_flags[a] and not report_flags[b]:
            return f"flag {a} holds but {b} does not"
    conj = all(report_flags[f"prequad_{ty}"] for ty in TYPES)
    if report_flags["symmetric_protometric"] != conj:
        return "symmetric_protometric is not the conjunction of the prequad flags"
    return None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EPS * max(1.0, abs(a), abs(b))


def verdict_problem(got: dict, want: Expected, labels, shown: int = CAP) -> str | None:
    """Compare a verdict in its JSON form with the reference.

    ``shown`` is how many leading witnesses the rendering carries at most:
    the cap for a verdict object, one for the text form.
    """
    if got["status"] != want.status:
        return f"status {got['status']} != {want.status}"
    if got["count_violations"] != want.count:
        return f"{got['count_violations']} violations != {want.count}"
    if got["count_checked"] != want.checked:
        return f"{got['count_checked']} checked != {want.checked}"
    if want.min_slack is not None and (
            got["min_slack"] is None or not _close(got["min_slack"], want.min_slack)):
        return f"min_slack {got['min_slack']!r} != {want.min_slack!r}"
    ws = got["witnesses"]
    if len(ws) != min(shown, len(want.first)):
        return f"{len(ws)} witnesses for {want.count} violations"
    for w, (x, y, z, lhs, rhs) in zip(ws, want.first):
        if (w["x"], w["y"], w["z"]) != (labels[x], labels[y], labels[z]):
            return f"witness {(w['x'], w['y'], w['z'])} != {(labels[x], labels[y], labels[z])}"
        if (w["lhs"], w["rhs"]) != (lhs, rhs):
            return f"witness sides {(w['lhs'], w['rhs'])} != {(lhs, rhs)}"
    return None


def verdict_json(v) -> dict:
    """The JSON form of a PropertyVerdict object."""
    return {
        "status": v.status.value,
        "min_slack": v.min_slack,
        "count_checked": v.count_checked,
        "count_violations": v.count_violations,
        "witnesses": [
            {"x": w.x, "y": w.y, "z": w.z, "lhs": w.lhs, "rhs": w.rhs} for w in v.witnesses
        ],
    }


def report_problem(report_flags: dict, verdicts: dict, want_flags, want_verdicts,
                   labels, shown: int = CAP) -> str | None:
    """Check a classification report: flags, their implication chain, each verdict."""
    if report_flags != want_flags:
        diff = sorted(k for k in want_flags if report_flags.get(k) != want_flags[k])
        return f"flags differ at {diff}"
    problem = chain_problem(report_flags)
    if problem:
        return problem
    for key, want in want_verdicts.items():
        problem = verdict_problem(verdicts[key], want, labels, shown)
        if problem:
            return f"{key}: {problem}"
    return None


def diagonal_bounds(E: np.ndarray, ty: str) -> list[tuple[float, float, bool, bool]]:
    """(lo, hi, nonempty, contains d(x,x)) per point, from the per-type formulas."""
    if ty == "o":
        lo, hi = (E.T - E).max(axis=1), 2.0 * E.min(axis=0)
    elif ty == "i":
        lo, hi = (E - E.T).max(axis=1), 2.0 * E.min(axis=1)
    elif ty == "t":
        lo, hi = np.zeros(len(E)), (E + E.T).min(axis=1)
    else:
        lo, hi = np.abs(E - E.T).max(axis=1), (E + E.T).min(axis=1)
    d = np.diagonal(E)
    return [(float(a), float(b), bool(a <= b + EPS), bool(a - EPS <= v <= b + EPS))
            for a, b, v in zip(lo, hi, d)]


def matrix_problem(labels, entries, want_labels, want, exact: bool = True) -> str | None:
    """Compare a matrix output with the expected one, bit for bit or to EPS."""
    if list(labels) != list(want_labels):
        return "labels differ"
    entries = np.asarray(entries)
    if entries.shape != want.shape:
        return f"shape {entries.shape} != {want.shape}"
    same = np.array_equal(entries, want) if exact else np.allclose(entries, want, rtol=0, atol=EPS)
    if not same:
        i, j = np.unravel_index(np.argmax(np.abs(entries - want)), want.shape)
        return f"entry ({i}, {j}) is {entries[i, j]!r}, expected {want[i, j]!r}"
    return None


def class_problem(E: np.ndarray, cls: str, ty: str = "t") -> str | None:
    """None when E is a metric, quasi_semi_metric, protometric (of type ty) or zero_protometric."""
    diag = np.diagonal(E)
    if cls == "zero_protometric":
        ok = float(np.abs((E + E.T) - (diag[:, None] + diag[None, :])).max()) <= EPS
    else:
        ok = additive(E, ty, True).count == 0
        if cls in ("quasi_semi_metric", "metric"):
            ok = ok and float(np.abs(diag).max()) <= EPS and float(E.min()) >= -EPS
        if cls == "metric":
            off = ~np.eye(len(E), dtype=bool)
            ok = ok and float(np.abs(E - E.T).max()) <= EPS and bool((E[off] > EPS).all())
    return None if ok else f"not a {cls}" + (f" of type {ty}" if cls == "protometric" else "")


def min_farris(G: np.ndarray) -> float:
    """Least Farris constant: max of G(x,y) + G(x,z) - G(y,z), of G and of 0."""
    best = 0.0
    for x in range(len(G)):
        best = max(best, float(((G[x, :][:, None] + G[x, :][None, :]) - G).max()))
    return max(best, float(G.max()), 0.0)


def gromov(E: np.ndarray, i0: int) -> np.ndarray:
    v = E[:, i0]
    return ((v[:, None] + v[None, :]) - E) * 0.5


def preorder(E: np.ndarray, labels) -> dict:
    """Relation, classes and quotient order of x <= y iff d(x,y) ~ 0, as the CLI writes them."""
    rel = E <= EPS
    n = len(E)
    classes, reps, seen = [], [], set()
    for i in range(n):
        if i in seen:
            continue
        members = [j for j in range(n) if rel[i, j] and rel[j, i]]
        seen.update(members)
        classes.append([labels[j] for j in members])
        reps.append(i)
    return {
        "relation": [[labels[i], labels[j]] for i, j in np.argwhere(rel)],
        "classes": classes,
        "order": [[labels[a], labels[b]] for a in reps for b in reps if a != b and rel[a, b]],
    }
