"""Full taxonomy classification of a labeled matrix."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .checks import (
    BASE_FLAGS,
    DEFAULT_WITNESS_CAP,
    DERIVED_FLAGS,
    PropertyVerdict,
    Status,
    check_prequadrangle,
    check_strict,
    check_triangle,
)
from .matrix import DEFAULT_TOLERANCE, InequalityType, LabeledMatrix, ToleranceConfig

__all__ = ["REPORT_FLAGS", "ClassificationReport", "classify"]

# Flag names in report order.
REPORT_FLAGS = (
    "symmetric",
    "nonnegative",
    "zero_diagonal",
    "identity_of_indiscernibles",
    "triangle_o",
    "triangle_i",
    "triangle_t",
    "triangle_c",
    "prequad_o",
    "prequad_i",
    "prequad_t",
    "prequad_c",
    "strict_protometric",
    "zero_protometric",
    "difference_protometric",
    "quasi_semi_metric",
    "semi_metric",
    "metric",
    "potential_difference",
    "symmetric_protometric",
    "weak_partial_pseudo_metric",
)


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
    triangle = {
        ty: check_triangle(M, ty, tol, max_witnesses=max_witnesses) for ty in InequalityType
    }
    prequad = {
        ty: check_prequadrangle(M, ty, tol, max_witnesses=max_witnesses)
        for ty in InequalityType
    }
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
        flags["symmetric_protometric"] and float(np.diagonal(M.entries).min()) >= -tol.eps_ineq
    )
    return ClassificationReport(
        **flags, triangle=triangle, prequadrangle=prequad, strictness=strictness
    )
