"""Exact metamorphic relations of the 8 additive scans, the strict check and the diagonal bounds.

Each relation predicts the bits of a verdict from another verdict, at any n,
with no tolerance and no second implementation:

- transpose duality: the type-ty slack of M.T at (x, y, z) is the dual type's
  slack of M at (x, z, y), with o and i swapped and t and c self-dual;
- relabelling: a permutation of the points only reorders each slab;
- power-of-two scaling of M and of every eps, away from overflow and
  subnormals, scales every slack exactly.

Since fl(a + b) = fl(b + a), min_slack and the counts are equal bit for bit
(compared by ``float.hex``). Witnesses are compared as sets, and only when
the count is within the cap, so that the set is complete on both sides.

The strict check reads the degenerate slack at (x, y, y), so under
transposition the type-o check of M.T is the type-i check of M pair for
pair, and types t and c read the same sums. The diagonal bounds of M.T are
the dual type's bounds of M.

The scans build their outer sums as BLAS products, so these tests carry the
blas marker and are rerun on other OpenBLAS kernels.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protometrics import (
    GenSpec,
    InequalityType,
    LabeledMatrix,
    ToleranceConfig,
    auto_labels,
    check_strict,
    classify,
    diagonal_bounds,
    gen_protometric,
)

pytestmark = pytest.mark.blas

CAP = 64
DUAL = {"o": "i", "i": "o", "t": "t", "c": "c"}


@st.composite
def cases(draw):
    """A matrix of up to 40 points and a tolerance whose three eps are equal.

    The matrix is one of: small integers, which take the float32 slabs; normal
    draws, which take float64; or a generated protometric of a random type,
    with one entry raised so that a few triples fail, on its 2**-20 grid or
    times 1 + 2**-40 off it. Half the integer and normal matrices are
    symmetric. No entry, sum or slack comes near overflow or the subnormals.
    """
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["integers", "normal", "protometric", "off-grid protometric"]))
    if kind == "integers":
        E = rng.integers(-8, 9, (n, n)).astype(float)
    elif kind == "normal":
        E = rng.normal(size=(n, n)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    else:
        ty = draw(st.sampled_from("oitc"))
        E = gen_protometric(GenSpec(n, draw(st.integers(0, 1000))), ty).entries.copy()
        y, z = rng.integers(0, n, 2)
        E[y, z] += draw(st.sampled_from([0.0, 1e-6, 0.5, 4.0]))
        if kind.startswith("off-grid"):
            E *= 1 + 2.0**-40
    if kind in ("integers", "normal") and draw(st.booleans()):
        E = np.triu(E) + np.triu(E, 1).T
    eps = draw(st.sampled_from([0.0, 1e-9, 0.5]) | st.floats(1e-12, 4.0))
    return LabeledMatrix(auto_labels(n), E), ToleranceConfig(eps, eps, eps)


def scans(M, tol):
    """The 8 additive verdicts, keyed by (type code, pre-quadrangle)."""
    report = classify(M, tol, max_witnesses=CAP)
    return {(ty.value, prequad): (report.prequadrangle if prequad else report.triangle)[ty]
            for ty in InequalityType for prequad in (False, True)}


def summary(v):
    return v.status, v.min_slack.hex(), v.count_checked, v.count_violations


def witness_set(v, swap=False, scale=1.0):
    """The witnesses as tuples, y and z swapped with ``swap``, floats times ``scale``."""
    return {(w.x, *((w.z, w.y) if swap else (w.y, w.z)),
             w.lhs * scale, w.rhs * scale, w.deficit * scale) for w in v.witnesses}


@settings(max_examples=60, deadline=None)
@given(cases())
def test_transpose_is_the_dual_scan(case):
    M, tol = case
    got = scans(M, tol)
    dual = scans(LabeledMatrix(M.labels, M.entries.T), tol)
    for (ty, prequad), v in got.items():
        w = dual[DUAL[ty], prequad]
        assert summary(v) == summary(w), (ty, prequad)
        if v.count_violations <= CAP:
            assert witness_set(v) == witness_set(w, swap=True), (ty, prequad)


@settings(max_examples=60, deadline=None)
@given(cases(), st.randoms(use_true_random=False))
def test_relabelling_only_reorders_each_slab(case, random):
    M, tol = case
    labels = list(M.labels)
    random.shuffle(labels)
    got = scans(M, tol)
    moved = scans(M.reordered(labels), tol)
    for kind, v in got.items():
        assert summary(v) == summary(moved[kind]), kind
        if v.count_violations <= CAP:
            assert witness_set(v) == witness_set(moved[kind]), kind


@settings(max_examples=60, deadline=None)
@given(cases(), st.sampled_from([-7, 7]))
def test_power_of_two_scaling_scales_every_slack_exactly(case, k):
    M, tol = case
    s = math.ldexp(1.0, k)
    scaled_tol = ToleranceConfig(tol.eps_ineq * s, tol.eps_eq * s, tol.eps_strict * s)
    got = scans(M, tol)
    scaled = scans(LabeledMatrix(M.labels, M.entries * s), scaled_tol)
    for kind, v in got.items():
        w = scaled[kind]
        assert (v.status, v.count_checked, v.count_violations) == \
            (w.status, w.count_checked, w.count_violations), kind
        assert (v.min_slack * s).hex() == w.min_slack.hex(), kind
        # Positions are the same, in the same order, whatever the count.
        assert [(u.x, u.y, u.z) for u in v.witnesses] == [(u.x, u.y, u.z) for u in w.witnesses]
        assert witness_set(v, scale=s) == witness_set(w)


def strict_checks(M, tol):
    return {ty: check_strict(M, ty, tol, max_witnesses=CAP) for ty in "oitc"}


def bounds(M, tol):
    """The diagonal bounds of each type, keyed by type code."""
    return {ty: diagonal_bounds(M, ty, tol) for ty in "oitc"}


@settings(max_examples=60, deadline=None)
@given(cases())
def test_transpose_is_the_dual_strict_check_and_bounds(case):
    M, tol = case
    transposed = LabeledMatrix(M.labels, M.entries.T)
    # repr is exact for floats, so these compare every field bit for bit.
    got, dual = strict_checks(M, tol), strict_checks(transposed, tol)
    for ty, v in got.items():
        assert repr(v) == repr(dual[DUAL[ty]]), ty
    assert repr(got["c"]) == repr(got["t"])
    got, dual = bounds(M, tol), bounds(transposed, tol)
    for ty, b in got.items():
        assert repr(b) == repr(dual[DUAL[ty]]), ty


@settings(max_examples=60, deadline=None)
@given(cases(), st.randoms(use_true_random=False))
def test_relabelling_only_reorders_the_strict_pairs_and_bounds(case, random):
    M, tol = case
    labels = list(M.labels)
    random.shuffle(labels)
    moved = M.reordered(labels)
    got, other = strict_checks(M, tol), strict_checks(moved, tol)
    for ty, v in got.items():
        w = other[ty]
        assert (v.status, v.min_slack, v.count_checked, v.count_violations) == \
            (w.status, w.min_slack, w.count_checked, w.count_violations), ty
        if v.count_violations <= CAP:
            assert witness_set(v) == witness_set(w), ty
    got, other = bounds(M, tol), bounds(moved, tol)
    for ty, b in got.items():
        assert repr(sorted(b)) == repr(sorted(other[ty])), ty


@settings(max_examples=60, deadline=None)
@given(cases(), st.sampled_from([-7, 7]))
def test_power_of_two_scaling_scales_the_strict_slacks_and_bounds_exactly(case, k):
    M, tol = case
    s = math.ldexp(1.0, k)
    scaled_M = LabeledMatrix(M.labels, M.entries * s)
    scaled_tol = ToleranceConfig(tol.eps_ineq * s, tol.eps_eq * s, tol.eps_strict * s)
    got, scaled = strict_checks(M, tol), strict_checks(scaled_M, scaled_tol)
    for ty, v in got.items():
        w = scaled[ty]
        assert (v.status, v.count_checked, v.count_violations) == \
            (w.status, w.count_checked, w.count_violations), ty
        assert (None if v.min_slack is None else v.min_slack * s) == w.min_slack, ty
        assert [(u.x, u.y) for u in v.witnesses] == [(u.x, u.y) for u in w.witnesses], ty
        assert witness_set(v, scale=s) == witness_set(w), ty
    got, scaled = bounds(M, tol), bounds(scaled_M, scaled_tol)
    for ty, b in got.items():
        want = [(x, iv.lo * s, iv.hi * s, iv.nonempty, member) for x, iv, member in b]
        have = [(x, iv.lo, iv.hi, iv.nonempty, member) for x, iv, member in scaled[ty]]
        assert want == have, ty
