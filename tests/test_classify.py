import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protometrics import (
    REPORT_FLAGS,
    InequalityType,
    LabeledMatrix,
    Status,
    auto_labels,
    check_triangle,
    classify,
)

from oracles import additive_scan, strict_scan

PATH = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
HDIFF = [[0.0, -1.0, -3.0], [1.0, 0.0, -2.0], [3.0, 2.0, 0.0]]


def lm(rows, labels=None):
    return LabeledMatrix(labels or auto_labels(len(rows)), rows)


def square_matrices(max_n=4):
    cell = st.floats(-5, 5, allow_nan=False, allow_infinity=False, width=32)
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def test_report_flag_order():
    r = classify(lm(PATH))
    assert tuple(r.flags.keys()) == REPORT_FLAGS
    assert len(REPORT_FLAGS) == 21


def test_path_metric_flags():
    f = classify(lm(PATH)).flags
    for name in (
        "symmetric", "nonnegative", "zero_diagonal", "identity_of_indiscernibles",
        "triangle_o", "triangle_i", "triangle_t", "triangle_c",
        "prequad_o", "prequad_i", "prequad_t", "prequad_c",
        "strict_protometric", "difference_protometric", "quasi_semi_metric",
        "semi_metric", "metric", "symmetric_protometric",
        "weak_partial_pseudo_metric",
    ):
        assert f[name], name
    assert not f["zero_protometric"]
    assert not f["potential_difference"]


def test_hdiff_flags():
    f = classify(lm(HDIFF)).flags
    assert f["triangle_t"] and f["prequad_t"]
    assert not f["triangle_o"] and not f["prequad_o"]
    assert f["zero_diagonal"] and f["difference_protometric"]
    assert f["zero_protometric"]
    assert f["potential_difference"]
    assert not f["nonnegative"]
    assert not f["quasi_semi_metric"]
    assert not f["symmetric"]
    # antisymmetry makes every degenerate pair an equality, never strict
    assert not f["strict_protometric"]


def test_symmetric_protometric_with_diagonal():
    f = classify(lm([[1.0, 3.0], [3.0, 2.0]])).flags
    assert f["symmetric_protometric"]
    assert f["weak_partial_pseudo_metric"]
    assert f["strict_protometric"]
    assert not f["metric"]
    assert not f["zero_diagonal"]
    assert not f["zero_protometric"]


def test_negative_diagonal_blocks_weak_partial_pseudo_metric():
    f = classify(lm([[-2.0, 0.0], [0.0, -2.0]])).flags
    assert f["symmetric_protometric"]
    assert not f["weak_partial_pseudo_metric"]


def test_zero_matrix_flags():
    f = classify(lm(np.zeros((3, 3)))).flags
    assert f["zero_protometric"]
    assert f["quasi_semi_metric"] and f["semi_metric"]
    assert not f["identity_of_indiscernibles"]
    assert not f["metric"]
    assert not f["strict_protometric"]


def test_single_point_flags():
    f = classify(lm([[0.0]])).flags
    assert all(f.values())
    g = classify(lm([[5.0]])).flags
    assert g["strict_protometric"]  # vacuous
    assert g["zero_protometric"]
    assert not g["zero_diagonal"]
    assert not g["metric"]
    assert not g["potential_difference"]  # d(x,x) = 5 is not h(x) - h(x)


def test_classify_carries_verdicts():
    r = classify(lm(HDIFF))
    assert r.triangle[InequalityType.OUTGOING].status is Status.FAIL
    assert r.triangle[InequalityType.TRANSITIVE].status is Status.PASS
    assert r.prequadrangle[InequalityType.TRANSITIVE].min_slack == 0.0
    assert r.strictness.status is Status.FAIL
    capped = classify(lm(HDIFF), max_witnesses=1)
    assert len(capped.triangle[InequalityType.OUTGOING].witnesses) == 1
    assert (
        capped.triangle[InequalityType.OUTGOING].count_violations
        == r.triangle[InequalityType.OUTGOING].count_violations
    )


def test_classify_is_permutation_invariant():
    for rows in (PATH, HDIFF, [[1.0, 3.0], [3.0, 2.0]]):
        m = lm(rows)
        perm = tuple(reversed(m.labels))
        assert classify(m).flags == classify(m.reordered(perm)).flags


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_flag_definitions_and_chain(rows):
    m = lm(rows)
    E = m.entries.tolist()
    n = m.n
    r = classify(m)
    f = r.flags

    # taxonomy flags restate the verdicts
    for ty in InequalityType:
        assert f[f"triangle_{ty.value}"] == (r.triangle[ty].status is Status.PASS)
        assert f[f"prequad_{ty.value}"] == (r.prequadrangle[ty].status is Status.PASS)
        assert f[f"triangle_{ty.value}"] == (not additive_scan(E, ty.value, False)[0])
        assert f[f"prequad_{ty.value}"] == (not additive_scan(E, ty.value, True)[0])

    # derived flags against their definitions
    assert f["strict_protometric"] == (f["prequad_t"] and not strict_scan(E, "t"))
    zero_proto = all(
        abs(E[x][y] + E[y][x] - E[x][x] - E[y][y]) <= 1e-9
        for x in range(n)
        for y in range(n)
    )
    assert f["zero_protometric"] == zero_proto
    assert f["difference_protometric"] == (f["prequad_t"] and f["zero_diagonal"])
    assert f["quasi_semi_metric"] == (f["difference_protometric"] and f["nonnegative"])
    assert f["semi_metric"] == (f["quasi_semi_metric"] and f["symmetric"])
    assert f["metric"] == (f["semi_metric"] and f["identity_of_indiscernibles"])
    assert f["symmetric_protometric"] == all(
        f[f"prequad_{ty.value}"] for ty in InequalityType
    )
    assert f["weak_partial_pseudo_metric"] == (
        f["symmetric_protometric"] and min(E[x][x] for x in range(n)) >= -1e-9
    )
    h = [E[x][0] for x in range(n)]
    pot = all(
        abs(E[x][y] - (h[x] - h[y])) <= 1e-9 for x in range(n) for y in range(n)
    )
    assert f["potential_difference"] == pot


@settings(max_examples=60, deadline=None)
@given(square_matrices(max_n=3), st.integers(0, 5))
def test_flags_invariant_under_relabeling(rows, salt):
    m = lm(rows)
    order = list(m.labels)
    rng = np.random.default_rng(salt)
    rng.shuffle(order)
    assert classify(m).flags == classify(m.reordered(tuple(order))).flags


@pytest.mark.blas
def test_zero_sign_of_a_minimum_slack_is_dropped():
    # The only zero type-t triangle slack is at (x, y, z) = (x1, x2, x3):
    # d(y,x) + d(x,z) - d(y,z) = (-0.0 + -0.0) - 0.0 = -0.0. Every other slack
    # is positive. A verdict reports that zero as 0.0.
    rows = [[1.0, 2.0, -0.0], [-0.0, 1.0, 0.0], [2.0, 3.0, 1.0]]
    _, want = additive_scan(rows, "t", prequad=False)
    assert repr(want) == "-0.0"
    for got in (classify(lm(rows)).triangle[InequalityType.TRANSITIVE],
                check_triangle(lm(rows), "t")):
        assert got.status is Status.PASS
        assert repr(got.min_slack) == "0.0"
