import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protometrics import (
    GenSpec,
    InequalityType,
    InputError,
    LabeledMatrix,
    Status,
    ToleranceConfig,
    auto_labels,
    check_prequadrangle,
    check_strict,
    check_transition,
    check_triangle,
    checks,
    classify,
    diagonal_bounds,
    gen_protometric,
    perturb_violation,
)

from certificate import certificate_paths
from oracles import (
    LHS,
    additive_scan,
    diagonal_bounds_scan,
    strict_scan,
    transition_scan,
)

PATH = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
# antisymmetric difference matrix of the potential h = (0, 1, 3)
HDIFF = [[0.0, -1.0, -3.0], [1.0, 0.0, -2.0], [3.0, 2.0, 0.0]]


def lm(rows):
    return LabeledMatrix(auto_labels(len(rows)), rows)


def square_matrices(max_n=4):
    cell = st.floats(-5, 5, allow_nan=False, allow_infinity=False, width=32)
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


@pytest.mark.parametrize("ty", ["o", "i", "t", "c"])
def test_path_metric_passes_everything(ty):
    m = lm(PATH)
    for fn in (check_triangle, check_prequadrangle):
        v = fn(m, ty)
        assert v.status is Status.PASS
        assert v.count_checked == 27
        assert v.count_violations == 0
        assert v.witnesses == ()
        assert v.min_slack == 0.0  # tight at degenerate triples


def test_hdiff_type_t_is_equality():
    v = check_triangle(lm(HDIFF), "t")
    assert v.status is Status.PASS
    assert v.min_slack == 0.0
    vq = check_prequadrangle(lm(HDIFF), "t")
    assert vq.status is Status.PASS
    assert vq.min_slack == 0.0


def test_hdiff_type_o_fails_with_ordered_witnesses():
    v = check_triangle(lm(HDIFF), "o")
    bad, min_slack = additive_scan(HDIFF, "o", prequad=False)
    assert v.status is Status.FAIL
    assert v.count_violations == len(bad)
    assert v.min_slack == min_slack

    first = v.witnesses[0]
    assert (first.x, first.y, first.z) == ("x1", "x2", "x1")
    assert first.lhs == -1.0
    assert first.rhs == 1.0
    assert first.deficit == 2.0
    # the (x1, x3, x3) violation with lhs -6 sits later in row-major order
    tagged = [(w.x, w.y, w.z, w.lhs, w.rhs) for w in v.witnesses]
    assert ("x1", "x3", "x3", -6.0, 0.0) in tagged
    assert bad.index((0, 2, 2)) == 5

    idx = {lab: k for k, lab in enumerate(("x1", "x2", "x3"))}
    got = [(idx[w.x], idx[w.y], idx[w.z]) for w in v.witnesses]
    assert got == bad[: len(got)]
    assert got == sorted(got)


def test_separable_matrix_is_prequad_equality_all_types():
    f = (1.0, 2.0, 3.0)
    p = lm([[a + b for b in f] for a in f])
    for ty in "oitc":
        v = check_prequadrangle(p, ty)
        assert v.status is Status.PASS
        assert v.min_slack == 0.0


def test_constant_matrix_prequad():
    p = lm(np.full((3, 3), 5.0))
    for ty in "oitc":
        assert check_prequadrangle(p, ty).status is Status.PASS


def test_triangle_tolerance_is_absolute():
    d = [[0.0, 1.0, 2.0 + 1e-7], [1.0, 0.0, 1.0], [2.0 + 1e-7, 1.0, 0.0]]
    m = lm(d)
    assert check_triangle(m, "t").status is Status.FAIL
    loose = ToleranceConfig(eps_ineq=1e-6)
    assert check_triangle(m, "t", tol=loose).status is Status.PASS


def test_witness_cap_truncates_but_counts_all():
    m = lm(HDIFF)
    bad, _ = additive_scan(HDIFF, "o", prequad=False)
    assert len(bad) > 3
    v = check_triangle(m, "o", max_witnesses=3)
    assert len(v.witnesses) == 3
    assert v.count_violations == len(bad)
    full = check_triangle(m, "o", max_witnesses=len(bad) + 10)
    assert len(full.witnesses) == len(bad)


def test_witness_cap_must_be_positive():
    m = lm(PATH)
    for fn in (check_triangle, check_prequadrangle):
        with pytest.raises(InputError, match="max_witnesses"):
            fn(m, "t", max_witnesses=0)
    with pytest.raises(InputError, match="max_witnesses"):
        check_strict(m, "t", max_witnesses=-1)
    with pytest.raises(InputError, match="max_witnesses"):
        check_transition(m, max_witnesses=0)


def test_strict_examples():
    assert check_strict(lm([[0.0, 1.0], [1.0, 0.0]]), "t").status is Status.PASS
    assert check_strict(lm([[1.0, 3.0], [3.0, 2.0]]), "t").status is Status.PASS
    v = check_strict(lm(np.zeros((2, 2))), "t")
    assert v.status is Status.FAIL
    assert v.count_checked == 2
    assert v.count_violations == 2
    assert all(w.z == w.y and w.y != w.x for w in v.witnesses)


@pytest.mark.blas
def test_zero_sign_of_a_strict_deficit_is_dropped():
    # Each slack is 0.0 - 0.0 = 0.0, whose negation is -0.0.
    v = check_strict(lm(np.zeros((2, 2))), "t")
    assert [repr(w.deficit) for w in v.witnesses] == ["0.0", "0.0"]


def test_strict_single_point_is_vacuous():
    v = check_strict(lm([[7.0]]), "t")
    assert v.status is Status.PASS
    assert v.count_checked == 0
    assert v.min_slack is None


@pytest.mark.parametrize("ty", ["o", "i", "t", "c"])
def test_strict_boundary_is_a_failure(ty):
    # slack exactly eps_strict must not count as strict
    p = lm([[0.0, 5e-10], [5e-10, 0.0]])
    assert check_strict(p, ty).status is Status.FAIL
    q = lm([[0.0, 1.0], [1.0, 0.0]])
    assert check_strict(q, ty).status is Status.PASS


def test_strict_nan_slack_is_a_failure():
    # Both sides overflow, 2e308 to inf, so the slack is inf - inf = NaN. The
    # exact slack is 0, which is not strict, and a NaN must not pass.
    m = lm(np.full((2, 2), 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        v = check_strict(m, "t")
        report = classify(m)
    assert v.status is Status.FAIL and v.count_violations == 2
    assert math.isnan(v.min_slack)
    assert report.prequad_t and not report.strict_protometric


def test_transition_equality_cases():
    ones = lm(np.ones((3, 3)))
    v = check_transition(ones)
    assert v.status is Status.PASS
    assert v.count_checked == 27
    f = np.array([0.0, 1.0, 2.0])
    sep = lm(np.exp(-(f[:, None] + f[None, :])))
    assert check_transition(sep).status is Status.PASS


def test_transition_failure():
    s = lm([[1.0, 2.0], [2.0, 1.0]])
    v = check_transition(s)
    assert v.status is Status.FAIL
    assert transition_scan([[1.0, 2.0], [2.0, 1.0]])
    w = v.witnesses[0]
    assert w.lhs == 4.0
    assert w.rhs == 1.0


def test_transition_negative_right_side_can_fail_at_nonnegative_slack():
    # At (x, y, z) = (x1, x2, x1) both sides are 1 * -2 = -2, so every slack
    # is >= 0, yet with eps 0.5 the tolerant bound -2 * 1.5 + 0.5 = -2.5 lies
    # below lhs.
    s = lm([[-2.0, -2.0], [1.0, 0.0]])
    v = check_transition(s, ToleranceConfig(eps_ineq=0.5))
    assert v.min_slack == 0.0
    assert v.status is Status.FAIL
    assert v.count_violations == len(transition_scan(s.entries.tolist(), eps=0.5)) == 1
    assert (v.witnesses[0].x, v.witnesses[0].y, v.witnesses[0].z) == ("x1", "x2", "x1")


def test_transition_nan_slack_does_not_hide_a_failure():
    # At x = x1 the triple (x2, x2) gives inf - inf = NaN, which hides the
    # slab minimum; the triple (x1, x2) still fails, and (x2, x1) at x = x2.
    s = lm([[1.0, 2.0], [1e308, 1e308]])
    with np.errstate(over="ignore", invalid="ignore"):
        v = check_transition(s, max_witnesses=10)
    bad = transition_scan(s.entries.tolist())
    assert v.count_violations == len(bad) == 2
    idx = {lab: k for k, lab in enumerate(s.labels)}
    assert [(idx[w.x], idx[w.y], idx[w.z]) for w in v.witnesses] == bad


def test_transition_counts_a_violation_just_past_the_tolerance():
    # s(x2,x1) * s(x1,x2) = 1 + 2.5e-9 against s(x2,x2) * s(x1,x1) = 1: the
    # tolerant bound is 1 + 2e-9, so the triple fails by about half of eps.
    s = lm([[1.0, 1.0 + 2.5e-9], [1.0, 1.0]])
    v = check_transition(s)
    assert v.count_violations == len(transition_scan(s.entries.tolist())) == 2
    assert -3e-9 < v.min_slack < -2e-9


def test_transition_not_applicable_for_log():
    s = lm([[1.0, 0.0], [1.0, 1.0]])
    v = check_transition(s, for_log_transform=True)
    assert v.status is Status.NOT_APPLICABLE
    assert v.count_checked == 0
    assert v.witnesses == ()
    # without the flag the zero entry is just a number
    assert check_transition(s).status in (Status.PASS, Status.FAIL)
    neg = lm([[1.0, -2.0], [1.0, 1.0]])
    assert check_transition(neg, for_log_transform=True).status is Status.NOT_APPLICABLE


@pytest.mark.parametrize("ty", ["o", "i", "t", "c"])
def test_diagonal_bounds_on_path_metric(ty):
    m = lm(PATH)
    want = diagonal_bounds_scan(PATH, ty)
    for x, iv, member in diagonal_bounds(m, ty):
        lo, hi = want[m.index(x)]
        assert iv.lo == lo
        assert iv.hi == hi
        assert member  # actual diagonal is 0, inside every interval here


def test_diagonal_bounds_membership_flag():
    # type t interval is [0, min pair sum]; a huge diagonal falls outside
    m = lm([[9.0, 1.0], [1.0, 9.0]])
    rows = diagonal_bounds(m, "t")
    assert [member for _, _, member in rows] == [False, False]
    assert rows[0][1].lo == 0.0
    assert rows[0][1].hi == 2.0


@settings(max_examples=80, deadline=None)
@given(square_matrices(), st.sampled_from("oitc"), st.booleans())
# At (x3, x2, x2) the slack (1 - 1) - 1e-9 passes; rounded as 1 - (1 + 1e-9) it would fail.
@example([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, float(np.float32(1e-9))]], "t", True)
def test_additive_checks_match_oracle(rows, ty, prequad):
    m = lm(rows)
    E = m.entries.tolist()
    fn = check_prequadrangle if prequad else check_triangle
    v = fn(m, ty, max_witnesses=m.n**3 + 1)
    bad, min_slack = additive_scan(E, ty, prequad)
    assert v.count_checked == m.n**3
    assert v.count_violations == len(bad)
    assert (v.status is Status.FAIL) == bool(bad)
    assert (v.status is Status.FAIL) == bool(v.witnesses)
    assert v.min_slack == min_slack  # both round each slack in the same order
    idx = {lab: k for k, lab in enumerate(m.labels)}
    assert [(idx[w.x], idx[w.y], idx[w.z]) for w in v.witnesses] == bad
    lhs = LHS[ty]
    for w in v.witnesses:
        x, y, z = idx[w.x], idx[w.y], idx[w.z]
        assert w.lhs == lhs(E, x, y, z)
        assert w.deficit == pytest.approx(w.rhs - w.lhs, abs=1e-12)
        assert w.deficit > 0


@settings(max_examples=80, deadline=None)
@given(square_matrices(), st.sampled_from("oitc"))
def test_strict_check_matches_oracle(rows, ty):
    m = lm(rows)
    v = check_strict(m, ty, max_witnesses=m.n**2 + 1)
    bad = strict_scan(m.entries.tolist(), ty)
    assert v.count_checked == m.n * (m.n - 1)
    assert v.count_violations == len(bad)
    assert (v.status is Status.FAIL) == bool(bad)
    idx = {lab: k for k, lab in enumerate(m.labels)}
    assert [(idx[w.x], idx[w.y]) for w in v.witnesses] == bad


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_transition_matches_oracle(rows):
    m = lm(rows)
    v = check_transition(m, max_witnesses=m.n**3 + 1)
    bad = transition_scan(m.entries.tolist())
    assert v.count_violations == len(bad)
    assert (v.status is Status.FAIL) == bool(bad)
    idx = {lab: k for k, lab in enumerate(m.labels)}
    assert [(idx[w.x], idx[w.y], idx[w.z]) for w in v.witnesses] == bad


EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 2.0, 1e308, -1e308, 1.7e308, 5e-324, -5e-324]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from(EDGE_VALUES) | st.floats(-3, 3), min_size=n, max_size=n),
    min_size=n, max_size=n)), st.sampled_from("oitc"),
    st.sampled_from([0.0, 5e-324, 1e-9, 1.0, 1e308, sys.float_info.max]))
@example([[0.0, 1e308], [-1e308, 0.0]], "o", 1e-9)  # the bounds [0, -inf] and [inf, 0]
@example([[1.7e308, -1e308], [1e308, 0.0]], "t", 1e-9)
def test_diagonal_bounds_match_oracle(rows, ty, eps):
    m = lm(rows)
    # with no warning where sums of +-1e308, or a bound widened by eps, overflow to +-inf
    got = diagonal_bounds(m, ty, ToleranceConfig(eps_eq=eps))
    want = diagonal_bounds_scan(m.entries.tolist(), ty)
    for (x, iv, member), (lo, hi), k in zip(got, want, range(m.n)):
        assert (x, iv.lo, iv.hi) == (m.labels[k], lo, hi)
        assert math.copysign(1.0, iv.lo) == math.copysign(1.0, lo)  # no -0.0
        assert math.copysign(1.0, iv.hi) == math.copysign(1.0, hi)
        assert iv.nonempty == (lo <= hi + eps)
        assert member == (lo - eps <= rows[k][k] <= hi + eps)


def ulps_around(v, k=3):
    """v and the k floats on either side of it."""
    out, lo, hi = [v], v, v
    for _ in range(k):
        lo, hi = float(np.nextafter(lo, -np.inf)), float(np.nextafter(hi, np.inf))
        out += [lo, hi]
    return out


@st.composite
def boundary_cases(draw):
    """A matrix and a tolerance whose slacks sit within a few ulps of -eps_ineq.

    Entries near +-1e308 make slabs overflow to +-inf. Half the matrices get
    a diagonal of 0.0 and -0.0, on which the triangle and pre-quadrangle
    checks of a type compare the same slacks. Half are symmetric, so the
    scan builds one slab for every type at each point; in some of those one
    mirrored entry is one bit away: -0.0 against 0.0, which still shares
    the slab, or an ulp apart, which does not.
    """
    eps = draw(st.sampled_from([0.0, 1e-9, 0.5]))
    pool = [s * v for v in ulps_around(eps) for s in (1.0, -1.0)]
    pool += [0.0, -0.0, 1.0, -1.0, 2.0, 1e308, -1e308, 1.7e308, -1.7e308]
    n = draw(st.integers(1, 4))
    cell = st.one_of(st.sampled_from(pool), st.floats(-3, 3, width=16))
    E = np.array(draw(st.lists(cell, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        E.T[upper] = E[upper]  # mirror the upper triangle
        if n > 1 and draw(st.booleans()):
            y, z = draw(st.sampled_from(np.argwhere(upper).tolist()))
            v = E[z, y]
            E[z, y] = -0.0 if v == 0 and not np.signbit(v) else np.nextafter(v, np.inf)
    if draw(st.booleans()):
        zeros = st.sampled_from([0.0, -0.0])
        np.fill_diagonal(E, draw(st.lists(zeros, min_size=n, max_size=n)))
    return lm(E), ToleranceConfig(eps_ineq=eps)


@settings(max_examples=300, deadline=None)
@given(boundary_cases(), st.integers(1, 3))
def test_classify_verdicts_equal_the_single_checks(case, cap):
    m, tol = case
    idx = {lab: k for k, lab in enumerate(m.labels)}
    with np.errstate(over="ignore", invalid="ignore"):
        report = classify(m, tol, max_witnesses=cap)
        for ty in InequalityType:
            for got, check in ((report.triangle[ty], check_triangle),
                               (report.prequadrangle[ty], check_prequadrangle)):
                want = check(m, ty, tol, max_witnesses=cap)
                assert repr(got) == repr(want)  # repr tells -0.0 from 0.0
                assert type(got.min_slack) is float
                assert len(got.witnesses) == min(cap, got.count_violations)
                at = [(idx[w.x], idx[w.y], idx[w.z]) for w in got.witnesses]
                assert at == sorted(set(at))  # row-major (x, y, z), c type included
            for prequad in (False, True):
                bad, _ = additive_scan(m.entries.tolist(), ty.value, prequad, tol.eps_ineq)
                got = (report.prequadrangle if prequad else report.triangle)[ty]
                assert [(idx[w.x], idx[w.y], idx[w.z]) for w in got.witnesses] == bad[:cap]
                assert got.count_violations == len(bad)


EDGE_VALUES = [s * v for v in (0.0, 5e-324, 1e-308, 1.0, 1e-9, 1e308, np.finfo(float).max)
               for s in (1.0, -1.0)]


@st.composite
def outer_sum_operands(draw, edges=EDGE_VALUES):
    """Two vectors of one length, of edge values and arbitrary finite floats."""
    n = draw(st.integers(1, 40))
    cell = st.one_of(st.sampled_from(edges), st.floats(allow_nan=False, allow_infinity=False))
    return [np.array(draw(st.lists(cell, min_size=n, max_size=n))) for _ in range(2)]


@pytest.mark.blas
@settings(max_examples=300, deadline=None)
@given(outer_sum_operands())
@example([np.array([-0.0, 0.0, -0.0, 1.0]), np.array([-0.0, -0.0, 0.0, -1.0])])
def test_outer_sum_is_the_broadcast_sum_bit_for_bit(operands):
    # Bit for bit once -0.0 is read as 0.0: a kernel may start its sum at +0.0.
    a, b = operands
    n = len(a)
    outer, out = checks._OuterSum(n), np.empty((n, n))
    with np.errstate(over="ignore"):
        # One helper serves many slabs, so a second call must not see the first.
        for a, b in ((a, b), (b, a)):
            outer(a, b, out)
            want = a[:, None] + b[None, :] + 0.0
            assert np.array_equal((out + 0.0).view(np.int64), want.view(np.int64))


def holds_negative_zero(verdict):
    floats = [f for w in verdict.witnesses for f in (w.lhs, w.rhs, w.deficit)]
    return any(math.copysign(1.0, f) < 0 and f == 0 for f in [verdict.min_slack, *floats]
               if f is not None)


@pytest.mark.blas
@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=n * n, max_size=n * n)),
    st.integers(1, 3))
@example([1.0, 2.0, -0.0, -0.0, 1.0, 0.0, 2.0, 3.0, 1.0], 1)
def test_zero_sign_never_reaches_a_verdict(cells, cap):
    # Every sum of these entries is exact, so the oracle's values are the scan's.
    n = math.isqrt(len(cells))
    rows = np.array(cells).reshape(n, n).tolist()
    m = lm(rows)
    report = classify(m, max_witnesses=cap)
    early = checks._scan(m, ToleranceConfig(), ALL_KINDS, cap, stop_at_first_failure=True)
    for ty in InequalityType:
        for prequad, check, got in ((False, check_triangle, report.triangle[ty]),
                                    (True, check_prequadrangle, report.prequadrangle[ty])):
            bad, least = additive_scan(rows, ty.value, prequad)
            assert repr(check(m, ty, max_witnesses=cap)) == repr(got)
            assert got.min_slack == least and not holds_negative_zero(got)
            assert got.count_violations == len(bad)
            assert [tuple(map(m.index, (w.x, w.y, w.z))) for w in got.witnesses] == bad[:cap]
    strict = report.strictness
    assert [(m.index(w.x), m.index(w.y)) for w in strict.witnesses] == strict_scan(rows, "t")[:cap]
    transition = check_transition(m, max_witnesses=cap)
    bad = transition_scan(rows)
    assert transition.count_violations == len(bad)
    assert [tuple(map(m.index, (w.x, w.y, w.z))) for w in transition.witnesses] == bad[:cap]
    for v in (strict, transition, *early):
        assert not holds_negative_zero(v)


@st.composite
def early_exit_cases(draw):
    """A matrix and a tolerance on which every sum is exact, so the oracle rounds alike.

    Generated protometrics are on a grid of 2**-20 below 2**6, perturbations
    add a dyadic magnitude, and unstructured matrices hold quarters.
    """
    n = draw(st.integers(1, 7))
    source = draw(st.sampled_from(["generated", "perturbed", "unstructured"]))
    if source == "unstructured":
        cells = st.integers(-12, 12).map(lambda k: k / 4)
        M = lm(np.array(draw(st.lists(cells, min_size=n * n, max_size=n * n))).reshape(n, n))
    else:
        ty = draw(st.sampled_from("oitc"))
        M = gen_protometric(GenSpec(n, draw(st.integers(0, 2**16)), 4.0), ty,
                            strict=draw(st.booleans()))
        if source == "perturbed" and n > 1:
            M = perturb_violation(M, ty, draw(st.sampled_from([2.0**-10, 0.5, 3.0])))
    return M, ToleranceConfig(eps_ineq=draw(st.sampled_from([0.0, 1e-9, 0.25])))


@settings(max_examples=300, deadline=None)
@given(early_exit_cases(), st.sampled_from(list(InequalityType)), st.integers(1, 3))
def test_early_exit_keeps_the_status_and_first_witness(case, ty, cap):
    M, tol = case
    full = check_prequadrangle(M, ty, tol, max_witnesses=cap)
    early = check_prequadrangle(M, ty, tol, max_witnesses=cap, stop_at_first_failure=True)
    assert early.status is full.status
    if full.status is Status.PASS:
        assert repr(early) == repr(full)
        return
    assert repr(early.witnesses[0]) == repr(full.witnesses[0])
    x = M.index(early.witnesses[0].x)
    assert early.count_checked == (x + 1) * M.n**2
    bad, _ = additive_scan(M.entries.tolist(), ty.value, True, tol.eps_ineq)
    at_x = [t for t in bad if t[0] == x]
    assert bad[0][0] == x
    assert early.count_violations == len(at_x)
    idx = {lab: k for k, lab in enumerate(M.labels)}
    assert [(idx[w.x], idx[w.y], idx[w.z]) for w in early.witnesses] == at_x[:cap]


@settings(max_examples=150, deadline=None)
@given(early_exit_cases(), st.integers(1, 3))
def test_early_exit_of_many_kinds_waits_for_every_kind_to_fail(case, cap):
    M, tol = case
    kinds = [(ty, self_term) for ty in InequalityType for self_term in (False, True)]
    full = checks._scan(M, tol, kinds, cap)
    early = checks._scan(M, tol, kinds, cap, stop_at_first_failure=True)
    failing = [M.index(v.witnesses[0].x) for v in full if v.status is Status.FAIL]
    scanned = max(failing) + 1 if len(failing) == len(kinds) else M.n
    for want, got in zip(full, early):
        assert got.status is want.status
        assert got.witnesses[:1] == want.witnesses[:1]
        assert got.count_checked == scanned * M.n**2
        if scanned == M.n:
            assert repr(got) == repr(want)


# Products that overflow, underflow to a signed zero or meet a -0.0 operand.
PRODUCT_EDGE_VALUES = [s * v for v in (0.0, 5e-324, 1e-200, 1e-160, 1.0, 1e154, 1e308)
                       for s in (1.0, -1.0)]


@pytest.mark.blas
@settings(max_examples=300, deadline=None)
@given(outer_sum_operands(PRODUCT_EDGE_VALUES))
@example([np.array([1e-200, -1e-200, -0.0, 0.0, 2.0]), np.array([-1e-160, 1e-160, 3.0, -3.0, -0.0])])
def test_transition_product_is_the_broadcast_product_bit_for_bit(operands):
    # Bit for bit once -0.0 is read as 0.0, as a zero product of opposite
    # signs is -0.0 and a kernel that adds it to +0.0 gives +0.0.
    a, b = operands
    n = len(a)
    out = np.empty((n, n))
    with np.errstate(over="ignore"):
        for a, b in ((a, b), (b, a)):
            checks._OuterSum(n, product=True)(a, b, out)
            want = a[:, None] * b[None, :] + 0.0
            assert np.array_equal((out + 0.0).view(np.int64), want.view(np.int64))


ALL_KINDS = [(ty, self_term) for ty in InequalityType for self_term in (False, True)]
MAX_UNITS = 2**24 // 3  # the largest |k| whose three-term slack fits the float32 significand


def slab_paths(force_float64=False):
    """The path each additive scan in the block took: True for float32 slabs."""
    return certificate_paths(checks, force_float64)


@st.composite
def float32_grid_cases(draw):
    """A matrix of integer multiples k * 2**j, |k| <= MAX_UNITS, and a tolerance.

    Every such matrix qualifies for float32 slabs. Half are symmetric. The
    tolerance is a fixed one or any float up to the largest slack.
    """
    n = draw(st.integers(1, 6))
    j = draw(st.integers(-100, 40))
    top = draw(st.sampled_from([1, 3, 1000, MAX_UNITS]))
    k = st.one_of(st.integers(-top, top), st.sampled_from([-top, 0, top]))
    E = np.array(draw(st.lists(k, min_size=n * n, max_size=n * n)), dtype=float).reshape(n, n)
    if draw(st.booleans()):
        E = np.triu(E) + np.triu(E, 1).T
    fixed = st.sampled_from([0.0, 1e-9, 0.5])
    eps = draw(st.one_of(fixed, st.floats(0, 3 * top).map(lambda v: math.ldexp(v, j))))
    return lm(np.ldexp(E, j)), ToleranceConfig(eps_ineq=eps)


@pytest.mark.blas
@settings(max_examples=300, deadline=None)
@given(float32_grid_cases(), st.integers(1, 3), st.booleans())
def test_float32_slabs_give_the_float64_verdicts(case, cap, stop):
    M, tol = case
    with slab_paths() as taken:
        got = checks._scan(M, tol, ALL_KINDS, cap, stop_at_first_failure=stop)
    with slab_paths(force_float64=True) as forced:
        want = checks._scan(M, tol, ALL_KINDS, cap, stop_at_first_failure=stop)
    # Every scan certifies E once, an early exit at x = 0 included.
    assert (taken, forced) == ([True], [False])
    assert [repr(v) for v in got] == [repr(v) for v in want]


@pytest.mark.blas
@pytest.mark.parametrize("j", [-126, -53, 0, 40])
def test_float32_slab_certificate_ends_at_3k_of_2_to_the_24(j):
    for top, qualifies in ((MAX_UNITS, True), (MAX_UNITS + 1, False)):
        # The odd entries keep the grid at 2**j, so one unit more than
        # MAX_UNITS leaves it with a three-term slack beyond 2**24 units.
        E = np.ldexp(np.array([[0.0, top, -1.0], [3.0, -top, 2.0], [top - 1.0, 1.0, 0.0]]), j)
        assert (checks._exact_float32(E) is not None) is qualifies
        with slab_paths() as taken:
            got = classify(lm(E), max_witnesses=3)
        with slab_paths(force_float64=True):
            want = classify(lm(E), max_witnesses=3)
        assert taken == [qualifies]
        assert repr(got) == repr(want)


@pytest.mark.blas
def test_float32_slab_certificate_needs_a_normal_unit_and_a_small_range():
    grid = np.array([[0.0, MAX_UNITS], [1.0, -MAX_UNITS]])
    assert checks._exact_float32(np.ldexp(grid, -126)) is not None
    assert checks._exact_float32(np.ldexp(grid, -127)) is None  # u = 2**-127 is subnormal
    assert checks._exact_float32(np.array([[0.0, 2.0**100]])) is not None
    assert checks._exact_float32(np.array([[0.0, 2.0**101]])) is None
    assert checks._exact_float32(np.zeros((3, 3))) is not None
    assert checks._exact_float32(np.array([[0.5, 0.1]])) is None  # 0.1 lies on no coarse grid
    # Off the grid below row 0: a float64 entry, then float32 entries too fine for u = 2**-2.
    assert checks._exact_float32(np.array([[0.0, 1.0], [0.1, 0.0]])) is None
    assert checks._exact_float32(np.array([[0.0, 2.0**20], [2.0**-20, 0.0]])) is None
    assert checks._exact_float32(np.array([[0.0, 2.0**20], [2.0**-2, 0.0]])) is not None


@pytest.mark.blas
def test_float32_slabs_take_negative_zero():
    # -0.0 lies on every grid, and the float32 copy holds 0.0 in its place.
    for E in (np.array([[0.0, 1.0], [-0.0, 2.0]]), np.full((2, 2), -0.0)):
        F = checks._exact_float32(E)
        assert F is not None and not np.signbit(F).any()
    # The float64 type-t slab at (x1, x2, x3) is (-0.0 + -0.0) - 0.0 = -0.0.
    E = np.array([[1.0, 2.0, -0.0], [-0.0, 1.0, 0.0], [2.0, 3.0, 1.0]])
    with slab_paths() as taken:
        got = checks._scan(lm(E), ToleranceConfig(), ALL_KINDS, 3)
    with slab_paths(force_float64=True):
        want = checks._scan(lm(E), ToleranceConfig(), ALL_KINDS, 3)
    assert taken == [True]
    assert [repr(v) for v in got] == [repr(v) for v in want]


@pytest.mark.blas
@pytest.mark.parametrize("prequad", [False, True])
def test_float32_slab_masks_keep_each_bound_exact(prequad):
    # On the 2**-53 grid the type-t slab at (x1, x2, x3) is s = -9007201 u, a
    # float32. eps_ineq puts the bound the slab is compared with, -eps_ineq or
    # ineq_threshold(d(x1, x1)), a quarter unit above s: the triple fails, yet
    # the bound rounded to the nearest float32 is s itself.
    u = 2.0**-53
    k = np.zeros((3, 3))
    k[1, 0] = k[0, 2] = -4503600
    k[1, 2] = 1
    k[0, 0] = prequad
    M = lm(k * u)
    s = -9007201 * u
    tol = ToleranceConfig(eps_ineq=(9007201 + prequad - 0.25) * u)
    bound = tol.ineq_threshold(float(M.entries[0, 0]))
    assert float(np.float32(bound)) == s < bound
    check = check_prequadrangle if prequad else check_triangle
    with slab_paths() as taken:
        v = check(M, "t", tol)
    assert taken == [True]
    bad, _ = additive_scan(M.entries.tolist(), "t", prequad, tol.eps_ineq)
    assert (0, 1, 2) in bad
    assert v.count_violations == len(bad)
    idx = {lab: i for i, lab in enumerate(M.labels)}
    assert [(idx[w.x], idx[w.y], idx[w.z]) for w in v.witnesses] == bad


@pytest.mark.blas
@pytest.mark.parametrize("ty", list(InequalityType))
def test_float32_scan_finds_a_failure_at_the_last_x(ty):
    # Points on a line: x1 at 0, x2 at 2, the last point at 1 and the others
    # far away. Raising d(x1, x2) by 1/2 breaks the type-t triangle only
    # through the last point, the one point strictly between x1 and x2.
    n = 7
    at = np.array([0.0, 2.0, *(10.0 * k for k in range(1, n - 2)), 1.0])
    E = np.abs(at[:, None] - at[None, :])
    E[0, 1] += 0.5
    M = lm(E)
    idx = {lab: k for k, lab in enumerate(M.labels)}
    for check, prequad in ((check_triangle, False), (check_prequadrangle, True)):
        bad, _ = additive_scan(E.tolist(), ty.value, prequad)
        options = [{}] if check is check_triangle else [{}, {"stop_at_first_failure": True}]
        for extra in options:
            with slab_paths() as taken:
                got = check(M, ty, max_witnesses=3, **extra)
            with slab_paths(force_float64=True):
                want = check(M, ty, max_witnesses=3, **extra)
            assert repr(got) == repr(want)
            scanned = [t for t in bad if t[0] == bad[0][0]] if extra and bad else bad
            assert taken == [True]
            assert [(idx[w.x], idx[w.y], idx[w.z]) for w in got.witnesses] == scanned[:3]
            assert got.count_violations == len(scanned)
            assert got.count_checked == (bad[0][0] + 1 if extra and bad else n) * n * n
    assert additive_scan(E.tolist(), "t", False)[0] == [(n - 1, 0, 1)]


@st.composite
def near_tight_positive_matrices(draw):
    """Positive matrices with entries up to 1e150 and eps near 2**-40.

    Half are f(y) g(z) for powers of two f and g, whose products are exact,
    so every triple is tight. One triple (x, y, z), y and z other than x,
    then has s(y, z) set so that s(y,x) s(x,z) exceeds s(y,z) s(x,x) (1 + eps)
    by about k eps, which fails the transition check just past the
    tolerance when k > 1.
    """
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        f, g = (np.ldexp(1.0, draw(st.lists(st.integers(-10, 10), min_size=n, max_size=n)))
                for _ in range(2))
        E = f[:, None] * g[None, :]
    else:
        mantissa = st.floats(1.0, 10.0, exclude_max=True)
        cell = st.builds(lambda m, p: m * 10.0**p, mantissa, st.integers(-150, 149))
        E = np.array(draw(st.lists(cell, min_size=n * n, max_size=n * n))).reshape(n, n)
    eps = math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), draw(st.integers(-41, -38)))
    x = draw(st.integers(0, n - 1))
    y, z = (draw(st.sampled_from([i for i in range(n) if i != x])) for _ in range(2))
    k = draw(st.sampled_from([0.5, 1.0, 1.0625, 1.125, 1.5, 3.0]))
    with np.errstate(over="ignore"):
        target = (E[y, x] * E[x, z] - k * eps) / E[x, x] / (1.0 + eps)
    if 0 < target < 1e150:
        E[y, z] = target
    return E, eps


@pytest.mark.blas
@settings(max_examples=300, deadline=None)
@given(near_tight_positive_matrices())
def test_transition_mask_skip_keeps_every_failure_of_a_positive_matrix(case):
    E, eps = case
    n = len(E)
    v = check_transition(lm(E), ToleranceConfig(eps_ineq=eps), max_witnesses=n**3 + 1)
    bad = transition_scan(E.tolist(), eps)
    assert v.count_violations == len(bad)
    idx = {lab: k for k, lab in enumerate(auto_labels(n))}
    assert [(idx[w.x], idx[w.y], idx[w.z]) for w in v.witnesses] == bad
