"""Transform preconditions agree with the classify flags they need."""

import io
import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protometrics import (
    GenSpec,
    InequalityType,
    LabeledMatrix,
    PreconditionError,
    Status,
    ToleranceConfig,
    TransitivityError,
    auto_labels,
    checks,
    classify,
    compose,
    decompose,
    farris_transform,
    gen_metric,
    gen_protometric,
    gen_quasi_semi_metric,
    gen_zero_protometric,
    gromov_product,
    metrize,
    min_farris_constant,
    potential_of,
    specialization_preorder,
    transforms,
    zero_coordinates,
)
from protometrics.cli import main

from oracles import additive_scan

# Within eps_ineq = 1e-3 of nonnegative, with distinct points at nonzero distance.
NEAR_METRIC = LabeledMatrix(
    ("a", "b", "c"), [[0.0, -1e-4, 1.0], [-1e-4, 0.0, 1.0], [1.0, 1.0, 0.0]]
)
NEAR_METRIC_CSV = ",a,b,c\na,0,-1e-4,1\nb,-1e-4,0,1\nc,1,1,0\n"
# Passes the type-t triangle inequality, and its diagonal is zero within
# eps_eq = 1e-3, but the type-t pre-quadrangle inequality fails at x = x2.
OFF_DIAGONAL = LabeledMatrix(
    auto_labels(3), [[0.0, 1.0, 1.9998], [1.0, 5e-4, 1.0], [1.9998, 1.0, 0.0]]
)
OFF_DIAGONAL_CSV = "0,1,1.9998\n1,5e-4,1\n1.9998,1,0\n"

# Each guarded transform, called as fn(M, tol), and the classify flag it needs.
GUARDED = {
    "metrize": (lambda M, tol: metrize(M, 1.0, tol), "prequad_t"),
    "decompose": (decompose, "prequad_t"),
    "compose": (lambda M, tol: compose(M, dict.fromkeys(M.labels, 0.0), tol),
                "difference_protometric"),
    "preorder": (specialization_preorder, "quasi_semi_metric"),
    "gromov": (lambda M, tol: gromov_product(M, M.labels[0], tol), "metric"),
    "farris": (lambda M, tol: farris_transform(M, M.labels[0], 5.0, tol), "metric"),
    "minfarris": (lambda M, tol: min_farris_constant(M, M.labels[0], tol), "metric"),
    "potential": (potential_of, "potential_difference"),
    "zerocoords": (zero_coordinates, "zero_protometric"),
}


def rejection(fn, M, tol):
    """The PreconditionError fn raises on M, or None; TransitivityError counts as none."""
    try:
        fn(M, tol)
    except TransitivityError:
        return None
    except PreconditionError as e:
        return e
    return None


def run_cli(capsys, monkeypatch, argv, stdin):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    return code, capsys.readouterr().out


def test_metric_flag_and_gromov_agree_within_eps_ineq(capsys, monkeypatch):
    tol = ToleranceConfig(eps_ineq=1e-3)
    assert classify(NEAR_METRIC, tol).metric
    g = gromov_product(NEAR_METRIC, "a", tol)
    assert g.entries[2, 2] == 1.0

    code, out = run_cli(capsys, monkeypatch,
                        ["classify", "--format", "text", "--tolerance-ineq", "1e-3"],
                        NEAR_METRIC_CSV)
    assert code == 0
    assert "metric                      yes" in out.splitlines()
    code, out = run_cli(capsys, monkeypatch,
                        ["transform", "gromov", "--base-label", "a", "--tolerance-ineq", "1e-3"],
                        NEAR_METRIC_CSV)
    assert code == 0
    assert out.splitlines()[0] == ",a,b,c"


def test_prequad_flag_and_transforms_agree_within_eps_eq(capsys, monkeypatch, tmp_path):
    tol = ToleranceConfig(eps_eq=1e-3)
    flags = classify(OFF_DIAGONAL, tol).flags
    assert flags["triangle_t"] and flags["zero_diagonal"]
    assert not (flags["prequad_t"] or flags["difference_protometric"]
                or flags["quasi_semi_metric"] or flags["metric"])
    for name in ("compose", "preorder", "gromov"):
        fn, flag = GUARDED[name]
        with pytest.raises(PreconditionError, match=f"needs {flag}, but prequad_t fails") as ei:
            fn(OFF_DIAGONAL, tol)
        assert (ei.value.witness.x, ei.value.witness.y, ei.value.witness.z) == ("x2", "x1", "x3")

    gauge = tmp_path / "f.csv"
    gauge.write_text("x1,0\nx2,0\nx3,0\n")
    for argv in (["transform", "compose", "--f-file", str(gauge)],
                 ["transform", "preorder"],
                 ["transform", "gromov", "--base-label", "x1"]):
        code, out = run_cli(capsys, monkeypatch, argv + ["--tolerance-eq", "1e-3"],
                            OFF_DIAGONAL_CSV)
        assert (code, out) == (1, ""), argv


VALUES = [0.0, 0.0, 0.0, 1.0, 2.0, 3.0, -1.0, 5e-4, -1e-4, 1.9998, 1e-3]
EPS = [0.0, 1e-9, 1e-3, 0.5]


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 4))
    cells = draw(st.lists(st.sampled_from(VALUES), min_size=n * n, max_size=n * n))
    E = np.array(cells).reshape(n, n)
    if draw(st.booleans()):
        E = np.maximum(E, E.T)
    if draw(st.booleans()):
        np.fill_diagonal(E, 0.0)
    return LabeledMatrix(auto_labels(n), E)


tolerances = st.builds(
    ToleranceConfig, st.sampled_from(EPS), st.sampled_from(EPS), st.sampled_from(EPS)
)


@settings(max_examples=400, deadline=None)
@given(matrices(), tolerances)
def test_guarded_transforms_reject_exactly_when_their_flag_is_false(M, tol):
    flags = classify(M, tol).flags
    for name, (fn, flag) in GUARDED.items():
        err = rejection(fn, M, tol)
        if name == "zerocoords" and flags[flag]:
            continue  # may still reject when the entries are not separable
        assert (err is not None) == (not flags[flag]), name
        if err is not None:
            assert f"needs {flag}, but " in str(err)
            assert err.witness is not None


@pytest.fixture()
def scans(monkeypatch):
    """The (type, with_self_term) pairs of each additive scan run since the list was cleared."""
    calls = []
    real = checks._scan

    def counted(M, tol, kinds, max_witnesses, **options):
        calls.append(list(kinds))
        return real(M, tol, kinds, max_witnesses, **options)

    monkeypatch.setattr(checks, "_scan", counted)
    monkeypatch.setattr(sys.modules["protometrics.classify"], "_scan", counted)
    return calls


def test_classify_scans_each_slab_once(scans):
    M = gen_protometric(GenSpec(6, 1))
    scans.clear()
    classify(M)
    assert len(scans) == 1 and len(scans[0]) == 8
    assert set(scans[0]) == {(ty, self_term) for ty in InequalityType for self_term in (False, True)}


def count_calls(monkeypatch, name):
    """A list that grows by one at each call of np.<name> from checks."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return getattr(np, name)(*args, **kwargs)

    class CountingNumpy(types.ModuleType):
        def __getattr__(self, attr):
            return counted if attr == name else getattr(np, attr)

    monkeypatch.setattr(checks, "np", CountingNumpy("numpy"))
    return calls


def test_classify_builds_one_slab_per_point_of_a_symmetric_matrix(monkeypatch):
    # Each slab is one BLAS product, the only np.matmul call classify makes.
    built = count_calls(monkeypatch, "matmul")
    n = 12
    for M, per_point in ((gen_metric(GenSpec(n, 5)), 1), (gen_quasi_semi_metric(GenSpec(n, 5)), 4)):
        built.clear()
        classify(M)
        assert len(built) == per_point * n


def test_the_farris_pass_builds_no_mask(monkeypatch):
    # Each violation mask is counted by one np.count_nonzero call.
    d = gen_metric(GenSpec(12, 5))
    minus_g = LabeledMatrix(d.labels, -gromov_product(d, d.labels[0]).entries)
    masks = count_calls(monkeypatch, "count_nonzero")
    assert checks.check_triangle(minus_g, "o").status is Status.FAIL and masks
    masks.clear()
    min_farris_constant(d, d.labels[0])
    assert masks == []


def test_a_passing_transition_check_skips_its_masks_only_above_its_floor(monkeypatch):
    n = 12
    # 2**-|x - y| passes exactly: every product is a power of two.
    s = LabeledMatrix(auto_labels(n), [[2.0 ** -abs(x - y) for y in range(n)] for x in range(n)])
    masks = count_calls(monkeypatch, "count_nonzero")
    searches = []
    real = checks._leading_hits
    monkeypatch.setattr(checks, "_leading_hits",
                        lambda mask, room: searches.append(room) or real(mask, room))

    def built(M, eps_ineq=1e-9):
        masks.clear()
        assert checks.check_transition(M, ToleranceConfig(eps_ineq=eps_ineq)).status is Status.PASS
        return len(masks)

    assert built(s) == 0
    # At eps_ineq = 0 no floor applies, so every x builds its mask. The floor
    # applies from eps_ineq = 2**-40 up.
    assert built(s, 0.0) == n
    assert built(s, 2.0**-40) == 0
    assert built(s, math.nextafter(2.0**-40, 0.0)) == n
    # A least slack exactly at the floor -eps_ineq/2 is not above it: with
    # c = 1 - 2**-31, both x have the slack c - 1 = -2**-31 at eps_ineq = 2**-30.
    c = 1.0 - 2.0**-31
    assert built(LabeledMatrix(auto_labels(2), [[1.0, 1.0], [1.0, c]]), 2.0**-30) == 2
    # Only a strict sign makes an x signed. Each x below has a least slack of
    # 0 and every rhs >= 0: x1 has d(x,x) = 0 beside a negative or a positive
    # entry, x2 a negative d(x,x) beside a greatest entry of 0 or a positive
    # d(x,x) beside a least entry of 0.
    assert built(LabeledMatrix(auto_labels(2), [[0.0, 0.0], [0.0, -1.0]])) == 0
    assert built(LabeledMatrix(auto_labels(2), [[0.0, 0.0], [0.0, 1.0]])) == 0
    # A signed x, d(x,x) > 0 beside a negative entry, builds its mask; none
    # holds, so no witness search runs.
    assert built(LabeledMatrix(auto_labels(2), [[1.0, -1.0], [-1.0, 1.0]])) == 2
    assert searches == []


def test_a_failing_scan_finds_each_threshold_once_per_failing_point(monkeypatch):
    # The pre-quadrangle threshold of an x is found at its first failing
    # pre-quadrangle pair and reused by the others. The triangle forms' bound,
    # ineq_threshold(0), is found once per scan, before the first x.
    n = 6
    E = np.random.default_rng(3).random((n, n))
    np.fill_diagonal(E, np.arange(1, n + 1) / 4)  # distinct, so d(x,x) names x
    M = LabeledMatrix(auto_labels(n), E)
    failing = [{x for x, _, _ in additive_scan(E.tolist(), ty, True)[0]} for ty in "oitc"]
    per_point = [sum(x in f for f in failing) for x in range(n)]
    assert max(per_point) > 1  # some x fails for more than one type
    found = []
    real = ToleranceConfig.ineq_threshold
    monkeypatch.setattr(ToleranceConfig, "ineq_threshold",
                        lambda self, d: found.append(d) or real(self, d))
    classify(M)
    assert found == [0.0] + [E[x, x] for x in range(n) if per_point[x]]
    found.clear()
    assert checks.check_triangle(M, "o").status is Status.FAIL
    assert found == [0.0]


def test_the_float32_certificate_refuses_an_off_grid_row_0_before_its_grid_pass(monkeypatch):
    # 0.1 is not a float32. In row 0 it refuses E before the n**2 snap, one np.add.
    snaps = count_calls(monkeypatch, "add")
    E = np.zeros((4, 4))
    E[0, 1] = 0.1
    assert checks._exact_float32(E) is None
    assert snaps == []
    assert checks._exact_float32(E.T.copy()) is None
    assert len(snaps) == 1


def test_a_scan_compares_rows_with_columns_only_for_more_than_one_type(monkeypatch):
    # The row-column comparison, an n**2 pass, finds where two types may share
    # a slab; a scan of one type has nothing to share.
    compared = []

    class Spy(np.ndarray):
        def __eq__(self, other):
            compared.append(1)
            return np.asarray(self) == other

    real = checks._exact_float32
    monkeypatch.setattr(checks, "_exact_float32", lambda E: real(E).view(Spy))
    M = LabeledMatrix(auto_labels(4), np.arange(16.0).reshape(4, 4))  # certified
    for ty in "oitc":
        checks.check_triangle(M, ty)
        checks.check_prequadrangle(M, ty)
    assert compared == []
    classify(M)
    assert len(compared) == 1


def test_guarded_transforms_scan_at_most_once(scans):
    spec = GenSpec(6, 2)
    accepted = {
        "metrize": gen_protometric(spec),
        "decompose": gen_protometric(spec),
        "compose": gen_quasi_semi_metric(spec),
        "preorder": gen_quasi_semi_metric(spec),
        "gromov": gen_metric(spec),
        "farris": gen_metric(spec),
        "minfarris": gen_metric(spec),
        "potential": LabeledMatrix(auto_labels(3), [[0.0, -1.0, -3.0], [1.0, 0.0, -2.0],
                                                    [3.0, 2.0, 0.0]]),
        "zerocoords": gen_zero_protometric(spec),
    }
    for name, M in accepted.items():
        fn, flag = GUARDED[name]
        scans.clear()
        fn(M, ToleranceConfig())
        pair_only = flag in ("potential_difference", "zero_protometric")
        # After its precondition, minfarris runs the type-o triangle scan of -G.
        farris = [[(InequalityType.OUTGOING, False)]] if name == "minfarris" else []
        assert len(scans) == (0 if pair_only else 1) + len(farris), name
        assert all(len(kinds) == 1 for kinds in scans), name
        assert scans[1:] == farris, name


def test_reject_on_a_pair_flag_scans_nothing(scans):
    asymmetric = gen_quasi_semi_metric(GenSpec(6, 3))
    nonzero_diagonal = gen_protometric(GenSpec(6, 3))
    tol = ToleranceConfig()
    scans.clear()
    for name in ("gromov", "farris", "minfarris"):
        assert rejection(GUARDED[name][0], asymmetric, tol) is not None
    for name in ("compose", "preorder", "potential", "zerocoords"):
        assert rejection(GUARDED[name][0], nonzero_diagonal, tol) is not None
    assert scans == []


def test_rejection_at_the_first_x_scans_one_slab(monkeypatch):
    n = 30
    E = gen_protometric(GenSpec(n, 4)).entries.copy()
    E[1, 2] += 100.0  # breaks the type-t pre-quadrangle inequality at x = x1
    M = LabeledMatrix(auto_labels(n), E)
    w = checks.first_violation(checks.check_prequadrangle(M, "t", max_witnesses=1))
    verdicts = []
    real = transforms.check_prequadrangle

    def recorded(*args, **kwargs):
        verdicts.append(real(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(transforms, "check_prequadrangle", recorded)
    with pytest.raises(PreconditionError) as ei:
        metrize(M, 1.0)
    assert [v.count_checked for v in verdicts] == [n * n]
    assert ei.value.witness == w
    assert str(ei.value) == (
        f"metrize needs prequad_t, but prequad_t fails at (x={w.x!r}, y={w.y!r}, z={w.z!r}): "
        f"lhs={w.lhs!r}, rhs={w.rhs!r}"
    )
    # Every other caller still scans all triples.
    assert checks.check_prequadrangle(M, "t").count_checked == n**3
    assert classify(M).prequadrangle[InequalityType.TRANSITIVE].count_checked == n**3
