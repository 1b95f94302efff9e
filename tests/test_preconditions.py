"""Transform preconditions agree with the classify flags they need."""

import io
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protometrics import (
    GenSpec,
    LabeledMatrix,
    PreconditionError,
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
    zero_coordinates,
)
from protometrics.cli import main

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
    """Inequality types of the n^3 additive scans run since the list was last cleared."""
    calls = []
    real = checks._additive_check

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(checks, "_additive_check", counted)
    return calls


def test_classify_scans_each_slab_once(scans):
    M = gen_protometric(GenSpec(6, 1))
    scans.clear()
    classify(M)
    assert len(scans) == 8


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
        assert len(scans) == (0 if pair_only else 1), name


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
