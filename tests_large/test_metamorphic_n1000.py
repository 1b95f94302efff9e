"""The exact metamorphic relations of tests/test_metamorphic.py at n = 1000.

At this size OpenBLAS blocks the rank-2 products of the scans otherwise than
at the n <= 40 of the tier-1 suite, and the brute-force oracles cannot reach
it. The input is a generated quasi-semi-metric with one entry raised by
2**-19, so that the type-t scans fail at a few triples, whose witnesses are
compared, and the other types fail at millions: once as it is, on a grid
that takes the float32 slabs, and once times 1 + 2**-40, which takes
float64. Each relation runs all 8 scans of ``classify`` and
compares min_slack by ``float.hex`` and both counts, as the small-n tests do.

This module is not under the suite's testpaths. Run it on its own:

    PYTHONPATH=src python -m pytest -q tests_large
"""

import math

import numpy as np
import pytest

from protometrics import GenSpec, LabeledMatrix, ToleranceConfig, gen_quasi_semi_metric

from test_metamorphic import CAP, DUAL, scans, summary, witness_set

TOL = ToleranceConfig(1e-9, 1e-9, 1e-9)


@pytest.fixture(scope="module", params=["grid", "off-grid"])
def case(request):
    """The input matrix and its 8 verdicts."""
    M = gen_quasi_semi_metric(GenSpec(1000, 1))
    E = M.entries.copy()
    E[3, 7] += 2.0**-19
    if request.param == "off-grid":
        E *= 1 + 2.0**-40
    M = LabeledMatrix(M.labels, E)
    return M, scans(M, TOL)


def test_transpose_is_the_dual_scan(case):
    M, got = case
    dual = scans(LabeledMatrix(M.labels, M.entries.T), TOL)
    for (ty, prequad), v in got.items():
        w = dual[DUAL[ty], prequad]
        assert summary(v) == summary(w), (ty, prequad)
        if v.count_violations <= CAP:
            assert witness_set(v) == witness_set(w, swap=True), (ty, prequad)


def test_relabelling_only_reorders_each_slab(case):
    M, got = case
    labels = [M.labels[i] for i in np.random.default_rng(0).permutation(M.n)]
    moved = scans(M.reordered(labels), TOL)
    for kind, v in got.items():
        assert summary(v) == summary(moved[kind]), kind
        if v.count_violations <= CAP:
            assert witness_set(v) == witness_set(moved[kind]), kind


def test_power_of_two_scaling_scales_every_slack_exactly(case):
    M, got = case
    s = math.ldexp(1.0, -7)
    scaled = scans(LabeledMatrix(M.labels, M.entries * s),
                   ToleranceConfig(TOL.eps_ineq * s, TOL.eps_eq * s, TOL.eps_strict * s))
    for kind, v in got.items():
        w = scaled[kind]
        assert (v.status, v.count_checked, v.count_violations) == \
            (w.status, w.count_checked, w.count_violations), kind
        assert (v.min_slack * s).hex() == w.min_slack.hex(), kind
        assert [(u.x, u.y, u.z) for u in v.witnesses] == [(u.x, u.y, u.z) for u in w.witnesses]
        assert witness_set(v, scale=s) == witness_set(w)
