import math

import numpy as np
import pytest

from protometrics import (
    InputError,
    LabeledMatrix,
    PreconditionError,
    Status,
    TransitivityError,
    add,
    affine_gauge,
    auto_labels,
    check_prequadrangle,
    check_triangle,
    classify,
    compose,
    decompose,
    farris_transform,
    gromov_product,
    log_transform,
    metrize,
    min_farris_constant,
    potential_of,
    specialization_preorder,
    transpose,
    zero_coordinates,
)

PATH = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
HDIFF = [[0.0, -1.0, -3.0], [1.0, 0.0, -2.0], [3.0, 2.0, 0.0]]
# three collinear points at coordinates 0, 1, 3
COLLINEAR = [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]


def lm(rows, labels=None):
    return LabeledMatrix(labels or auto_labels(len(rows)), rows)


def test_transpose():
    m = lm([[0.0, -1.0], [1.0, 0.0]])
    t = transpose(m)
    assert t.entries.tolist() == [[0.0, 1.0], [-1.0, 0.0]]
    assert transpose(t) == m
    sym = lm(PATH)
    assert transpose(sym) == sym


def test_transpose_negates_potential():
    h = potential_of(lm(HDIFF))
    assert h == {"x1": 0.0, "x2": 1.0, "x3": 3.0}
    g = potential_of(transpose(lm(HDIFF)))
    assert g == {"x1": 0.0, "x2": -1.0, "x3": -3.0}


def test_add():
    a = lm([[0.0, 1.0], [2.0, 0.0]])
    b = lm([[1.0, 1.0], [1.0, 1.0]])
    s = add(a, b)
    assert s.entries.tolist() == [[1.0, 2.0], [3.0, 1.0]]
    # two metrics sum to a metric
    m = add(lm(PATH), lm(PATH))
    assert classify(m).flags["metric"]


def test_add_needs_identical_label_sequences():
    a = LabeledMatrix(("a", "b"), np.zeros((2, 2)))
    b = LabeledMatrix(("b", "a"), np.zeros((2, 2)))
    with pytest.raises(InputError, match="identical label sequences"):
        add(a, b)
    c = LabeledMatrix(("a", "c"), np.zeros((2, 2)))
    with pytest.raises(InputError, match="identical label sequences"):
        add(a, c)


def test_affine_gauge_golden():
    p = lm([[0.0, 1.0], [1.0, 0.0]])
    q = affine_gauge(p, 2.0, {"x1": 1.0, "x2": 2.0})
    assert q.entries.tolist() == [[2.0, 5.0], [5.0, 4.0]]
    ident = affine_gauge(p, 1.0, {"x1": 0.0, "x2": 0.0})
    assert ident == p


def test_affine_gauge_preserves_prequad_verdicts():
    p = lm([[1.0, 3.0], [3.0, 2.0]])
    q = affine_gauge(p, 4.0, {"x1": -7.0, "x2": 11.0})
    for ty in "oitc":
        assert (
            check_prequadrangle(q, ty).status
            is check_prequadrangle(p, ty).status
        )


def test_affine_gauge_zero_diagonal_turns_prequad_into_triangle():
    p = lm([[1.0, 3.0], [3.0, 2.0]])
    alpha = 2.0
    f = {l: -alpha / 2.0 * p.entry(l, l) for l in p.labels}
    q = affine_gauge(p, alpha, f)
    assert np.diagonal(q.entries).tolist() == [0.0, 0.0]
    for ty in "oitc":
        assert (
            check_triangle(q, ty).status is check_prequadrangle(p, ty).status
        )


def test_affine_gauge_rejects_bad_inputs():
    p = lm([[0.0, 1.0], [1.0, 0.0]])
    for alpha in (0.0, -1.0, math.nan, math.inf, True, "2"):
        with pytest.raises(InputError):
            affine_gauge(p, alpha, {"x1": 0.0, "x2": 0.0})
    with pytest.raises(InputError, match="missing a value"):
        affine_gauge(p, 1.0, {"x1": 0.0})
    with pytest.raises(InputError, match="unknown label"):
        affine_gauge(p, 1.0, {"x1": 0.0, "x2": 0.0, "zz": 0.0})
    with pytest.raises(InputError, match="non-finite"):
        affine_gauge(p, 1.0, {"x1": 0.0, "x2": math.inf})


def test_metrize_golden():
    p = lm([[1.0, 3.0], [3.0, 2.0]])
    d = metrize(p, 1.0)
    assert d.entries.tolist() == [[0.0, 3.0], [3.0, 0.0]]
    assert classify(d).flags["metric"]
    half = metrize(lm(PATH), 0.5)
    assert half == lm(PATH)  # metrics are fixed points at alpha = 1/2


def test_metrize_scales_linearly():
    p = lm([[1.0, 3.0], [3.0, 2.0]])
    d1 = metrize(p, 1.0)
    d3 = metrize(p, 3.0)
    assert np.array_equal(d3.entries, 3.0 * d1.entries)


def test_metrize_requires_protometric():
    bad = lm([[0.0, -3.0], [1.0, 0.0]])
    with pytest.raises(PreconditionError, match="metrize needs prequad_t, but prequad_t") as ei:
        metrize(bad, 1.0)
    assert ei.value.witness is not None
    with pytest.raises(InputError, match="alpha"):
        metrize(lm(PATH), 0.0)


def test_compose_golden():
    d = lm([[0.0, 3.0], [3.0, 0.0]])
    p = compose(d, {"x1": 1.0, "x2": 2.0})
    assert p.entries.tolist() == [[1.0, 3.0], [3.0, 2.0]]
    # f = 0 halves the distances
    q = compose(d, {"x1": 0.0, "x2": 0.0})
    assert q.entries.tolist() == [[0.0, 1.5], [1.5, 0.0]]
    # d = 0 gives the separable matrix (f(x) + f(y)) / 2
    z = compose(lm(np.zeros((2, 2))), {"x1": 2.0, "x2": 4.0})
    assert z.entries.tolist() == [[2.0, 3.0], [3.0, 4.0]]


def test_compose_preconditions():
    with pytest.raises(PreconditionError, match="needs difference_protometric, but zero_diagonal"):
        compose(lm([[1.0, 0.0], [0.0, 0.0]]), {"x1": 0.0, "x2": 0.0})
    skew = lm([[0.0, 0.0, 3.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    with pytest.raises(PreconditionError, match="needs difference_protometric, but prequad_t"):
        compose(skew, {l: 0.0 for l in skew.labels})
    with pytest.raises(InputError, match="missing a value"):
        compose(lm([[0.0, 3.0], [3.0, 0.0]]), {"x1": 1.0})


def test_decompose_golden():
    p = lm([[1.0, 3.0], [3.0, 2.0]])
    dec = decompose(p)
    assert dec.f == {"x1": 1.0, "x2": 2.0}
    assert dec.d.entries.tolist() == [[0.0, 3.0], [3.0, 0.0]]
    # a zero-diagonal protometric decomposes into itself doubled
    m = lm(PATH)
    dm = decompose(m)
    assert dm.f == {l: 0.0 for l in m.labels}
    assert np.array_equal(dm.d.entries, 2.0 * m.entries)


def test_decompose_requires_protometric():
    with pytest.raises(PreconditionError, match="decompose needs prequad_t, but prequad_t fails"):
        decompose(lm([[0.0, -3.0], [1.0, 0.0]]))


def test_compose_decompose_roundtrip_exact():
    p = lm([[1.0, 3.0], [3.0, 2.0]])
    dec = decompose(p)
    assert compose(dec.d, dec.f) == p
    d = lm([[0.0, 3.0], [3.0, 0.0]])
    f = {"x1": 1.0, "x2": 2.0}
    dec2 = decompose(compose(d, f))
    assert dec2.d == d
    assert dec2.f == f


def test_zero_coordinates_golden():
    p = lm([[2.0, 3.0], [0.0, 1.0]], labels=("a", "b"))
    zc = zero_coordinates(p)
    assert zc.ref == "a"
    assert zc.a == {"a": 2.0, "b": 0.0}
    assert zc.b == {"a": 0.0, "b": 1.0}
    rebuilt = [[zc.a[x] + zc.b[y] for y in p.labels] for x in p.labels]
    assert rebuilt == p.entries.tolist()


def test_zero_coordinates_constant_matrix():
    p = lm(np.full((3, 3), 7.0))
    zc = zero_coordinates(p)
    assert zc.a == {l: 7.0 for l in p.labels}
    assert zc.b == {l: 0.0 for l in p.labels}


def test_zero_coordinates_rejects_nonzero_protometric():
    with pytest.raises(PreconditionError, match="needs zero_protometric, but zero_protometric"):
        zero_coordinates(lm([[0.0, 1.0], [1.0, 0.0]]))


def test_zero_coordinates_rejects_inseparable():
    # degenerate-pair equality holds, yet no a(x) + b(y) representation
    p = lm([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(PreconditionError, match="separable"):
        zero_coordinates(p)


def test_potential_of_golden():
    assert potential_of(lm(HDIFF)) == {"x1": 0.0, "x2": 1.0, "x3": 3.0}
    z = lm(np.zeros((2, 2)))
    assert potential_of(z) == {"x1": 0.0, "x2": 0.0}
    with pytest.raises(PreconditionError, match="potential_of needs potential_difference"):
        potential_of(lm([[0.0, 1.0], [1.0, 0.0]]))


def test_preorder_worked_example():
    d = lm([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]], labels=("a", "b", "c"))
    r = specialization_preorder(d)
    assert r.relation == (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"), ("c", "c"))
    assert r.classes == (("a", "b"), ("c",))
    assert r.quotient_order == ()


def test_preorder_chain():
    d = lm([[0.0, 0.0], [1.0, 0.0]], labels=("a", "b"))
    r = specialization_preorder(d)
    assert r.classes == (("a",), ("b",))
    assert r.quotient_order == (("a", "b"),)


def test_preorder_metric_is_discrete():
    r = specialization_preorder(lm(PATH))
    assert r.relation == (("x1", "x1"), ("x2", "x2"), ("x3", "x3"))
    assert r.classes == (("x1",), ("x2",), ("x3",))
    assert r.quotient_order == ()


def test_preorder_zero_matrix_is_one_class():
    r = specialization_preorder(lm(np.zeros((3, 3))))
    assert r.classes == (("x1", "x2", "x3"),)
    assert len(r.relation) == 9


def test_preorder_preconditions():
    with pytest.raises(PreconditionError, match="needs quasi_semi_metric, but nonnegative fails"):
        specialization_preorder(lm([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(PreconditionError, match="needs quasi_semi_metric, but zero_diagonal fails"):
        specialization_preorder(lm([[1.0, 1.0], [1.0, 0.0]]))
    skew = lm([[0.0, 0.0, 3.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    with pytest.raises(PreconditionError, match="needs quasi_semi_metric, but prequad_t fails"):
        specialization_preorder(skew)


def test_preorder_transitivity_guard():
    # passes the triangle check at eps_ineq, yet the thresholded relation
    # chains x1 <= x2 <= x3 without x1 <= x3
    d = lm([
        [0.0, 1e-9, 2.5e-9],
        [1e-9, 0.0, 1e-9],
        [2.5e-9, 1e-9, 0.0],
    ])
    assert check_triangle(d, "t").status is Status.PASS
    with pytest.raises(TransitivityError, match="not transitive"):
        specialization_preorder(d)


def test_gromov_product_golden():
    d = lm(COLLINEAR, labels=("a", "b", "c"))
    g = gromov_product(d, "a")
    assert g.entries.tolist() == [[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 3.0]]
    # base row and column vanish; diagonal is the distance to the base
    assert g.entries[0].tolist() == [0.0, 0.0, 0.0]
    assert np.diagonal(g.entries).tolist() == [0.0, 1.0, 3.0]
    # -G is a symmetric protometric with entries <= 0
    neg = LabeledMatrix(g.labels, -g.entries)
    for ty in "oitc":
        assert check_prequadrangle(neg, ty).status is Status.PASS
    assert float(neg.entries.max()) <= 0.0


def test_gromov_product_requires_metric():
    with pytest.raises(PreconditionError, match="needs metric, but symmetric fails"):
        gromov_product(lm([[0.0, 1.0], [2.0, 0.0]]), "x1")
    with pytest.raises(PreconditionError, match="needs metric, but zero_diagonal fails"):
        gromov_product(lm([[1.0, 1.0], [1.0, 0.0]]), "x1")
    with pytest.raises(PreconditionError, match="needs metric, but identity_of_indiscernibles"):
        gromov_product(lm(np.zeros((2, 2))), "x1")
    bad = lm([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    with pytest.raises(PreconditionError, match="needs metric, but prequad_t fails"):
        gromov_product(bad, "x1")
    with pytest.raises(InputError, match="not a point"):
        gromov_product(lm(PATH), "zz")


def test_farris_transform_golden():
    d = lm(COLLINEAR, labels=("a", "b", "c"))
    f = farris_transform(d, "a", 5.0)
    assert f.entries.tolist() == [[5.0, 5.0, 5.0], [5.0, 4.0, 4.0], [5.0, 4.0, 2.0]]
    zero_c = farris_transform(d, "a", 0.0)
    assert np.array_equal(zero_c.entries, -gromov_product(d, "a").entries)
    with pytest.raises(InputError, match="constant"):
        farris_transform(d, "a", math.inf)


def test_min_farris_constant_golden():
    d = lm(COLLINEAR, labels=("a", "b", "c"))
    assert min_farris_constant(d, "a") == 3.0
    two = lm([[0.0, 1.0], [1.0, 0.0]])
    assert min_farris_constant(two, "x1") == 1.0
    assert min_farris_constant(lm([[0.0]]), "x1") == 0.0


def test_min_farris_constant_is_minimal():
    d = lm(COLLINEAR, labels=("a", "b", "c"))
    c = min_farris_constant(d, "a")
    at = farris_transform(d, "a", c)
    assert check_triangle(at, "o").status is Status.PASS
    assert float(at.entries.min()) >= -1e-9
    below = farris_transform(d, "a", c - 1e-8)
    assert check_triangle(below, "o").status is Status.FAIL


def test_log_transform_goldens():
    ones = lm(np.ones((2, 2)))
    assert log_transform(ones).entries.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    const = lm(np.full((2, 2), math.exp(-1.0)))
    assert np.allclose(log_transform(const).entries, 1.0, atol=1e-15)
    s = lm(np.exp(-np.array(PATH)))
    back = log_transform(s)
    assert np.allclose(back.entries, PATH, atol=1e-12)
    assert check_prequadrangle(back, "t").status is Status.PASS


def test_log_transform_requires_positive_entries():
    with pytest.raises(PreconditionError, match="strictly positive"):
        log_transform(lm([[1.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(PreconditionError, match="strictly positive"):
        log_transform(lm([[1.0, -0.5], [1.0, 1.0]]))
