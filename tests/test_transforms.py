import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from protometrics import (
    GenSpec,
    InputError,
    InvalidMatrixError,
    LabeledMatrix,
    PreconditionError,
    Status,
    ToleranceConfig,
    TransitivityError,
    ViolationWitness,
    add,
    affine_gauge,
    auto_labels,
    check_prequadrangle,
    check_transition,
    check_triangle,
    checks,
    classify,
    compose,
    decompose,
    farris_transform,
    gen_metric,
    gen_quasi_semi_metric,
    gromov_product,
    log_transform,
    metrize,
    min_farris_constant,
    perturb_violation,
    potential_of,
    specialization_preorder,
    transpose,
    zero_coordinates,
)

from certificate import certificate_paths
from oracles import farris_scan, preorder_structure

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


def test_transpose_holds_c_ordered_entries_with_the_same_verdicts():
    m = gen_quasi_semi_metric(GenSpec(12, 4))
    t = transpose(m)
    assert t.entries.flags.c_contiguous
    copy = lm(m.entries.T.tolist())
    assert t == copy
    assert repr(classify(t)) == repr(classify(copy))
    assert repr(check_transition(t)) == repr(check_transition(copy))


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


def test_add_overflow_is_rejected_without_a_warning():
    big = lm([[1e308, 1e308], [1e308, 1e308]])
    with pytest.raises(InvalidMatrixError, match=r"non-finite entry inf at \('x1', 'x1'\)$"):
        add(big, big)  # warnings fail the suite, so this also pins that none is raised


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
    with pytest.raises(InputError, match="unknown label 'zz'$"):
        affine_gauge(p, 1.0, {"x1": 0.0, "x2": 0.0, "zz": 0.0})
    # The gauge is refused before the result, which would name a matrix entry.
    with pytest.raises(InputError, match="gauge f has a non-finite value at label 'x2'"):
        affine_gauge(p, 1.0, {"x1": 0.0, "x2": math.inf})
    with pytest.raises(InputError, match="gauge f has a non-finite value at label 'x1'"):
        compose(p, {"x1": math.inf, "x2": 0.0})


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
    with pytest.raises(PreconditionError) as err:
        zero_coordinates(p)
    # a = (0, -1, 0) and b = (0, 1, 0): the first residual in row-major order
    # is p(x2, x3) - (a(x2) + b(x3)) = 0 - (-1 + 0).
    assert str(err.value) == ("zero_coordinates: entries are not separable as a(x) + b(y); "
                              "residual 1.0 at ('x2', 'x3')")
    assert err.value.witness == ViolationWitness("x2", "x3", "x3", 0.0, -1.0, 1.0)


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


@pytest.mark.parametrize("k", [127, 128, 256])
def test_preorder_transitivity_counts_any_number_of_middle_points(k):
    # x1 <= y <= z for each of the k middle points y, but d(x1, z) > eps_eq.
    # Within eps_ineq this is a quasi-semi-metric, and k >= 128 used to wrap
    # an 8-bit count of the middle points to <= 0.
    n = k + 2
    z = k + 1
    E = np.ones((n, n))
    np.fill_diagonal(E, 0.0)
    E[0, 1:z] = E[1:z, z] = 0.9e-9
    E[0, z] = 1.5e-9
    d = lm(E)
    assert classify(d).quasi_semi_metric
    with pytest.raises(TransitivityError, match=f"'x1' <= 'x2' <= 'x{n}' but"):
        specialization_preorder(d)


@st.composite
def near_preorders(draw):
    """A zero-diagonal matrix whose entries sit near eps_eq = 1e-9 or far above it."""
    n = draw(st.integers(1, 7))
    near = st.sampled_from([0.0, 4e-10, 9e-10, 1.5e-9])
    far = st.sampled_from([0.0, 9e-10, 1.0])
    E = np.array(draw(st.lists(draw(st.sampled_from([near, far])), min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    np.fill_diagonal(E, 0.0)
    return lm(E)


@settings(max_examples=300, deadline=None)
@given(near_preorders())
def test_preorder_matches_the_oracle(d):
    try:
        got = specialization_preorder(d)
    except TransitivityError:
        got = None
    except PreconditionError:
        return
    pairs, defects, classes, order = preorder_structure(d.entries.tolist())
    assert (got is None) == bool(defects)
    if got is not None:
        name = d.labels
        assert got.relation == tuple((name[x], name[y]) for x, y in pairs)
        assert got.classes == tuple(tuple(name[m] for m in c) for c in classes)
        assert got.quotient_order == tuple((name[x], name[y]) for x, y in order)


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
    # The first offender in row-major order, with the sign of a zero kept.
    with pytest.raises(PreconditionError) as err:
        log_transform(lm([[1.0, 2.0], [-0.0, -3.0]]))
    assert str(err.value) == ("log transform needs strictly positive entries, "
                              "but s('x2','x1') = -0.0")
    w = err.value.witness
    assert w == ViolationWitness("x2", "x1", "x1", 0.0, 0.0, 0.0)
    assert math.copysign(1.0, w.lhs) == -1.0


# Every library argument that takes one real number, each given v.
SCALAR_SITES = {
    "metrize alpha": lambda v: metrize(lm(PATH), v),
    "affine_gauge alpha": lambda v: affine_gauge(lm(PATH), v, dict.fromkeys(auto_labels(3), 0.0)),
    "affine_gauge f": lambda v: affine_gauge(lm(PATH), 1.0, {"x1": 0.0, "x2": v, "x3": 0.0}),
    "compose f": lambda v: compose(lm(PATH), dict.fromkeys(auto_labels(3), v)),
    "farris_transform constant": lambda v: farris_transform(lm(PATH), "x1", v),
    "perturb_violation magnitude": lambda v: perturb_violation(lm(PATH), "t", v),
    "eps_ineq": lambda v: ToleranceConfig(eps_ineq=v),
    "eps_eq": lambda v: ToleranceConfig(eps_eq=v),
    "eps_strict": lambda v: ToleranceConfig(eps_strict=v),
    "GenSpec scale": lambda v: GenSpec(3, 0, v),
}
# The sites that store their argument, and the field that holds it.
STORED = {"eps_ineq": "eps_ineq", "eps_eq": "eps_eq", "eps_strict": "eps_strict",
          "GenSpec scale": "scale"}


@pytest.mark.parametrize("site", SCALAR_SITES)
@pytest.mark.parametrize(
    "bad",
    [True, "2", "x", None, 1j, 10**400, 10**5000, np.True_, Fraction(10**400)],
    ids=["bool", "numeric-str", "str", "None", "complex", "1e400", "1e5000", "numpy-bool",
         "fraction-1e400"],
)
def test_scalar_arguments_must_be_real_numbers(site, bad):
    with pytest.raises(InputError):
        SCALAR_SITES[site](bad)
    # Any real number that fits a float is accepted, numpy's real scalars included.
    for good in (2, np.int64(2), np.float32(2), Fraction(2)):
        out = SCALAR_SITES[site](good)
        if site in STORED:  # as a float, so that no threshold search runs in float32
            assert type(getattr(out, STORED[site])) is float


def farris_constants(d, x0):
    """min_farris_constant on float32 slabs of G, and with the float64 slabs forced."""
    with certificate_paths(checks) as taken:
        got = min_farris_constant(d, x0)
    with certificate_paths(checks, force_float64=True):
        want = min_farris_constant(d, x0)
    # The metric precondition's scan of d, then the type-o scan of -G.
    assert taken == [True, True]
    return got, want


@pytest.mark.blas
def test_float32_min_farris_constant_on_generated_metrics():
    for n, seed in ((50, 1), (80, 7), (120, 11)):
        d = gen_metric(GenSpec(n, seed))
        for x0 in (d.labels[0], d.labels[n // 2]):
            got, want = farris_constants(d, x0)
            assert got.hex() == want.hex()


@pytest.mark.blas
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32), st.sampled_from([1.0, 2.0**-5, 8.0, 2.0**40]),
       st.data())
def test_float32_min_farris_constant_on_grid_metrics(n, seed, scale, data):
    # Edges k * 2**-20 * scale, k <= 2**20, make G a multiple of 2**-21 * scale
    # no larger than scale, which a power-of-two scale certifies.
    d = gen_metric(GenSpec(n, seed, scale))
    x0 = d.labels[data.draw(st.integers(0, n - 1))]
    got, want = farris_constants(d, x0)
    assert got.hex() == want.hex()
    assert got == farris_scan(gromov_product(d, x0).entries.tolist())


@pytest.mark.blas
@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.integers(1, 3), st.integers(0, 2**32), st.floats(-3.0, 3.0),
       st.data())
def test_min_farris_constant_on_off_grid_metrics(n, dim, seed, exponent, data):
    # Euclidean points at scales 1e-3 to 1e3 give an off-grid G, scanned in float64.
    points = np.random.default_rng(seed).standard_normal((n, dim)) * 10.0**exponent
    d = LabeledMatrix(auto_labels(n), np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1)))
    x0 = d.labels[data.draw(st.integers(0, n - 1))]
    with certificate_paths(checks) as taken:
        got = min_farris_constant(d, x0)
    assume(taken[-1] is False)
    assert got.hex() == farris_scan(gromov_product(d, x0).entries.tolist()).hex()
