import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from protometrics import (
    InequalityType,
    InputError,
    Interval,
    InvalidMatrixError,
    LabeledMatrix,
    ToleranceConfig,
    auto_labels,
)


def lm(rows):
    return LabeledMatrix(auto_labels(len(rows)), rows)


def test_inequality_type_parse():
    assert InequalityType.parse("o") is InequalityType.OUTGOING
    assert InequalityType.parse("i") is InequalityType.INCOMING
    assert InequalityType.parse("t") is InequalityType.TRANSITIVE
    assert InequalityType.parse("c") is InequalityType.CYCLIC
    # members pass through
    assert InequalityType.parse(InequalityType.CYCLIC) is InequalityType.CYCLIC
    assert InequalityType.parse("t").value == "t"


@pytest.mark.parametrize("bad", ["q", "", "T", "ot", "x"])
def test_inequality_type_parse_rejects(bad):
    with pytest.raises(InputError, match="expected one of o, i, t, c"):
        InequalityType.parse(bad)


def test_auto_labels():
    assert auto_labels(3) == ("x1", "x2", "x3")
    assert auto_labels(1) == ("x1",)


def test_matrix_basics():
    m = LabeledMatrix(("a", "b"), [[0.0, 1.0], [2.0, 0.0]])
    assert m.n == 2
    assert m.labels == ("a", "b")
    assert m.entry("a", "b") == 1.0
    assert m.entry("b", "a") == 2.0
    assert m.index("b") == 1
    assert repr(m) == "LabeledMatrix(n=2, labels=['a', 'b'])"


def test_matrix_is_immutable():
    m = lm([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(AttributeError):
        m.labels = ("p", "q")
    with pytest.raises(ValueError):
        m.entries[0, 1] = 5.0
    # constructing from an array must not alias the caller's buffer
    src = np.zeros((2, 2))
    m2 = LabeledMatrix(("a", "b"), src)
    src[0, 1] = 9.0
    assert m2.entries[0, 1] == 0.0
    # nor the caller's list of labels
    labels = ["a", "b"]
    m3 = LabeledMatrix(labels, src)
    labels[0] = "z"
    assert m3.labels == ("a", "b")


def test_matrix_validation():
    with pytest.raises(InvalidMatrixError, match="at least one point"):
        LabeledMatrix((), [])
    with pytest.raises(InvalidMatrixError, match="square"):
        LabeledMatrix(("a",), [[0.0, 1.0]])
    with pytest.raises(InvalidMatrixError, match="square"):
        LabeledMatrix(("a", "b"), [[0.0, 1.0], [1.0]])
    with pytest.raises(InvalidMatrixError, match="labels but a"):
        LabeledMatrix(("a",), [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InvalidMatrixError, match="duplicate"):
        LabeledMatrix(("a", "a"), [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InvalidMatrixError, match="nonempty strings"):
        LabeledMatrix(("a", ""), [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InvalidMatrixError, match=r"non-finite entry nan at \('a', 'b'\)$"):
        LabeledMatrix(("a", "b"), [[0.0, math.nan], [1.0, 0.0]])
    # the entry is named as a Python float, not as a numpy scalar repr
    with pytest.raises(InvalidMatrixError, match=r"non-finite entry -inf at \('b', 'a'\)$"):
        LabeledMatrix(("a", "b"), np.array([[0.0, 1.0], [-math.inf, 0.0]]))


def test_matrix_refusals_name_the_first_offender():
    # The first label met again, in label order, and the first bad entry in
    # row-major order.
    zeros = np.zeros((3, 3))
    with pytest.raises(InvalidMatrixError, match=r"^duplicate label 'b'$"):
        LabeledMatrix(("a", "b", "b"), zeros)
    with pytest.raises(InvalidMatrixError, match=r"^duplicate label 'b'$"):
        LabeledMatrix(("a", "b", "b", "a"), np.zeros((4, 4)))
    with pytest.raises(InvalidMatrixError, match=r"^duplicate label 'a'$"):
        LabeledMatrix(("a", "b", "a", "b"), np.zeros((4, 4)))
    bad = zeros.copy()
    bad[2, 0], bad[1, 2], bad[2, 1] = math.inf, math.nan, -math.inf
    with pytest.raises(InvalidMatrixError, match=r"non-finite entry nan at \('b', 'c'\)$"):
        LabeledMatrix(("a", "b", "c"), bad)


def test_matrix_unknown_label():
    m = lm([[0.0]])
    with pytest.raises(InputError, match="not a point"):
        m.index("nope")


def test_matrix_reordered():
    m = LabeledMatrix(("a", "b"), [[0.0, 1.0], [2.0, 0.0]])
    r = m.reordered(("b", "a"))
    assert r.labels == ("b", "a")
    assert r.entry("a", "b") == 1.0
    assert r.entry("b", "a") == 2.0
    assert r.entries.tolist() == [[0.0, 2.0], [1.0, 0.0]]
    with pytest.raises(InputError, match="permutation"):
        m.reordered(("a", "a"))
    with pytest.raises(InputError, match="permutation"):
        m.reordered(("a",))


def test_matrix_eq_and_hash():
    a = LabeledMatrix(("a", "b"), [[0.0, 1.0], [1.0, 0.0]])
    b = LabeledMatrix(("a", "b"), [[0.0, 1.0], [1.0, 0.0]])
    c = LabeledMatrix(("a", "c"), [[0.0, 1.0], [1.0, 0.0]])
    d = LabeledMatrix(("a", "b"), [[0.0, 1.0], [1.5, 0.0]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert a != d
    assert a != "not a matrix"


def test_matrices_equal_up_to_the_sign_of_zero_hash_alike():
    a = LabeledMatrix(("a", "b"), [[0.0, 1.0], [1.0, 0.0]])
    b = LabeledMatrix(("a", "b"), [[-0.0, 1.0], [1.0, -0.0]])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert np.signbit(b.entries[0, 0])  # the matrix itself keeps -0.0


def test_tolerance_defaults():
    tol = ToleranceConfig()
    assert tol.eps_ineq == 1e-9
    assert tol.eps_eq == 1e-9
    assert tol.eps_strict == 1e-9
    # Each rule at its boundary, at the default tolerances.
    assert not tol.ineq_fails(-1e-9) and tol.ineq_fails(-2e-9)
    assert not tol.eq_fails(1e-9) and not tol.eq_fails(-1e-9) and tol.eq_fails(2e-9)
    assert tol.strict_fails(1e-9) and not tol.strict_fails(2e-9)
    assert not tol.transition_fails(1.0 + 2e-9, 1.0) and tol.transition_fails(1.0 + 3e-9, 1.0)


# (rule, operands at the boundary, whether that fails) with eps_ineq 0.25,
# eps_eq 0.5 and eps_strict 0.125, where every bound is exact in binary.
RULES = [
    ("ineq_fails", (-0.25,), False),
    ("ineq_fails", (-0.3125,), True),
    ("eq_fails", (0.5,), False),
    ("eq_fails", (-0.5,), False),
    ("eq_fails", (0.5625,), True),
    ("strict_fails", (0.125,), True),
    ("strict_fails", (0.1875,), False),
    ("transition_fails", (1.5, 1.0), False),  # 1.0 * 1.25 + 0.25
    ("transition_fails", (1.5625, 1.0), True),
    # A NaN: the additive rule would pass one, which no finite slack produces,
    # equality, the interval and strictness fail it, and the transition rule passes it.
    ("ineq_fails", (math.nan,), False),
    ("eq_fails", (math.nan,), True),
    ("strict_fails", (math.nan,), True),
    ("transition_fails", (math.nan, 1.0), False),
    ("transition_fails", (1.0, math.nan), False),
    # The interval [1, 2] widened by eps_eq to [0.5, 2.5].
    ("interval_fails", (0.5, 1.0, 2.0), False),  # 1.0 - 0.5
    ("interval_fails", (0.4375, 1.0, 2.0), True),
    ("interval_fails", (2.5, 1.0, 2.0), False),  # 2.0 + 0.5
    ("interval_fails", (2.5625, 1.0, 2.0), True),
    ("interval_fails", (math.nan, 1.0, 2.0), True),
]


@pytest.mark.parametrize("rule, operands, fails", RULES)
def test_tolerance_rules(rule, operands, fails):
    test = getattr(ToleranceConfig(eps_ineq=0.25, eps_eq=0.5, eps_strict=0.125), rule)
    assert test(*operands) == fails
    # A one-element array gives the same answer, as does the transition rule's
    # mask written into out, which check_transition passes.
    arrays = [np.array([v]) for v in operands]
    assert test(*arrays).tolist() == [fails]
    if rule == "transition_fails":
        out = np.zeros(1, dtype=bool)
        assert test(*arrays, out=out) is out and out.tolist() == [fails]


MAX = np.finfo(float).max


@pytest.mark.parametrize("eps", [0.0, 5e-324, 1e-9, 0.5])
def test_inequality_threshold_is_the_least_passing_float(eps):
    tol = ToleranceConfig(eps_ineq=eps)
    for v in (0.0, 5e-324, 1e-20, eps, 1.0, 1e308, MAX):
        for d in (v, -v):
            t = tol.ineq_threshold(d)
            assert not tol.ineq_fails(t - d), (eps, d)
            assert tol.ineq_fails(math.nextafter(t, -math.inf) - d), (eps, d)


@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)
def test_inequality_threshold_over_every_finite_float(d, eps):
    tol = ToleranceConfig(eps_ineq=eps)
    t = tol.ineq_threshold(d)
    assert not tol.ineq_fails(t - d)
    assert tol.ineq_fails(math.nextafter(t, -math.inf) - d)
    assert not (t == 0.0 and math.copysign(1.0, t) < 0.0)  # never -0.0


def test_inequality_threshold_far_from_its_start():
    # fl(d - eps) is 0 here, yet s - 1e-9 rounds to -1e-9 for every s down to
    # half an ulp of 1e-9, about 4.2e18 floats below 0: the answer is that
    # half ulp, where the search starts.
    assert ToleranceConfig(eps_ineq=1e-9).ineq_threshold(1e-9) == -1.0339757656912845e-25
    assert ToleranceConfig(eps_ineq=0.25).ineq_threshold(0.0) == -0.25
    # Here the search starts one float above its answer and steps down.
    want = float.fromhex("-0x1.6666666666667p+0")
    assert ToleranceConfig(eps_ineq=1.75).ineq_threshold(0.35) == want


def test_tolerance_inequality_rule_on_a_float_stays_in_python():
    # The scans call it once per x-slab minimum, where a numpy call costs more.
    assert type(ToleranceConfig().ineq_fails(-1.0)) is bool


@pytest.mark.parametrize("kw", [
    {"eps_ineq": -1e-9},
    {"eps_eq": math.nan},
    {"eps_strict": math.inf},
    {"eps_ineq": True},
])
def test_tolerance_rejects(kw):
    with pytest.raises(InputError):
        ToleranceConfig(**kw)


def test_interval():
    # An Interval holds its bounds; the eps_eq interval rule judges a value on them.
    iv = Interval(lo=1.0, hi=2.0, nonempty=True)

    def holds(value, eps):
        return not ToleranceConfig(eps_eq=eps).interval_fails(value, iv.lo, iv.hi)

    assert holds(1.5, 1e-9)
    assert holds(1.0 - 5e-10, 1e-9)
    assert not holds(0.5, 1e-9)
    assert not holds(2.1, 1e-2)
    assert holds(2.1, 0.1 + 1e-12)
    # Both ends of the widened interval belong to it; these sums are exact.
    assert holds(0.5, 0.5) and holds(2.5, 0.5)
    assert not holds(math.nextafter(0.5, 0.0), 0.5) and not holds(math.nextafter(2.5, 3.0), 0.5)


INF = math.inf
EXTREME_EPS = [0.0, 5e-324, 1e-9, 1.0, 1e308, float(MAX)]
EDGES = [s * v for v in (0.0, 5e-324, 1.0, 1e308, INF) for s in (1.0, -1.0)] + [math.nan]


def bits(mask):
    return np.asarray(mask, dtype=bool).tolist()


@pytest.mark.parametrize("eps", EXTREME_EPS)
def test_interval_rule_holds_both_widened_ends(eps):
    # The plain-Python chain is the rule; Python floats overflow to +-inf silently.
    tol = ToleranceConfig(eps_eq=eps)
    values = np.array(EDGES)
    for lo in EDGES[:-1]:
        for hi in EDGES[:-1]:
            want = [not (lo - eps <= v <= hi + eps) for v in EDGES]
            assert bits(tol.interval_fails(values, lo, hi)) == want, (lo, hi)
            assert [bool(tol.interval_fails(v, lo, hi)) for v in EDGES] == want
            # Each widened end belongs to the interval and the float past it does not.
            for end, past in ((lo - eps, -INF), (hi + eps, INF)):
                if lo - eps <= hi + eps and math.isfinite(end):
                    assert not tol.interval_fails(end, lo, hi), (lo, hi, end)
                    assert tol.interval_fails(math.nextafter(end, past), lo, hi), (lo, hi, end)


@pytest.mark.parametrize("eps", EXTREME_EPS)
def test_equality_rule_is_the_zero_width_interval(eps):
    tol = ToleranceConfig(eps_eq=eps)
    values = np.array(EDGES)
    want = [not abs(v) <= eps for v in EDGES]  # the rule as |delta| <= eps_eq
    assert bits(tol.eq_fails(values)) == want
    assert bits(tol.eq_fails(values)) == bits(tol.interval_fails(values, 0.0, 0.0))
    big = np.resize(values, (30, 30))
    assert bits(tol.eq_fails(big)) == bits(~(np.abs(big) <= eps))


@pytest.mark.parametrize("eps", [0.0, 5e-324, 2.0**-1022, 2.0**-40, 1e-9, 0.5, 1.0, 3.0,
                                 1e300, float(MAX)])
def test_inequality_threshold_at_zero_is_minus_eps(eps):
    # The triangle forms' bound in the scans; equal as floats, so -0.0 and 0.0 alike.
    assert ToleranceConfig(eps_ineq=eps).ineq_threshold(0.0) == -eps


@given(st.integers(1, 5), st.integers(0, 10_000))
def test_matrix_roundtrip_via_lists(n, salt):
    rng = np.random.default_rng(salt)
    vals = rng.normal(size=(n, n)) * 10
    m = LabeledMatrix(auto_labels(n), vals.tolist())
    assert m.entries.tolist() == vals.tolist()
    assert m == LabeledMatrix(m.labels, m.entries)
