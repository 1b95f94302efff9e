import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protometrics import (
    GenSpec,
    InputError,
    LabeledMatrix,
    PreconditionError,
    SplitMix64,
    Status,
    auto_labels,
    check_prequadrangle,
    check_strict,
    check_triangle,
    classify,
    gen_metric,
    gen_protometric,
    gen_quasi_semi_metric,
    gen_zero_protometric,
    generators,
    metrize,
    perturb_violation,
    shortest_path_closure,
    zero_coordinates,
)

from protometrics.checks import first_violation

from certificate import certificate_paths
from oracles import broadcast_closure, generated, minplus_closure, perturb_target, splitmix64

GRID = 2.0 ** -20


def lm(rows):
    return LabeledMatrix(auto_labels(len(rows)), rows)


def test_splitmix64_reference_stream():
    # published test vector for seed 0
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    r2 = SplitMix64(1234567)
    assert r2.next_u64() == 0x599ED017FB08FC85
    assert r2.next_u64() == 0x2C73F08458540FA5


# Each draw method of SplitMix64 as a map of the raw outputs it consumes.
GRID_MAPS = {
    "next_u64": ("_block", lambda u: u),
    "unit": ("_units", lambda u: (u >> 44) * GRID),
    "unit_pos": ("_units_pos", lambda u: ((u >> 44) + 1) * GRID),
    "signed": ("_signed", lambda u: (u >> 43) * GRID - 1.0),
}


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, (1 << 64) - 1),
    st.lists(st.tuples(st.sampled_from(sorted(GRID_MAPS)),
                       st.one_of(st.just(0), st.just(1), st.integers(2, 300)),
                       st.booleans()), max_size=8),
)
@example(0, [("next_u64", 3, False)])
@example((1 << 64) - 1, [("signed", 0, False), ("unit_pos", 257, False), ("unit", 1, True)])
def test_splitmix64_blocks_equal_the_reference_stream(seed, blocks):
    # Any split of the stream into blocks, drawn by block or by scalar calls,
    # gives the reference outputs in order.
    r = SplitMix64(seed)
    want = iter(splitmix64(seed, sum(k for _, k, _ in blocks)))
    for name, k, scalar in blocks:
        method, grid = GRID_MAPS[name]
        got = [getattr(r, name)() for _ in range(k)] if scalar else getattr(r, method)(k).tolist()
        assert [repr(v) for v in got] == [repr(grid(next(want))) for _ in range(k)]
    assert next(want, None) is None


def test_splitmix64_draws_are_on_the_grid():
    r = SplitMix64(99)
    for _ in range(200):
        u = r.unit()
        assert 0.0 <= u < 1.0
        assert u / GRID == int(u / GRID)
    for _ in range(200):
        u = r.unit_pos()
        assert 0.0 < u <= 1.0
        assert u / GRID == int(u / GRID)
    for _ in range(200):
        s = r.signed()
        assert -1.0 <= s < 1.0
        assert s / GRID == int(s / GRID)


def test_genspec_validation():
    GenSpec(n=1, seed=0)
    GenSpec(n=3, seed=(1 << 64) - 1, scale=0.25)
    for kw in (
        {"n": 0, "seed": 0},
        {"n": -2, "seed": 0},
        {"n": True, "seed": 0},
        {"n": 3, "seed": -1},
        {"n": 3, "seed": 1 << 64},
        {"n": 3, "seed": 1.5},
        {"n": 3, "seed": 0, "scale": 0.0},
        {"n": 3, "seed": 0, "scale": -1.0},
        {"n": 3, "seed": 0, "scale": math.inf},
        {"n": 3, "seed": 0, "scale": math.nan},
        {"n": 3, "seed": 0, "scale": math.nextafter(2.0 ** 1021, math.inf)},
        {"n": 3, "seed": 0, "scale": 1.7e308},
        {"n": 3, "seed": 0, "scale": 10 ** 400},
    ):
        with pytest.raises(InputError):
            GenSpec(**kw)


@pytest.mark.parametrize("scale", [2 ** 1021, 2.0 ** 1021], ids=["int", "float"])
def test_generators_stay_finite_at_the_largest_scale(scale):
    # At the largest accepted scale no generator overflows: LabeledMatrix
    # rejects a non-finite entry, and a numpy warning fails the suite.
    spec = GenSpec(n=9, seed=3, scale=scale)
    gen_metric(spec), gen_quasi_semi_metric(spec), gen_zero_protometric(spec)
    for ty in "oitc":
        gen_protometric(spec, ty, strict=False), gen_protometric(spec, ty, strict=True)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["metric", "qsm", "proto", "zero"]), st.integers(1, 12),
       st.integers(0, (1 << 64) - 1), st.sampled_from([10.0, 0.25, 3, 2.0 ** 1021]),
       st.sampled_from("oitc"), st.booleans())
def test_generators_follow_their_documented_draw_order(kind, n, seed, scale, ty, strict):
    spec = GenSpec(n=n, seed=seed, scale=scale)
    M = {
        "metric": lambda: gen_metric(spec),
        "qsm": lambda: gen_quasi_semi_metric(spec),
        "proto": lambda: gen_protometric(spec, ty, strict),
        "zero": lambda: gen_zero_protometric(spec),
    }[kind]()
    want = np.array(generated(kind, n, seed, scale, ty, strict), dtype=np.float64)
    assert M.entries.tobytes() == want.tobytes()


def test_generators_are_deterministic():
    spec = GenSpec(n=6, seed=123)
    assert gen_metric(spec) == gen_metric(spec)
    assert gen_quasi_semi_metric(spec) == gen_quasi_semi_metric(spec)
    assert gen_protometric(spec, "o", strict=True) == gen_protometric(spec, "o", strict=True)
    assert gen_zero_protometric(spec) == gen_zero_protometric(spec)
    # a different seed gives a different instance
    assert gen_metric(spec) != gen_metric(GenSpec(n=6, seed=124))


def test_gen_metric_single_point():
    assert gen_metric(GenSpec(n=1, seed=5)).entries.tolist() == [[0.0]]


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gen_metric_is_a_metric(n, seed):
    m = gen_metric(GenSpec(n=n, seed=seed))
    assert m.labels == auto_labels(n)
    assert classify(m).flags["metric"]


def test_gen_metric_entries_lie_on_the_scaled_grid():
    m = gen_metric(GenSpec(n=6, seed=7))
    k = m.entries * 2.0**20 / 10.0
    assert np.array_equal(k, np.round(k))
    tiny = gen_metric(GenSpec(n=4, seed=7, scale=0.5))
    k2 = tiny.entries * 2.0**20 / 0.5
    assert np.array_equal(k2, np.round(k2))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gen_quasi_semi_metric(n, seed):
    m = gen_quasi_semi_metric(GenSpec(n=n, seed=seed))
    assert classify(m).flags["quasi_semi_metric"]


@pytest.mark.parametrize("ty", ["o", "i", "t", "c"])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_gen_protometric_passes_its_type(ty, seed):
    p = gen_protometric(GenSpec(n=5, seed=seed), ty)
    assert check_prequadrangle(p, ty).status is Status.PASS
    if ty in "oic":
        assert classify(p).flags["symmetric_protometric"]


@pytest.mark.parametrize("ty", ["o", "i", "t", "c"])
def test_gen_protometric_strictness(ty):
    strict = gen_protometric(GenSpec(n=5, seed=21), ty, strict=True)
    assert check_prequadrangle(strict, ty).status is Status.PASS
    assert check_strict(strict, "t").status is Status.PASS
    # non-strict instances carry at least one tied pair for n >= 2
    loose = gen_protometric(GenSpec(n=5, seed=21), ty, strict=False)
    assert check_prequadrangle(loose, ty).status is Status.PASS
    assert check_strict(loose, "t").status is Status.FAIL


def test_gen_zero_protometric():
    p = gen_zero_protometric(GenSpec(n=5, seed=9))
    assert classify(p).flags["zero_protometric"]
    zc = zero_coordinates(p)
    rebuilt = np.array([[zc.a[x] + zc.b[y] for y in p.labels] for x in p.labels])
    assert np.array_equal(rebuilt, p.entries)
    d = metrize(p, 1.0)
    assert np.array_equal(d.entries, np.zeros((5, 5)))


def test_shortest_path_closure_golden():
    m = lm([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    c = shortest_path_closure(m)
    assert c.entries.tolist() == [[0.0, 2.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    assert shortest_path_closure(c) == c
    assert check_triangle(c, "t").status is Status.PASS


def test_shortest_path_closure_matches_oracle():
    rng = np.random.default_rng(3)
    for n in (2, 4, 6):
        E = rng.uniform(0.5, 10.0, size=(n, n))
        np.fill_diagonal(E, 0.0)
        m = LabeledMatrix(auto_labels(n), E)
        closed = shortest_path_closure(m)
        assert np.array_equal(closed.entries, np.array(minplus_closure(E.tolist())))
        assert check_triangle(closed, "t").status is Status.PASS


@pytest.mark.blas
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-9]),
                       min_size=n * n, max_size=n * n)))
@example([-0.0, 0.0, -0.0, -0.0])
def test_closure_matches_the_broadcast_closure_bit_for_bit(cells):
    # Bit for bit once -0.0 is read as 0.0; the closure itself holds no -0.0.
    n = math.isqrt(len(cells))
    E = np.array(cells).reshape(n, n)
    got = generators._closure(E)
    assert not np.signbit(got[got == 0]).any()
    assert np.array_equal(got.view(np.int64), (broadcast_closure(E) + 0.0).view(np.int64))


def drawn_edges(n, seed, scale, symmetric):
    """The edges gen_metric (symmetric) or gen_quasi_semi_metric draws, before the closure."""
    off = ~np.eye(n, dtype=bool)
    drawn = np.triu(off) if symmetric else off
    E = np.zeros((n, n))
    E[drawn] = SplitMix64(seed)._units_pos(int(np.count_nonzero(drawn))) * scale
    return E + E.T if symmetric else E


@pytest.mark.blas
@pytest.mark.parametrize("scale", [1.0, 10.0, 2.0**40])
def test_float32_closure_is_the_float64_closure_bit_for_bit(scale):
    for n, seed, symmetric in ((2, 1, True), (40, 2, True), (40, 3, False), (64, 4, False)):
        E = drawn_edges(n, seed, scale, symmetric)
        with certificate_paths(generators) as taken:
            got = generators._closure(E)
        with certificate_paths(generators, force_float64=True):
            want = generators._closure(E)
        assert taken == [True]
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(got.view(np.int64), broadcast_closure(E).view(np.int64))


@pytest.mark.blas
def test_float32_closure_takes_signed_zero_but_refuses_off_grid_and_negative_edges():
    E = drawn_edges(12, 5, 10.0, False)
    signed_zero = E.copy()
    signed_zero[0, 0] = -0.0
    # On the grid, but a negative cycle drives the closure past 2**24 units.
    negative = np.where(np.eye(12, dtype=bool), 0.0, E - 5.0)
    for F, paths in ((E * (1 + 2.0**-40), [False]), (signed_zero, [True]), (negative, [])):
        with certificate_paths(generators) as taken:
            got = generators._closure(F)
        assert taken == paths
        assert np.array_equal(got.view(np.int64), (broadcast_closure(F) + 0.0).view(np.int64))


def test_perturb_two_point_metric_bumps_diagonal():
    m = lm([[0.0, 1.0], [1.0, 0.0]])
    q = perturb_violation(m, "t", 1.0)
    # with two points every eligible target is diagonal; first is (x1, x2, x2)
    assert q.entries.tolist() == [[0.0, 1.0], [1.0, 3.0]]
    assert check_prequadrangle(q, "t").status is Status.FAIL


def test_perturb_zero_matrix_prefers_off_diagonal_target():
    q = perturb_violation(lm(np.zeros((3, 3))), "t", 2.0)
    diff = np.argwhere(q.entries != 0.0)
    assert diff.tolist() == [[1, 2]]
    assert q.entries[1, 2] == 2.0
    assert check_prequadrangle(q, "t").status is Status.FAIL


@pytest.mark.parametrize("ty", ["o", "i", "t", "c"])
def test_perturb_generated_protometrics(ty):
    p = gen_protometric(GenSpec(n=5, seed=31), ty)
    q = perturb_violation(p, ty, 1.0)
    v = check_prequadrangle(q, ty)
    assert v.status is Status.FAIL
    # grid arithmetic keeps the engineered deficit exact
    assert v.min_slack == -1.0
    assert int((q.entries != p.entries).sum()) == 1


@pytest.mark.blas
@settings(max_examples=80, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**64 - 1), st.sampled_from("oitc"),
       st.sampled_from([1.0, 0.25, 3.0]))
def test_perturb_matches_the_reference_loop(n, seed, ty, magnitude):
    # Non-strict protometrics are full of exact ties, some on diagonal targets.
    p = gen_protometric(GenSpec(n, seed), ty)
    s, x, y, z = perturb_target(p.entries.tolist(), ty)
    want = p.entries.copy()
    want[y, z] += s + magnitude
    assert perturb_violation(p, ty, magnitude).entries.tobytes() == want.tobytes()


# A slack may lie below 0 by up to eps_ineq. Here the least slack, -2**-30,
# is reached by a diagonal target at one centre and by an off-diagonal target
# only at another, so the off-diagonal preference decides across centres.
TIE = 2.0**-31


@pytest.mark.parametrize("ty, rows, target", [
    ("t", [[TIE, 0, TIE], [1 - TIE, 1, 1], [0, -TIE, 0]], (2, 0)),
    ("c", [[0, 2, 0], [2, 2 + TIE, 2], [-TIE, 2 + TIE, TIE]], (0, 1)),
    ("o", [[-TIE, 2, -TIE], [2 - TIE, 1 - TIE, 2 - TIE], [-TIE, 2, TIE]], (0, 1)),
    ("i", [[1 + TIE, 2 - TIE, 1], [2, 0, 2], [1, 2, 1]], (1, 2)),
])
def test_perturb_prefers_an_off_diagonal_target_across_centres(ty, rows, target):
    m = lm(rows)
    assert check_prequadrangle(m, ty).status is Status.PASS
    *_, y, z = perturb_target(rows, ty)
    assert (y, z) == target
    q = perturb_violation(m, ty, 1.0)
    assert np.argwhere(q.entries != m.entries).tolist() == [list(target)]


def test_perturb_refuses_a_target_raised_beyond_the_float_range():
    # Every free slack overflows to +inf, so no finite raise exists.
    m = LabeledMatrix(("a", "b"), [[0.0, 1e308], [1e308, 0.0]])
    with pytest.raises(InputError, match=r"^raising p\('b','b'\) by its slack plus magnitude "
                                         r"1.0 leaves the float range$"):
        perturb_violation(m, "t", 1.0)


def test_perturb_skips_the_diagonal_slot_of_the_centre():
    # For type c the only slot on both sides is (x, x), at y = z = x. Its
    # slack is exactly 0, below the rounding residue 2**-54 of p(x1, x2), but
    # raising p(x1, x1) would raise both sides and leave the check passing.
    d = 1.5 * 2.0**-53
    m = lm([[d, 1.0], [1.0, d]])
    q = perturb_violation(m, "c", 1.0)
    assert np.argwhere(q.entries != m.entries).tolist() == [[0, 1]]  # p(x1, x2)
    v = check_prequadrangle(q, "c")
    assert v.status is Status.FAIL and v.min_slack == -1.0


def test_closed_draws_refuse_a_scale_too_small_to_separate_points():
    with pytest.raises(InputError, match="too small to keep distances away from zero"):
        gen_metric(GenSpec(n=2, seed=0, scale=1e-12))


def test_perturb_rejects_bad_magnitude():
    m = lm([[0.0, 1.0], [1.0, 0.0]])
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InputError, match="must be finite and > 0"):
            perturb_violation(m, "t", bad)
    for bad in (True, 1e-10):
        with pytest.raises(InputError):
            perturb_violation(m, "t", bad)
    # a magnitude at the tolerance boundary cannot guarantee detection
    with pytest.raises(InputError, match="magnitude"):
        perturb_violation(m, "t", 1e-9)


def test_perturb_needs_two_points_and_a_passing_input(monkeypatch):
    with pytest.raises(InputError, match="two points"):
        perturb_violation(lm([[0.0]]), "t", 1.0)
    failing = lm([[0.0, -3.0], [1.0, 0.0]])
    with pytest.raises(PreconditionError, match="already fails"):
        perturb_violation(failing, "t", 1.0)
    scanned = []

    def spy(*args, **kwargs):
        verdict = check_prequadrangle(*args, **kwargs)
        scanned.append(verdict.count_checked)
        return verdict

    monkeypatch.setattr(generators, "check_prequadrangle", spy)
    for ty in "oitc":
        broken = perturb_violation(gen_protometric(GenSpec(6, 11), ty), ty, 1.0)
        for M in (failing, broken):
            first = first_violation(check_prequadrangle(M, ty))
            with pytest.raises(PreconditionError) as err:
                perturb_violation(M, ty, 1.0)
            assert first is not None and err.value.witness == first
            # The rejection scans the slabs up to the x of its witness, not all n^3 triples.
            assert scanned[-1] == (M.labels.index(first.x) + 1) * M.n**2
    # An accepted call decides the precondition in its own pass, with no scan.
    scanned.clear()
    for ty in "oitc":
        perturb_violation(gen_protometric(GenSpec(6, 11), ty), ty, 1.0)
    assert scanned == []
