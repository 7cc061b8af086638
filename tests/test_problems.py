"""Objective oracles, constraint blocks, instance generation."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from mdbench.geometry import unit_ball
from mdbench.problems import (
    AffineConstraints,
    DistanceToPoint,
    InstanceSpec,
    MaxAffine,
    MaxDistance,
    MeanDistance,
    build_constraints,
    build_objective,
    deserialize_instance,
    serialize_instance,
)

from oracles import SequentialConstraints

# ---------------------------------------------------------------- oracles


def test_distance_to_point_examples():
    f = DistanceToPoint(np.array([10.0, 0.0]))
    assert f.value(np.zeros(2)) == 10.0
    np.testing.assert_allclose(f.subgrad(np.zeros(2)), [-1.0, 0.0], atol=0)
    assert f.value(np.array([1.0, 0.0])) == 9.0
    assert f.lipschitz_bound == 1.0


def test_distance_to_point_zero_subgradient_at_anchor():
    f = DistanceToPoint(np.array([0.5, -0.5]))
    np.testing.assert_array_equal(f.subgrad(np.array([0.5, -0.5])), [0.0, 0.0])


def test_mean_distance_examples():
    single = MeanDistance([[2.0, 0.0]])
    anchor = DistanceToPoint([2.0, 0.0])
    x = np.array([0.3, 0.4])
    assert single.value(x) == pytest.approx(anchor.value(x), abs=1e-15)

    sym = MeanDistance([[1.0, 0.0], [-1.0, 0.0]])
    assert sym.value(np.zeros(2)) == 1.0
    np.testing.assert_array_equal(sym.subgrad(np.zeros(2)), [0.0, 0.0])

    diag = MeanDistance([[1.0, 0.0], [0.0, 1.0]])
    assert diag.value(np.zeros(2)) == 1.0
    np.testing.assert_allclose(diag.subgrad(np.zeros(2)), [-0.5, -0.5], atol=1e-15)


def test_anchor_points_must_form_a_2d_array():
    for cls in (MeanDistance, MaxDistance):
        with pytest.raises(ValueError, match="^anchor points must form a nonempty 2-D array$"):
            cls([1.0, 2.0])


def test_mean_distance_skips_anchor_at_zero_distance():
    f = MeanDistance([[1.0, 0.0], [0.0, 0.0]])
    g = f.subgrad(np.array([0.0, 0.0]))
    # only the first anchor contributes, scaled by 1/T
    np.testing.assert_allclose(g, [-0.5, 0.0], atol=1e-15)


def test_max_distance_examples():
    f = MaxDistance([[1.0, 0.0], [-1.0, 0.0]])
    assert f.value(np.zeros(2)) == 1.0
    # tie between both anchors, broken toward the lowest index
    np.testing.assert_array_equal(f.subgrad(np.zeros(2)), [-1.0, 0.0])

    g = MaxDistance([[0.0, 0.0], [3.0, 0.0]])
    # at the first anchor the zero-distance term is never selected
    assert g.value(np.zeros(2)) == 3.0
    np.testing.assert_array_equal(g.subgrad(np.zeros(2)), [-1.0, 0.0])


def test_max_distance_direct_enumeration():
    rng = np.random.default_rng(20)
    pts = rng.random((3, 2))
    f = MaxDistance(pts)
    x = np.zeros(2)
    want = max(math.sqrt(float((p - x) @ (p - x))) for p in pts)
    assert f.value(x) == pytest.approx(want, abs=1e-15)


def test_max_affine_examples():
    single = MaxAffine([[2.0, 1.0]], [0.5])
    x = np.array([0.1, 0.2])
    assert single.value(x) == pytest.approx(0.9, abs=1e-15)
    np.testing.assert_array_equal(single.subgrad(x), [2.0, 1.0])

    two = MaxAffine([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    assert two.value(np.array([0.3, 0.7])) == 0.7
    np.testing.assert_array_equal(two.subgrad(np.array([0.3, 0.7])), [0.0, 1.0])
    # exact tie goes to the lowest index
    np.testing.assert_array_equal(two.subgrad(np.array([0.5, 0.5])), [1.0, 0.0])


def test_max_affine_validation():
    with pytest.raises(ValueError, match="2-D"):
        MaxAffine([1.0, 2.0], [0.0])
    with pytest.raises(ValueError, match="match the number of rows"):
        MaxAffine([[1.0, 2.0]], [0.0, 1.0])


@pytest.mark.parametrize("t", [1, 10, 300])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_values_match_value_bit_for_bit(n, t):
    # t = 300 spans more than one 128-element block of numpy's pairwise sum;
    # a NaN row, an empty running average of a traced run, reads NaN
    rng = np.random.default_rng(100 * n + t)
    points = rng.random((t, n))
    X = rng.uniform(-2.0, 2.0, size=(257, n))
    X[0] = points[0]
    X[1] = math.nan
    objectives = (
        DistanceToPoint(points[0]),
        MeanDistance(points),
        MaxDistance(points),
        MaxAffine(points, rng.random(t)),
    )
    for f in objectives:
        want = np.array([f.value(x) for x in X])
        assert math.isnan(want[1])
        assert f.values(X).tobytes() == want.tobytes(), type(f).__name__


@pytest.mark.parametrize("n", [50, 2000])
def test_values_match_value_bit_for_bit_at_solver_sizes(n):
    # the solvers read f at every running average through one values call
    rng = np.random.default_rng(n)
    points = rng.random((7, n))
    X = rng.uniform(-1.0, 1.0, size=(5, n)) / math.sqrt(n)
    objectives = (
        DistanceToPoint(points[0]),
        MeanDistance(points),
        MaxDistance(points),
        MaxAffine(points, rng.random(7)),
    )
    for f in objectives:
        want = np.array([f.value(x) for x in X])
        assert f.values(X).tobytes() == want.tobytes(), type(f).__name__
        for i in range(X.shape[0]):
            one = f.values(X[i:i + 1])
            assert one.tobytes() == want[i:i + 1].tobytes(), type(f).__name__


@pytest.mark.parametrize("t", [1, 10, 300])
@pytest.mark.parametrize("n", [1, 2, 3, 50, 2000])
def test_fused_oracles_match_value_and_subgrad_bit_for_bit(n, t):
    # the solver loop reads f(x^k) and the subgradient from one fused call
    rng = np.random.default_rng(1000 * n + t)
    points = rng.random((t, n))
    # max-affine pieces 0-2 tie at x = 0, and piece 3 repeats piece 1
    a, b = points[::-1].copy(), rng.random(t)
    b[:3] = 1.0
    if t > 3:
        a[3], b[3] = a[1], b[1]
    objectives = (
        DistanceToPoint(points[0]),
        MeanDistance(points),
        MaxDistance(points),
        MaxDistance(points[:1]),  # a row on its one anchor has max distance 0
        MaxAffine(a, b),
    )
    # the first rows hit the special paths: x = 0 ties the max-affine
    # pieces, a row on points[0] sits on an anchor (or on a), and a repeated
    # row must give the same answer twice
    X = rng.uniform(-1.0, 1.0, size=(max(6, min(40, 200_000 // (n * t))), n))
    X[0] = 0.0
    X[1] = X[2] = points[0]
    for f in objectives:
        name = type(f).__name__
        values, grads = f.value_and_subgrad_rows(X)
        assert values.shape == (X.shape[0],) and grads.shape == X.shape, name
        for x, v_row, g_row in zip(X, values, grads):
            v, g = f.value(x), f.subgrad(x)
            v_one, g_one = f.value_and_subgrad(x)
            assert isinstance(v_one, float), name
            assert repr(v_one) == repr(float(v_row)) == repr(v), name
            assert np.float64(v_row).tobytes() == np.float64(v).tobytes(), name
            assert g_one.tobytes() == g_row.tobytes() == g.tobytes(), name


# ---------------------------------------------------------------- constraints


def test_affine_constraints_examples():
    block = AffineConstraints([[1.0, 0.0]], [0.5])
    assert block.value(np.zeros(2)) == -0.5
    assert block.value(np.array([1.0, 0.0])) == 0.5
    np.testing.assert_array_equal(block.subgrad(np.array([1.0, 0.0])), [1.0, 0.0])
    assert block.p == 1
    assert block.lipschitz_bound == 1.0
    tied = AffineConstraints([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    np.testing.assert_array_equal(tied.subgrad(np.ones(2)), [1.0, 0.0])


def test_affine_constraints_aggregate_equals_per_row_exactly():
    rng = np.random.default_rng(21)
    for _ in range(50):
        p, n = int(rng.integers(1, 40)), int(rng.integers(1, 80))
        block = AffineConstraints(rng.standard_normal((p, n)), rng.standard_normal(p))
        for _ in range(20):
            x = rng.standard_normal(n)
            rows = block.row_values(x)
            for i in range(p):
                assert rows[i] == block.value_one(i, x)
            per_row = max(block.value_one(i, x) for i in range(p))
            assert block.value(x) == per_row


def test_affine_constraints_subgrad_is_maximizing_row():
    rng = np.random.default_rng(22)
    block = AffineConstraints(rng.standard_normal((6, 4)), rng.standard_normal(6))
    for _ in range(100):
        x = rng.standard_normal(4)
        vals = [block.value_one(i, x) for i in range(6)]
        i_star = int(np.argmax(vals))
        np.testing.assert_array_equal(block.subgrad(x), block.alphas[i_star])


def test_first_violation_scan_semantics():
    block = AffineConstraints(
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0, 0.0]
    )
    x = np.array([0.5, -1.0])  # per-row values 0.5, -1.0, -0.5

    assert block.first_violation(x, 0.2) == (0, 1)
    assert block.first_violation(x, 0.6) == (None, 3)
    # a value equal to eps is not a violation
    assert block.first_violation(x, 0.5) == (None, 3)

    x2 = np.array([-1.0, 0.5])  # per-row values -1.0, 0.5, -0.5
    assert block.first_violation(x2, 0.2) == (1, 2)


@pytest.mark.parametrize("p", [1, 8])
def test_first_violation_agrees_with_the_sequential_scan(p):
    rng = np.random.default_rng(23 + p)
    alphas, betas = rng.standard_normal((p, 3)), rng.standard_normal(p)
    block, ref = AffineConstraints(alphas, betas), SequentialConstraints(alphas, betas)
    for _ in range(200):
        x = rng.standard_normal(3)
        eps = float(rng.normal())
        assert block.first_violation(x, eps) == ref.first_violation(x, eps)
        # eps equal to a row's value exactly: that row is not a violator
        eps = block.value_one(int(rng.integers(p)), x)
        assert block.first_violation(x, eps) == ref.first_violation(x, eps)


# ---------------------------------------------------------------- generation


def test_best_approx_generation_contract():
    spec = InstanceSpec(kind="best-approx", n=50, seed=42)
    obj = build_objective(spec)
    # the objective holds its data only: f* depends on the feasible set
    assert vars(obj).keys() == {"a", "lipschitz_bound"}
    assert math.sqrt(float(obj.a @ obj.a)) == pytest.approx(10.0, abs=1e-12)
    assert np.all(obj.a > 0.0)


def test_max_linear_generation_contract():
    spec = InstanceSpec(kind="max-linear", n=8, t=5, seed=3)
    obj = build_objective(spec)
    assert obj.a.shape == (5, 8) and obj.b.shape == (5,)
    assert np.all((obj.a >= 0.0) & (obj.a < 1.0))
    assert np.all((obj.b >= 0.0) & (obj.b < 1.0))
    row_norms = np.sqrt((obj.a * obj.a).sum(axis=1))
    assert obj.lipschitz_bound == float(row_norms.max())


def test_constraint_generation_distributions():
    uni = build_constraints(InstanceSpec(kind="max-linear", n=6, t=2, p=4, seed=9))
    assert np.all((uni.alphas >= 0.0) & (uni.alphas < 1.0))
    nrm = build_constraints(
        InstanceSpec(
            kind="max-linear", n=6, t=2, p=4, seed=9, distribution="standard-normal"
        )
    )
    assert np.any(nrm.alphas < 0.0)
    # objective stream is independent of the constraint distribution
    a = build_objective(InstanceSpec(kind="max-linear", n=6, t=2, p=4, seed=9))
    b = build_objective(
        InstanceSpec(
            kind="max-linear", n=6, t=2, p=4, seed=9, distribution="standard-normal"
        )
    )
    assert a.a.tobytes() == b.a.tobytes() and a.b.tobytes() == b.b.tobytes()


def test_no_constraints_when_p_zero():
    assert build_constraints(InstanceSpec(kind="fts", n=4, t=2, seed=1)) is None


def test_generation_is_deterministic():
    spec = InstanceSpec(
        kind="max-linear", n=12, t=7, p=6, seed=123, distribution="standard-normal"
    )
    a1, a2 = build_objective(spec), build_objective(spec)
    assert a1.a.tobytes() == a2.a.tobytes()
    assert a1.b.tobytes() == a2.b.tobytes()
    c1, c2 = build_constraints(spec), build_constraints(spec)
    assert c1.alphas.tobytes() == c2.alphas.tobytes()
    assert c1.betas.tobytes() == c2.betas.tobytes()


def test_different_seeds_differ():
    s1 = build_objective(InstanceSpec(kind="covering-ball", n=5, t=3, seed=1))
    s2 = build_objective(InstanceSpec(kind="covering-ball", n=5, t=3, seed=2))
    assert s1.points.tobytes() != s2.points.tobytes()


def test_instance_spec_validation():
    with pytest.raises(ValueError, match="unknown objective kind"):
        InstanceSpec(kind="nope", n=3)
    with pytest.raises(ValueError, match="n must be"):
        InstanceSpec(kind="fts", n=0)
    with pytest.raises(ValueError, match="t must be"):
        InstanceSpec(kind="fts", n=3, t=0)
    with pytest.raises(ValueError, match="p must be"):
        InstanceSpec(kind="fts", n=3, p=-1)
    with pytest.raises(ValueError, match="unknown distribution"):
        InstanceSpec(kind="fts", n=3, distribution="cauchy")


def test_a_fractional_dimension_is_refused_by_name():
    with pytest.raises(ValueError, match=r"^n must be an integer, got 2\.5$"):
        InstanceSpec(kind="fts", n=2.5)


def test_numpy_integer_fields_are_stored_as_python_ints():
    spec = InstanceSpec(kind="fts", n=np.int64(3), t=np.int32(2), p=np.int64(1),
                        seed=np.uint8(7))
    assert [type(v) for v in (spec.n, spec.t, spec.p, spec.seed)] == [int] * 4
    assert json.loads(json.dumps(spec.to_dict()))["n"] == 3
    assert spec == InstanceSpec(kind="fts", n=3, t=2, p=1, seed=7)


def test_a_negative_seed_is_refused_by_name():
    with pytest.raises(ValueError, match="^seed must be nonnegative$"):
        InstanceSpec(kind="fts", n=3, seed=-1)


def test_a_document_with_a_fractional_field_is_refused_not_truncated():
    doc = InstanceSpec(kind="fts", n=3).to_dict()
    with pytest.raises(ValueError, match=r"^n must be an integer, got 2\.5$"):
        InstanceSpec.from_dict(dict(doc, n=2.5))


def test_serialization_round_trip_bit_exact():
    for kind, t in (("best-approx", 1), ("fts", 4), ("covering-ball", 3), ("max-linear", 5)):
        spec = InstanceSpec(
            kind=kind, n=7, t=t, p=3, seed=77, distribution="standard-normal"
        )
        doc = json.loads(json.dumps(serialize_instance(spec)))
        spec2, obj2, cons2 = deserialize_instance(doc)
        assert spec2 == spec
        obj1 = build_objective(spec)
        if kind in ("fts", "covering-ball"):
            assert obj2.points.tobytes() == obj1.points.tobytes()
        elif kind == "max-linear":
            assert obj2.a.tobytes() == obj1.a.tobytes()
            assert obj2.b.tobytes() == obj1.b.tobytes()
        else:
            assert doc["objective"].keys() == {"a"}
            assert obj2.a.tobytes() == obj1.a.tobytes()
            # older documents also stored the unit ball's f*; it is ignored
            old = dict(doc, objective=dict(doc["objective"], known_fstar=9.0))
            assert deserialize_instance(old)[1].a.tobytes() == obj1.a.tobytes()
        cons1 = build_constraints(spec)
        assert cons2.alphas.tobytes() == cons1.alphas.tobytes()
        assert cons2.betas.tobytes() == cons1.betas.tobytes()


# ---------------------------------------------------------------- invariants

_SPECS = (
    InstanceSpec(kind="best-approx", n=6, seed=31),
    InstanceSpec(kind="fts", n=6, t=5, seed=32),
    InstanceSpec(kind="covering-ball", n=6, t=5, seed=33),
    InstanceSpec(kind="max-linear", n=6, t=5, seed=34),
)


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.kind)
def test_subgradient_inequality_on_random_pairs(spec):
    obj = build_objective(spec)
    ball = unit_ball(spec.n)
    rng = np.random.default_rng(spec.seed)
    for _ in range(1000):
        x = ball.project(rng.normal(size=spec.n))
        y = ball.project(rng.normal(size=spec.n))
        g = obj.subgrad(x)
        assert obj.value(y) >= obj.value(x) + float(g @ (y - x)) - 1e-9


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.kind)
def test_lipschitz_bound_on_random_pairs(spec):
    obj = build_objective(spec)
    ball = unit_ball(spec.n)
    rng = np.random.default_rng(spec.seed + 100)
    for _ in range(500):
        x = ball.project(rng.normal(size=spec.n))
        y = ball.project(rng.normal(size=spec.n))
        d = math.sqrt(float((x - y) @ (x - y)))
        assert abs(obj.value(x) - obj.value(y)) <= obj.lipschitz_bound * d + 1e-12
        gn = math.sqrt(float(obj.subgrad(x) @ obj.subgrad(x)))
        assert gn <= obj.lipschitz_bound + 1e-12


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.kind)
def test_convexity_along_random_segments(spec):
    obj = build_objective(spec)
    ball = unit_ball(spec.n)
    rng = np.random.default_rng(spec.seed + 200)
    for _ in range(500):
        x = ball.project(rng.normal(size=spec.n))
        y = ball.project(rng.normal(size=spec.n))
        mid = 0.5 * (x + y)
        assert obj.value(mid) <= 0.5 * (obj.value(x) + obj.value(y)) + 1e-12


def test_constraint_subgradient_inequality():
    spec = InstanceSpec(
        kind="max-linear", n=6, t=2, p=5, seed=35, distribution="standard-normal"
    )
    cons = build_constraints(spec)
    ball = unit_ball(6)
    rng = np.random.default_rng(35)
    for _ in range(1000):
        x = ball.project(rng.normal(size=6))
        y = ball.project(rng.normal(size=6))
        g = cons.subgrad(x)
        assert cons.value(y) >= cons.value(x) + float(g @ (y - x)) - 1e-9


def test_mean_distance_subgrad_matches_the_masked_sum_bit_for_bit():
    # away from every anchor the mask keeps all rows; the subgradient must
    # be the masked sum all the same
    rng = np.random.default_rng(77)
    obj = MeanDistance(rng.random((10, 50)))
    for _ in range(20):
        x = rng.normal(size=50)
        d = x - obj.points
        r = np.sqrt((d * d).sum(axis=1))
        nz = r > 0.0
        want = (d[nz] / r[nz, None]).sum(axis=0) / obj.points.shape[0]
        assert obj.subgrad(x).tobytes() == want.tobytes()
