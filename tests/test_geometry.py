"""Feasible sets, Bregman divergences, mirror steps, composite steps."""
from __future__ import annotations

import math

import numpy as np
import pytest

from mdbench.geometry import (
    L1,
    Ball,
    ProxSetup,
    Simplex,
    Zero,
    bregman,
    composite_mirror_step,
    entropy_setup,
    euclidean_setup,
    grad_psi,
    mirror_step,
    mirror_step_rows,
    unit_ball,
)
from mdbench.space import NormKind, norm

from oracles import ball2_argmin, kl_divergence, simplex2_argmin, simplex_project_qp

EUC = euclidean_setup()
ENT = entropy_setup()


def _simplex_points(rng, n, count):
    # interior points, bounded away from the boundary for stable logs
    raw = rng.random((count, n)) + 0.05
    return raw / raw.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------- sets


def test_ball_projection_examples():
    b = unit_ball(2)
    np.testing.assert_allclose(b.project(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)
    np.testing.assert_array_equal(b.project(np.array([0.1, 0.2])), [0.1, 0.2])


@pytest.mark.parametrize("rows", [False, True])
def test_ball_projection_returns_its_input_inside_and_never_writes_to_it(rows):
    ball = Ball(np.array([0.5, -0.5, 0.0]), 1.5)
    project = ball.project_rows if rows else ball.project
    inside = np.array([[0.6, -0.4, 0.2], [0.5, -0.5, 1.5]])
    outside = np.array([[0.6, -0.4, 0.2], [3.0, 1.0, -2.0]])
    if not rows:
        inside, outside = inside[1], outside[1]
    assert project(inside) is inside
    before = outside.copy()
    got = project(outside)
    assert got is not outside and not np.shares_memory(got, outside)
    assert outside.tobytes() == before.tobytes()
    assert np.all(np.linalg.norm(np.atleast_2d(got) - ball.center, axis=1) <= 1.5 + 1e-15)
    # a list is read as a float64 array, with the same bytes
    for x in (inside, outside):
        assert project(x.tolist()).tobytes() == project(x.copy()).tobytes()


def test_ball_validation_and_membership():
    with pytest.raises(ValueError, match="radius"):
        Ball(np.zeros(2), 0.0)
    b = Ball(np.array([1.0, 1.0]), 2.0)
    assert b.contains(np.array([1.0, 1.0]))
    assert b.contains(np.array([3.0, 1.0]))
    assert not b.contains(np.array([3.1, 1.0]))


def test_simplex_projection_example():
    s = Simplex(2)
    got = s.project(np.array([0.8, 0.8]))
    np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-15)
    # frozen against the 1-D quadratic refinement oracle
    np.testing.assert_allclose(got, simplex_project_qp([0.8, 0.8]), atol=1e-9)


def test_simplex_projection_against_oracle():
    s = Simplex(2)
    rng = np.random.default_rng(5)
    for _ in range(25):
        v = rng.normal(size=2) * 2.0
        got = s.project(v)
        assert s.contains(got)
        # grid refinement of a quadratic is value-noise limited near 1e-8
        np.testing.assert_allclose(got, simplex_project_qp(v), atol=1e-7)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_project_rows_match_project_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    ball = Ball(rng.uniform(-1.0, 1.0, size=n), 2.5)
    u = rng.normal(size=(300, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    # rows at the center, inside, on the sphere and outside
    scale = rng.choice([0.0, 0.4, 1.0, 3.0], size=(300, 1))
    ball_rows = ball.center + 2.5 * scale * u
    simplex_rows = np.vstack([
        _simplex_points(rng, n, 100),
        np.eye(n),
        rng.normal(size=(200, n)) * 2.0,
    ])
    for feasible, rows in ((ball, ball_rows), (Simplex(n), simplex_rows)):
        want = np.array([feasible.project(r) for r in rows])
        assert feasible.project_rows(rows).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 10, 50, 257, 20000])
def test_norm_and_ball_projection_equal_the_np_dot_forms_bit_for_bit(n):
    rng = np.random.default_rng(n)
    ball = Ball(rng.normal(size=n), 1.5)
    for _ in range(20):
        v = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e3])
        assert norm(v, NormKind.L2) == math.sqrt(np.dot(v, v))
        d = v - ball.center
        r = math.sqrt(np.dot(d, d))
        want = v if r <= ball.radius else ball.center + d * (ball.radius / r)
        assert ball.project(v).tobytes() == want.tobytes()


def test_simplex_validation():
    with pytest.raises(ValueError, match="at least 1"):
        Simplex(0)
    s = Simplex(3)
    assert s.contains(np.array([0.2, 0.3, 0.5]))
    assert not s.contains(np.array([0.2, 0.3]))
    assert not s.contains(np.array([0.6, 0.6, -0.2]))


def test_projection_is_idempotent():
    rng = np.random.default_rng(6)
    b = unit_ball(4)
    s = Simplex(4)
    for _ in range(50):
        v = rng.normal(size=4) * 3.0
        pb = b.project(v)
        np.testing.assert_allclose(b.project(pb), pb, atol=1e-14)
        ps = s.project(v)
        np.testing.assert_allclose(s.project(ps), ps, atol=1e-12)


# ---------------------------------------------------------------- bregman


def test_bregman_examples():
    assert bregman(EUC, np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 0.5
    x = np.array([0.3, 0.7])
    assert bregman(EUC, x, x) == 0.0
    assert bregman(ENT, x, x) == pytest.approx(0.0, abs=1e-15)


def test_bregman_entropy_frozen_value():
    got = bregman(ENT, np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    assert got == pytest.approx(0.14384103622589042, abs=1e-15)
    assert got == pytest.approx(
        kl_divergence([0.5, 0.5], [0.25, 0.75]), abs=1e-15
    )


def test_bregman_entropy_domain_errors():
    with pytest.raises(ValueError, match="strictly positive"):
        bregman(ENT, np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="strictly positive"):
        bregman(ENT, np.array([0.5, 0.5]), np.array([-0.1, 1.1]))


def test_grad_psi_examples():
    np.testing.assert_array_equal(
        grad_psi(EUC, np.array([2.0, -1.0])), [2.0, -1.0]
    )
    np.testing.assert_allclose(grad_psi(ENT, np.array([1.0, 1.0])), [1.0, 1.0], atol=0)
    np.testing.assert_allclose(
        grad_psi(ENT, np.array([math.e, math.e])), [2.0, 2.0], atol=1e-15
    )
    with pytest.raises(ValueError, match="strictly positive"):
        grad_psi(ENT, np.array([1.0, 0.0]))


def test_three_points_identity_both_setups():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a, b, c = rng.normal(size=(3, 5)) * 3.0
        lhs = float((grad_psi(EUC, b) - grad_psi(EUC, a)) @ (c - a))
        rhs = bregman(EUC, c, a) + bregman(EUC, a, b) - bregman(EUC, c, b)
        assert abs(lhs - rhs) <= 1e-9
    for _ in range(1000):
        a, b, c = _simplex_points(rng, 5, 3)
        lhs = float((grad_psi(ENT, b) - grad_psi(ENT, a)) @ (c - a))
        rhs = bregman(ENT, c, a) + bregman(ENT, a, b) - bregman(ENT, c, b)
        assert abs(lhs - rhs) <= 1e-9


def test_bregman_strong_convexity_lower_bound():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        x, y = rng.normal(size=(2, 5)) * 2.0
        d = norm(x - y, NormKind.L2)
        assert bregman(EUC, x, y) >= 0.5 * d * d - 1e-12
    for _ in range(1000):
        x, y = _simplex_points(rng, 5, 2)
        d = norm(x - y, NormKind.L1)
        assert bregman(ENT, x, y) >= 0.5 * d * d - 1e-12


def test_fenchel_young_inequality():
    rng = np.random.default_rng(9)
    for kind in (NormKind.L2, NormKind.L1):
        dual = NormKind.L2 if kind is NormKind.L2 else NormKind.LINF
        for _ in range(500):
            a = rng.normal(size=4) * 3.0
            b = rng.normal(size=4) * 3.0
            lam = float(rng.random()) * 5.0 + 1e-3
            lhs = float(a @ b)
            na, nb = norm(a, kind), norm(b, dual)
            assert lhs <= na * na / (2.0 * lam) + lam * nb * nb / 2.0 + 1e-12


# ---------------------------------------------------------------- mirror step


def test_mirror_step_euclid_example():
    got = mirror_step(EUC, unit_ball(2), np.array([0.0, 0.0]), np.array([3.0, 4.0]), 1.0)
    np.testing.assert_allclose(got, [-0.6, -0.8], atol=1e-15)
    np.testing.assert_allclose(
        got, ball2_argmin([0.0, 0.0], [3.0, 4.0], 1.0), atol=1e-6
    )


def test_mirror_step_zero_subgradient_fixes_point():
    x = np.array([0.1, 0.0])
    got = mirror_step(EUC, unit_ball(2), x, np.zeros(2), 1.0)
    np.testing.assert_array_equal(got, x)


def test_mirror_step_entropy_example():
    got = mirror_step(
        ENT, Simplex(2), np.array([0.5, 0.5]), np.array([math.log(2.0), 0.0]), 1.0
    )
    np.testing.assert_allclose(got, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)
    np.testing.assert_allclose(
        got,
        simplex2_argmin([0.5, 0.5], [math.log(2.0), 0.0], 1.0),
        atol=1e-5,
    )


def test_the_prox_fixes_its_norm_and_modulus():
    assert (EUC.norm, EUC.sigma) == (NormKind.L2, 1.0)
    assert (ENT.norm, ENT.sigma) == (NormKind.L1, 1.0)
    assert ProxSetup("entropy") == ENT
    with pytest.raises(ValueError, match="unknown prox kind: 'bogus'"):
        ProxSetup("bogus")


def test_the_prox_states_theta_for_its_set():
    assert EUC.theta(unit_ball(3)) == 2.0
    assert EUC.theta(Ball(np.zeros(4), 10.0)) == 200.0
    assert EUC.theta(Simplex(6)) == 1.0
    assert ENT.theta(Simplex(6)) == math.log(6)
    # the one-point simplex: V is 0, and theta stays positive
    assert ENT.theta(Simplex(1)) == 1.0
    with pytest.raises(ValueError, match="entropy prox supports only the simplex"):
        ENT.theta(unit_ball(3))


def test_mirror_step_errors():
    with pytest.raises(ValueError, match="gamma must be positive"):
        mirror_step(EUC, unit_ball(2), np.zeros(2), np.ones(2), 0.0)
    with pytest.raises(ValueError, match="gamma must be positive"):
        mirror_step(EUC, unit_ball(2), np.zeros(2), np.ones(2), -1.0)
    with pytest.raises(ValueError, match="only the simplex"):
        mirror_step(ENT, unit_ball(2), np.array([0.5, 0.5]), np.ones(2), 1.0)


def test_mirror_step_output_feasible():
    rng = np.random.default_rng(10)
    ball = unit_ball(4)
    simplex = Simplex(4)
    for _ in range(200):
        xb = ball.project(rng.normal(size=4))
        g = rng.normal(size=4) * 4.0
        gamma = float(rng.random()) * 2.0 + 1e-3
        assert ball.contains(mirror_step(EUC, ball, xb, g, gamma), tol=1e-12)
        xs = _simplex_points(rng, 4, 1)[0]
        assert simplex.contains(mirror_step(ENT, simplex, xs, g, gamma), tol=1e-12)


def test_mirror_step_argmin_optimality_euclid():
    rng = np.random.default_rng(11)
    ball = unit_ball(3)
    for _ in range(25):
        x = ball.project(rng.normal(size=3))
        g = rng.normal(size=3) * 3.0
        gamma = float(rng.random()) + 0.05
        y = mirror_step(EUC, ball, x, g, gamma)
        fy = float(y @ g) + bregman(EUC, y, x) / gamma
        for _ in range(100):
            z = ball.project(rng.normal(size=3) * 1.5)
            fz = float(z @ g) + bregman(EUC, z, x) / gamma
            assert fy <= fz + 1e-12


def test_mirror_step_argmin_optimality_entropy():
    rng = np.random.default_rng(12)
    simplex = Simplex(3)
    for _ in range(25):
        x = _simplex_points(rng, 3, 1)[0]
        g = rng.normal(size=3) * 3.0
        gamma = float(rng.random()) + 0.05
        y = mirror_step(ENT, simplex, x, g, gamma)
        fy = float(y @ g) + bregman(ENT, y, x) / gamma
        for _ in range(100):
            z = _simplex_points(rng, 3, 1)[0]
            fz = float(z @ g) + bregman(ENT, z, x) / gamma
            assert fy <= fz + 1e-12


# ---------------------------------------------------------------- composite


def test_composite_examples():
    ball10 = Ball(np.zeros(2), 10.0)
    got = composite_mirror_step(
        EUC, ball10, np.array([1.0, 0.0]), np.zeros(2), 1.0, L1(0.5)
    )
    np.testing.assert_allclose(got, [0.5, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        got, ball2_argmin([1.0, 0.0], [0.0, 0.0], 1.0, lam=0.5, radius=10.0), atol=1e-6
    )
    got = composite_mirror_step(
        EUC, ball10, np.array([0.2, 0.0]), np.zeros(2), 1.0, L1(0.5)
    )
    np.testing.assert_array_equal(got, [0.0, 0.0])


def test_composite_zero_reduces_to_mirror_step():
    rng = np.random.default_rng(13)
    ball = unit_ball(3)
    for _ in range(50):
        x = ball.project(rng.normal(size=3))
        g = rng.normal(size=3)
        gamma = float(rng.random()) + 0.05
        a = composite_mirror_step(EUC, ball, x, g, gamma, Zero())
        b = mirror_step(EUC, ball, x, g, gamma)
        np.testing.assert_array_equal(a, b)


def test_composite_centered_ball_boundary_case_matches_oracle():
    # exterior soft-threshold point, pulled back radially
    ball = unit_ball(2)
    x = np.array([0.9, -0.3])
    g = np.array([-4.0, 1.0])
    got = composite_mirror_step(EUC, ball, x, g, 0.8, L1(0.4))
    assert ball.contains(got, tol=1e-12)
    np.testing.assert_allclose(
        got, ball2_argmin(x, g, 0.8, lam=0.4, radius=1.0), atol=1e-6
    )


def test_composite_offcenter_ball_matches_oracle():
    center = np.array([2.0, 0.5])
    ball = Ball(center, 1.5)
    rng = np.random.default_rng(14)
    for _ in range(10):
        x = ball.project(center + rng.normal(size=2))
        g = rng.normal(size=2) * 3.0
        gamma = float(rng.random()) + 0.2
        lam = float(rng.random()) * 0.8
        got = composite_mirror_step(EUC, ball, x, g, gamma, L1(lam))
        assert ball.contains(got, tol=1e-12)
        want = ball2_argmin(x, g, gamma, lam=lam, radius=1.5, center=center)
        np.testing.assert_allclose(got, want, atol=1e-5)


def test_composite_argmin_optimality():
    rng = np.random.default_rng(15)
    ball = Ball(np.zeros(2), 3.0)
    for _ in range(25):
        x = ball.project(rng.normal(size=2) * 2.0)
        g = rng.normal(size=2) * 2.0
        gamma = float(rng.random()) + 0.1
        lam = float(rng.random())
        h = L1(lam)
        y = composite_mirror_step(EUC, ball, x, g, gamma, h)
        fy = gamma * float(y @ g) + gamma * h.value(y) + bregman(EUC, y, x)
        for _ in range(100):
            z = ball.project(rng.normal(size=2) * 2.5)
            fz = gamma * float(z @ g) + gamma * h.value(z) + bregman(EUC, z, x)
            assert fy <= fz + 1e-12


def test_composite_simplex_l1_is_constant_shift():
    # |y|_1 = 1 on the simplex, so the regularizer cannot move the argmin
    s = Simplex(3)
    x = np.array([0.2, 0.3, 0.5])
    g = np.array([1.0, -2.0, 0.5])
    a = composite_mirror_step(EUC, s, x, g, 0.7, L1(0.9))
    b = mirror_step(EUC, s, x, g, 0.7)
    np.testing.assert_array_equal(a, b)


def test_composite_errors():
    with pytest.raises(ValueError, match="l1 weight"):
        L1(-0.1)
    with pytest.raises(ValueError, match="gamma must be positive"):
        composite_mirror_step(
            EUC, unit_ball(2), np.zeros(2), np.ones(2), 0.0, L1(0.5)
        )
    with pytest.raises(ValueError, match="squared-Euclidean"):
        composite_mirror_step(
            ENT, Simplex(2), np.array([0.5, 0.5]), np.ones(2), 1.0, L1(0.5)
        )


def test_regularizer_values():
    assert Zero().value(np.array([3.0, -4.0])) == 0.0
    assert L1(0.5).value(np.array([3.0, -4.0])) == 3.5


# ---------------------------------------------------------------- row forms


@pytest.mark.parametrize("rows", [1, 2, 9])
@pytest.mark.parametrize("n", [1, 3, 300])
def test_step_rows_match_the_1d_steps_bit_for_bit(rows, n):
    rng = np.random.default_rng(60 + 7 * rows + n)
    simplex = Simplex(n)
    centered, off = unit_ball(n), Ball(rng.uniform(-1.0, 1.0, size=n), 1.5)
    G = rng.normal(size=(rows, n)) * 3.0
    # steps small enough to stay inside and large enough to leave
    gammas = list(rng.choice([1e-4, 0.05, 0.7, 3.0], size=rows))
    cases = [
        (ENT, simplex, _simplex_points(rng, n, rows)),
        (EUC, simplex, _simplex_points(rng, n, rows)),
        (EUC, centered, centered.project_rows(rng.normal(size=(rows, n)) * 0.5)),
        (EUC, off, off.project_rows(off.center + rng.normal(size=(rows, n)))),
    ]
    for setup, feasible, X in cases:
        got = mirror_step_rows(setup, feasible, X, G, gammas)
        want = [mirror_step(setup, feasible, x, g, gm) for x, g, gm in zip(X, G, gammas)]
        assert got.shape == (rows, n)
        assert got.tobytes() == np.array(want).tobytes(), (setup.psi_kind, feasible)


def test_step_rows_validate_like_the_1d_steps():
    X, G = np.full((2, 2), 0.5), np.ones((2, 2))
    with pytest.raises(ValueError, match="gamma must be positive"):
        mirror_step_rows(EUC, unit_ball(2), X, G, [0.1, 0.0])
    with pytest.raises(ValueError, match="only the simplex"):
        mirror_step_rows(ENT, unit_ball(2), X, G, [0.1, 0.1])
