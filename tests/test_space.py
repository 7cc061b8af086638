"""Vector plumbing: norms and dual pairings."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdbench.space import NormKind, as_point, dual_norm_kind, norm, norm_rows

from oracles import norm_direct

_KINDS = (NormKind.L1, NormKind.L2, NormKind.LINF)


def test_norm_examples():
    assert norm(np.array([3.0, 4.0]), NormKind.L2) == 5.0
    assert norm(np.zeros(3), NormKind.L1) == 0.0
    assert norm(np.array([1.0, -2.0, 3.0]), NormKind.LINF) == 3.0


def test_norm_zero_iff_zero_vector():
    rng = np.random.default_rng(0)
    for kind in _KINDS:
        assert norm(np.zeros(4), kind) == 0.0
        for _ in range(20):
            x = rng.normal(size=4)
            if np.any(x != 0.0):
                assert norm(x, kind) > 0.0


def test_norm_matches_direct_formulas():
    rng = np.random.default_rng(1)
    for kind, name in ((NormKind.L1, "l1"), (NormKind.L2, "l2"), (NormKind.LINF, "linf")):
        for _ in range(50):
            x = rng.normal(size=rng.integers(1, 8))
            assert norm(x, kind) == pytest.approx(norm_direct(x, name), abs=1e-14)


def test_dual_pairings():
    assert dual_norm_kind(NormKind.L2) is NormKind.L2
    assert dual_norm_kind(NormKind.L1) is NormKind.LINF
    assert dual_norm_kind(NormKind.LINF) is NormKind.L1


def test_dual_is_involutive():
    for kind in _KINDS:
        assert dual_norm_kind(dual_norm_kind(kind)) is kind


def test_as_point_validation():
    out = as_point([1, 2, 3])
    assert out.dtype == np.float64 and out.shape == (3,)
    with pytest.raises(ValueError, match="1-D"):
        as_point(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="1-D"):
        as_point([])
    with pytest.raises(ValueError, match="finite"):
        as_point([1.0, np.nan])
    with pytest.raises(ValueError, match="finite"):
        as_point([np.inf, 0.0])


_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=6
)


@settings(max_examples=200, deadline=None)
@given(_vectors, _vectors)
def test_cauchy_schwarz_all_pairings(xs, ys):
    n = min(len(xs), len(ys))
    a = np.array(xs[:n])
    b = np.array(ys[:n])
    for kind in _KINDS:
        lhs = float(np.dot(a, b))
        rhs = norm(a, kind) * norm(b, dual_norm_kind(kind))
        assert lhs <= rhs + 1e-12 * (1.0 + rhs)


@settings(max_examples=200, deadline=None)
@given(_vectors, _vectors, st.floats(min_value=-100.0, max_value=100.0))
def test_triangle_inequality_and_homogeneity(xs, ys, c):
    n = min(len(xs), len(ys))
    a = np.array(xs[:n])
    b = np.array(ys[:n])
    for kind in _KINDS:
        na, nb = norm(a, kind), norm(b, kind)
        assert norm(a + b, kind) <= na + nb + 1e-9 * (1.0 + na + nb)
        assert norm(c * a, kind) == pytest.approx(abs(c) * na, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("rows", [1, 2, 9])
@pytest.mark.parametrize("n", [1, 5, 300])
def test_norm_rows_match_norm_bit_for_bit(rows, n):
    rng = np.random.default_rng(rows * 1000 + n)
    P = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-150, 150, size=(rows, 1))
    for kind in _KINDS:
        got = norm_rows(P, kind)
        assert [repr(v) for v in got] == [repr(norm(p, kind)) for p in P]
