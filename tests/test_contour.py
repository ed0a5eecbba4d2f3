import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptspec.contour import (
    StraightLine,
    UShaped,
    derivatives,
    evaluate,
    pt_residual,
)
from ptspec.errors import DomainError

PT_TOL = 1e-12


def test_evaluate_arc_bottom():
    # middle branch at s = 0: eps * exp(-i*pi/2)
    assert evaluate(UShaped(1.0), 0.0) == pytest.approx(-1j, abs=1e-15)


def test_evaluate_junction_value_continuous():
    # junction s = pi/2 for eps = 1: arc and straight branch agree on 1+0i
    c = UShaped(1.0)
    j = c.junction
    assert evaluate(c, j) == pytest.approx(1.0 + 0.0j, abs=1e-15)
    below = evaluate(c, np.nextafter(j, 0.0))
    above = evaluate(c, np.nextafter(j, np.inf))
    assert abs(below - above) < 1e-14


def test_evaluate_straightline_real_axis():
    assert evaluate(StraightLine(0.0), 2.5) == 2.5 + 0.0j


def test_junction_first_derivative_continuous():
    c = UShaped(0.7)
    for j in (c.junction, -c.junction):
        lo = derivatives(c, np.nextafter(j, -np.inf))
        hi = derivatives(c, np.nextafter(j, np.inf))
        assert abs(lo - hi) < 1e-14


def test_derivatives_upper_branch():
    assert derivatives(UShaped(1.0), 10.0) == 1j


def test_derivatives_arc_magnitudes():
    xp = derivatives(UShaped(1.0), 0.0)
    assert abs(xp) == pytest.approx(1.0, rel=1e-15)


def test_derivatives_straightline_lower_branch():
    xp = derivatives(StraightLine(math.pi / 2), -3.0)
    assert xp == pytest.approx(-1j, abs=1e-15)


@pytest.mark.parametrize("eps", [0.25, 1.0, 3.0])
def test_unit_speed_everywhere(eps):
    s = np.linspace(-4 * eps - 5, 4 * eps + 5, 2001)
    xp = derivatives(UShaped(eps), s)
    np.testing.assert_allclose(np.abs(xp), 1.0, rtol=1e-14)


@pytest.mark.parametrize(
    "contour,s",
    [
        (UShaped(1.0), 5.0),
        (StraightLine(0.3), 1.2),
        (UShaped(0.25), 0.1),
    ],
)
def test_pt_residual_spot_values(contour, s):
    assert pt_residual(contour, s) <= PT_TOL


@given(
    s=st.floats(min_value=-50, max_value=50),
    eps=st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=300, deadline=None)
def test_pt_residual_property_ushaped(s, eps):
    assert pt_residual(UShaped(eps), s) <= PT_TOL


@given(
    s=st.floats(min_value=-50, max_value=50),
    phi=st.floats(min_value=-1.5, max_value=1.5),
)
@settings(max_examples=300, deadline=None)
def test_pt_residual_property_line(s, phi):
    assert pt_residual(StraightLine(phi), s) <= PT_TOL


@pytest.mark.parametrize(
    "c",
    [UShaped(eps) for eps in (0.3, 1.0, 2.5, 0.0)]
    + [StraightLine(phi) for phi in (0.0, 0.4, math.pi / 2)],
    ids=repr,
)
def test_central_difference_matches_analytic_derivative(c):
    # every branch of the path: both straight halves, and the arc where eps > 0
    rng = np.random.default_rng(7)
    s = rng.uniform(-8, 8, 200)
    junction = c.junction if isinstance(c, UShaped) else 0.0
    s = s[(np.abs(np.abs(s) - junction) > 0.05) & (np.abs(s) > 0.05)]  # off the kinks
    for h in (1e-3, 5e-4):
        num = (evaluate(c, s + h) - evaluate(c, s - h)) / (2 * h)
        xp = derivatives(c, s)
        assert np.max(np.abs(num - xp)) < 2.0 * h * h


def test_closest_approach_is_epsilon():
    for eps in (0.3, 1.0, 2.5):
        s = np.linspace(-15, 15, 40001)
        dist = np.abs(evaluate(UShaped(eps), s))
        assert abs(dist.min() - eps) < 1e-6


def test_epsilon_zero_degenerate_contour():
    c = UShaped(0.0)
    s = np.array([-2.0, -0.5, 0.5, 2.0])
    np.testing.assert_allclose(evaluate(c, s), 1j * np.abs(s))


def test_pointwise_limit_to_degenerate_contour():
    s_values = (-2.0, 0.7, 3.0)
    for s in s_values:
        prev = np.inf
        for eps in (0.1, 0.01, 0.001):
            gap = abs(evaluate(UShaped(eps), s) - evaluate(UShaped(0.0), s))
            assert gap < prev
            prev = gap
        assert prev < 5e-3


def test_negative_epsilon_rejected():
    # NaN compares false with 0, so a sign test alone lets it through
    for epsilon in (-0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            UShaped(epsilon)


def test_nonfinite_phi_rejected():
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=f"^phi must be finite, got {phi}$"):
            StraightLine(phi)


def _bits(z) -> bytes:
    return struct.pack("<2d", z.real, z.imag)


@st.composite
def _path_points(draw):
    contour = draw(st.one_of(
        st.just(UShaped(0.0)),
        st.builds(UShaped, st.floats(1e-3, 10.0)),
        st.builds(StraightLine, st.floats(-math.pi, math.pi)),
    ))
    c = contour.junction if isinstance(contour, UShaped) else 0.0
    edges = (c, -c, math.nextafter(c, math.inf), math.nextafter(-c, -math.inf), 0.0, -0.0)
    return contour, draw(st.one_of(st.floats(-1e3, 1e3), st.sampled_from(edges)))


@given(point=_path_points())
@example(point=(UShaped(1.0), UShaped(1.0).junction))
@example(point=(UShaped(1.0), -UShaped(1.0).junction))
@example(point=(UShaped(1.0), 0.0))
@example(point=(UShaped(1.0), -0.0))
@example(point=(UShaped(0.0), -0.0))
@example(point=(StraightLine(-0.3), -0.0))
@settings(max_examples=500, deadline=None)
def test_path_of_a_float_is_the_array_path_bit_for_bit(point):
    # a float (numpy's float64 included) runs on math and cmath, an array on
    # numpy: the same bits, signed zeros included, and a complex for a scalar
    contour, s = point
    for f in (evaluate, derivatives):
        want = _bits(f(contour, np.array([s]))[0])
        assert type(f(contour, s)) is complex
        assert _bits(f(contour, s)) == want
        assert _bits(f(contour, np.float64(s))) == want
        if s.is_integer():
            assert _bits(f(contour, int(s))) == _bits(f(contour, np.array([int(s)]))[0])


@pytest.mark.parametrize("contour, s, x, xp", [
    (UShaped(1.0), -0.0, complex(0.0, -1.0), complex(1.0, 0.0)),
    (UShaped(0.0), -0.0, complex(0.0, 0.0), complex(0.0, 1.0)),
    (StraightLine(0.3), -0.0, complex(-0.0, 0.0), cmath.exp(0.3j)),
    (StraightLine(-0.3), -0.0, complex(0.0, 0.0), cmath.exp(-0.3j)),
    (StraightLine(3.0), 0.0, complex(-0.0, 0.0), cmath.exp(3j)),
    (StraightLine(3.0), -0.0, complex(0.0, -0.0), cmath.exp(3j)),
], ids=repr)
def test_signed_zeros_at_the_origin(contour, s, x, xp):
    # the zeros that complex arithmetic gives, a real s taken as s + 0i
    for arg, first in ((s, lambda z: z), (np.array([s]), lambda z: z[0])):
        assert _bits(first(evaluate(contour, arg))) == _bits(x)
        assert _bits(first(derivatives(contour, arg))) == _bits(xp)
