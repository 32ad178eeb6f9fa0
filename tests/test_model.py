"""Polynomial potentials, derivatives, series truncation, parameter parsing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from wigner.errors import ConfigurationError
from wigner.model import ModelParams, parse_potential


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(-3, 3), min_size=1, max_size=5),
       st.integers(1, 3), st.floats(-1.5, 1.5))
def test_derivative_matches_finite_difference(coeffs, order, x):
    U = Polynomial(coeffs)
    dU = U.deriv(order)
    # central FD of the exact polynomial; larger h for the third derivative
    # to stay clear of cancellation noise (the stencils are exact on quartics)
    stencils = {
        1: ([1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12], 1, 1e-3),
        2: ([-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12], 2, 1e-3),
        3: ([-0.5, 1.0, 0.0, -1.0, 0.5], 3, 1e-2),
    }
    w, p, h = stencils[order]
    half = len(w) // 2
    fd = sum(wi * U(x + (i - half) * h) for i, wi in enumerate(w)) / h ** p
    scale = max(1.0, sum(abs(c) for c in coeffs))
    assert abs(dU(x) - fd) < 1e-5 * scale


def test_derivative_past_degree_is_zero():
    U = Polynomial([1.0, 2.0, 3.0])
    assert not U.deriv(3).coef.any()


def test_model_params_validation():
    ModelParams()  # defaults are valid
    with pytest.raises(ConfigurationError):
        ModelParams(mass=0.0)
    with pytest.raises(ConfigurationError):
        ModelParams(hbar=-1.0)
    with pytest.raises(ConfigurationError):
        ModelParams(gamma=-0.1)
    with pytest.raises(ConfigurationError):
        ModelParams(diffusion=-0.1)
    # every bad field in one message
    with pytest.raises(ConfigurationError, match="mass .*; gamma .*; diffusion"):
        ModelParams(mass=-1.0, gamma=-0.1, diffusion=-0.1)


# cq: coefficients of the parsed U(q); cp: coefficients of U'(q)
@pytest.mark.parametrize("text,cq,cp", [
    ("0", (0.0,), (0.0,)),
    ("", (0.0,), (0.0,)),
    ("q^2", (0.0, 0.0, 1.0), (0.0, 2.0)),
    ("0.5*q^2", (0.0, 0.0, 0.5), (0.0, 1.0)),
    ("1 + 2*q - 3*q^4", (1.0, 2.0, 0.0, 0.0, -3.0), (2.0, 0.0, 0.0, -12.0)),
    ("-q", (0.0, -1.0), (-1.0,)),
    ("1e-2*q^2 + 2.5E1", (25.0, 0.0, 0.01), (0.0, 0.02)),
    ("q^3 - 0.5*q", (0.0, -0.5, 0.0, 1.0), (-0.5, 0.0, 3.0)),
    ("q + q", (0.0, 2.0), (2.0,)),
    # terms that cancel leave no trailing zero coefficient
    ("2 + q - q^3 + q^3 - q", (2.0,), (0.0,)),
])
def test_parse_potential(text, cq, cp):
    U = parse_potential(text)
    assert tuple(U.coef) == cq
    assert tuple(U.deriv(1).coef) == cp


@pytest.mark.parametrize("text", ["q q", "2x", "q^", "* q", "1 2", "q^-2",
                                  "p^2 + q^2"])
def test_parse_potential_rejects_garbage(text):
    with pytest.raises(ConfigurationError):
        parse_potential(text)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.floats(-9, 9).map(lambda v: round(v, 3)),
                min_size=1, max_size=5))
def test_parse_round_trip(coeffs):
    terms = [f"{coeffs[0]:+}"]
    terms += [f"{c:+}*q^{k}" for k, c in enumerate(coeffs) if k > 0]
    U = parse_potential(" ".join(terms))
    xs = np.linspace(-2, 2, 7)
    ref = sum(c * xs ** k for k, c in enumerate(coeffs))
    np.testing.assert_allclose(U(xs), ref, atol=1e-9)
