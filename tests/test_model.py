"""Polynomial potentials, derivatives, series truncation, parameter parsing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wigner.errors import ConfigurationError, ContractError
from wigner.model import (
    ModelParams,
    PolynomialPotential,
    derivative,
    parse_potential,
)


def test_canonical_trim_and_degree():
    U = PolynomialPotential(coeffs_q=(1.0, 2.0, 0.0, 0.0))
    assert U.coeffs_q == (1.0, 2.0)
    assert U.degree == 1
    assert not U.is_zero
    assert PolynomialPotential().is_zero
    assert PolynomialPotential().degree == 0


def test_call_and_add_and_scale():
    U = PolynomialPotential(coeffs_q=(0.0, 0.0, 0.5))
    assert U(2.0) == pytest.approx(2.0)
    assert U.scaled(4.0)(2.0) == pytest.approx(8.0)
    assert U.scaled(0.0).is_zero


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(-3, 3), min_size=1, max_size=5),
       st.integers(1, 3), st.floats(-1.5, 1.5))
def test_derivative_matches_finite_difference(coeffs, order, x):
    U = PolynomialPotential(coeffs_q=tuple(coeffs))
    dU = derivative(U, order)
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
    U = PolynomialPotential(coeffs_q=(1.0, 2.0, 3.0))
    assert derivative(U, 3).is_zero
    with pytest.raises(ContractError):
        derivative(U, -1)


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
    ("0", (), ()),
    ("", (), ()),
    ("q^2", (0.0, 0.0, 1.0), (0.0, 2.0)),
    ("0.5*q^2", (0.0, 0.0, 0.5), (0.0, 1.0)),
    ("1 + 2*q - 3*q^4", (1.0, 2.0, 0.0, 0.0, -3.0), (2.0, 0.0, 0.0, -12.0)),
    ("-q", (0.0, -1.0), (-1.0,)),
    ("1e-2*q^2 + 2.5E1", (25.0, 0.0, 0.01), (0.0, 0.02)),
    ("q^3 - 0.5*q", (0.0, -0.5, 0.0, 1.0), (-0.5, 0.0, 3.0)),
    ("q + q", (0.0, 2.0), (2.0,)),
])
def test_parse_potential(text, cq, cp):
    U = parse_potential(text)
    assert U.coeffs_q == cq
    assert derivative(U, 1).coeffs_q == cp


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
