"""Filters, cascade values, connection/moment tables, transforms, projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    aitken_connection,
    quadrature_moment,
    quadrature_product_moment,
    riemann_projection,
)
from wigner.basis import (
    WaveletBasis,
    _product_moments,
    connection_coefficients,
    daubechies_filter,
    moment_coefficients,
    quadrature_weights,
    scaling_function_moments,
    scaling_values,
)
from wigner.errors import ConfigurationError, ContractError

ORDERS = (2, 4, 6, 8, 10)


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", ORDERS)
def test_filter_invariants(order):
    filt = daubechies_filter(order)
    h = filt.taps
    assert h.size == order
    assert abs(h.sum() - math.sqrt(2.0)) < 1e-10
    a = filt.autocorrelation()
    assert abs(a[order - 1] - 1.0) < 1e-10
    for m in range(1, (order - 1) // 2 + 1):
        assert abs(a[order - 1 + 2 * m]) < 1e-10


@pytest.mark.parametrize("order", ORDERS)
def test_high_pass_vanishing_moments(order):
    filt = daubechies_filter(order)
    g = filt.high_pass
    k = np.arange(order, dtype=float)
    for m in range(order // 2):
        assert abs(np.sum(g * k ** m)) < 1e-8 * max(1.0, order ** m)


def test_haar_taps_frozen():
    filt = daubechies_filter(2)
    np.testing.assert_allclose(filt.taps, [1 / math.sqrt(2)] * 2, atol=1e-15)


def test_db4_taps_frozen():
    # classical minimum-phase 4-tap values
    ref = [0.4829629131445341, 0.8365163037378079,
           0.2241438680420134, -0.1294095225512604]
    np.testing.assert_allclose(daubechies_filter(4).taps, ref, atol=1e-12)


def test_unsupported_order_rejected():
    with pytest.raises(ConfigurationError):
        daubechies_filter(3)
    with pytest.raises(ConfigurationError):
        daubechies_filter(12)


# ---------------------------------------------------------------------------
# scaling function values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", (4, 6, 8))
def test_cascade_partition_of_unity(order):
    filt = daubechies_filter(order)
    tab = scaling_values(filt, 6)
    # sum_k phi(x - k) = 1 at every represented point
    step = 2 ** 6
    m = tab.values.size
    for frac in range(step):
        total = tab.values[frac::step].sum()
        assert abs(total - 1.0) < 1e-9


def test_cascade_refinement_identity(db6):
    tab = scaling_values(db6, 7)
    h = db6.taps
    xs = tab.grid
    lhs = tab.values
    rhs = np.zeros_like(lhs)
    for k, hk in enumerate(h):
        rhs += math.sqrt(2.0) * hk * tab(2.0 * xs - k)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# ---------------------------------------------------------------------------
# connection coefficients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order,d,resolutions", [
    (6, 1, (10, 12, 14)),
    (8, 1, (10, 12, 14)),
    (8, 2, (10, 12, 14)),
    (10, 1, (10, 12, 14)),
    (10, 2, (10, 12, 14)),
])
def test_connection_vs_quadrature(order, d, resolutions):
    """Cross-check the linear-system tables against extrapolated Riemann sums.

    Restricted to absolutely convergent pairs: rougher combinations solve the
    same linear system but the pointwise quadrature diverges.
    """
    filt = daubechies_filter(order)
    table = connection_coefficients(filt, 0, d)
    K = order - 2
    ref = aitken_connection(filt, d, resolutions)
    values = dict(zip(table.offsets, table.values))
    vals = np.array([values[k] for k in range(-K, K + 1)])
    assert np.max(np.abs(vals - ref)) < 1e-6


@pytest.mark.parametrize("order,d", [(6, 1), (6, 2), (8, 1), (8, 2), (8, 3),
                                     (10, 1), (10, 2), (10, 3), (10, 4)])
def test_connection_moment_sum_rule(order, d):
    filt = daubechies_filter(order)
    table = connection_coefficients(filt, 0, d)
    s = sum(k ** d * v for k, v in zip(table.offsets, table.values))
    assert abs(s - math.factorial(d)) < 1e-10 * math.factorial(d)
    # zeroth sum rule: sum_k Gamma(k) = int (sum_k phi(x-k))^(d) phi = 0
    assert abs(sum(table.values)) < 1e-9


@pytest.mark.parametrize("order,d", [(6, 1), (8, 1), (8, 3), (10, 1), (10, 3)])
def test_connection_odd_antisymmetric(order, d):
    table = connection_coefficients(daubechies_filter(order), 0, d)
    table = dict(zip(table.offsets, table.values))
    for k, v in table.items():
        assert abs(v + table[-k]) < 1e-10 * max(1.0, abs(v))


@pytest.mark.parametrize("order,d", [(6, 2), (8, 2), (10, 2), (10, 4)])
def test_connection_even_symmetric(order, d):
    table = connection_coefficients(daubechies_filter(order), 0, d)
    table = dict(zip(table.offsets, table.values))
    for k, v in table.items():
        assert abs(v - table[-k]) < 1e-10 * max(1.0, abs(v))


def test_connection_gate_order4_second_derivative():
    filt = daubechies_filter(4)
    with pytest.raises(ConfigurationError):
        connection_coefficients(filt, 0, 2)
    with pytest.raises(ConfigurationError):
        connection_coefficients(filt, 1, 1)


def test_connection_gate_regularity_bound(db6):
    with pytest.raises(ConfigurationError):
        connection_coefficients(db6, 0, 4)  # 4 >= 6/2 + 1


def test_second_derivative_negative_semidefinite(basis6):
    # the diffusion factor must be dissipative
    lam = np.linalg.eigvalsh(basis6.derivative_matrix(0, 2))
    assert lam.max() < 1e-8


def test_first_derivative_antisymmetric_matrix(basis6):
    D = basis6.derivative_matrix(0, 1)
    assert np.max(np.abs(D + D.T)) < 1e-10 * np.max(np.abs(D))


def test_derivative_matrix_on_projected_gaussian(basis6f):
    """Independent oracle: (D c)_k = <phi_k, f'> for a projected smooth f."""
    f = lambda x: np.exp(-x ** 2)
    fp = lambda x: -2.0 * x * np.exp(-x ** 2)
    c = basis6f.project(f)
    ref = basis6f.project(fp)
    got = basis6f.derivative_matrix(0, 1) @ c
    assert np.max(np.abs(got - ref)) < 5e-6


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", (4, 6, 10))
def test_scaling_moments_vs_quadrature(order):
    filt = daubechies_filter(order)
    mu = scaling_function_moments(filt, 4)
    assert mu[0] == 1.0
    for r in range(1, 5):
        ref = quadrature_moment(filt, r)
        assert abs(mu[r] - ref) < 1e-8 * max(1.0, abs(ref))


@pytest.mark.parametrize("order", (4, 6, 10))
def test_product_moments_sum_rule(order):
    filt = daubechies_filter(order)
    rmax = 3
    m = _product_moments(filt, rmax)
    mu = scaling_function_moments(filt, rmax)
    for r in range(rmax + 1):
        assert abs(m[r].sum() - mu[r]) < 1e-10 * max(1.0, abs(mu[r]))
    # orthonormality row
    K = order - 2
    ref0 = np.zeros(2 * K + 1)
    ref0[K] = 1.0
    np.testing.assert_allclose(m[0], ref0, atol=1e-10)


@pytest.mark.parametrize("order,r,shift", [(4, 1, 0), (4, 2, 1), (6, 1, 1),
                                           (10, 2, 0)])
def test_product_moments_vs_quadrature(order, r, shift):
    filt = daubechies_filter(order)
    K = order - 2
    m = _product_moments(filt, r)
    ref = quadrature_product_moment(filt, r, shift)
    assert abs(m[r, shift + K] - ref) < 1e-7 * max(1.0, abs(ref))


def test_moment_matrix_multiplication_oracle(basis6f):
    """<phi_k, x f> equals the first-moment matrix applied to <phi_k, f>."""
    f = lambda x: np.exp(-x ** 2)
    xf = lambda x: x * np.exp(-x ** 2)
    c = basis6f.project(f)
    got = basis6f.moment_matrix(1) @ c
    ref = basis6f.project(xf)
    assert np.max(np.abs(got - ref)) < 5e-7


def test_moment_functional_gaussian(basis6f):
    c = basis6f.project(lambda x: np.exp(-(x - 0.5) ** 2) / math.sqrt(math.pi))
    assert abs(basis6f.integration_functional() @ c - 1.0) < 1e-10
    assert abs(basis6f.moment_functional(1) @ c - 0.5) < 1e-10
    assert abs(basis6f.moment_functional(2) @ c - (0.5 + 0.25)) < 1e-10


def test_moment_power_bounds(basis6):
    with pytest.raises(ContractError):
        basis6.moment_functional(-1)
    with pytest.raises(ConfigurationError):
        moment_coefficients(basis6, 99)


# ---------------------------------------------------------------------------
# periodized basis and transforms
# ---------------------------------------------------------------------------

def test_basis_geometry(basis6):
    assert basis6.dim == 32
    assert basis6.length == 8.0
    labels = basis6.multiscale_levels()
    assert labels.size == 32
    assert (labels == 2).sum() == 8  # scaling block labeled j_coarse - 1
    assert (labels == 3).sum() == 8
    assert (labels == 4).sum() == 16


def test_basis_too_coarse_for_filter(db6):
    with pytest.raises(ConfigurationError):
        WaveletBasis(filter=db6, j_coarse=2, j_fine=2, domain=(0.0, 1.0))


def test_dwt_orthogonal(basis6):
    T = basis6.dwt_matrix
    np.testing.assert_allclose(T @ T.T, np.eye(basis6.dim), atol=1e-12)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2 ** 31 - 1))
def test_dwt_round_trip_random(db6, seed):
    basis = WaveletBasis(filter=db6, j_coarse=3, j_fine=5, domain=(-4.0, 4.0))
    rng = np.random.default_rng(seed)
    c = rng.normal(size=basis.dim)
    ms = basis.dwt_matrix @ c
    assert abs(np.linalg.norm(ms) - np.linalg.norm(c)) < 1e-10
    np.testing.assert_allclose(basis.dwt_matrix.T @ ms, c, atol=1e-10)


def test_gram_matrix_identity(basis6):
    np.testing.assert_allclose(basis6.derivative_matrix(0, 0), np.eye(basis6.dim),
                               atol=1e-10)


def test_evaluate_projected_gaussian(basis6f):
    f = lambda x: np.exp(-x ** 2)
    c = basis6f.project(f)
    xs = np.linspace(-2.5, 2.5, 41)
    vals = basis6f.evaluate(c, xs)
    assert np.max(np.abs(vals - f(xs))) < 5e-4
    assert isinstance(basis6f.evaluate(c, 0.0), float)


def test_projection_parseval(basis6f):
    f = lambda x: np.exp(-x ** 2)
    c = basis6f.project(f)
    # int f^2 for a Gaussian exp(-x^2): sqrt(pi/2)
    assert abs(np.dot(c, c) - math.sqrt(math.pi / 2.0)) < 2e-7


@pytest.mark.parametrize("order,j_fine", [(6, 5), (6, 6), (10, 5)])
def test_projection_matches_riemann_oracle(order, j_fine):
    """project = <phi_k, f> from an independent Riemann sum over cascade values.

    exp(-x^2) is 1e-7 at the edge of [-4, 4), so the periodic wrap adds at
    most about 2e-10 to the quadrature error.
    """
    basis = WaveletBasis(filter=daubechies_filter(order), j_coarse=3,
                         j_fine=j_fine, domain=(-4.0, 4.0))
    f = lambda x: np.exp(-x ** 2)
    assert np.max(np.abs(basis.project(f) - riemann_projection(basis, f))) < 1e-9


def test_bases_compare_by_definition():
    """Bases built from separate filter calls are equal and interoperate."""
    from wigner.assembly import PhaseSpaceBasis, assemble_evolution
    from wigner.model import ModelParams, parse_potential
    from wigner.solve import CoefficientField, EvolutionConfig, evolve

    def make_ps():
        mk = lambda: WaveletBasis(filter=daubechies_filter(6), j_coarse=2,
                                  j_fine=4, domain=(-4.0, 4.0))
        return PhaseSpaceBasis(mk(), mk())

    ps_a, ps_b = make_ps(), make_ps()
    assert daubechies_filter(6) == daubechies_filter(6)
    assert daubechies_filter(6) != daubechies_filter(8)
    ps_a.basis_q.dwt_matrix  # fills one cache; cached tables do not count
    assert ps_a == ps_b
    assert ps_a.basis_q != WaveletBasis(filter=daubechies_filter(6), j_coarse=2,
                                        j_fine=4, domain=(-4.0, 5.0))
    W0 = CoefficientField(ps=ps_a, coeffs=ps_a.project(
        lambda q, p: np.exp(-q ** 2 - p ** 2) / np.pi))
    L = assemble_evolution(ps_b, parse_potential("0.5*q^2"), ModelParams())
    final = evolve(W0, L, EvolutionConfig(dt=0.05, t_end=0.1))
    assert abs(final.total_integral() - W0.total_integral()) < 1e-12


def test_quadrature_weights_reproduce_moments(db6):
    w = quadrature_weights(db6)
    mu = scaling_function_moments(db6, db6.order - 1)
    t = np.arange(db6.order, dtype=float)
    for m in range(db6.order):
        assert abs(np.sum(w * t ** m) - mu[m]) < 1e-10


def test_projection_polynomial_exact(db6):
    """Degree < genus polynomials are reproduced exactly (no truncation error)."""
    basis = WaveletBasis(filter=db6, j_coarse=3, j_fine=5, domain=(0.0, 1.0))
    c = basis.project(lambda x: 1.0 + 0.0 * x)
    # the expansion must integrate like the constant even without refinement
    assert abs(basis.integration_functional() @ c - 1.0) < 1e-12
