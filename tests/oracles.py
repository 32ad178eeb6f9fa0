"""Independent numerical oracles used by the test suite.

Everything here is computed without the package's Galerkin tables: derivative
values come from their own refinement cascade, integrals from Riemann sums
with Aitken extrapolation, and grid derivatives from finite-difference
stencils solved out of a Vandermonde system.  ``rk4_step`` is a reference
time integrator for the package's implicit midpoint stepper,
``dwt_analysis_step`` writes one level of the periodic DWT tap by tap,
``groenewold_wigner`` is the oscillator's stationary Wigner functions in
closed form, and ``fd_wigner_states`` those of any potential from
finite-difference eigenvectors.
"""

import math

import numpy as np
from scipy.linalg import eig_banded
from scipy.special import eval_laguerre

from wigner.basis import FilterCoefficients, scaling_values

_SQRT2 = math.sqrt(2.0)


def derivative_cascade(filt: FilterCoefficients, d: int, resolution: int) -> np.ndarray:
    """Pointwise dyadic values of phi^(d) via the refinement cascade.

    phi^(d) satisfies phi^(d)(x) = 2^d sqrt(2) sum_k h_k phi^(d)(2x - k); the
    integer values are the eigenvector of the refinement matrix for eigenvalue
    2^-d, normalized by sum_k k^d phi^(d)(k) = (-1)^d d! (the d-th derivative
    of the polynomial reproduction identity, evaluated at 0).
    """
    n = filt.order
    support = n - 1
    h = filt.taps
    idx = np.arange(1, support)
    T = np.zeros((support - 1, support - 1))
    for ii, i in enumerate(idx):
        for jj, j in enumerate(idx):
            k = 2 * i - j
            if 0 <= k < n:
                T[ii, jj] = _SQRT2 * h[k]
    w, v = np.linalg.eig(T)
    pos = np.argmin(np.abs(w - 2.0 ** -d))
    assert abs(w[pos] - 2.0 ** -d) < 1e-8, (filt.order, d)
    vec = np.real(v[:, pos])
    ints = np.zeros(support + 1)
    ints[1:support] = vec
    s = sum(k ** d * ints[k] for k in range(support + 1))
    ints *= ((-1.0) ** d * math.factorial(d)) / s

    vals = ints
    for r in range(1, resolution + 1):
        prev = vals
        m = support * 2 ** r
        cur = np.zeros(m + 1)
        cur[::2] = prev
        xs = np.arange(1, m, 2)
        for k in range(n):
            src = xs - k * 2 ** (r - 1)
            ok = (src >= 0) & (src <= support * 2 ** (r - 1))
            cur[xs[ok]] += _SQRT2 * (2.0 ** d) * h[k] * prev[src[ok]]
        vals = cur
    return vals


def quadrature_connection(filt: FilterCoefficients, d: int, resolution: int) -> np.ndarray:
    """Riemann-sum estimate of int phi(x) phi^(d)(x - k) dx, k = -(K)..K.

    Integrated by parts so each factor carries at most ceil(d/2) derivatives,
    which keeps the pointwise cascade values as smooth as possible:
    int phi phi^(d)(. - k) = (-1)^d1 int phi^(d1) phi^(d2)(. - k), d1 + d2 = d.
    """
    d1 = d // 2
    d2 = d - d1
    left = (scaling_values(filt, resolution) if d1 == 0
            else derivative_cascade(filt, d1, resolution))
    right = derivative_cascade(filt, d2, resolution)
    h = 2.0 ** -resolution
    K = filt.order - 2
    n = left.size
    out = np.zeros(2 * K + 1)
    for i, k in enumerate(range(-K, K + 1)):
        sh = k * 2 ** resolution
        lo, hi = max(0, sh), min(n, n + sh)
        if lo < hi:
            out[i] = ((-1.0) ** d1) * h * np.dot(left[lo:hi], right[lo - sh:hi - sh])
    return out


def aitken_connection(filt: FilterCoefficients, d: int, resolutions) -> np.ndarray:
    """Aitken delta-squared extrapolation of the quadrature over 3 resolutions."""
    q0, q1, q2 = (quadrature_connection(filt, d, r) for r in resolutions)
    d1, d2 = q1 - q0, q2 - q1
    denom = d1 - d2
    out = q2.copy()
    ok = np.abs(denom) > 1e-300
    out[ok] = q2[ok] + d2[ok] ** 2 / denom[ok]
    return out


def quadrature_moment(filt: FilterCoefficients, r: int, resolutions=(13, 14, 15, 16)):
    """mu_r = int x^r phi(x) dx by Riemann sums with empirical extrapolation."""
    vals = []
    for R in resolutions:
        phi = scaling_values(filt, R)
        x = np.arange(phi.size) / 2.0 ** R
        vals.append(np.sum(x ** r * phi) / 2.0 ** R)
    # empirical-ratio Richardson using the last three estimates
    e1, e2, e3 = vals[-3], vals[-2], vals[-1]
    num, den = e2 - e1, e3 - e2
    if abs(den) < 1e-300:
        return e3
    ratio = num / den
    return e3 + (e3 - e2) / (ratio - 1.0) if abs(ratio - 1.0) > 1e-12 else e3


def quadrature_product_moment(filt: FilterCoefficients, r: int, shift: int,
                              resolutions=(13, 14, 15, 16)):
    """m_r(shift) = int x^r phi(x) phi(x - shift) dx by extrapolated sums."""
    vals = []
    for R in resolutions:
        phi = scaling_values(filt, R)
        n = phi.size
        sh = shift * 2 ** R
        lo, hi = max(0, sh), min(n, n + sh)
        if lo >= hi:
            vals.append(0.0)
            continue
        x = np.arange(lo, hi) / 2.0 ** R
        vals.append(np.sum(x ** r * phi[lo:hi] * phi[lo - sh:hi - sh]) / 2.0 ** R)
    e1, e2, e3 = vals[-3], vals[-2], vals[-1]
    num, den = e2 - e1, e3 - e2
    if abs(den) < 1e-300:
        return e3
    ratio = num / den
    return e3 + (e3 - e2) / (ratio - 1.0) if abs(ratio - 1.0) > 1e-12 else e3


def fd_stencil(deriv: int, width: int) -> np.ndarray:
    """Central finite-difference weights: sum_i w_i f(x + i h) = h^deriv f^(deriv).

    Solved from the Vandermonde moment conditions sum_i w_i i^k = k! delta_{k,deriv}.
    """
    assert width % 2 == 1 and width > deriv
    half = width // 2
    nodes = np.arange(-half, half + 1, dtype=float)
    V = np.vander(nodes, width, increasing=True).T  # V[k, i] = i^k
    rhs = np.zeros(width)
    rhs[deriv] = math.factorial(deriv)
    return np.linalg.solve(V, rhs)


def fd_apply(F: np.ndarray, deriv: int, h: float, axis: int, width: int = 9) -> np.ndarray:
    """Apply the central FD stencil along an axis (periodic wrap)."""
    w = fd_stencil(deriv, width)
    half = width // 2
    out = np.zeros_like(F)
    for i, wi in zip(range(-half, half + 1), w):
        out += wi * np.roll(F, -i, axis=axis)
    return out / h ** deriv


def riemann_projection(basis, f, resolution: int = 14) -> np.ndarray:
    """<phi_k, f> on a periodized basis by a Riemann sum over cascade values.

    phi_k(x) = h^(-1/2) phi((x - a)/h - k) with h = L / dim, so
    <phi_k, f> = h^(1/2) int phi(u) f(a + h (k + u)) du; the sum runs over the
    dyadic points of phi's support at ``resolution``, with x wrapped into the
    box.  Shares only the cascade values with the package, not its quadrature.
    """
    phi = scaling_values(basis.filter, resolution)
    u = np.arange(phi.size) / 2.0 ** resolution
    a, b = basis.domain
    h = (b - a) / basis.dim
    out = np.empty(basis.dim)
    for k in range(basis.dim):
        x = a + np.mod(h * (k + u), b - a)
        out[k] = math.sqrt(h) * np.dot(phi, f(x)) / 2.0 ** resolution
    return out


def fd_schrodinger_levels(U, n_states: int, half_width: float = 8.0,
                          intervals=(300, 600, 1200)) -> np.ndarray:
    """Lowest levels of -1/2 psi'' + U(q) psi = E psi (hbar = m = 1).

    Second-order finite differences on [-half_width, half_width] with
    Dirichlet ends at three grid steps h, h/2, h/4, then two Richardson
    steps remove the h^2 and h^4 error terms.  Numpy only: the dense
    tridiagonal matrix goes to ``eigvalsh``.
    """
    levels = []
    for m in intervals:
        h = 2.0 * half_width / m
        q = -half_width + h * np.arange(1, m)
        H = (np.diag(1.0 / h ** 2 + U(q))
             - np.diag(np.full(m - 2, 0.5 / h ** 2), 1)
             - np.diag(np.full(m - 2, 0.5 / h ** 2), -1))
        levels.append(np.linalg.eigvalsh(H)[:n_states])
    e1, e2, e4 = levels
    r1, r2 = (4.0 * e2 - e1) / 3.0, (4.0 * e4 - e2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def groenewold_wigner(n: int, q, p, hbar: float = 1.0) -> np.ndarray:
    """W_n(q, p) of the oscillator U = q^2/2 (m = omega = 1), level n:
    ((-1)^n / (pi hbar)) exp(-2H/hbar) L_n(4H/hbar), H = (p^2 + q^2)/2
    (Groenewold, Physica 12, 405, 1946).  Unit integral and unit purity
    2 pi hbar int W_n^2."""
    H = 0.5 * (np.asarray(q) ** 2 + np.asarray(p) ** 2)
    return ((-1.0) ** n / (np.pi * hbar)) * np.exp(-2.0 * H / hbar) \
        * eval_laguerre(n, 4.0 * H / hbar)


def fd_wigner_states(U, n_states: int, p, half_width: float = 8.0,
                     intervals: int = 2000, window: float = 3.0):
    """(q, W): the stationary Wigner functions W[n, i, j] = W_n(q_i, p_j) of
    -1/2 psi'' + U(q) psi = E psi (hbar = m = 1), n < n_states, at the grid
    nodes q_i in [-window, window].

    The eigenvectors are those of the 8th-order ``fd_stencil(2, 9)``
    Hamiltonian on [-half_width, half_width] with Dirichlet ends and
    ``intervals`` steps h (``eig_banded``), scaled to sum psi^2 h = 1.  Then
    W_n(q, p) = (1/pi) int psi(q + y) psi(q - y) cos(2 p y) dy is a sum over
    y = k h on the same grid, the nodes beyond the ends counting as zero.
    """
    h = 2.0 * half_width / intervals
    q = -half_width + h * np.arange(1, intervals)
    w = fd_stencil(2, 9)
    band = np.zeros((5, q.size))  # lower band storage: band[d, i] = H[i + d, i]
    band[0] = -0.5 * w[4] / h ** 2 + U(q)
    for d in range(1, 5):
        band[d, :-d] = -0.5 * w[4 + d] / h ** 2
    _, psi = eig_banded(band, lower=True, select="i",
                        select_range=(0, n_states - 1))
    psi /= np.sqrt(h * np.sum(psi ** 2, axis=0))
    inside = np.flatnonzero(np.abs(q) <= window + 1e-9)
    k = np.arange(-q.size, q.size + 1)
    pad = np.zeros((3 * q.size + 2, n_states))  # psi_i at pad[i + q.size + 1]
    pad[q.size + 1:2 * q.size + 1] = psi
    cos = np.cos(2.0 * np.outer(k * h, p))
    W = np.empty((n_states, inside.size, len(p)))
    for row, i in enumerate(inside):
        prod = pad[i + q.size + 1 + k] * pad[i + q.size + 1 - k]
        W[:, row] = (h / np.pi) * prod.T @ cos
    return q[inside], W


def kron_dense(op) -> np.ndarray:
    """An operator's dense matrix as the explicit sum of coeff * kron(Q, B)."""
    return sum(t.coeff * np.kron(t.q_matrix, t.p_matrix) for t in op.terms)


def rk4_step(apply_op, c, dt):
    """One classical fourth-order Runge-Kutta step of dc/dt = apply_op(c)."""
    k1 = apply_op(c)
    k2 = apply_op(c + 0.5 * dt * k1)
    k3 = apply_op(c + 0.5 * dt * k2)
    k4 = apply_op(c + dt * k3)
    return c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def dwt_analysis_step(filt: FilterCoefficients, n: int) -> np.ndarray:
    """n x n orthogonal one-level periodic DWT matrix: n/2 approximation rows
    over n/2 detail rows, each tap added at its wrapped column."""
    h, g = filt.taps, filt.high_pass
    half = n // 2
    T = np.zeros((n, n))
    for k in range(half):
        for t, ht in enumerate(h):
            T[k, (2 * k + t) % n] += ht
        for t, gt in enumerate(g):
            T[half + k, (2 * k + t) % n] += gt
    return T
