"""Compactly supported wavelet bases and their Galerkin quadrature tables.

Everything downstream (operator assembly, evolution, eigenproblems) consumes
the objects built here:

* ``FilterCoefficients`` / ``daubechies_filter`` -- orthonormal low-pass taps.
* ``scaling_values`` -- the scaling function phi on a dyadic grid (cascade).
* ``connection_coefficients`` -- integrals of products of derivatives of phi,
  exact from the refinement relation (not by quadrature); cached, read-only.
* ``WaveletBasis`` -- a periodized multiresolution basis on an interval, with
  its Galerkin tables (``derivative_matrix``, ``moment_matrix`` of x^m
  against products of basis functions, ``moment_functional``), single-scale
  <-> multiscale transforms, expansion evaluation and projection.

Sign/normalization conventions are fixed in one place:

* low-pass taps satisfy ``sum(h) = sqrt(2)``;
* ``Lambda[d](k) = int phi(x) phi^(d)(x-k) dx`` with the polynomial-moment
  normalization ``sum_k k^d Lambda[d](k) = d!``, which is the value forced by
  differentiating the polynomial reproduction identity;
* position tables use the "lifted" coordinate on the torus: the offset between
  two basis functions is taken by minimal image and the monomial x^m is
  evaluated on the contiguous lift of the pair.  The domain box is assumed
  large enough that fields are negligible near the wrap, so the lift choice
  is immaterial for the physics;
* the connection and product-moment tables solve one two-scale system
  (``_two_scale_matrix``), and both position tables share one binomial sum
  on the lift (``_lifted``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import comb, factorial

import numpy as np

from .errors import ConfigurationError, ContractError, NumericalError

SUPPORTED_ORDERS = (2, 4, 6, 8, 10)
MAX_MOMENT_POWER = 8
# Dyadic resolution of the cascade table behind pointwise evaluation.
EVAL_RESOLUTION = 10
# ``project`` samples at level j_fine + PROJECTION_LEVELS.  While the field is
# negligible at the box edge, three levels put the quadrature error at least
# 1e5x below the basis's own L2 approximation error (orders 6 and 10, j_fine 5
# and 6).  A field that reaches the edge is discontinuous across the periodic
# wrap; there the error falls only linearly with the sample step and is about
# 5x below the approximation error.
PROJECTION_LEVELS = 3

_SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterCoefficients:
    """Orthonormal Daubechies-family low-pass filter.

    ``order`` is the number of taps (2g for genus g); the scaling function is
    supported on [0, order-1].  Filters compare equal by order: the taps are
    a function of it.
    """

    order: int
    taps: np.ndarray = field(compare=False)

    @property
    def support_length(self) -> int:
        return self.order - 1

    @property
    def high_pass(self) -> np.ndarray:
        """Quadrature-mirror high-pass taps g_k = (-1)^k h_{n-1-k}."""
        n = self.order
        signs = (-1.0) ** np.arange(n)
        return signs * self.taps[::-1]

    def autocorrelation(self) -> np.ndarray:
        """a_m = sum_k h_k h_{k+m} for m = -(n-1) .. n-1 (index m + n - 1)."""
        return np.correlate(self.taps, self.taps, mode="full")


def daubechies_filter(order: int) -> FilterCoefficients:
    """Minimum-phase Daubechies low-pass taps via spectral factorization."""
    if order not in SUPPORTED_ORDERS:
        raise ConfigurationError(
            f"unsupported filter order {order}; supported orders are {SUPPORTED_ORDERS}"
        )
    g = order // 2
    if order == 2:
        taps = np.array([1.0, 1.0]) / _SQRT2
        return FilterCoefficients(order=2, taps=taps)

    # Half-band polynomial P(y) = sum_{k<g} C(g-1+k, k) y^k, y = sin^2(w/2).
    p = np.array([comb(g - 1 + k, k) for k in range(g)], dtype=float)
    y_roots = np.roots(p[::-1])

    # Map each y-root to the z-plane: y = (2 - z - 1/z)/4, keep |z| < 1.
    z_roots = []
    for y in y_roots:
        b = 4.0 * y - 2.0
        disc = np.sqrt(b * b - 4.0 + 0j)
        z1, z2 = (-b + disc) / 2.0, (-b - disc) / 2.0
        z_roots.append(z1 if abs(z1) < 1.0 else z2)

    all_roots = np.concatenate([np.full(g, -1.0 + 0j), np.array(z_roots)])
    taps = np.real(np.poly(all_roots))
    taps = taps * (_SQRT2 / taps.sum())
    filt = FilterCoefficients(order=order, taps=taps)
    _check_filter(filt)
    return filt


def _check_filter(filt: FilterCoefficients) -> None:
    h = filt.taps
    if abs(h.sum() - _SQRT2) > 1e-12:
        raise NumericalError("filter normalization sum(h) != sqrt(2)")
    a = filt.autocorrelation()
    n = filt.order
    for m in range(1, (n - 1) // 2 + 1):
        if abs(a[n - 1 + 2 * m] - 0.0) > 1e-12:
            raise NumericalError("filter taps violate double-shift orthonormality")
    if abs(a[n - 1] - 1.0) > 1e-12:
        raise NumericalError("filter taps are not normalized in l2")


# ---------------------------------------------------------------------------
# scaling function values (cascade)
# ---------------------------------------------------------------------------

def scaling_values(filt: FilterCoefficients, resolution: int) -> np.ndarray:
    """phi at k / 2^resolution, k = 0 .. support * 2^resolution, by the
    refinement-matrix eigenvector at the integers and the cascade."""
    if resolution < 0:
        raise ContractError("dyadic resolution must be >= 0")
    n = filt.order
    support = n - 1
    h = filt.taps

    # Values at integers: eigenvector of T[i, j] = sqrt(2) h_{2i - j} for
    # eigenvalue 1, on the open support 1 .. support-1 (phi vanishes at the
    # support endpoints for order > 2).
    if n == 2:
        ints = np.array([1.0, 0.0])
    else:
        idx = np.arange(1, support)
        k = 2 * idx[:, None] - idx[None, :]
        T = np.where((k >= 0) & (k < n), _SQRT2 * h[np.clip(k, 0, n - 1)], 0.0)
        w, v = np.linalg.eig(T)
        pos = np.argmin(np.abs(w - 1.0))
        if abs(w[pos] - 1.0) > 1e-8:
            raise NumericalError(
                "refinement matrix has no eigenvalue 1",
                diagnostic={"eigenvalues": w},
            )
        vec = np.real(v[:, pos])
        vec = vec / vec.sum()
        ints = np.zeros(support + 1)
        ints[1:support] = vec

    values = ints
    for r in range(1, resolution + 1):
        prev = values
        m = support * 2 ** r
        cur = np.zeros(m + 1)
        cur[::2] = prev
        # odd points: phi(x) = sqrt(2) sum_k h_k phi(2x - k), 2x dyadic at r-1
        xs = np.arange(1, m, 2)
        for k in range(n):
            src = xs - k * 2 ** (r - 1)
            ok = (src >= 0) & (src <= support * 2 ** (r - 1))
            cur[xs[ok]] += _SQRT2 * h[k] * prev[src[ok]]
        values = cur

    return values


# ---------------------------------------------------------------------------
# connection coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectionTable:
    """Lambda[d](k) = int phi(x) phi^(d)(x - k) dx, banded in k; read-only."""

    offsets: np.ndarray
    values: np.ndarray


@cache
def connection_coefficients(filt: FilterCoefficients, d: int) -> ConnectionTable:
    """Exact Galerkin table of the d-th derivative, Gamma^d(k) =
    int phi(x) phi^(d)(x - k) dx for k = -K..K, K = order - 2.

    Solves the homogeneous refinement system Gamma = 2^d A Gamma together
    with the moment normalization sum_k k^d Gamma(k) = d!.  Cached
    per filter order and d.
    """
    if d < 0:
        raise ContractError("derivative order must be non-negative")
    if d >= filt.order / 2 + 1:
        raise ConfigurationError(
            f"derivative order {d} exceeds the regularity of filter order "
            f"{filt.order}; use a higher filter order"
        )
    K = filt.order - 2
    offsets = np.arange(-K, K + 1)
    A = _two_scale_matrix(filt.autocorrelation(), K)
    M = np.eye(offsets.size) - (2.0 ** d) * A
    # Nullspace direction via SVD, then scale by the moment normalization.
    _, s, vt = np.linalg.svd(M)
    if s[-1] > 1e-8:
        raise ConfigurationError(
            f"no derivative-product integrals of order {d} exist for filter "
            f"order {filt.order}; use a higher filter order"
        )
    # Gamma^d(-k) = (-1)^d Gamma^d(k); the SVD meets it only to roundoff,
    # and the symmetrized vector stays in the nullspace.
    gamma = 0.5 * (vt[-1] + (-1) ** d * vt[-1][::-1])
    norm = np.sum(offsets.astype(float) ** d * gamma)
    # sum_k k^d Gamma^d(k) = d!  (apply d/dx^d to the degree-d reproduction
    # identity sum_k k^d phi(x-k) = x^d + lower and pair with phi)
    target = float(factorial(d))
    if abs(norm) < 1e-8:
        # Happens when the eigenvalue 2^-d is not simple (e.g. order 4, d = 2,
        # where int phi'^2 actually diverges): the integral does not exist.
        raise ConfigurationError(
            f"derivative-product integrals of order {d} do not exist for "
            f"filter order {filt.order}; use a higher filter order"
        )
    values = gamma * (target / norm)
    offsets.flags.writeable = values.flags.writeable = False
    return ConnectionTable(offsets=offsets, values=values)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def scaling_function_moments(filt: FilterCoefficients, rmax: int) -> np.ndarray:
    """mu_r = int x^r phi(x) dx for r = 0..rmax, by the two-scale recursion."""
    h = filt.taps
    ks = np.arange(filt.order, dtype=float)
    mu = np.zeros(rmax + 1)
    mu[0] = 1.0
    for r in range(1, rmax + 1):
        acc = 0.0
        for s in range(r):
            acc += comb(r, s) * np.sum(h * ks ** (r - s)) * mu[s]
        mu[r] = acc / (_SQRT2 * (2.0 ** r - 1.0))
    return mu


def _two_scale_matrix(weights: np.ndarray, K: int) -> np.ndarray:
    """A[d, e] = w(e - 2d) for offsets d, e = -K..K: the two-scale relation
    of the integrals over phi(x) phi(x - d).  ``weights`` holds w(m) at index
    m + weights.size // 2; A is zero where e - 2d runs past it."""
    nshift = weights.size // 2
    offsets = np.arange(-K, K + 1)
    m = offsets[None, :] - 2 * offsets[:, None]
    inside = np.abs(m) <= nshift
    return np.where(inside, weights[np.where(inside, m + nshift, 0)], 0.0)


@cache
def _product_moments(filt: FilterCoefficients, rmax: int) -> np.ndarray:
    """m_r(d) = int x^r phi(x) phi(x - d) dx for r <= rmax, |d| <= order - 2.

    Returned as array of shape (rmax + 1, 2K + 1) with offset index d + K.
    Solved level by level from the two-scale relation, with the row
    sum_d m_r(d) = mu_r closing the rank deficiency.  Cached per filter
    order and rmax.
    """
    K = filt.order - 2
    no = 2 * K + 1
    h = filt.taps
    n = filt.order
    mu = scaling_function_moments(filt, rmax)

    # weighted autocorrelations w_u(m) = sum_k h_k h_{k+m} k^u, in k order
    m = np.arange(-(n - 1), n)
    w = np.zeros((rmax + 1, m.size))
    for k in range(n):
        ok = (k + m >= 0) & (k + m < n)
        w[:, ok] += h[k] * h[k + m[ok]] * (float(k) ** np.arange(rmax + 1))[:, None]
    A = [_two_scale_matrix(w_u, K) for w_u in w]

    out = np.zeros((rmax + 1, no))
    for r in range(rmax + 1):
        rhs = np.zeros(no)
        for s in range(r):
            # a running sum in offset order, where BLAS would reorder it
            rhs += comb(r, s) * np.cumsum(A[r - s] * out[s], axis=1)[:, -1]
        M = np.eye(no) - (2.0 ** -r) * A[0]
        sys = np.vstack([M, np.ones((1, no))])
        b = np.concatenate([(2.0 ** -r) * rhs, [mu[r]]])
        sol, *_ = np.linalg.lstsq(sys, b, rcond=None)
        resid = np.max(np.abs(sys @ sol - b))
        if resid > 1e-9:
            raise NumericalError(
                f"product-moment system did not close for power {r}",
                diagnostic={"residual": resid},
            )
        out[r] = sol
    return out


def _lifted(power: int, a: float, h: float, k, tab) -> np.ndarray:
    """int x^power f(t) dt on the lift x = a + h (k + t) for basis indices k:
    sum_s C(power, s) a^(power-s) h^s sum_u C(s, u) k^(s-u) tab[u], where
    tab[u] = int t^u f(t) dt."""
    out = 0.0
    for s in range(power + 1):
        inner = 0.0
        for u in range(s + 1):
            inner = inner + comb(s, u) * k ** (s - u) * tab[u]
        out = out + comb(power, s) * a ** (power - s) * h ** s * inner
    return out


def smallest_level(order: int) -> int:
    """Smallest j_fine for the filter order: 2^j_fine functions per axis hold
    the filter support (order) and twice the moment band (2 order - 4)."""
    return (max(order, 2 * order - 4) - 1).bit_length()


# ---------------------------------------------------------------------------
# periodized basis
# ---------------------------------------------------------------------------

@dataclass
class WaveletBasis:
    """Periodized orthonormal multiresolution basis on [a, b).

    Coefficient vectors of length ``dim = 2**j_fine`` are stored in the
    single-scale representation (scaling functions at level ``j_fine``);
    the orthogonal periodic DWT ``dwt_matrix`` maps them to the (scaling at
    j_coarse) + (details at j_coarse..j_fine-1) representation.
    Bases compare equal by filter order, levels and domain.  The settings
    are checked by ``PhaseSpaceBasis``, the one place that builds an axis.
    """

    filter: FilterCoefficients
    j_coarse: int
    j_fine: int
    domain: tuple
    _scaling_values: np.ndarray = field(default=None, init=False, repr=False,
                                        compare=False)
    _dwt: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    # -- geometry ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return 2 ** self.j_fine

    @property
    def length(self) -> float:
        return self.domain[1] - self.domain[0]

    def cell_centres(self, n: int) -> np.ndarray:
        """Centres a + (b - a)(k + 1/2)/n of n equal cells of the domain."""
        a, b = self.domain
        return a + (b - a) * (np.arange(n) + 0.5) / n

    def multiscale_levels(self) -> np.ndarray:
        """Scale label per multiscale coefficient; the scaling block gets
        j_coarse - 1 so that a cut at j_coarse keeps only the coarse space."""
        labels = [self.j_coarse - 1] * 2 ** self.j_coarse
        for j in range(self.j_coarse, self.j_fine):
            labels.extend([j] * 2 ** j)
        return np.array(labels)

    # -- transforms --------------------------------------------------------

    @property
    def dwt_matrix(self) -> np.ndarray:
        """Full multiscale analysis matrix (orthogonal, dim x dim).

        Each step transforms only the leading approximation block, so the rows
        come out ordered [phi_coarse | d_coarse | ... | d_fine].  A step stacks
        projection's ``_restrict_once`` of the identity with the low-pass and
        the high-pass taps: one periodic filter step (Mallat's pyramid).
        """
        if self._dwt is None:
            n = self.dim
            T = np.eye(n)
            m = n
            while m > 2 ** self.j_coarse:
                step = np.eye(n)
                step[:m, :m] = np.vstack([_restrict_once(np.eye(m), h, 0) for h in
                                          (self.filter.taps, self.filter.high_pass)])
                T = step @ T
                m //= 2
            self._dwt = T
        return self._dwt

    # -- quadrature tables -------------------------------------------------

    def derivative_matrix(self, d: int) -> np.ndarray:
        """Dense circulant G[k,k'] = int phi_k phi_k'^(d) dx."""
        table = connection_coefficients(self.filter, d)
        P = self.dim
        scale = (P / self.length) ** d
        row = np.zeros(P)
        np.add.at(row, table.offsets % P, table.values)  # aliases add in order
        k = np.arange(P)
        return scale * row[(k[None, :] - k[:, None]) % P]

    def moment_matrix(self, power: int) -> np.ndarray:
        """Dense banded M[k,k'] = int x^power phi_k phi_k' dx (lifted torus x).

        Entry (k, k + delta), delta <= K = order - 2, is the lift of that
        pair; at dim = 2K, delta = K pairs overlap twice and add both lifts.
        """
        if power < 0:
            raise ContractError("moment power must be non-negative")
        if power > MAX_MOMENT_POWER:
            raise ConfigurationError(
                f"moment power {power} exceeds the configured maximum {MAX_MOMENT_POWER}"
            )
        m_tab = _product_moments(self.filter, power)  # offset index delta + K
        K = self.filter.order - 2
        P = self.dim
        k = np.arange(P)
        M = np.zeros((P, P))
        for delta in range(K + 1):
            val = _lifted(power, self.domain[0], self.length / P,
                          k.astype(float), m_tab[:, delta + K])
            M[k, (k + delta) % P] += val
            if delta:
                M[(k + delta) % P, k] += val
        return M

    def integration_functional(self) -> np.ndarray:
        """Row vector s with int f = s . coeffs for single-scale coeffs."""
        return np.full(self.dim, np.sqrt(self.length / self.dim))

    def moment_functional(self, power: int) -> np.ndarray:
        """Row vector f with int x^power W(x) dx = f . coeffs (lifted torus x)."""
        if power < 0:
            raise ContractError("moment power must be non-negative")
        mu = scaling_function_moments(self.filter, power)
        hstep = self.length / self.dim
        k = np.arange(self.dim, dtype=float)
        return np.sqrt(hstep) * _lifted(power, self.domain[0], hstep, k, mu)

    # -- evaluation --------------------------------------------------------

    def evaluation_matrix(self, x: np.ndarray) -> np.ndarray:
        """Phi[i, k] = phi_k(x_i) for single-scale basis functions."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        P = self.dim
        t = (x - self.domain[0]) * (P / self.length)
        if self._scaling_values is None:
            self._scaling_values = scaling_values(self.filter, EVAL_RESOLUTION)
        phi = self._scaling_values
        grid = np.arange(phi.size) / 2.0 ** EVAL_RESOLUTION
        support = self.filter.support_length
        amp = np.sqrt(P / self.length)
        out = np.zeros((x.size, P))
        # phi_k(x) is nonzero for k = floor(t) - j, j = 0 .. support
        for j in range(support + 1):
            k = (np.floor(t) - j) % P
            u = (t - k) % P
            ok = u <= support
            out[ok, k[ok].astype(int)] = amp * np.interp(u[ok], grid, phi,
                                                         left=0.0, right=0.0)
        return out

    # -- projection --------------------------------------------------------

    def projection_nodes(self) -> np.ndarray:
        """Dyadic sample points of ``project``, at level j_fine + PROJECTION_LEVELS."""
        P = 2 ** (self.j_fine + PROJECTION_LEVELS)
        return self.domain[0] + (self.length / P) * np.arange(P)

    def project_samples(self, F: np.ndarray, axis: int = 0) -> np.ndarray:
        """Single-scale coefficients <phi_k, f> along ``axis`` from samples of f.

        ``F`` holds f at ``projection_nodes`` along ``axis``.  Applies the
        small-stencil quadrature that reproduces all scaling-function moments
        up to the filter order, then restricts exactly down to j_fine with the
        low-pass filter.  The only error is the quadrature truncation
        ~ (L / 2^(j_fine + PROJECTION_LEVELS))^order.
        """
        P = F.shape[axis]
        c = _stencil_coefficients(F, quadrature_weights(self.filter), axis)
        c *= np.sqrt(self.length / P)
        for _ in range(PROJECTION_LEVELS):
            c = _restrict_once(c, self.filter.taps, axis)
        return c

    def project(self, f) -> np.ndarray:
        """Single-scale coefficients <phi_k, f>; ``f`` must accept numpy arrays."""
        return self.project_samples(np.asarray(f(self.projection_nodes()), dtype=float))


@cache
def quadrature_weights(filt: FilterCoefficients) -> np.ndarray:
    """Weights w_t at integer nodes t = 0..order-1 with sum_t w_t t^m = mu_m.

    The resulting one-point-per-node rule integrates f against phi exactly
    for polynomial f up to degree order-1.  Cached per filter order.
    """
    n = filt.order
    mu = scaling_function_moments(filt, n - 1)
    nodes = np.arange(n, dtype=float)
    V = np.vander(nodes, n, increasing=True).T  # V[m, t] = t^m
    return np.linalg.solve(V, mu)


def _stencil_coefficients(F: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """c_k = sum_t w_t F[(k + t) mod n] along the given axis (periodic).

    Each shifted copy of F is scaled and added in place and dropped before
    the next, so F, c and one copy are the only arrays of F's size."""
    out = np.zeros_like(F, dtype=float)
    for t, wt in enumerate(weights):
        term = np.roll(F, -t, axis=axis)
        term *= wt
        out += term
        del term
    return out


def _restrict_once(c: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """One analysis step c'_k = sum_t h_t c_{(2k+t) mod n} (periodic).

    Each term takes only the n/2 entries it reads and is scaled and added
    in place, so c, c' and one term are the only arrays made."""
    n = c.shape[axis]
    even = np.arange(0, n, 2)
    out = taps[0] * np.take(c, even, axis=axis)
    for t in range(1, len(taps)):
        term = np.take(c, (even + t) % n, axis=axis)
        term *= taps[t]
        out += term
        del term
    return out
