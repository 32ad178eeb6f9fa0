"""Compactly supported wavelet bases and their Galerkin quadrature tables.

Everything downstream (operator assembly, evolution, eigenproblems) consumes
the objects built here:

* ``FilterCoefficients`` / ``daubechies_filter`` -- orthonormal low-pass taps.
* ``scaling_values`` -- the scaling function phi on a dyadic grid (cascade).
* ``connection_coefficients`` -- integrals of products of derivatives of phi,
  obtained exactly from the refinement relation (not by quadrature).
* ``moment_coefficients`` -- integrals of x^m against products of basis
  functions, for polynomial multiplication operators.
* ``WaveletBasis`` -- a periodized multiresolution basis on an interval, with
  single-scale <-> multiscale transforms, expansion evaluation and projection.

Sign/normalization conventions are fixed in one place:

* low-pass taps satisfy ``sum(h) = sqrt(2)``;
* ``Lambda[d1,d2](k) = int phi^(d1)(x) phi^(d2)(x-k) dx`` with the
  polynomial-moment normalization ``sum_k k^d Lambda[0,d](k) = d!``, which is
  the value forced by differentiating the polynomial reproduction identity;
* position tables use the "lifted" coordinate on the torus: the offset between
  two basis functions is taken by minimal image and the monomial x^m is
  evaluated on the contiguous lift of the pair.  The domain box is assumed
  large enough that fields are negligible near the wrap, so the lift choice
  is immaterial for the physics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    support_length: int

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
        return FilterCoefficients(order=2, taps=taps, support_length=1)

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
    filt = FilterCoefficients(order=order, taps=taps, support_length=order - 1)
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

@dataclass(frozen=True)
class ScalingTable:
    """phi sampled at k / 2^resolution, k = 0 .. support * 2^resolution."""

    filter: FilterCoefficients
    resolution: int
    values: np.ndarray

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.values.size) / 2.0 ** self.resolution

    def __call__(self, x):
        """Evaluate phi(x); exact at represented dyadic points, linear in between."""
        x = np.asarray(x, dtype=float)
        out = np.interp(
            x, self.grid, self.values, left=0.0, right=0.0
        )
        return out


def scaling_values(filt: FilterCoefficients, resolution: int) -> ScalingTable:
    """Scaling function on the dyadic grid via refinement-matrix + cascade."""
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
        T = np.zeros((support - 1, support - 1))
        for ii, i in enumerate(idx):
            for jj, j in enumerate(idx):
                k = 2 * i - j
                if 0 <= k < n:
                    T[ii, jj] = _SQRT2 * h[k]
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

    return ScalingTable(filter=filt, resolution=resolution, values=values)


# ---------------------------------------------------------------------------
# connection coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectionTable:
    """Lambda[d1,d2](k) = int phi^(d1)(x) phi^(d2)(x - k) dx, banded in k."""

    d1: int
    d2: int
    offsets: np.ndarray
    values: np.ndarray


_deriv_cache: dict = {}


def _deriv_product_integrals(filt: FilterCoefficients, d: int) -> np.ndarray:
    """Gamma^d(k) = int phi(x) phi^(d)(x - k) dx, k = -(K)..K, K = order - 2.

    Solves the homogeneous refinement system Gamma = 2^d A Gamma together
    with the moment normalization sum_k k^d Gamma(k) = (-1)^d d!.
    """
    key = (filt.order, d)
    if key in _deriv_cache:
        return _deriv_cache[key]

    K = filt.order - 2
    offsets = np.arange(-K, K + 1)
    no = offsets.size
    a = filt.autocorrelation()  # index m + order - 1
    nshift = filt.order - 1

    A = np.zeros((no, no))
    for i, k in enumerate(offsets):
        for j, l in enumerate(offsets):
            m = l - 2 * k
            if -nshift <= m <= nshift:
                A[i, j] = a[m + nshift]

    M = np.eye(no) - (2.0 ** d) * A
    # Nullspace direction via SVD, then scale by the moment normalization.
    _, s, vt = np.linalg.svd(M)
    if s[-1] > 1e-8:
        raise ConfigurationError(
            f"no derivative-product integrals of order {d} exist for filter "
            f"order {filt.order}; use a higher filter order"
        )
    gamma = vt[-1]
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
    gamma = gamma * (target / norm)
    _deriv_cache[key] = (offsets, gamma)
    return _deriv_cache[key]


def connection_coefficients(
    filt: FilterCoefficients, d1: int, d2: int
) -> ConnectionTable:
    """Exact Galerkin derivative tables from the refinement linear system."""
    if d1 < 0 or d2 < 0:
        raise ContractError("derivative orders must be non-negative")
    if d1 + d2 >= filt.order / 2 + 1:
        raise ConfigurationError(
            f"derivative order {d1}+{d2} exceeds the regularity of filter order "
            f"{filt.order}; use a higher filter order"
        )
    offsets, gamma = _deriv_product_integrals(filt, d1 + d2)
    values = ((-1.0) ** d1) * gamma
    return ConnectionTable(d1=d1, d2=d2, offsets=offsets.copy(), values=values.copy())


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

_moment_cache: dict = {}


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


def _product_moments(filt: FilterCoefficients, rmax: int) -> np.ndarray:
    """m_r(d) = int x^r phi(x) phi(x - d) dx for r <= rmax, |d| <= order - 2.

    Returned as array of shape (rmax + 1, 2K + 1) with offset index d + K.
    Solved level by level from the two-scale relation, with the row
    sum_d m_r(d) = mu_r closing the rank deficiency.
    """
    key = (filt.order, rmax)
    if key in _moment_cache:
        return _moment_cache[key]

    K = filt.order - 2
    offsets = np.arange(-K, K + 1)
    no = offsets.size
    h = filt.taps
    n = filt.order
    nshift = n - 1
    mu = scaling_function_moments(filt, rmax)

    # weighted autocorrelations w_u(m) = sum_k h_k h_{k+m} k^u
    wmax = rmax
    w = np.zeros((wmax + 1, 2 * nshift + 1))
    for u in range(wmax + 1):
        for m in range(-nshift, nshift + 1):
            acc = 0.0
            for k in range(n):
                if 0 <= k + m < n:
                    acc += h[k] * h[k + m] * float(k) ** u
            w[u, m + nshift] = acc

    A = np.zeros((no, no))
    for i, d in enumerate(offsets):
        for j, e in enumerate(offsets):
            m = e - 2 * d
            if -nshift <= m <= nshift:
                A[i, j] = w[0, m + nshift]

    out = np.zeros((rmax + 1, no))
    for r in range(rmax + 1):
        rhs = np.zeros(no)
        for s in range(r):
            c = comb(r, s)
            for i, d in enumerate(offsets):
                acc = 0.0
                for j, e in enumerate(offsets):
                    m = e - 2 * d
                    if -nshift <= m <= nshift:
                        acc += w[r - s, m + nshift] * out[s, j]
                rhs[i] += c * acc
        M = np.eye(no) - (2.0 ** -r) * A
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

    _moment_cache[key] = out
    return out


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
    Bases compare equal by filter order, levels and domain.
    """

    filter: FilterCoefficients
    j_coarse: int
    j_fine: int
    domain: tuple
    _scaling_table: ScalingTable = field(default=None, repr=False, compare=False)
    _dwt: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.j_coarse > self.j_fine:
            raise ContractError("j_coarse must not exceed j_fine")
        # the filter support needs 2^j_fine >= order, the moment band
        # order - 2 <= 2^(j_fine - 1)
        need = max(self.filter.order, 2 * self.filter.order - 4)
        if self.dim < need:
            raise ConfigurationError(
                f"basis too coarse for the order-{self.filter.order} filter: "
                f"2^{self.j_fine} functions per axis, it needs at least {need}"
            )
        a, b = self.domain
        if not b > a:
            raise ContractError("domain must be a nonempty interval [a, b)")

    # -- geometry ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return 2 ** self.j_fine

    @property
    def length(self) -> float:
        return self.domain[1] - self.domain[0]

    def multiscale_levels(self) -> np.ndarray:
        """Scale label per multiscale coefficient; the scaling block gets
        j_coarse - 1 so that a cut at j_coarse keeps only the coarse space."""
        labels = [self.j_coarse - 1] * 2 ** self.j_coarse
        for j in range(self.j_coarse, self.j_fine):
            labels.extend([j] * 2 ** j)
        return np.array(labels)

    # -- transforms --------------------------------------------------------

    def _analysis_step(self, n: int) -> np.ndarray:
        """n x n orthogonal one-level periodic DWT matrix (approx; detail)."""
        h = self.filter.taps
        g = self.filter.high_pass
        half = n // 2
        T = np.zeros((n, n))
        for k in range(half):
            for t, ht in enumerate(h):
                T[k, (2 * k + t) % n] += ht
            for t, gt in enumerate(g):
                T[half + k, (2 * k + t) % n] += gt
        return T

    @property
    def dwt_matrix(self) -> np.ndarray:
        """Full multiscale analysis matrix (orthogonal, dim x dim).

        Each step transforms only the leading approximation block, so the rows
        come out ordered [phi_coarse | d_coarse | ... | d_fine].
        """
        if self._dwt is None:
            n = self.dim
            T = np.eye(n)
            m = n
            while m > 2 ** self.j_coarse:
                step = np.eye(n)
                step[:m, :m] = self._analysis_step(m)
                T = step @ T
                m //= 2
            self._dwt = T
        return self._dwt

    # -- quadrature tables -------------------------------------------------

    def derivative_matrix(self, d1: int, d2: int) -> np.ndarray:
        """Dense circulant G[k,k'] = int phi_k^(d1) phi_k'^(d2) dx."""
        table = connection_coefficients(self.filter, d1, d2)
        P = self.dim
        scale = (P / self.length) ** (d1 + d2)
        row = np.zeros(P)
        for off, val in zip(table.offsets, table.values):
            row[off % P] += val
        G = np.zeros((P, P))
        for k in range(P):
            G[k] = np.roll(row, k)
        return scale * G

    def moment_matrix(self, power: int) -> np.ndarray:
        """Dense banded M[k,k'] = int x^power phi_k phi_k' dx (lifted torus x)."""
        return moment_coefficients(self, power).matrix

    def integration_functional(self) -> np.ndarray:
        """Row vector s with int f = s . coeffs for single-scale coeffs."""
        return np.full(self.dim, np.sqrt(self.length / self.dim))

    def moment_functional(self, power: int) -> np.ndarray:
        """Row vector f with int x^power W(x) dx = f . coeffs (lifted torus x)."""
        if power < 0:
            raise ContractError("moment power must be non-negative")
        mu = scaling_function_moments(self.filter, power)
        a, _ = self.domain
        P = self.dim
        hstep = self.length / P
        k = np.arange(P, dtype=float)
        out = np.zeros(P)
        for s_ in range(power + 1):
            inner = sum(comb(s_, u) * k ** (s_ - u) * mu[u] for u in range(s_ + 1))
            out += comb(power, s_) * a ** (power - s_) * hstep ** s_ * inner
        return np.sqrt(hstep) * out

    # -- evaluation --------------------------------------------------------

    @property
    def scaling_table(self) -> ScalingTable:
        if self._scaling_table is None:
            self._scaling_table = scaling_values(self.filter, EVAL_RESOLUTION)
        return self._scaling_table

    def evaluation_matrix(self, x: np.ndarray) -> np.ndarray:
        """Phi[i, k] = phi_k(x_i) for single-scale basis functions."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        a, _ = self.domain
        P = self.dim
        t = (x - a) * (P / self.length)
        tab = self.scaling_table
        support = self.filter.support_length
        amp = np.sqrt(P / self.length)
        out = np.zeros((x.size, P))
        for k in range(P):
            u = (t - k) % P
            mask = u <= support
            if np.any(mask):
                out[mask, k] = amp * tab(u[mask])
        return out

    def evaluate(self, coeffs: np.ndarray, x) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dim,):
            raise ContractError(
                f"coefficient length {coeffs.shape} does not match basis dim {self.dim}"
            )
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        vals = self.evaluation_matrix(x_arr) @ coeffs
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return float(vals[0])
        return vals

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


@dataclass(frozen=True)
class MomentTable:
    """int x^power phi_k phi_k' dx over the periodized basis, banded."""

    power: int
    matrix: np.ndarray


def moment_coefficients(basis: WaveletBasis, power: int) -> MomentTable:
    """Polynomial-coordinate tables for multiplication operators."""
    if power < 0:
        raise ContractError("moment power must be non-negative")
    if power > MAX_MOMENT_POWER:
        raise ConfigurationError(
            f"moment power {power} exceeds the configured maximum {MAX_MOMENT_POWER}"
        )
    filt = basis.filter
    P = basis.dim
    a, _ = basis.domain
    L = basis.length
    K = filt.order - 2

    m_tab = _product_moments(filt, power)  # (power+1, 2K+1), offset idx d+K
    M = np.zeros((P, P))
    hstep = L / P
    for k in range(P):
        for delta in range(0, K + 1):
            kp = (k + delta) % P
            # n_s = int t^s phi(t-k) phi(t-k-delta) dt on the lifted line
            val = 0.0
            for s in range(power + 1):
                ns = 0.0
                for u in range(s + 1):
                    ns += comb(s, u) * float(k) ** (s - u) * m_tab[u, delta + K]
                val += comb(power, s) * a ** (power - s) * hstep ** s * ns
            M[k, kp] = val
            M[kp, k] = val
    return MomentTable(power=power, matrix=M)


_quad_weight_cache: dict = {}


def quadrature_weights(filt: FilterCoefficients) -> np.ndarray:
    """Weights w_t at integer nodes t = 0..order-1 with sum_t w_t t^m = mu_m.

    The resulting one-point-per-node rule integrates f against phi exactly
    for polynomial f up to degree order-1.
    """
    if filt.order in _quad_weight_cache:
        return _quad_weight_cache[filt.order]
    n = filt.order
    mu = scaling_function_moments(filt, n - 1)
    nodes = np.arange(n, dtype=float)
    V = np.vander(nodes, n, increasing=True).T  # V[m, t] = t^m
    w = np.linalg.solve(V, mu)
    _quad_weight_cache[filt.order] = w
    return w


def _stencil_coefficients(F: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """c_k = sum_t w_t F[(k + t) mod n] along the given axis (periodic)."""
    out = np.zeros_like(F, dtype=float)
    for t, wt in enumerate(weights):
        out += wt * np.roll(F, -t, axis=axis)
    return out


def _restrict_once(c: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """One low-pass analysis step c'_k = sum_t h_t c_{(2k+t) mod n} (periodic)."""
    n = c.shape[axis]
    keep = [slice(None)] * c.ndim
    keep[axis] = slice(0, None, 2)
    keep = tuple(keep)
    out = None
    for t, ht in enumerate(taps):
        piece = np.roll(c, -t, axis=axis)[keep]
        out = ht * piece if out is None else out + ht * piece
    return out
