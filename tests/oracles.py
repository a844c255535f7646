"""Slow references for the vectorised rules and closed forms in gaugekit.

Adaptive-quadrature line integrals (one callback per point), the
principal-value quadrature of one flux-kernel channel, the sphere solver's
phase fit as a dense least-squares problem, the plane kernel's value
matrix evaluated cell by cell, its per-offset maximum by a gather of every
cell, the distance of two plane kernels from their full value grids, its
remainder interpolated through the full 2-D transform, central
differences taken one axis at a time, sinograms rebuilt line table by line
table for every angle, the line rule's former fixed 24-panel table, and the
catalog fields as broadcast formulas over the coordinate axis, a profile's
values on a fine uniform grid by an inverse real FFT, kept only to
check the library against an independent method; plus a field wrapper that
counts evaluation points and a counter of remainder-grid scans.
"""
import numpy as np
from scipy.integrate import quad
from scipy.special import erf

from gaugekit import scattering, tomography
from gaugekit.errors import LineHitsObstacle
from gaugekit.fields import neville_at_zero
from gaugekit.fields import decompose_transversal
from gaugekit.scattering import DIAG_MARGIN_CELLS, flux_step, singular_offdiagonal

_QUAD_OPTS = dict(limit=200, epsabs=1e-13, epsrel=1e-12)


def adaptive_line_integral(evaluate, line):
    """int f(x0 + s w) ds by adaptive quad on the same core |s| <= s_core as
    the library rule, plus QUADPACK's infinite-range tails. A vector-valued
    evaluate is projected on the line direction.

    Blind spots, so a test on such inputs needs a closed form instead:
    - quad's first bisection puts s = 0, the line's closest point, at an
      interval end, where it has no node, so a narrow bump centred there
      reads about 0 (1.4e-24 against 0.0250663 for width 0.01);
    - integrals near 1e-28 are off by about 5 % (epsabs is 1e-13)."""
    s_core = max(8.0 * (line.distance + 2.0), 48.0)

    def f(s):
        v = np.asarray(evaluate(line.points(s)), dtype=float)
        return float(v[0] @ line.omega) if v.ndim == 2 else float(v[0])

    return (quad(f, -s_core, s_core, **_QUAD_OPTS)[0] + quad(f, s_core, np.inf, **_QUAD_OPTS)[0]
            + quad(f, -np.inf, -s_core, **_QUAD_OPTS)[0])


def line_integral_vector_quadrature(config, line) -> float:
    """Brute-force quadrature of the full field A . w along the line.

    Independent check of the split evaluation: integrates transversal plus
    short-range together through the tangent substitution s = d tan(t).
    """
    if line.distance <= config.obstacle_radius:
        raise LineHitsObstacle("line meets the obstacle")
    d = line.distance
    w = line.omega

    def integrand(t):
        s = d * np.tan(t)
        x = line.points(s)[0]
        return float(config.vector_potential(x) @ w) * d / np.cos(t) ** 2

    val, _ = quad(integrand, -np.pi / 2 + 1e-10, np.pi / 2 - 1e-10,
                  limit=400, epsabs=1e-12, epsrel=1e-11)
    return val


def ab_channel_pv_quadrature(alpha: float, k: int,
                             exclusion_radii=(1e-2, 1e-3, 1e-4)) -> complex:
    """Oracle for one channel: symmetric-exclusion quadrature of the
    principal-value integral with Richardson extrapolation in the radius.

    2 pi c_k = cos(a pi) + (i sin(a pi)/pi) p.v. int_0^{2pi}
               e^{i([a]-k)t} / (1 - e^{it}) dt.
    """
    step = flux_step(alpha)
    n = step - k

    def pv_at(eps):
        re, _ = quad(lambda t: np.real(np.exp(1j * n * t) / (1 - np.exp(1j * t))),
                     eps, 2 * np.pi - eps, limit=400, epsabs=1e-13, epsrel=1e-12)
        im, _ = quad(lambda t: np.imag(np.exp(1j * n * t) / (1 - np.exp(1j * t))),
                     eps, 2 * np.pi - eps, limit=400, epsabs=1e-13, epsrel=1e-12)
        return re + 1j * im

    # Richardson in the radius: the exclusion error is linear in eps
    pv, _ = neville_at_zero(np.asarray(exclusion_radii, dtype=float),
                            [pv_at(e) for e in exclusion_radii])
    return complex(np.cos(np.pi * alpha) + 1j * np.sin(np.pi * alpha) / np.pi * pv)


def dense_sphere_phase_fit(S1, S2):
    """The sphere solver's phase fit as a dense least-squares problem.

    One row e_i - e_j = beta_ij per grid edge whose base-kernel entry is
    above the solver's floor, plus a mean-zero row, solved by
    np.linalg.lstsq. Returns the fitted phase (even plus odd part) at the
    grid nodes.
    """
    grid = S1.grid
    V1, V2 = S1.values, S2.values  # a gauged kernel builds its matrix on each read
    floor = 1e-8 * float(np.max(np.abs(V1)))
    odd = 0.5 * np.angle(np.diagonal(V2) / np.diagonal(V1))
    pairs, rhs = [], []
    for (i, j) in grid.edges:
        if abs(V1[i, j]) < floor:
            continue
        beta = float(np.angle(V2[i, j] / V1[i, j])) - odd[i] - odd[j]
        pairs.append((i, j))
        rhs.append((beta + np.pi) % (2 * np.pi) - np.pi)
    A = np.zeros((len(pairs) + 1, grid.size))
    for r, (i, j) in enumerate(pairs):
        A[r, i], A[r, j] = 1.0, -1.0
    A[-1, :] = 1.0
    even = np.linalg.lstsq(A, np.asarray(rhs + [0.0]), rcond=None)[0]
    return even + odd


def fine_profile_samples(f, n: int, shift: float = 0.0) -> np.ndarray:
    """f(2 pi j / n + shift), j = 0..n-1, for n > 2 f.degree, from an inverse
    real FFT of the nonnegative-frequency coefficients zero-padded to n / 2 + 1
    (f = c_0 + 2 Re sum_{k > 0} c_k e^{ik theta}), not AngularFunction.on_grid's
    folded complex transform."""
    N = f.degree
    half = np.zeros(n // 2 + 1, dtype=complex)
    half[:N + 1] = f.coefficients[N:] * np.exp(1j * np.arange(N + 1) * shift)
    return np.fft.irfft(half, n) * n


def direct_value_grid(S):
    """A plane kernel's value matrix from the angle differences
    theta_i - theta_j of every off-diagonal cell, with no offset table; the
    diagonal holds only prefactor * remainder, as in value_grid."""
    th = S.thetas
    u = np.subtract.outer(th, th)
    mask = ~np.eye(th.size, dtype=bool)
    base = np.zeros((th.size, th.size), dtype=complex)
    base[mask] = singular_offdiagonal(S.alpha, u[mask])
    pref = np.multiply.outer(S.prefactor_out(th), S.prefactor_in(th))
    return pref * (base + S.remainder)


def dense_plane_distance(S1, S2):
    """kernel_distance of two plane kernels from their full value grids, and
    S2's largest |value|: the largest |S1 - S2| per offset, gathered cell by
    cell and kept off the diagonal band, plus the channel distance."""
    M = S1.n_grid
    grid2 = S2.value_grid()
    k = np.arange(M)
    far = np.minimum(k, M - k) > DIAG_MARGIN_CELLS
    off = float(np.max(gathered_offset_max(np.abs(S1.value_grid() - grid2))[far]))
    return (off + S1.channel_spectrum().distance(S2.channel_spectrum()),
            float(np.max(np.abs(grid2))))


def gathered_offset_max(A):
    """Largest entry of a square array on each offset k = (i - j) mod M, from
    an explicit gather of every cell by its offset."""
    M = A.shape[0]
    rows = np.arange(M)[:, None]
    return np.max(A[rows, (rows - np.arange(M)[None, :]) % M], axis=0)


def fft2_remainder_pairs(S, theta, theta_prime):
    """R(theta[p], theta_prime[p]) of a plane kernel by the trigonometric
    interpolation of the full 2-D transform of its remainder grid: the
    (p, q) table of every pair, read on its diagonal."""
    M = S.n_grid
    fr = np.fft.fft2(S.remainder) / M**2
    js = np.fft.fftfreq(M, d=1.0 / M).astype(int)
    table = np.exp(1j * np.outer(theta, js)) @ fr @ np.exp(1j * np.outer(js, theta_prime))
    return np.diag(table)


def per_axis_partials(evaluate, points, h):
    """Central differences (f(p + h e_j) - f(p - h e_j)) / 2h one axis at a
    time, with two calls of f per axis; h is a number or one step per point.
    Entry [i, j] is the partial along axis j at point i."""
    p = np.asarray(points, dtype=float)
    m, n = p.shape
    h = np.broadcast_to(np.asarray(h, dtype=float), (m,))
    partial = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        plus = np.asarray(evaluate(p + h[:, None] * e), dtype=float)
        minus = np.asarray(evaluate(p - h[:, None] * e), dtype=float)
        partial.append((plus - minus) / (2 * h).reshape((m,) + (1,) * (plus.ndim - 1)))
    return np.stack(partial, axis=1)


def count_remainder_scans(monkeypatch) -> list:
    """A list that records each scan of a remainder grid's per-offset peaks
    (scattering._offdiagonal_peaks) while monkeypatch is active, to bound
    the work of certifying remainder bounds independently of timing."""
    scans = []
    peaks = scattering._offdiagonal_peaks

    def counted(remainder):
        scans.append(remainder.shape)
        return peaks(remainder)

    monkeypatch.setattr(scattering, "_offdiagonal_peaks", counted)
    return scans


class CountingField:
    """A field that counts the points it is evaluated at, to bound the cost
    of a rule independently of timing."""

    def __init__(self, field):
        self.field = field
        self.envelope = getattr(field, "envelope", None)
        self.points = 0

    def __call__(self, p):
        p = np.atleast_2d(np.asarray(p, dtype=float))
        self.points += len(p)
        return self.field(p)


# ---------------- sinograms, one angle at a time ----------------

def _broadcast_on_lines(evaluate, x0s, omegas, s):
    pts = x0s[:, None, :] + s[:, :, None] * omegas[:, None, :]
    vals = np.asarray(evaluate(pts.reshape(-1, x0s.shape[1])), dtype=float)
    if vals.ndim == 2:
        return np.einsum("kmd,kd->km", vals.reshape(pts.shape), omegas)
    return vals.reshape(s.shape)


# the line rule's fixed core before it refined its panels by error: 24
# panels whose widths grow by 1.35 away from closest approach
_FIXED_HALF = 1.35 ** np.arange(12)
_FIXED_WIDTHS = np.concatenate([_FIXED_HALF[::-1], _FIXED_HALF]) / _FIXED_HALF.sum()
_FIXED_EDGES = np.cumsum(np.concatenate([[-1.0], _FIXED_WIDTHS]))


def fixed_line_rule(evaluate, x0s, omegas, eps0, tail_tol):
    """The Kronrod values of K25 on the 24 fixed core panels and the two
    tails mapped by the decay rate eps0: 650 nodes on every line, whatever
    the field (tail_tol is unused: the table has no estimate)."""
    s_core = np.maximum(8.0 * (np.linalg.norm(x0s, axis=1) + 2.0), 48.0)
    x, w = tomography._gauss_kronrod(tomography._LINE_NODES)
    w_kronrod = w[0]  # the value's weights alone, without the Kronrod/Gauss difference
    u = (_FIXED_EDGES[:-1, None] + 0.5 * _FIXED_WIDTHS[:, None] * (x + 1.0)).ravel()
    uw = (0.5 * _FIXED_WIDTHS[:, None] * w_kronrod).ravel()
    s_tail, w_tail = tomography._tail_nodes(s_core, eps0, x, w_kronrod)
    s = np.concatenate([s_core[:, None] * u, s_tail, -s_tail], axis=1)
    ws = np.concatenate([s_core[:, None] * uw, w_tail, w_tail], axis=1)
    return np.sum(_broadcast_on_lines(evaluate, x0s, omegas, s) * ws, axis=1)


def _fresh_line_rule(evaluate, x0s, omegas, eps0, tail_tol):
    rule = tomography._line_rule(eps0, np.linalg.norm(x0s, axis=1), tail_tol)
    return rule(evaluate, x0s, omegas)[0]


def _per_angle_tangent_rule(evaluate, x0s, omegas, distances):
    xg, wg = tomography._gauss_legendre(tomography._SINOGRAM_NODES)
    t_nodes = 0.5 * (xg + 1.0) * (np.pi - 2e-10) - (np.pi / 2 - 1e-10)
    t_weights = 0.5 * (np.pi - 2e-10) * wg
    c = np.maximum(np.asarray(distances, dtype=float), 1.0)
    s = c[:, None] * np.tan(t_nodes)[None, :]
    jac = c[:, None] / np.cos(t_nodes)[None, :] ** 2
    return np.sum(_broadcast_on_lines(evaluate, x0s, omegas, s) * jac * t_weights[None, :], axis=1)


def per_angle_sinogram(config, angles, offsets, kind, line_rule=_fresh_line_rule):
    """forward_sinogram's values with everything rebuilt for every angle:
    the flux decomposition, the tangent rule's node table, with the line
    points and the projection broadcast over the coordinate axis, and the
    line rule, by default a fresh library rule built from the distances |x0|
    of that angle's impact points."""
    out = np.zeros((angles.size, offsets.size))
    for i, ang in enumerate(angles):
        x0s = offsets[:, None] * np.array([np.cos(ang), np.sin(ang)])
        omegas = np.broadcast_to([-np.sin(ang), np.cos(ang)], (offsets.size, 2))
        if kind == "scalar":
            if config.scalar is not None:
                out[i] = _per_angle_tangent_rule(config.scalar, x0s, omegas, np.abs(offsets))
            continue
        total = np.zeros(len(x0s))
        if config.transversal is not None:
            dec = decompose_transversal(config.transversal)
            theta_w = np.arctan2(omegas[:, 1], omegas[:, 0])
            wedge = x0s[:, 0] * omegas[:, 1] - x0s[:, 1] * omegas[:, 0]
            total += dec.alpha * np.pi * np.where(wedge < 0, -1.0, 1.0)
            total += dec.a0(theta_w) - dec.a0(theta_w + np.pi)
        if config.short_range is not None:
            sr = config.short_range
            total += line_rule(sr, x0s, omegas, sr.envelope.eps0, tomography.TAIL_TOL)
        out[i] = total
    return out


# ---------------- catalog fields as broadcast formulas ----------------

def bumps_value(bumps, p):
    """The gaussian_bumps scalar: the sum of a exp(-|p - c|^2 / (2 w^2))."""
    out = np.zeros(p.shape[0])
    for a, *c, w in bumps:
        out += a * np.exp(-np.sum((p - np.asarray(c, dtype=float)) ** 2, axis=1) / (2 * w**2))
    return out


def bumps_gradient(bumps, p):
    """grad of bumps_value, the grad_bumps field."""
    out = np.zeros_like(p)
    for a, *c, w in bumps:
        diff = p - np.asarray(c, dtype=float)
        out += (-a / w**2) * diff * np.exp(-np.sum(diff**2, axis=1) / (2 * w**2))[:, None]
    return out


def power_gradient(c, p_exp, p):
    """grad of c (1 + |p|^2)^(-p_exp/2)."""
    r2 = np.sum(p**2, axis=1)
    return (-c * p_exp) * p * ((1 + r2) ** (-(p_exp + 2) / 2))[:, None]


def ring_gradient(a, r0, sig, mod, p):
    """grad of the gaussian_ring scalar with modulation [[l, cos, sin], ...]."""
    r = np.sqrt(np.sum(p**2, axis=1))
    base = a * np.exp(-((r - r0) ** 2) / (2 * sig**2))
    inv_r = np.divide(1.0, r, out=np.zeros_like(r), where=r > 0)
    radial = (-(r - r0) / sig**2) * base * inv_r
    if not (mod and p.shape[1] == 2):
        return radial[:, None] * p
    th = np.arctan2(p[:, 1], p[:, 0])
    factor = np.ones_like(r)
    dfactor = np.zeros_like(r)
    for l, ca, sa in mod:
        c, s = np.cos(l * th), np.sin(l * th)
        factor += ca * c + sa * s
        dfactor += l * (sa * c - ca * s)
    angular = base * dfactor * inv_r**2
    return (radial * factor)[:, None] * p + angular[:, None] * np.column_stack([-p[:, 1], p[:, 0]])


def ring_bump_tangential(b0, r0, sig, p):
    """The ring_bump_tangential field (F(r) - M) / r^2 (-p_2, p_1)."""
    s2 = np.sqrt(2.0) * sig

    def F(r):
        return b0 * (sig**2 * (np.exp(-(r0**2) / (2 * sig**2)) - np.exp(-((r - r0) ** 2) / (2 * sig**2)))
                     + r0 * sig * np.sqrt(np.pi / 2) * (erf((r - r0) / s2) + erf(r0 / s2)))

    M = float(F(np.asarray(r0 + 40 * sig)))
    r = np.sqrt(np.sum(p**2, axis=1))
    coeff = (F(r) - M) / r**2
    return coeff[:, None] * np.column_stack([-p[:, 1], p[:, 0]])
