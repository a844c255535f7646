"""Slow references for the vectorised rules and closed forms in gaugekit.

Adaptive-quadrature line integrals (one callback per point), the
principal-value quadrature of one flux-kernel channel, the sphere solver's
phase fit as a dense least-squares problem, the plane kernel's value
matrix evaluated cell by cell, its per-offset maximum by a gather of every
cell, the distance of two plane kernels from their full value grids, its
remainder interpolated through the full 2-D transform, and central
differences taken one axis at a time, kept only to check the library
against an independent method; plus a field wrapper that counts evaluation
points and a counter of remainder-grid scans.
"""
import numpy as np
from scipy.integrate import quad

from gaugekit import scattering
from gaugekit.errors import LineHitsObstacle
from gaugekit.fields import neville_at_zero
from gaugekit.scattering import DIAG_MARGIN_CELLS, flux_step, singular_offdiagonal

_QUAD_OPTS = dict(limit=200, epsabs=1e-13, epsrel=1e-12)


def adaptive_line_integral(evaluate, line, envelope, tail_tol=1e-9):
    """int f(x0 + s w) ds by adaptive quad on the same core |s| <= s_core as
    the library rule, plus QUADPACK's infinite-range tails. A vector-valued
    evaluate is projected on the line direction."""
    S = max(envelope.truncation_radius(tail_tol), 1.0)
    s_core = min(S, max(8.0 * (line.distance + 2.0), 48.0))

    def f(s):
        v = np.asarray(evaluate(line.points(s)), dtype=float)
        return float(v[0] @ line.omega) if v.ndim == 2 else float(v[0])

    total = quad(f, -s_core, s_core, **_QUAD_OPTS)[0]
    if S > s_core:
        total += quad(f, s_core, np.inf, **_QUAD_OPTS)[0] + quad(f, -np.inf, -s_core, **_QUAD_OPTS)[0]
    return total


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
    for (i, j) in grid.edges():
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
