"""Line integrals of exterior potentials and their inversion.

All lines avoid the obstacle ball. The vector transform of a plane
configuration splits in closed form: the vortex part contributes
alpha * pi * sign(x0 ^ w), the gradient part contributes the antipodal
difference of its angular profile, and only the short-range remainder is
integrated numerically.

Two vectorised rules integrate along k lines at once. The line rule
(_line_rule: short-range scalars and every vector transform) applies the
25-node Gauss-Kronrod rule K25, whose 12 Gauss nodes give G12 from the same
field values (_gauss_kronrod), on core panels |s| <= s_core graded away from
closest approach and on both tails mapped to infinity through
s = v^(-1/eps0) (_tail_nodes), eps0 the field's declared decay rate
(_decay_rate), or 1 for the 3-space homogeneous part. A panel whose
|K25 - G12| misses its length share of tail_tol / 4 is bisected, one field
call per level over the panels still open on all lines (_refined_panels);
the gauge scalar's outward rays use the same panels and tails. A line's or
ray's estimate sums the |K25 - G12| of its tails and accepted panels and
raises NonConvergent above tail_tol (_kronrod_checked), so a rate that
overstates the decay is measured, not trusted. Every line, ray and tail is
sampled by _on_lines. The tangent rule (_tangent_rule: scalar sinograms) is
a fixed rule in s = c tan(t), without an estimate; it does not cover slow
power decay. A nan or inf field value ends every rule with NonConvergent: a
nan estimate fails the check, and sums without one must be finite.
Both rules build their node tables from the line distances alone, so a
parallel-beam sinogram, whose angles share the distances |offsets|, builds
them once, with the flux decomposition and the obstacle check, and applies
them angle by angle. Line points and their projections are formed one
coordinate column at a time, as are the catalog fields (catalog.py).

Scalar inversion uses Cormack's circular-harmonic exterior formula, which
consumes exactly the admissible data (offsets |t| > R) and is exact on the
covered annulus for smooth decaying functions. High harmonics are amplified
by cosh(l arccosh(t/r)), where the exterior problem is ill-posed, so they
are dropped beyond an amplification cap and recorded. Offset derivatives of
sampled data come from a not-a-knot cubic spline on the sampled offsets
(_not_a_knot_slopes), one tridiagonal solve for all columns of a bank; the
harmonic integrals read every kept harmonic's spline at quadrature nodes
located once (_spline_interval).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from ._csvio import read_csv, write_grid_csv
from .angular import SphereFunction
from .errors import (
    BranchAmbiguous,
    DimensionMismatch,
    InsufficientCoverage,
    LineHitsObstacle,
    NonConvergent,
    NotCurlFree,
    PlaneHitsObstacle,
    ResidualFlux,
    TailNotBounded,
)
from .fields import (
    CURL_LOOP_REL,
    PotentialConfig,
    ShortRangeField,
    TransversalField,
    curl,
    decompose_transversal,
    flux,
)

TAIL_TOL = 1e-9
_LINE_NODES = 12  # Gauss nodes of the nested Kronrod pair, per core panel and per tail
_CORE_HALF = 1.35 ** np.arange(12)  # graded widths, growing away from s = 0
_CORE_WIDTHS = np.concatenate([_CORE_HALF[::-1], _CORE_HALF]) / _CORE_HALF.sum()
# the 6 starting core panels on [-1, 1]: every fourth edge of the graded widths
_CORE_EDGES = np.cumsum(np.concatenate([[-1.0], _CORE_WIDTHS]))[::4]
_LINE_DEPTH = 7  # bisections of a starting core panel; a panel at this depth is accepted
_RAY_PANELS = 6  # gauge-scalar panels graded from a point, or the largest grid radius, to the far radius
_SINOGRAM_NODES = 384  # tangent-rule nodes per sinogram line
_TIE_MARGIN = 0.25  # winding limits this close to a half-integer are ambiguous
_INVERT_THETAS = 128  # angles of the inverted polar grid
_INVERT_NODES = 160  # Gauss-Legendre nodes of the harmonic integrals
_AMPLIFICATION_CAP = 1e8


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per n.
    numpy's leggauss: scipy's roots_legendre is no more accurate, and its
    weights differ by up to 6e-15, which moves finite-difference noise figures."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def _gauss_kronrod(n: int):
    """Read-only Gauss-Kronrod nodes and weights on [-1, 1], built once per n:
    the 2n + 1 nodes x, with the n Gauss nodes of _gauss_legendre(n), bit for
    bit, at x[1::2], and the weights as one (2, 2n + 1) table, the Kronrod
    weights and the Kronrod minus the Gauss weights (zero Gauss weight off
    the Gauss nodes), so that one sum gives the value and another the
    Kronrod/Gauss difference. The rule is exact to degree 3n + 1 for even n.

    The new nodes are the roots of the Stieltjes polynomial
    E = P_{n+1} + sum_{j <= n} c_j P_j, orthogonal to P_m P_n for m <= n
    (Kronrod 1965; Laurie, Math. Comp. 66, 1997): the (n + 1)-square system
    for c takes its moments from the 2n-node Gauss rule, and one Newton step
    polishes legroots' roots. The weights make the rule exact to degree 2n.
    """
    leg = np.polynomial.legendre
    xg, wg = _gauss_legendre(n)
    xq, wq = _gauss_legendre(2 * n)
    P = leg.legvander(xq, n + 1)
    moments = (P * (wq * P[:, n])[:, None]).T @ P  # [m, j] = int P_m P_n P_j
    c = np.append(np.linalg.solve(moments[:n + 1, :n + 1], -moments[:n + 1, n + 1]), 1.0)
    r = np.sort(leg.legroots(c).real)
    r -= leg.legval(r, c) / leg.legval(r, leg.legder(c))
    x = np.empty(2 * n + 1)
    x[0::2] = 0.5 * (r - r[::-1])
    x[1::2] = xg
    moment = np.zeros(2 * n + 1)
    moment[0] = 2.0
    wk = np.linalg.solve(leg.legvander(x, 2 * n).T, moment)
    w = np.tile(0.5 * (wk + wk[::-1]), (2, 1))  # symmetric, as are the nodes
    w[1, 1::2] -= wg
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


# ===================================================================
# lines and data containers
# ===================================================================

@dataclass(frozen=True)
class Line:
    """Oriented line s -> x0 + s w with x0 . w = 0 and |w| = 1."""

    x0: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        w = np.asarray(self.omega, dtype=float)
        if x0.shape != w.shape or x0.ndim != 1:
            raise ValueError("x0 and omega must be vectors of equal dimension")
        if abs(np.linalg.norm(w) - 1.0) > 1e-14:
            raise ValueError("direction must be a unit vector")
        if abs(float(x0 @ w)) > 1e-12 * max(1.0, float(np.linalg.norm(x0))):
            raise ValueError("impact point must be orthogonal to the direction")
        x0.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "omega", w)

    @classmethod
    def from_impact_angle(cls, distance: float, angle: float) -> "Line":
        """Positively oriented plane line at the given impact distance."""
        n = np.array([np.cos(angle), np.sin(angle)])
        w = np.array([-np.sin(angle), np.cos(angle)])
        return cls(x0=distance * n, omega=w)

    @property
    def dimension(self) -> int:
        return self.x0.size

    @property
    def distance(self) -> float:
        return float(np.linalg.norm(self.x0))

    def points(self, s) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return self.x0[None, :] + s[:, None] * self.omega[None, :]


@dataclass(frozen=True)
class XRayData:
    """Values of a line transform over a family of admissible lines."""

    lines: tuple
    values: np.ndarray
    kind: str  # "scalar" | "vector" | "vector_exp"

    def __post_init__(self):
        vals = np.asarray(self.values)
        if len(self.lines) == 0:
            raise ValueError("X-ray data needs at least one line")
        if vals.shape != (len(self.lines),):
            raise ValueError("one value per line required")
        if self.kind == "vector_exp":
            if np.max(np.abs(np.abs(vals) - 1.0)) > 1e-10:
                raise ValueError("exponentiated data must be unimodular")
            vals = vals.astype(complex)
        else:
            vals = vals.astype(float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "lines", tuple(self.lines))


# ===================================================================
# line integrals
# ===================================================================

def _tail_nodes(s_from, eps0: float, x, w):
    """The rule of nodes x and weights w on [-1, 1] carried to (s_from[i], inf)
    for each of k lines through s = v^(-1/eps0), v in (0, s_from^-eps0), where
    ds = s / (eps0 v) dv: nodes shaped (k, m) for m nodes, and weights shaped
    (..., k, m) for a weight table w shaped (..., m)."""
    v_from = np.asarray(s_from, dtype=float) ** -eps0
    v = 0.5 * v_from[:, None] * (x + 1.0)
    s = v ** (-1.0 / eps0)
    return s, 0.5 * v_from[:, None] * w[..., None, :] * s / (eps0 * v)


def _on_lines(evaluate: Callable, x0s, omegas, s) -> np.ndarray:
    """evaluate at x0s[i] + s[i, j] omegas[i], shaped like s; vector values
    are projected on each line's direction. Points and projections are formed
    one coordinate column at a time, so numpy's inner loops run along s, not
    along the 2 or 3 coordinates."""
    n = x0s.shape[1]
    pts = np.empty(s.shape + (n,))
    for j in range(n):
        np.add(x0s[:, j, None], s * omegas[:, j, None], out=pts[..., j])
    vals = np.asarray(evaluate(pts.reshape(-1, n)), dtype=float)
    if vals.ndim == 1:
        return vals.reshape(s.shape)
    vals = vals.reshape(pts.shape)
    return sum(vals[..., j] * omegas[:, j, None] for j in range(n))


def _kronrod_checked(sums, tail_tol: float, what: str) -> tuple:
    """The Kronrod values and |Kronrod - Gauss| differences of a rule's two
    weighted sums, shaped (2, k); a difference above tail_tol, or nan (a nan
    or inf field value), raises NonConvergent."""
    value, diff = sums[0], np.abs(sums[1])
    if not np.all(diff <= tail_tol):
        raise NonConvergent(
            f"{what} Kronrod/Gauss difference {np.max(diff):.3e} exceeds {tail_tol:.1e}")
    return value, diff


def _finite_sums(sums, what: str) -> np.ndarray:
    """sums, or NonConvergent when one is not finite (a nan or inf field value)."""
    if not np.all(np.isfinite(sums)):
        raise NonConvergent(f"{what} sum is not finite")
    return sums


def _check_clear(distances, obstacle_radius: float) -> None:
    if np.any(distances <= obstacle_radius):
        raise LineHitsObstacle(f"line at distance {np.min(distances):.3f} meets the obstacle")


def _refined_panels(evaluate: Callable, x0s, omegas, scale, f, line, centre, half,
                    value, estimate, tail_tol: float) -> tuple:
    """Refine by error the K25 panels on the k lines x0s[i] + s omegas[i],
    adding each accepted panel's K25 sum to value[line] and its |K25 - G12|
    to estimate[line]. Panel j covers s = scale[line[j]] (centre[j] + t
    half[j]), |t| <= 1; f holds its values at the 25 Kronrod nodes, shaped
    (panels, 25), from the caller's first field call. A panel is accepted when
    its |K25 - G12| is at most tail_tol / 4 times |half[j]|, its share in units
    of scale, or nan (which bisection cannot mend), and bisected otherwise, one
    evaluate call per level; at depth _LINE_DEPTH every panel is accepted."""
    x, w = _gauss_kronrod(_LINE_NODES)
    k = len(x0s)
    for depth in range(_LINE_DEPTH + 1):
        if depth:
            f = _on_lines(evaluate, x0s[line], omegas[line],
                          scale[line, None] * (centre[:, None] + half[:, None] * x))
        sums = f @ w.T * (scale[line] * half)[:, None]
        diff = np.abs(sums[:, 1])
        done = ~(diff > 0.25 * tail_tol * np.abs(half))
        if depth == _LINE_DEPTH:
            done[:] = True
        value += np.bincount(line[done], sums[done, 0], k)
        estimate += np.bincount(line[done], diff[done], k)
        line, centre, half = line[~done], centre[~done], half[~done]
        if not line.size:
            break
        line, half = np.repeat(line, 2), np.repeat(0.5 * half, 2)
        centre = np.repeat(centre, 2) + np.tile([-1.0, 1.0], centre.size) * half
    return value, estimate


def _decay_rate(field, tail_tol: float) -> float:
    """The decay rate eps0 of the field's declared envelope; TailNotBounded
    when it declares none or its truncation radius at tail_tol overflows."""
    envelope = getattr(field, "envelope", None)
    if envelope is None:
        raise TailNotBounded("no decay envelope declared to map the tails")
    envelope.truncation_radius(tail_tol)
    return envelope.eps0


def _line_rule(eps0: float, distances, tail_tol: float) -> Callable:
    """The line rule for lines at the given distances |x0| from the origin and
    a field of decay rate eps0: its node tables are built here, once, and
    rule(evaluate, x0s, omegas) applies them along the k lines x0s[i] + s
    omegas[i]. evaluate maps (m, n) points to (m,) scalar values, or to (m, n)
    vectors whose component along each line's direction is integrated.

    The core |s| <= s_core = max(8 (|x0| + 2), 48) starts as 6 graded panels
    (_CORE_EDGES), refined by _refined_panels in units of s_core; the first
    evaluate call takes their nodes and the two tails' on every line. Returns
    the values and the estimates, which raise NonConvergent above tail_tol.
    """
    s_core = np.maximum(8.0 * (distances + 2.0), 48.0)
    x, w = _gauss_kronrod(_LINE_NODES)
    s_tail, w_tail = _tail_nodes(s_core, eps0, x, w)
    centre0, half0 = 0.5 * (_CORE_EDGES[1:] + _CORE_EDGES[:-1]), 0.5 * np.diff(_CORE_EDGES)
    s_first = np.concatenate(
        [s_core[:, None] * (centre0[:, None] + half0[:, None] * x).ravel(), s_tail, -s_tail], axis=1)
    k, m = len(distances), x.size

    def rule(evaluate: Callable, x0s, omegas):
        f = _on_lines(evaluate, x0s, omegas, s_first)
        tails = np.sum(f[:, -2 * m:].reshape(k, 2, m) * w_tail[:, :, None], axis=3)
        value, estimate = _refined_panels(
            evaluate, x0s, omegas, s_core, f[:, :-2 * m].reshape(-1, m),
            np.repeat(np.arange(k), centre0.size), np.tile(centre0, k), np.tile(half0, k),
            tails[0].sum(axis=1), np.abs(tails[1]).sum(axis=1), tail_tol)
        return _kronrod_checked(np.stack([value, estimate]), tail_tol, "line rule")

    return rule


def _tangent_rule(distances) -> Callable:
    """A fixed 384-node Gauss-Legendre rule in s = c tan(t), c = max(|x0|, 1),
    for lines at the given distances |x0|, built once (forward_sinogram's
    scalar rule); rule(evaluate, x0s, omegas) returns the values, with no
    error estimate: a sum that is not finite raises NonConvergent."""
    xg, wg = _gauss_legendre(_SINOGRAM_NODES)
    t_nodes = 0.5 * (xg + 1.0) * (np.pi - 2e-10) - (np.pi / 2 - 1e-10)
    t_weights = 0.5 * (np.pi - 2e-10) * wg
    c = np.maximum(distances, 1.0)
    s = c[:, None] * np.tan(t_nodes)[None, :]
    jac = c[:, None] / np.cos(t_nodes)[None, :] ** 2
    return lambda evaluate, x0s, omegas: _finite_sums(np.sum(
        _on_lines(evaluate, x0s, omegas, s) * jac * t_weights[None, :], axis=1), "tangent rule")


def line_integrals_scalar(potential, lines: Sequence[Line], tail_tol: float = TAIL_TOL,
                          obstacle_radius: float = 0.0):
    """Integrals of a short-range scalar potential along admissible lines.

    Returns (values, error estimates), one of each per line, from one pass of
    the vectorised line rule. The tails are mapped by the decay rate of the
    potential's own envelope; a potential without one raises TailNotBounded.
    """
    lines = tuple(lines)
    if not lines:
        return np.zeros(0), np.zeros(0)
    x0s = np.array([ln.x0 for ln in lines])
    distances = np.linalg.norm(x0s, axis=1)
    _check_clear(distances, obstacle_radius)
    rule = _line_rule(_decay_rate(potential, tail_tol), distances, tail_tol)
    return rule(potential, x0s, np.array([ln.omega for ln in lines]))


def line_integral_scalar(potential, line: Line, tail_tol: float = TAIL_TOL,
                         obstacle_radius: float = 0.0) -> float:
    """Integral of a short-range scalar potential along an admissible line."""
    vals, _ = line_integrals_scalar(potential, [line], tail_tol, obstacle_radius)
    return float(vals[0])


def line_integrals_vector(config: PotentialConfig, lines: Sequence[Line],
                          tail_tol: float = TAIL_TOL) -> np.ndarray:
    """Vector transforms int A . w ds, one per admissible line."""
    lines = tuple(lines)
    for ln in lines:
        if ln.dimension != config.dimension:
            raise DimensionMismatch(f"{ln.dimension}D line, {config.dimension}D configuration")
    if not lines:
        return np.zeros(0)
    x0s = np.array([ln.x0 for ln in lines])
    distances = np.linalg.norm(x0s, axis=1)
    _check_clear(distances, config.obstacle_radius)
    return _vector_transform(config, distances, tail_tol)(x0s, np.array([ln.omega for ln in lines]))


def _vector_transform(config: PotentialConfig, distances, tail_tol: float) -> Callable:
    """transform(x0s, omegas): the vector transforms along k lines
    x0s[i] + s omegas[i] at the given distances |x0s[i]|, as (k, n) arrays.
    The flux decomposition and the node tables are built here, once.

    Plane: vortex flux alpha gives alpha*pi*sign(x0^w) and the gradient part
    of the transversal profile a0(w) - a0(-w). In 3-space the homogeneous
    part, whose A . w = -x0 . A / s decays like s^-2, goes through the line
    rule with rate 1; the short-range remainder with its declared rate.
    """
    tv, sr = config.transversal, config.short_range
    plane = tv is not None and config.dimension == 2
    dec = decompose_transversal(tv) if plane else None
    homogeneous_rule = _line_rule(1.0, distances, tail_tol) if tv is not None and not plane else None
    line_rule = _line_rule(_decay_rate(sr, tail_tol), distances, tail_tol) if sr is not None else None

    def transform(x0s, omegas) -> np.ndarray:
        total = np.zeros(len(x0s))
        if plane:
            theta_w = np.arctan2(omegas[:, 1], omegas[:, 0])
            wedge = x0s[:, 0] * omegas[:, 1] - x0s[:, 1] * omegas[:, 0]
            total += dec.alpha * np.pi * np.where(wedge < 0, -1.0, 1.0)  # sign(x0 ^ w), +1 at 0
            total += dec.a0(theta_w) - dec.a0(theta_w + np.pi)
        elif tv is not None:
            total += homogeneous_rule(tv, x0s, omegas)[0]
        if sr is not None:
            total += line_rule(sr, x0s, omegas)[0]
        return total

    return transform


def line_integral_vector(config: PotentialConfig, line: Line,
                         tail_tol: float = TAIL_TOL) -> float:
    """Vector transform int A . w ds along one admissible line."""
    return float(line_integrals_vector(config, [line], tail_tol)[0])


# ===================================================================
# parallel-beam geometry and sinograms
# ===================================================================

def parallel_geometry(n_angles: int, n_offsets: int, r_min: float, r_max: float):
    """Angles in [0, pi) and signed offsets avoiding the band |t| < r_min."""
    if n_angles < 1:
        raise ValueError(f"n_angles must be at least 1, got {n_angles}")
    if n_offsets < 2:
        raise ValueError(f"n_offsets must be at least 2 (one offset per bank), got {n_offsets}")
    if n_offsets >= 4 and not r_min < r_max:
        raise ValueError(f"r_min must be below r_max, got {r_min} and {r_max}")
    if n_offsets % 2:
        raise ValueError("n_offsets must be even (two symmetric offset banks)")
    angles = np.arange(n_angles) * np.pi / n_angles
    pos = np.linspace(r_min, r_max, n_offsets // 2)
    offsets = np.concatenate([-pos[::-1], pos])
    return angles, offsets


def line_at(angle: float, offset: float) -> Line:
    return Line.from_impact_angle(offset, angle)


@dataclass(frozen=True)
class Sinogram:
    """Parallel-beam line-transform samples over angles x signed offsets."""

    angles: np.ndarray
    offsets: np.ndarray
    values: np.ndarray
    kind: str  # "scalar" | "vector"
    obstacle_radius: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        t = np.asarray(self.offsets, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (a.size, t.size):
            raise ValueError("values must be shaped (angles, offsets)")
        half = t.size // 2
        if t.size % 2 or not np.allclose(t[:half], -t[half:][::-1], atol=1e-12):
            raise ValueError("offsets must form symmetric signed banks")
        if np.any(np.diff(t[half:]) <= 0):
            raise ValueError("offsets must increase strictly within each bank")
        for arr in (a, t, v):
            arr.flags.writeable = False
        object.__setattr__(self, "angles", a)
        object.__setattr__(self, "offsets", t)
        object.__setattr__(self, "values", v)

    @property
    def r_min(self) -> float:
        return float(self.offsets[self.offsets > 0][0])

    def to_csv(self, path) -> None:
        write_grid_csv(path, "angle,offset,value", self.angles, self.offsets, self.values)

    @classmethod
    def from_csv(cls, path, kind: str, obstacle_radius: float = 0.0) -> "Sinogram":
        body = read_csv(path)
        angles = np.unique(body[:, 0])
        offsets = body[:len(body) // angles.size, 1]
        values = body[:, 2].reshape(angles.size, offsets.size)
        return cls(angles=angles, offsets=offsets, values=values, kind=kind,
                   obstacle_radius=obstacle_radius)


def forward_sinogram(config: PotentialConfig, angles, offsets, kind: str = "scalar") -> Sinogram:
    """Line transforms of a plane configuration on a parallel grid.

    Every angle has the same line distances |offsets|, so the obstacle check,
    the node tables and the flux decomposition are done once per sinogram;
    each angle applies them to its lines, as arrays. Vector data are
    line_integrals_vector. Scalar data use the tangent rule, which does not
    cover slow power decay: for the catalog power scalar with p = 1.5 it
    misses about 5e-3 per line, where line_integral_scalar is exact.
    """
    if config.dimension != 2:
        raise DimensionMismatch("parallel-beam sinograms are planar")
    if kind not in ("scalar", "vector"):
        raise ValueError("kind must be 'scalar' or 'vector'")
    angles = np.asarray(angles, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    distances = np.abs(offsets)
    _check_clear(distances, config.obstacle_radius)
    if kind == "vector":
        transform = _vector_transform(config, distances, TAIL_TOL)
    elif config.scalar is not None:
        transform = partial(_tangent_rule(distances), config.scalar)
    else:
        transform = lambda x0s, omegas: 0.0  # no scalar part
    out = np.zeros((angles.size, offsets.size))
    for i, ang in enumerate(angles):
        # the lines line_at(ang, offsets), as arrays
        x0s = offsets[:, None] * np.array([np.cos(ang), np.sin(ang)])
        omegas = np.broadcast_to([-np.sin(ang), np.cos(ang)], (offsets.size, 2))
        out[i] = transform(x0s, omegas)
    return Sinogram(angles=angles, offsets=offsets, values=_finite_sums(out, "sinogram"),
                    kind=kind, obstacle_radius=config.obstacle_radius)


# ===================================================================
# winding resolution
# ===================================================================

def resolve_winding(data: XRayData) -> int:
    """Integer branch count of exponentiated difference data along a receding
    family of parallel lines.

    Anchors at the principal argument of the nearest line, continues the
    phase by nearest branch as |x0| grows, and rounds the limit over 2 pi.
    Raises BranchAmbiguous when consecutive phases jump by >= pi (sampling
    too coarse to continue) or the limit sits within 0.25 of a half-integer.
    """
    if data.kind != "vector_exp":
        raise ValueError("winding resolution consumes exponentiated vector data")
    if len(data.lines) < 2:
        raise BranchAmbiguous("need at least two lines to continue the phase")
    dists = np.array([ln.distance for ln in data.lines])
    order = np.argsort(dists, kind="stable")
    args = np.angle(np.asarray(data.values)[order])
    inc = np.diff(args)
    inc = np.mod(inc + np.pi, 2 * np.pi) - np.pi  # wrap to [-pi, pi)
    if np.any(np.abs(np.abs(inc) - np.pi) < 1e-9):
        raise BranchAmbiguous("consecutive phases jump by >= pi; sampling too coarse")
    limit = float(args[0] + np.sum(inc))
    m = float(np.round(limit / (2 * np.pi)))
    if abs(limit / (2 * np.pi) - m) >= _TIE_MARGIN:
        raise BranchAmbiguous(
            f"phase limit {limit:.4f} sits {abs(limit/(2*np.pi)-m):.3f} from an integer branch")
    return int(m)


def synthetic_winding_family(m: int, eps0: float, d0: float = 2.0, d_far: float | None = None,
                             anchor_phase: float = 0.3, n: int = 120,
                             angle: float = 0.0) -> XRayData:
    """Exponentiated phase family winding from a sub-pi anchor to 2 pi m.

    D(d) = 2 pi m (1 - (d0/d)^eps0) + anchor_phase (d0/d)^eps0, sampled on a
    geometric grid refined until true increments stay under pi.
    """
    if abs(anchor_phase) >= np.pi:
        raise ValueError("anchor phase must sit inside the principal branch")
    target_tail = 0.15 * 2 * np.pi
    scale = abs(2 * np.pi * m - anchor_phase)
    if d_far is None:
        ratio = max((max(scale, 1e-9) / target_tail) ** (1.0 / eps0), 20.0)
        d_far = d0 * ratio

    def phases(ds):
        t = (d0 / ds) ** eps0
        return 2 * np.pi * m * (1 - t) + anchor_phase * t

    while True:
        ds = np.geomspace(d0, d_far, n)
        D = phases(ds)
        if np.max(np.abs(np.diff(D))) < 2.5 or n > 20000:
            break
        n *= 2
    lines = [Line.from_impact_angle(d, angle) for d in ds]
    return XRayData(lines=tuple(lines), values=np.exp(1j * D), kind="vector_exp")


# ===================================================================
# exterior inversion (circular harmonics)
# ===================================================================

@dataclass(frozen=True)
class PolarGridField:
    """Scalar field sampled on a polar grid over a certified annulus."""

    radii: np.ndarray
    thetas: np.ndarray
    values: np.ndarray
    annulus: tuple[float, float]
    dropped_harmonics: tuple = ()

    def sample(self, f: Callable) -> np.ndarray:
        """f at the grid points, shaped like values."""
        _, _, pts = polar_points(self.radii, self.thetas)
        return np.asarray(f(pts), dtype=float).reshape(self.values.shape)

    def l2_relative_error(self, reference) -> float:
        """Radius-weighted relative L2 error against a callable, or against
        its samples on the grid (shaped like values)."""
        ref = self.sample(reference) if callable(reference) else reference
        w = self.radii[:, None]
        num = float(np.sum(w * (self.values - ref) ** 2))
        den = float(np.sum(w * ref**2))
        return np.sqrt(num / den) if den > 0 else np.sqrt(num)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def to_csv(self, path) -> None:
        write_grid_csv(path, "r,theta,value", self.radii, self.thetas, self.values)


def polar_points(radii, thetas):
    """Radius-major polar grid: flat r and theta columns and the (m, 2) points."""
    r, t = (a.ravel() for a in np.meshgrid(radii, thetas, indexing="ij"))
    return r, t, np.column_stack([r * np.cos(t), r * np.sin(t)])


def annulus_points(rng, r_in: float, r_out: float, n: int) -> np.ndarray:
    """n random probe points, shaped (n, 2), in the annulus r_in <= |x| <
    r_out: n uniform radii, then n uniform angles, drawn from rng in that
    order."""
    r = rng.uniform(r_in, r_out, n)
    th = rng.uniform(0, 2 * np.pi, n)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def _not_a_knot_slopes(x, y) -> np.ndarray:
    """Knot slopes of the not-a-knot cubic spline through (x, y[:, j]), for
    every column j at once (de Boor, A Practical Guide to Splines, ch. IV).

    x increases strictly and holds at least 4 knots, not necessarily evenly
    spaced; y is (n,) or (n, k), real or complex, and the slopes are shaped
    like y. The tridiagonal system and its end rows are those of scipy's
    CubicSpline. One forward and one back sweep solve it without pivoting:
    the first elimination step is exact and the interior rows are diagonally
    dominant.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    dx = np.diff(x)
    h = dx.reshape(dx.shape + (1,) * (y.ndim - 1))  # broadcasts over the columns
    slope = np.diff(y, axis=0) / h
    b = np.empty(y.shape, dtype=slope.dtype)
    b[1:-1] = 3 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    diag = np.concatenate([[dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]])
    lower = np.append(dx[1:], d1)  # entries (i + 1, i)
    upper = np.insert(dx[:-1], 0, d0)  # entries (i, i + 1)
    for i in range(1, x.size):
        w = lower[i - 1] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        b[i] -= w * b[i - 1]
    b[-1] /= diag[-1]
    for i in range(x.size - 2, -1, -1):
        b[i] = (b[i] - upper[i] * b[i + 1]) / diag[i]
    return b


def _spline_interval(x, t):
    """Index i of the interval x[i] <= t < x[i + 1] that holds each point t
    in [x[0], x[-1]] (the last one closed), and the offset t - x[i]."""
    i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
    return i, t - x[i]


def _spline_derivative(x, y, slopes, t, interval=None) -> np.ndarray:
    """Derivative at points t in [x[0], x[-1]] of the cubic through the knot
    values y with the knot slopes given (as from _not_a_knot_slopes), on
    the interval that holds each point; interval is _spline_interval(x, t),
    passed when several splines are read at the same points. y and slopes
    are (n,) columns; the result is shaped like t."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    excess = (slopes[:-1] + slopes[1:] - 2 * slope) / dx
    cubic, quadratic = excess / dx, (slope - slopes[:-1]) / dx - excess  # per interval
    i, h = _spline_interval(x, t) if interval is None else interval
    return (3 * cubic[i] * h + 2 * quadratic[i]) * h + slopes[i]


def _check_coverage(sino: Sinogram) -> None:
    if sino.angles.size < 8 or sino.offsets.size // 2 < 8:
        raise InsufficientCoverage("need at least 8 angles and 8 offsets per bank")


def radon_invert_scalar(sino: Sinogram) -> PolarGridField:
    """Invert exterior parallel-beam data by circular-harmonic decomposition.

    For each angular harmonic l of the full-circle sinogram,
    v_l(r) = -(1/pi) integral_0^{arccosh(T/r)} p_l'(r cosh s) cosh(l s) ds
    recovers the harmonic of the function on the covered annulus, sampled on
    96 radii from 1.02 r_min to 0.92 T and 128 angles. Harmonics above
    min(2/3 of the angle count, 48) are not used; those whose amplification
    cosh(l arccosh(T/r)) exceeds 1e8 are dropped and reported (exterior data
    cannot determine them stably).
    """
    _check_coverage(sino)
    n_ang = sino.angles.size
    half = sino.offsets.size // 2
    t_pos = sino.offsets[half:]
    T = float(t_pos[-1])
    radii = np.linspace(sino.r_min * 1.02, T * 0.92, 96)
    # full-circle extension p(phi+pi, t) = p(phi, -t)
    P_full = np.concatenate([sino.values[:, half:], sino.values[:, :half][:, ::-1]], axis=0)
    p_hat = np.fft.fft(P_full, axis=0) / (2 * n_ang)
    ls = np.fft.fftfreq(2 * n_ang, d=1.0 / (2 * n_ang)).astype(int)
    l_max = min(2 * n_ang // 3, 48)
    floor = 1e-12 * max(np.max(np.abs(P_full)), 1e-300)
    xg, wg = _gauss_legendre(_INVERT_NODES)
    thetas = np.arange(_INVERT_THETAS) * 2 * np.pi / _INVERT_THETAS
    kept, dropped = [], []
    smax_worst = np.arccosh(T / radii[0])
    for il, l in enumerate(ls):
        if abs(l) > l_max or np.max(np.abs(p_hat[il])) < floor:
            continue
        if np.cosh(abs(l) * smax_worst) > _AMPLIFICATION_CAP:
            dropped.append(int(l))
        else:
            kept.append(il)
    slopes = _not_a_knot_slopes(t_pos, p_hat[kept].T)
    smax = np.arccosh(T / radii)  # per radius
    s = 0.5 * smax[:, None] * (xg[None, :] + 1.0)
    sw = 0.5 * smax[:, None] * wg[None, :]
    tv = np.minimum(radii[:, None] * np.cosh(s), T)
    interval = _spline_interval(t_pos, tv)  # the same nodes for every harmonic
    out = np.zeros((radii.size, _INVERT_THETAS), dtype=complex)
    for j, il in enumerate(kept):
        l = ls[il]
        dpl = _spline_derivative(t_pos, p_hat[il], slopes[:, j], tv, interval)
        vl = -(1.0 / np.pi) * np.sum(dpl * np.cosh(l * s) * sw, axis=1)
        out += vl[:, None] * np.exp(1j * l * thetas[None, :])
    return PolarGridField(radii=radii, thetas=thetas, values=_finite_sums(out.real, "inversion"),
                          annulus=(float(radii[0]), float(radii[-1])),
                          dropped_harmonics=tuple(sorted(dropped)))


def recover_field_2d(sino: Sinogram) -> PolarGridField:
    """Magnetic field from vector-transform data.

    The offset derivative of the vector transform equals the scalar
    transform of curl A, so the field is the exterior inversion of
    d/dt of the sinogram (per offset bank; the banks are separated by the
    obstacle gap).
    """
    if sino.kind != "vector":
        raise ValueError("field recovery consumes vector-transform data")
    _check_coverage(sino)
    half = sino.offsets.size // 2
    dvals = np.empty_like(sino.values)
    for sl in (slice(None, half), slice(half, None)):
        dvals[:, sl] = _not_a_knot_slopes(sino.offsets[sl], sino.values[:, sl].T).T
    dsino = Sinogram(angles=sino.angles, offsets=sino.offsets, values=dvals,
                     kind="scalar", obstacle_radius=sino.obstacle_radius)
    return radon_invert_scalar(dsino)


# ===================================================================
# gauge scalar from a curl-free short-range difference
# ===================================================================

@dataclass
class GaugeScalar:
    """L(x) = -int_{|x|}^inf F(s x^) . x^ ds for a curl-free short-range
    field F whose decay rate maps the tails: minus the integral of F along
    the point's outward ray, which misses the convex obstacle, so L vanishes
    at infinity. A ray is read as a line is, by K25 panels out to far_radius,
    refined in units of far_radius, and the Kronrod tail beyond; its summed
    |K25 - G12| raises NonConvergent above tail_tol. evaluate grades
    _RAY_PANELS panels geometrically from |x| to far_radius, so the nodes move
    smoothly with x; on_polar_grid shares one row of edges across its angles:
    the sorted radii, then the graded panels beyond the largest.
    """

    field: Callable
    far_radius: float
    tail_tol: float

    def _graded(self, r) -> np.ndarray:
        """Edges from each radius r to far_radius, graded geometrically, a row per r."""
        r = np.reshape(r, (-1, 1))
        return r * (self.far_radius / r) ** (np.arange(_RAY_PANELS + 1) / _RAY_PANELS)

    def _at_edges(self, omegas, edges) -> np.ndarray:
        """L at the radii edges[i, :-1] of the rays s omegas[i], shaped (rays,
        edges - 1); each row of edges ends at far_radius, and a single row is
        shared by all rays. One field call takes every starting panel's and
        tail's nodes; each starting panel is a bin, and the bins sum inward."""
        x, w = _gauss_kronrod(_LINE_NODES)
        k, far, m = len(omegas), self.far_radius, x.size
        edges = np.broadcast_to(edges, (k, np.shape(edges)[-1]))
        n = edges.shape[1] - 1
        centre = (0.5 / far) * (edges[:, 1:] + edges[:, :-1]).ravel()
        half = (0.5 / far) * (edges[:, 1:] - edges[:, :-1]).ravel()
        s_tail, w_tail = _tail_nodes([far], _decay_rate(self.field, self.tail_tol), x, w)
        s = np.concatenate([far * (centre[:, None] + half[:, None] * x).reshape(k, -1),
                            np.broadcast_to(s_tail, (k, m))], axis=1)
        f = _on_lines(self.field, np.zeros_like(omegas), omegas, s)
        tail = np.sum(f[:, -m:] * w_tail, axis=2)
        value, estimate = _refined_panels(
            self.field, np.zeros((k * n, omegas.shape[1])), np.repeat(omegas, n, axis=0),
            np.full(k * n, far), f[:, :-m].reshape(k * n, m), np.arange(k * n), centre, half,
            np.zeros(k * n), np.zeros(k * n), self.tail_tol)
        estimate = np.abs(tail[1]) + estimate.reshape(k, n).sum(axis=1)
        tail, _ = _kronrod_checked(np.stack([tail[0], estimate]), self.tail_tol, "gauge-scalar ray")
        return -(np.cumsum(value.reshape(k, n)[:, ::-1], axis=1)[:, ::-1] + tail[:, None])

    def evaluate(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(p, axis=1)
        return self._at_edges(p / r[:, None], self._graded(r))[:, 0]

    def on_polar_grid(self, radii, thetas) -> np.ndarray:
        """L on the polar grid, shaped (radii, thetas): the radius-major order
        of polar_points."""
        radii = np.asarray(radii, dtype=float)
        omegas = np.column_stack([np.cos(thetas), np.sin(thetas)])
        order = np.argsort(radii)
        edges = np.concatenate([radii[order], self._graded(radii[order[-1]])[0, 1:]])
        out = np.empty((radii.size, len(omegas)))
        out[order] = self._at_edges(omegas, edges)[:, :radii.size].T
        return out


def find_gauge_scalar(field, r_in: float, r_out: float,
                      curl_tol: float = 1e-6, loop_tol: float = 1e-6,
                      tail_tol: float = TAIL_TOL, seed: int = 11) -> GaugeScalar:
    """Scalar L with grad L equal to the given curl-free short-range field.

    Verifies curl-freeness, |curl| <= curl_tol by the circulation curl on
    100 probe points of the annulus r_in < |x| < r_out (NotCurlFree
    otherwise; a gradient reads zero there to rounding), and a vanishing
    loop integral on the circle of radius (r_in + r_out) / 2 (ResidualFlux
    otherwise; plane only). Then returns L along outward rays (GaugeScalar)
    with the far radius 8 r_out: error-refined Kronrod panels out to it and
    tails beyond it mapped by the field's decay rate (_decay_rate, read
    first), each ray checked against tail_tol as it is evaluated.
    """
    _decay_rate(field, tail_tol)
    probes = annulus_points(np.random.default_rng(seed), r_in, r_out, 100)
    curls = curl(field, probes)
    if not np.all(np.abs(curls) <= curl_tol):  # a nan curl fails too
        raise NotCurlFree(f"max |curl| {np.max(np.abs(curls)):.3e} exceeds {curl_tol:.1e}")
    loop = 2 * np.pi * flux(field, 0.5 * (r_in + r_out))
    if not abs(loop) <= loop_tol:
        raise ResidualFlux(f"loop integral {loop:.3e} exceeds {loop_tol:.1e}")
    return GaugeScalar(field=field, far_radius=8.0 * r_out, tail_tol=tail_tol)


# ===================================================================
# plane restriction and antipodal defect (n = 3)
# ===================================================================

@dataclass(frozen=True)
class Plane:
    """Affine plane x = point + u e1 + v e2 with an orthonormal frame."""

    point: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.point, dtype=float)
        a = np.asarray(self.e1, dtype=float)
        b = np.asarray(self.e2, dtype=float)
        for v in (p, a, b):
            if v.shape != (3,):
                raise ValueError("plane data must be 3-vectors")
        if (abs(np.linalg.norm(a) - 1) > 1e-12 or abs(np.linalg.norm(b) - 1) > 1e-12
                or abs(float(a @ b)) > 1e-12):
            raise ValueError("frame must be orthonormal")
        for v in (p, a, b):
            v.flags.writeable = False
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "e1", a)
        object.__setattr__(self, "e2", b)

    def grid(self, half_width: float, n: int) -> np.ndarray:
        u = np.linspace(-half_width, half_width, n)
        uu, vv = np.meshgrid(u, u, indexing="ij")
        return (self.point[None, :] + uu.reshape(-1, 1) * self.e1[None, :]
                + vv.reshape(-1, 1) * self.e2[None, :])

    def bivector(self) -> np.ndarray:
        a, b = self.e1, self.e2
        return np.array([a[0] * b[1] - a[1] * b[0],
                         a[0] * b[2] - a[2] * b[0],
                         a[1] * b[2] - a[2] * b[1]])


def plane_restrict(B, plane: Plane, half_width: float, n: int = 17,
                   obstacle_radius: float = 0.0) -> np.ndarray:
    """Pullback of a two-form to a plane patch, sampled on an n x n grid.

    B is either a callable returning (B12, B13, B23) rows or a potential
    object whose curl provides them. A patch that comes within a curl
    loop's radius of the obstacle ball raises PlaneHitsObstacle.
    """
    pts = plane.grid(half_width, n)
    if np.min(np.linalg.norm(pts, axis=1)) * (1 - CURL_LOOP_REL) <= obstacle_radius:
        raise PlaneHitsObstacle("restriction patch meets the obstacle ball")
    if isinstance(B, (PotentialConfig, ShortRangeField, TransversalField)):
        comps = curl(B, pts)
    else:
        comps = np.asarray(B(pts), dtype=float)
        if comps.shape != (pts.shape[0], 3):
            raise DimensionMismatch("two-form callable must return (m, 3) components")
    vals = comps @ plane.bivector()
    return vals.reshape(n, n)


@dataclass(frozen=True)
class AntipodalDefect:
    max_defect: float
    fitted_constant: float


def antipodal_defect(f: SphereFunction) -> AntipodalDefect:
    """Max grid defect |f(w) - f(-w)| and the fitted constant part.

    The difference is odd under w -> -w, so its grid mean vanishes
    identically; a nonzero fitted constant would contradict antisymmetry.
    """
    diff = f.values - f.values[f.grid.antipode]
    return AntipodalDefect(max_defect=float(np.max(np.abs(diff))),
                           fitted_constant=float(np.mean(diff)))
