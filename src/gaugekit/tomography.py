"""Line integrals of exterior potentials and their inversion.

All lines avoid the obstacle ball. The vector transform of a plane
configuration splits in closed form: the vortex part contributes
alpha * pi * sign(x0 ^ w), the gradient part contributes the antipodal
difference of its angular profile, and only the short-range remainder is
integrated numerically.

Short-range integrands go through one vectorised rule for k lines at once:
composite Gauss-Legendre on the core |s| <= s_core, with panels growing away
from the point of closest approach, and tails mapped through s = v^(-1/eps0)
from the declared envelope, so that a field decaying like its envelope is
bounded at v = 0 and the tails are integrated to infinity. One field call
each for n and 2n nodes per panel gives the values and a per-line estimate
(n/2n difference, plus the envelope bound of tails skipped because they are
below tail_tol); a difference above tail_tol raises NonConvergent.

Scalar inversion uses Cormack's circular-harmonic exterior formula, which
consumes exactly the admissible data (offsets |t| > R) and is exact on the
covered annulus for smooth decaying functions. High harmonics are amplified
by cosh(l arccosh(t/r)), where the exterior problem is ill-posed, so they
are dropped beyond an amplification cap and recorded.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .angular import AngularFunction, SphereFunction
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
    DecayEnvelope,
    PotentialConfig,
    ShortRangeField,
    TransversalField,
    curl,
    decompose_transversal,
    flux,
)

TAIL_TOL = 1e-9
_QUAD_OPTS = dict(limit=200, epsabs=1e-12, epsrel=1e-11)
_LINE_NODES = 12  # n of the n/2n pair, per core panel and per tail
_CORE_HALF = 1.35 ** np.arange(12)  # core panel widths, growing away from s = 0
_CORE_WIDTHS = np.concatenate([_CORE_HALF[::-1], _CORE_HALF]) / _CORE_HALF.sum()
_CORE_EDGES = np.cumsum(np.concatenate([[-1.0], _CORE_WIDTHS]))
_GAUGE_NODES = 200  # nodes per gauge-scalar path leg


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per n.
    numpy's leggauss: scipy's roots_legendre is no more accurate, and its
    weights differ by up to 6e-15, which moves finite-difference noise figures."""
    x, w = np.polynomial.legendre.leggauss(n)
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

    def orientation(self) -> float:
        """sign(x0 ^ w) in the plane; +1 for from_impact_angle lines."""
        if self.dimension != 2:
            raise DimensionMismatch("orientation is a plane notion")
        s = float(self.x0[0] * self.omega[1] - self.x0[1] * self.omega[0])
        return float(np.sign(s)) if s != 0 else 1.0

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

    def to_csv(self, path) -> None:
        dim = self.lines[0].dimension
        rows = []
        for ln, v in zip(self.lines, self.values):
            rows.append([dim, *ln.x0, *ln.omega, np.real(v), np.imag(v)])
        cols = ["n"] + [f"x0_{i}" for i in range(dim)] + [f"omega_{i}" for i in range(dim)] + ["value_re", "value_im"]
        np.savetxt(path, np.asarray(rows), delimiter=",", header=",".join(cols), comments="")

    @classmethod
    def from_csv(cls, path, kind: str) -> "XRayData":
        data = np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
        dim = int(data[0, 0])
        lines = [Line(x0=row[1:1 + dim], omega=row[1 + dim:1 + 2 * dim]) for row in data]
        vals = data[:, 1 + 2 * dim] + 1j * data[:, 2 + 2 * dim]
        if kind != "vector_exp":
            vals = vals.real
        return cls(lines=tuple(lines), values=vals, kind=kind)


# ===================================================================
# line integrals
# ===================================================================

def _line_quad(evaluate: Callable, x0s, omegas, envelope: DecayEnvelope | None,
               tail_tol: float):
    """Integrals of a decaying integrand along k lines x0s[i] + s omegas[i].

    evaluate maps (m, n) points to (m,) scalar values, or to (m, n) vectors
    whose component along each line's direction is integrated. Returns the
    2n-rule values and per-line error estimates (see the module docstring).
    """
    if envelope is None:
        raise TailNotBounded("no decay envelope declared for the tail bound")
    S = max(envelope.truncation_radius(tail_tol), 1.0)
    eps0 = envelope.eps0
    x0s = np.asarray(x0s, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    s_core = np.minimum(S, np.maximum(8.0 * (np.linalg.norm(x0s, axis=1) + 2.0), 48.0))
    v_core = s_core ** -eps0
    totals = []
    for n in (_LINE_NODES, 2 * _LINE_NODES):
        x, w = _gauss_legendre(n)
        u = (_CORE_EDGES[:-1, None] + 0.5 * _CORE_WIDTHS[:, None] * (x + 1.0)).ravel()
        uw = (0.5 * _CORE_WIDTHS[:, None] * w).ravel()
        # tail s = v^(-1/eps0) over v in (0, v_core); ds = s / (eps0 v) dv
        v = 0.5 * v_core[:, None] * (x + 1.0)
        s_tail = v ** (-1.0 / eps0)
        w_tail = np.where((S > s_core)[:, None],
                          0.5 * v_core[:, None] * w * s_tail / (eps0 * v), 0.0)
        s = np.concatenate([s_core[:, None] * u, s_tail, -s_tail], axis=1)
        ws = np.concatenate([s_core[:, None] * uw, w_tail, w_tail], axis=1)
        pts = x0s[:, None, :] + s[:, :, None] * omegas[:, None, :]
        vals = np.asarray(evaluate(pts.reshape(-1, x0s.shape[1])), dtype=float)
        if vals.ndim == 2:
            vals = np.einsum("kmd,kd->km", vals.reshape(pts.shape), omegas)
        totals.append(np.sum(vals.reshape(s.shape) * ws, axis=1))
    diff = np.abs(totals[1] - totals[0])
    if np.max(diff) > tail_tol:
        raise NonConvergent(
            f"line rule n/2n difference {np.max(diff):.3e} exceeds {tail_tol:.1e}")
    skipped = np.where(S > s_core, 0.0, 2.0 * envelope.C / (eps0 * s_core**eps0))
    return totals[1], diff + skipped


def line_integrals_scalar(potential, lines: Sequence[Line], tail_tol: float = TAIL_TOL,
                          obstacle_radius: float = 0.0,
                          envelope: DecayEnvelope | None = None):
    """Integrals of a short-range scalar potential along admissible lines.

    Returns (values, error estimates), one of each per line, from one pass of
    the vectorised line rule. The envelope defaults to the potential's own.
    """
    lines = tuple(lines)
    for ln in lines:
        if ln.distance <= obstacle_radius:
            raise LineHitsObstacle(f"line at distance {ln.distance:.3f} meets the obstacle")
    if not lines:
        return np.zeros(0), np.zeros(0)
    return _line_quad(potential, [ln.x0 for ln in lines], [ln.omega for ln in lines],
                      envelope or getattr(potential, "envelope", None), tail_tol)


def line_integral_scalar(potential, line: Line, tail_tol: float = TAIL_TOL,
                         obstacle_radius: float = 0.0,
                         envelope: DecayEnvelope | None = None) -> float:
    """Integral of a short-range scalar potential along an admissible line."""
    vals, _ = line_integrals_scalar(potential, [line], tail_tol, obstacle_radius, envelope)
    return float(vals[0])


def line_integral_vector(config: PotentialConfig, line: Line,
                         tail_tol: float = TAIL_TOL) -> float:
    """Vector transform int A . w ds, split in closed form where possible.

    Plane: vortex flux alpha gives alpha*pi*sign(x0^w); the gradient part of
    the transversal profile gives a0(w) - a0(-w); the short-range remainder
    goes through the line rule. In 3-space the homogeneous part is a
    quadrature in a tangent substitution.
    """
    if line.distance <= config.obstacle_radius:
        raise LineHitsObstacle(f"line at distance {line.distance:.3f} meets the obstacle")
    total = 0.0
    w = line.omega
    if config.transversal is not None:
        if config.dimension == 2:
            dec = decompose_transversal(config.transversal)
            theta_w = float(np.arctan2(w[1], w[0]))
            total += dec.alpha * np.pi * line.orientation()
            total += dec.a0(theta_w) - dec.a0(theta_w + np.pi)
        else:
            total += _homogeneous_line_quad(config.transversal, line)
    if config.short_range is not None:
        sr = config.short_range
        vals, _ = _line_quad(sr, line.x0[None, :], w[None, :], sr.envelope, tail_tol)
        total += vals[0]
    return float(total)


def _homogeneous_line_quad(field, line: Line) -> float:
    """Quadrature of a homogeneous degree -1 field along a line, using
    s = d tan(t); transversality makes the integrand in t bounded."""
    d = line.distance
    w = line.omega

    def f(t):
        s = d * np.tan(t)
        x = line.points(s)[0]
        return float(np.asarray(field(x)) @ w) * d / np.cos(t) ** 2

    val, _ = quad(f, -np.pi / 2 + 1e-12, np.pi / 2 - 1e-12, **_QUAD_OPTS)
    return val


# ===================================================================
# parallel-beam geometry and sinograms
# ===================================================================

def parallel_geometry(n_angles: int, n_offsets: int, r_min: float, r_max: float):
    """Angles in [0, pi) and signed offsets avoiding the band |t| < r_min."""
    if n_offsets % 2:
        raise ValueError("n_offsets must be even (two symmetric offset banks)")
    angles = np.arange(n_angles) * np.pi / n_angles
    pos = np.linspace(r_min, r_max, n_offsets // 2)
    offsets = np.concatenate([-pos[::-1], pos])
    return angles, offsets


def line_at(angle: float, offset: float) -> Line:
    n = np.array([np.cos(angle), np.sin(angle)])
    w = np.array([-np.sin(angle), np.cos(angle)])
    return Line(x0=offset * n, omega=w)


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
        for arr in (a, t, v):
            arr.flags.writeable = False
        object.__setattr__(self, "angles", a)
        object.__setattr__(self, "offsets", t)
        object.__setattr__(self, "values", v)

    @property
    def r_min(self) -> float:
        return float(self.offsets[self.offsets > 0][0])

    @property
    def r_max(self) -> float:
        return float(self.offsets[-1])

    def to_csv(self, path) -> None:
        body = np.column_stack([np.repeat(self.angles, self.offsets.size),
                                np.tile(self.offsets, self.angles.size),
                                self.values.ravel()])
        np.savetxt(path, body, delimiter=",", header="angle,offset,value", comments="")

    @classmethod
    def from_csv(cls, path, kind: str, obstacle_radius: float = 0.0) -> "Sinogram":
        body = np.loadtxt(path, delimiter=",", skiprows=1)
        angles = np.unique(body[:, 0])
        offsets = body[:len(body) // angles.size, 1]
        values = body[:, 2].reshape(angles.size, offsets.size)
        return cls(angles=angles, offsets=offsets, values=values, kind=kind,
                   obstacle_radius=obstacle_radius)


def forward_sinogram(config: PotentialConfig, angles, offsets, kind: str = "scalar",
                     n_nodes: int = 384) -> Sinogram:
    """Vectorized forward projection on a parallel grid.

    Gauss-Legendre rule in the tangent substitution s = c tan(t); accurate to
    ~1e-11 for the smooth rapidly decaying fields in the catalog. The
    line_integral_* functions, which carry an error estimate, remain the
    per-line reference.
    """
    angles = np.asarray(angles, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    if kind == "scalar":
        if config.scalar is None:
            evaluate = lambda p: np.zeros(p.shape[0])
        else:
            evaluate = config.scalar
    elif kind != "vector":
        raise ValueError("kind must be 'scalar' or 'vector'")
    xg, wg = _gauss_legendre(n_nodes)
    t_nodes = 0.5 * (xg + 1.0) * (np.pi - 2e-10) - (np.pi / 2 - 1e-10)
    t_weights = 0.5 * (np.pi - 2e-10) * wg
    out = np.zeros((angles.size, offsets.size))
    for i, ang in enumerate(angles):
        n = np.array([np.cos(ang), np.sin(ang)])
        w = np.array([-np.sin(ang), np.cos(ang)])
        c = np.maximum(np.abs(offsets), 1.0)  # substitution scale per line
        s = c[:, None] * np.tan(t_nodes)[None, :]
        jac = c[:, None] / np.cos(t_nodes)[None, :] ** 2
        pts = (offsets[:, None, None] * n[None, None, :]
               + s[:, :, None] * w[None, None, :]).reshape(-1, 2)
        if kind == "scalar":
            vals = np.asarray(evaluate(pts), dtype=float)
        else:
            vals = np.asarray(config.vector_potential(pts), dtype=float) @ w
        out[i] = np.sum(vals.reshape(offsets.size, n_nodes) * jac * t_weights[None, :], axis=1)
    return Sinogram(angles=angles, offsets=offsets, values=out, kind=kind,
                    obstacle_radius=config.obstacle_radius)


# ===================================================================
# winding resolution
# ===================================================================

def resolve_winding(data: XRayData, tie_margin: float = 0.25) -> int:
    """Integer branch count of exponentiated difference data along a receding
    family of parallel lines.

    Anchors at the principal argument of the nearest line, continues the
    phase by nearest branch as |x0| grows, and rounds the limit over 2 pi.
    Raises BranchAmbiguous when consecutive phases jump by >= pi (sampling
    too coarse to continue) or the limit sits near a half-integer.
    """
    if data.kind != "vector_exp":
        raise ValueError("winding resolution consumes exponentiated vector data")
    if len(data.lines) < 2:
        raise BranchAmbiguous("need at least two lines to continue the phase")
    dists = np.array([ln.distance for ln in data.lines])
    order = np.argsort(dists, kind="stable")
    args = np.angle(np.asarray(data.values)[order])
    inc = np.diff(args)
    inc = np.mod(inc + np.pi, 2 * np.pi) - np.pi  # wrap to (-pi, pi]
    if np.any(np.abs(np.abs(inc) - np.pi) < 1e-9) or np.any(np.abs(inc) > np.pi):
        raise BranchAmbiguous("consecutive phases jump by >= pi; sampling too coarse")
    limit = float(args[0] + np.sum(inc))
    m = float(np.round(limit / (2 * np.pi)))
    if abs(limit / (2 * np.pi) - m) >= tie_margin:
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

    def __call__(self, x) -> np.ndarray:
        p = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(p, axis=1)
        th = np.mod(np.arctan2(p[:, 1], p[:, 0]), 2 * np.pi)
        ri = np.clip(np.searchsorted(self.radii, r) - 1, 0, self.radii.size - 2)
        dth = self.thetas[1] - self.thetas[0]
        ti = (th // dth).astype(int) % self.thetas.size
        fr = (r - self.radii[ri]) / (self.radii[ri + 1] - self.radii[ri])
        ft = (th - self.thetas[ti]) / dth
        tj = (ti + 1) % self.thetas.size
        v = ((1 - fr) * (1 - ft) * self.values[ri, ti] + fr * (1 - ft) * self.values[ri + 1, ti]
             + (1 - fr) * ft * self.values[ri, tj] + fr * ft * self.values[ri + 1, tj])
        return v if v.size > 1 else float(v[0])

    def l2_relative_error(self, reference: Callable) -> float:
        rr, tt = np.meshgrid(self.radii, self.thetas, indexing="ij")
        pts = np.column_stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])
        ref = np.asarray(reference(pts), dtype=float).reshape(rr.shape)
        w = self.radii[:, None]
        num = float(np.sum(w * (self.values - ref) ** 2))
        den = float(np.sum(w * ref**2))
        return np.sqrt(num / den) if den > 0 else np.sqrt(num)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def to_csv(self, path) -> None:
        body = np.column_stack([np.repeat(self.radii, self.thetas.size),
                                np.tile(self.thetas, self.radii.size),
                                self.values.ravel()])
        np.savetxt(path, body, delimiter=",", header="r,theta,value", comments="")


def radon_invert_scalar(sino: Sinogram, radii: np.ndarray | None = None,
                        n_theta: int = 128, l_max: int | None = None,
                        amplification_cap: float = 1e8,
                        taper: str | None = None,
                        n_gauss: int = 160) -> PolarGridField:
    """Invert exterior parallel-beam data by circular-harmonic decomposition.

    For each angular harmonic l of the full-circle sinogram,
    v_l(r) = -(1/pi) integral_0^{arccosh(T/r)} p_l'(r cosh s) cosh(l s) ds
    recovers the harmonic of the function on the covered annulus. Harmonics
    whose amplification cosh(l arccosh(T/r)) exceeds the cap are dropped and
    reported (exterior data cannot determine them stably).
    """
    n_ang = sino.angles.size
    half = sino.offsets.size // 2
    if n_ang < 8 or half < 8:
        raise InsufficientCoverage("need at least 8 angles and 8 offsets per bank")
    t_pos = sino.offsets[half:]
    T = float(t_pos[-1])
    r_in, r_out = sino.r_min, T
    if radii is None:
        radii = np.linspace(r_in * 1.02, r_out * 0.92, 96)
    radii = np.asarray(radii, dtype=float)
    if radii[0] < r_in or radii[-1] >= r_out:
        raise InsufficientCoverage("requested radii leave the covered annulus")
    # full-circle extension p(phi+pi, t) = p(phi, -t)
    P_full = np.concatenate([sino.values[:, half:], sino.values[:, :half][:, ::-1]], axis=0)
    p_hat = np.fft.fft(P_full, axis=0) / (2 * n_ang)
    ls = np.fft.fftfreq(2 * n_ang, d=1.0 / (2 * n_ang)).astype(int)
    if l_max is None:
        l_max = min(2 * n_ang // 3, 48)
    floor = 1e-12 * max(np.max(np.abs(P_full)), 1e-300)
    xg, wg = _gauss_legendre(n_gauss)
    thetas = np.arange(n_theta) * 2 * np.pi / n_theta
    out = np.zeros((radii.size, n_theta), dtype=complex)
    dropped = []
    smax_worst = np.arccosh(T / radii[0])
    for il, l in enumerate(ls):
        pl = p_hat[il]
        if abs(l) > l_max or np.max(np.abs(pl)) < floor:
            continue
        if np.cosh(abs(l) * smax_worst) > amplification_cap:
            dropped.append(int(l))
            continue
        weight = 1.0
        if taper == "hann":
            weight = 0.5 * (1 + np.cos(np.pi * l / (l_max + 1)))
        dpl = CubicSpline(t_pos, pl).derivative()
        smax = np.arccosh(T / radii)  # per radius
        s = 0.5 * smax[:, None] * (xg[None, :] + 1.0)
        sw = 0.5 * smax[:, None] * wg[None, :]
        tv = radii[:, None] * np.cosh(s)
        vl = -(1.0 / np.pi) * np.sum(dpl(np.minimum(tv, T)) * np.cosh(l * s) * sw, axis=1)
        out += weight * vl[:, None] * np.exp(1j * l * thetas[None, :])
    return PolarGridField(radii=radii, thetas=thetas, values=out.real,
                          annulus=(float(radii[0]), float(radii[-1])),
                          dropped_harmonics=tuple(sorted(dropped)))


def recover_field_2d(sino: Sinogram, **invert_kwargs) -> PolarGridField:
    """Magnetic field from vector-transform data.

    The offset derivative of the vector transform equals the scalar
    transform of curl A, so the field is the exterior inversion of
    d/dt of the sinogram (per offset bank; the banks are separated by the
    obstacle gap).
    """
    if sino.kind != "vector":
        raise ValueError("field recovery consumes vector-transform data")
    half = sino.offsets.size // 2
    dvals = np.zeros_like(sino.values)
    for i in range(sino.angles.size):
        for sl in (slice(None, half), slice(half, None)):
            sp = CubicSpline(sino.offsets[sl], sino.values[i, sl])
            dvals[i, sl] = sp.derivative()(sino.offsets[sl])
    dsino = Sinogram(angles=sino.angles, offsets=sino.offsets, values=dvals,
                     kind="scalar", obstacle_radius=sino.obstacle_radius)
    return radon_invert_scalar(dsino, **invert_kwargs)


# ===================================================================
# gauge scalar from a curl-free short-range difference
# ===================================================================

def _arc_integrals(field: Callable, radius, theta) -> np.ndarray:
    """int F . dx along the circle of each radius, from angle 0 to each theta."""
    xg, wg = _gauss_legendre(_GAUGE_NODES)
    radius = np.broadcast_to(np.asarray(radius, dtype=float), theta.shape)
    t = 0.5 * theta[:, None] * (xg + 1.0)
    w = 0.5 * theta[:, None] * wg
    pts = radius[:, None, None] * np.stack([np.cos(t), np.sin(t)], axis=-1)
    tangents = np.stack([-np.sin(t), np.cos(t)], axis=-1)
    vals = np.asarray(field(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape)
    return np.sum(np.sum(vals * tangents, axis=2) * w, axis=1) * radius


def _radial_integrals(field: Callable, r_from: float, r_to, theta) -> np.ndarray:
    """int F . dx along each ray at angle theta, from radius r_from to r_to."""
    xg, wg = _gauss_legendre(_GAUGE_NODES)
    span = np.broadcast_to(np.asarray(r_to, dtype=float) - r_from, theta.shape)[:, None]
    s = r_from + 0.5 * span * (xg + 1.0)
    w = 0.5 * span * wg
    direction = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    pts = s[:, :, None] * direction[:, None, :]
    vals = np.asarray(field(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape)
    return np.sum((vals @ direction[:, :, None])[:, :, 0] * w, axis=1)


@dataclass
class GaugeScalar:
    """Path-integral potential of a curl-free short-range field, along the
    far circle from angle 0 and then radially in to each point.

    Normalized to vanish at infinity: the anchor value is corrected by the
    outward radial integral along the theta=0 ray.
    """

    field: Callable
    far_radius: float
    far_correction: float
    path_independence_defect: float

    def evaluate(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(p, axis=1)
        th = np.arctan2(p[:, 1], p[:, 0])
        return (_arc_integrals(self.field, self.far_radius, th)
                + _radial_integrals(self.field, self.far_radius, r, th) - self.far_correction)

    def __call__(self, points):
        out = self.evaluate(points)
        return float(out[0]) if np.asarray(points).ndim == 1 else out


def find_gauge_scalar(field, r_in: float, r_out: float,
                      envelope: DecayEnvelope | None = None,
                      curl_tol: float = 1e-6, loop_tol: float = 1e-6,
                      tail_tol: float = TAIL_TOL, far_factor: float = 8.0,
                      n_probe: int = 100, seed: int = 11) -> GaugeScalar:
    """Scalar L with grad L equal to the given curl-free short-range field.

    Verifies curl-freeness on probe points and a vanishing loop integral
    (plane only), then integrates along arc-then-radial paths anchored at a
    far radius, normalizing so L -> 0 at infinity. Path independence is
    checked on probe pairs and the worst defect is recorded.
    """
    envelope = envelope or getattr(field, "envelope", None)
    if envelope is None:
        raise TailNotBounded("need an envelope to anchor the potential at infinity")
    rng = np.random.default_rng(seed)
    r = rng.uniform(r_in, r_out, n_probe)
    th = rng.uniform(0, 2 * np.pi, n_probe)
    probes = np.column_stack([r * np.cos(th), r * np.sin(th)])
    curls = curl(field, probes, step_rel=1e-4)
    if np.max(np.abs(curls)) > curl_tol:
        raise NotCurlFree(f"max |curl| {np.max(np.abs(curls)):.3e} exceeds {curl_tol:.1e}")
    loop = 2 * np.pi * flux(field, 0.5 * (r_in + r_out))
    if abs(loop) > loop_tol:
        raise ResidualFlux(f"loop integral {loop:.3e} exceeds {loop_tol:.1e}")
    far_radius = far_factor * r_out
    # outward correction along the theta = 0 ray, truncated by the envelope
    S = max(envelope.truncation_radius(tail_tol), far_radius * 1.5)

    def radial(s):
        return float(np.asarray(field(np.array([[s, 0.0]])))[0, 0])

    tail1, _ = quad(radial, far_radius, min(S, 10 * far_radius), **_QUAD_OPTS)
    tail2 = 0.0
    if S > 10 * far_radius:
        tail2, _ = quad(lambda u: radial(1.0 / u) / u**2, 1.0 / S, 0.1 / far_radius, **_QUAD_OPTS)
    # path independence: arc-then-radial vs radial-then-arc on a probe subset
    q = probes[:20]
    rq, thq = np.linalg.norm(q, axis=1), np.arctan2(q[:, 1], q[:, 0])
    via_far_arc = (_arc_integrals(field, far_radius, thq)
                   + _radial_integrals(field, far_radius, rq, thq))
    via_axis = (_radial_integrals(field, far_radius, rq, np.zeros_like(thq))
                + _arc_integrals(field, rq, thq))
    return GaugeScalar(field=field, far_radius=far_radius, far_correction=tail1 + tail2,
                       path_independence_defect=float(np.max(np.abs(via_far_arc - via_axis))))


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
                   obstacle_radius: float = 0.0, step_rel: float = 1e-4) -> np.ndarray:
    """Pullback of a two-form to a plane patch, sampled on an n x n grid.

    B is either a callable returning (B12, B13, B23) rows or a potential
    object whose curl provides them.
    """
    pts = plane.grid(half_width, n)
    margin = step_rel * np.max(np.linalg.norm(pts, axis=1)) * 2
    if np.min(np.linalg.norm(pts, axis=1)) <= obstacle_radius + margin:
        raise PlaneHitsObstacle("restriction patch meets the obstacle ball")
    if isinstance(B, (PotentialConfig, ShortRangeField, TransversalField)):
        comps = curl(B, pts, step_rel=step_rel)
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
