"""Potential configurations on the exterior of a disk/ball and gauge action.

A configuration splits a magnetic potential into a homogeneous degree -1
transversal part (x . A = 0), a short-range remainder with a declared decay
envelope, and an electric potential. The transversal part in the plane is
determined by a circle profile; every such profile splits into a constant
flux times the vortex field plus an exact gradient of a periodic function.

The curl is a circulation: the mean curl over a small disc or ball, read
from a degree-5 rule on its boundary, so it needs no step and reads zero on
a gradient. Every numerical gradient is a central difference from
central_partials, which calls the differentiated function once on all
stencil points: the gradient of a direction function and the gradient of a
gauge scalar L that declares no closed-form gradient, each with its own step.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .angular import AngularFunction, SphereFunction, SphereGrid, _icosahedron
from .errors import (
    CircleInsideObstacle,
    DimensionMismatch,
    NonConvergent,
    NotTransversal,
    OriginSingularity,
    RegionTouchesObstacle,
    TailNotBounded,
)

ORIGIN_TOL = 1e-12
TRANSVERSAL_TOL = 1e-10
_DECOMPOSE_DEGREE = 64  # a raw callable is sampled at 2 * degree + 1 circle nodes
_FLUX_NODES = 2048
CURL_LOOP_REL = 1e-5  # curl's loop radius relative to |x|
_HEXAGON = np.array([[1.0, 0.0], [0.5, 0.5 * np.sqrt(3.0)], [-0.5, 0.5 * np.sqrt(3.0)],
                     [-1.0, 0.0], [-0.5, -0.5 * np.sqrt(3.0)], [0.5, -0.5 * np.sqrt(3.0)]])
_ICOSAHEDRON = _icosahedron()[0]
_DIRECTION_STEP = 1e-6  # gradient_of_direction_function's central-difference step


def _points(x, dim: int) -> tuple[np.ndarray, bool]:
    p = np.asarray(x, dtype=float)
    single = p.ndim == 1
    if single:
        p = p[None, :]
    if p.shape[1] != dim:
        raise DimensionMismatch(f"points have dimension {p.shape[1]}, field has {dim}")
    return p, single


def vortex(x) -> np.ndarray:
    """Unit-flux vortex profile (-x2, x1)/|x|^2 in the plane."""
    p, single = _points(x, 2)
    r2 = np.sum(p**2, axis=1)
    if np.any(np.sqrt(r2) < ORIGIN_TOL):
        raise OriginSingularity("evaluation point at the origin")
    out = np.column_stack([-p[:, 1], p[:, 0]]) / r2[:, None]
    return out[0] if single else out


def eval_ab_potential(alpha: float, x) -> np.ndarray:
    """Vortex potential with flux alpha: alpha*(-x2, x1)/|x|^2."""
    return alpha * vortex(x)


@dataclass(frozen=True)
class DecayEnvelope:
    """Bound |f(x)| <= C (1+|x|^2)^(-(1+eps0)/2) with decay rate eps0 > 0.

    Only the decay rate enters a numeric result: it maps the tails of every
    line and ray, whose Kronrod/Gauss difference then measures them. C only
    decides TailNotBounded (truncation_radius); nothing checks either against
    the field at run time.
    """

    C: float
    eps0: float

    def __post_init__(self):
        if self.C < 0 or self.eps0 <= 0:
            raise ValueError("need C >= 0 and eps0 > 0")

    def __add__(self, other: "DecayEnvelope") -> "DecayEnvelope":
        """Envelope of a sum of two bounded fields: the constants add and
        the slower decay rate holds (<x> >= 1)."""
        return DecayEnvelope(self.C + other.C, min(self.eps0, other.eps0))

    def truncation_radius(self, tail_tol: float) -> float:
        """S with integral of C s^(-1-eps0) over (S, inf) below tail_tol.

        Raises TailNotBounded when S is not a finite float, i.e. when eps0 is
        so small that the decay is not integrable in practice. The line rule
        and the gauge scalar read S for this refusal only.
        """
        try:
            S = (self.C / (self.eps0 * tail_tol)) ** (1.0 / self.eps0)
        except OverflowError:
            S = np.inf
        if not np.isfinite(S):
            raise TailNotBounded(
                f"decay rate eps0={self.eps0:g} cannot bound the tail below {tail_tol:g}")
        return float(S)


@dataclass(frozen=True)
class ShortRangeField:
    """Vector field with a declared envelope on its magnitude."""

    dimension: int
    func: Callable
    envelope: DecayEnvelope
    kind: str | None = None
    params: dict | None = None

    def __call__(self, x) -> np.ndarray:
        p, single = _points(x, self.dimension)
        out = np.asarray(self.func(p), dtype=float)
        if out.shape != p.shape:
            raise ValueError("field callable must map (m,n) points to (m,n) values")
        return out[0] if single else out


@dataclass(frozen=True)
class ScalarPotential:
    """Scalar field with a declared envelope on its magnitude.

    gradient, when given, is grad func in closed form: it maps (m, n) points
    to (m, n) values. Every catalog kind declares it; the gauge action adds
    it to the short-range field and differentiates func numerically only
    for a scalar without one.
    """

    dimension: int
    func: Callable
    envelope: DecayEnvelope
    kind: str | None = None
    params: dict | None = None
    gradient: Callable | None = None

    def __call__(self, x) -> np.ndarray:
        p, single = _points(x, self.dimension)
        out = np.asarray(self.func(p), dtype=float)
        if out.shape != (p.shape[0],):
            raise ValueError("scalar callable must map (m,n) points to (m,) values")
        return float(out[0]) if single else out


@dataclass(frozen=True)
class TransversalField:
    """Homogeneous degree -1 field with x . A(x) = 0.

    In the plane the field is a_hat(theta) * (-x2, x1)/|x|^2 for a circle
    profile a_hat. In 3-space a tangent profile W on the unit sphere gives
    A(x) = W(x/|x|)/|x|; the profile maps an (m, 3) array of unit vectors to
    the (m, 3) array of their tangent vectors, and every evaluation of the
    field calls it once.
    """

    dimension: int
    a_hat: AngularFunction | None = None
    profile: Callable | None = None

    def __post_init__(self):
        if self.dimension == 2:
            if self.a_hat is None:
                raise ValueError("plane transversal field needs a circle profile")
        elif self.profile is None:
            raise ValueError("n>=3 transversal field needs a unit-sphere profile")

    @classmethod
    def from_profile(cls, a_hat: AngularFunction) -> "TransversalField":
        return cls(dimension=2, a_hat=a_hat)

    def __call__(self, x) -> np.ndarray:
        p, single = _points(x, self.dimension)
        r = np.linalg.norm(p, axis=1)
        if np.any(r < ORIGIN_TOL):
            raise OriginSingularity("evaluation point at the origin")
        if self.dimension == 2:
            theta = np.arctan2(p[:, 1], p[:, 0])
            out = self.a_hat(theta)[:, None] * np.column_stack([-p[:, 1], p[:, 0]]) / (r**2)[:, None]
        else:
            out = np.asarray(self.profile(p / r[:, None]), dtype=float)
            if out.shape != p.shape:
                raise ValueError("sphere profile must map (m,3) unit vectors to (m,3) values")
            out = out / r[:, None]
        return out[0] if single else out


@dataclass(frozen=True)
class FluxDecomposition:
    """Split a_hat = alpha + d(a0)/d(theta) of a plane transversal field."""

    alpha: float
    a0: AngularFunction
    a_hat: AngularFunction


def decompose_transversal(field) -> FluxDecomposition:
    """Split a plane transversal field into vortex flux plus an exact gradient.

    The flux is the profile mean; the gradient part is the zero-mean
    antiderivative of the rest, so that the original field is recovered as
    (alpha + a0'(theta)) (-x2, x1)/|x|^2 exactly.

    Accepts a TransversalField or a raw callable on (m,2) points; callables
    are checked for transversality and homogeneity on sample points.
    """
    if isinstance(field, TransversalField):
        if field.dimension != 2:
            raise DimensionMismatch("decomposition is defined in the plane")
        a_hat = field.a_hat
    else:
        m = 2 * _DECOMPOSE_DEGREE + 1
        theta = np.arange(m) * 2 * np.pi / m
        units = np.column_stack([np.cos(theta), np.sin(theta)])
        vals = np.asarray(field(units), dtype=float)
        radial = np.abs(np.sum(vals * units, axis=1))
        scale = max(1.0, float(np.max(np.abs(vals))))
        if np.max(radial) > TRANSVERSAL_TOL * scale:
            raise NotTransversal(f"max radial component {np.max(radial):.3e}")
        for t in (2.0, 5.0):
            far = np.asarray(field(t * units), dtype=float)
            if np.max(np.abs(far * t - vals)) > 1e-8 * scale:
                raise NotTransversal("field is not homogeneous of degree -1")
        tangents = np.column_stack([-np.sin(theta), np.cos(theta)])
        a_hat = AngularFunction.from_samples(np.sum(vals * tangents, axis=1))
    alpha = a_hat.mean()
    a0 = (a_hat - alpha).antiderivative(mean_tol=1e-8)
    return FluxDecomposition(alpha=alpha, a0=a0, a_hat=a_hat)


@dataclass(frozen=True)
class PotentialConfig:
    """Exterior potential data: obstacle radius, transversal + short-range
    magnetic parts, and an electric potential."""

    dimension: int
    obstacle_radius: float
    transversal: TransversalField | None = None
    short_range: ShortRangeField | None = None
    scalar: ScalarPotential | None = None
    label: str = ""

    def __post_init__(self):
        for part in (self.transversal, self.short_range, self.scalar):
            if part is not None and part.dimension != self.dimension:
                raise DimensionMismatch("config parts disagree on dimension")

    def vector_potential(self, x) -> np.ndarray:
        p, single = _points(x, self.dimension)
        out = np.zeros_like(p)
        if self.transversal is not None:
            out += self.transversal(p)
        if self.short_range is not None:
            out += self.short_range(p)
        return out[0] if single else out

    def to_json(self) -> str:
        from .catalog import config_to_dict
        return json.dumps(config_to_dict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PotentialConfig":
        from .catalog import config_from_dict
        return config_from_dict(json.loads(text))


@dataclass(frozen=True)
class GaugeElement:
    """Phase data of a gauge transform e^{i(m theta + phi + L)}.

    In the plane: integer winding m and a zero-mean circle profile phi.
    In 3-space: no winding, and one real phase of the direction: phi_sphere,
    sampled on sphere grid nodes (acts on kernels only), or phi_callable,
    mapping an (m, 3) array of unit vectors to the (m,) phase values. Two
    phases, or a phase of the other dimension, raise ValueError.
    The scalar part L is short-range; its envelope entry bounds grad L.
    """

    dimension: int
    m: int = 0
    phi: AngularFunction | None = None
    phi_sphere: SphereFunction | None = None
    phi_callable: Callable | None = None
    scalar: ScalarPotential | None = None

    def __post_init__(self):
        sphere_phases = (self.phi_sphere is not None) + (self.phi_callable is not None)
        if self.dimension == 2:
            if sphere_phases:
                raise ValueError("a plane gauge takes no sphere phase")
            if self.phi is not None and abs(self.phi.mean()) > 1e-9:
                raise ValueError("circle gauge profile must have zero mean")
        else:
            if self.m != 0:
                raise ValueError("winding is only defined in the plane")
            if self.phi is not None or sphere_phases > 1:
                raise ValueError("a 3-space gauge takes one phase: phi_sphere or phi_callable")

    def inverse(self) -> "GaugeElement":
        """Gauge with every phase negated. A negated scalar is no longer the
        catalog kind it was built from, so it keeps no kind or params."""
        neg_scalar = None
        if self.scalar is not None:
            s = self.scalar
            neg_scalar = ScalarPotential(
                dimension=s.dimension, func=lambda p, _f=s.func: -np.asarray(_f(p)),
                envelope=s.envelope,
                gradient=None if s.gradient is None
                else (lambda p, _g=s.gradient: -np.asarray(_g(p))))
        return GaugeElement(
            dimension=self.dimension,
            m=-self.m,
            phi=None if self.phi is None else -self.phi,
            phi_sphere=None if self.phi_sphere is None else -self.phi_sphere,
            phi_callable=None if self.phi_callable is None
            else (lambda w, _g=self.phi_callable: -_g(w)),
            scalar=neg_scalar,
        )


# ===================================================================
# operations
# ===================================================================

def flux(field, circle_radius: float) -> float:
    """(1/2 pi) times the circulation along the circle |x| = circle_radius.

    Accepts a PotentialConfig, a TransversalField, or a callable; only a
    PotentialConfig declares an obstacle for the circle to enclose. Uses the
    periodic trapezoid rule, which is spectrally accurate for smooth fields.
    """
    evaluate = field
    if isinstance(field, PotentialConfig):
        if circle_radius <= field.obstacle_radius:
            raise CircleInsideObstacle(f"circle radius {circle_radius} does not enclose "
                                       f"the obstacle {field.obstacle_radius}")
        evaluate = field.vector_potential
    theta = np.arange(_FLUX_NODES) * 2 * np.pi / _FLUX_NODES
    pts = circle_radius * np.column_stack([np.cos(theta), np.sin(theta)])
    tangents = np.column_stack([-np.sin(theta), np.cos(theta)])
    vals = np.asarray(evaluate(pts), dtype=float)
    return float(np.sum(vals * tangents) * circle_radius / _FLUX_NODES)


def central_partials(evaluate: Callable, points, h) -> np.ndarray:
    """Partial derivatives (f(p + h e_j) - f(p - h e_j)) / 2h of f along every
    axis j at (m, n) points, with h a number or an (m,) array of steps.

    f maps a (k, n) array of points to its k values (numbers or vectors); it
    is called once, on the 2 n stencil point sets stacked. Entry [i, j] of
    the result is the partial along axis j at point i: shape (m, n) for
    scalar f, (m, n, c) for c-vector f.
    """
    p = np.asarray(points, dtype=float)
    m, n = p.shape
    step = np.broadcast_to(np.asarray(h, dtype=float), (m,))
    shift = step[:, None, None] * np.eye(n)  # (point, axis, coordinate)
    stencil = np.empty((2, m, n, n))  # filled in place: no stacking copy
    np.add(p[:, None], shift, out=stencil[0])
    np.subtract(p[:, None], shift, out=stencil[1])
    vals = np.asarray(evaluate(stencil.reshape(-1, n)), dtype=float)
    vals = vals.reshape((2, m, n) + vals.shape[1:])
    return (vals[0] - vals[1]) / (2 * step).reshape((m,) + (1,) * (vals.ndim - 2))


def curl(field, points):
    """Mean curl over the disc or ball of radius rho = CURL_LOOP_REL * |x|
    around each point, read from its boundary by Stokes' theorem:

        curl ~ (n / (N rho)) sum_k u_k ^ F(x + rho u_k),  (u ^ F)_ij = u_i F_j - u_j F_i,

    over the N = 6 vertices of a regular hexagon (plane) or the 12 of the
    icosahedron (3-space). Both node sets integrate every polynomial of
    degree <= 5 on the circle or sphere exactly, so a gradient reads zero to
    O(rho^4), below rounding, and a linear field's curl is exact. The field
    is called once, on the N m loop points.

    Plane fields give scalar values dA2/dx1 - dA1/dx2; fields in 3-space give
    the three independent two-form components ordered (B12, B13, B23). A
    PotentialConfig's loops must stay outside its obstacle.
    """
    obstacle_radius = 0.0
    if isinstance(field, PotentialConfig):
        dim = field.dimension
        evaluate = field.vector_potential
        obstacle_radius = field.obstacle_radius
    elif isinstance(field, (TransversalField, ShortRangeField)):
        dim = field.dimension
        evaluate = field
    else:
        evaluate = field
        dim = np.shape(points)[-1]
    p, single = _points(points, dim)
    if dim not in (2, 3):
        raise DimensionMismatch("curl implemented for dimensions 2 and 3")
    r = np.linalg.norm(p, axis=1)
    rho = CURL_LOOP_REL * r
    if np.any(r - rho <= obstacle_radius):
        raise RegionTouchesObstacle("circulation loop reaches the obstacle")
    nodes = _HEXAGON if dim == 2 else _ICOSAHEDRON
    loops = rho[:, None, None] * nodes  # (point, node, coordinate)
    loops += p[:, None]
    vals = np.asarray(evaluate(loops.reshape(-1, dim)), dtype=float).reshape(loops.shape)
    s = nodes.T @ vals  # s[:, i, j] = sum_k u_ki F_kj
    w = (s - s.transpose(0, 2, 1)) * (dim / (len(nodes) * rho))[:, None, None]
    if dim == 2:
        out = w[:, 0, 1]
        return float(out[0]) if single else out
    out = np.column_stack([w[:, 0, 1], w[:, 0, 2], w[:, 1, 2]])
    return out[0] if single else out


def sample_on_spheres(f: Callable, radii: Sequence[float], grid: SphereGrid) -> np.ndarray:
    """Evaluate f on every grid node scaled by every radius; shape (n_radii, n_nodes[, c])."""
    rows = []
    for r in radii:
        vals = np.asarray(f(r * grid.vertices))
        rows.append(vals)
    return np.stack(rows)


def neville_at_zero(xs, values):
    """Value at x = 0 of the polynomial through (xs[i], values[i]), by
    Neville's tableau. Returns the limit and its last correction (the limit
    minus the top of the previous level)."""
    tab = list(values)
    prev_top = tab[0]
    for lvl in range(1, len(tab)):
        prev_top = tab[0]
        tab = [(xs[i] * tab[i + 1] - xs[i + lvl] * tab[i]) / (xs[i] - xs[i + lvl])
               for i in range(len(tab) - 1)]
    return tab[0], tab[0] - prev_top


def extract_leading_order(radii, values, grid: SphereGrid, tol: float = 1e-6,
                          return_residual: bool = False):
    """Limit of |x|^2 B(x) along rays, by polynomial extrapolation in 1/|x|.

    values[j, i] holds a field component at radii[j] * grid.vertices[i]
    (a trailing component axis is allowed). The residual is the magnitude of
    the last Neville correction; exceeding tol signals decay slower than
    |x|^(-2) and raises NonConvergent.
    """
    radii = np.asarray(radii, dtype=float)
    vals = np.asarray(values, dtype=float)
    if radii.ndim != 1 or radii.size < 2:
        raise ValueError("need at least two radii")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must increase")
    if vals.shape[0] != radii.size or vals.shape[1] != grid.size:
        raise ValueError("values must be sampled on (radii, grid nodes)")
    g = vals * (radii**2).reshape((-1,) + (1,) * (vals.ndim - 1))
    limit, correction = neville_at_zero(1.0 / radii, list(g))
    scale = max(1.0, float(np.max(np.abs(limit))))
    residual = float(np.max(np.abs(correction)))
    if not residual <= tol * scale:  # a nan residual fails too
        raise NonConvergent(
            f"extrapolation residual {residual:.3e} exceeds {tol:.1e} (decay slower than |x|^-2?)")
    if limit.ndim == 1:
        result = SphereFunction(grid=grid, values=limit)
    else:
        result = [SphereFunction(grid=grid, values=limit[:, c]) for c in range(limit.shape[1])]
    return (result, residual) if return_residual else result


def gradient_of_direction_function(psi: Callable, points: np.ndarray) -> np.ndarray:
    """grad of x -> psi(x/|x|) by central differences.

    psi maps an (k, 3) array of unit vectors to the (k,) array of its values;
    it is called once, on the six stencil arrays stacked.
    """
    p, single = _points(points, 3)

    def on_directions(q):
        vals = np.asarray(psi(q / np.linalg.norm(q, axis=1)[:, None]), dtype=float)
        if vals.shape != (q.shape[0],):
            raise ValueError("direction function must map (k,3) unit vectors to (k,) values")
        return vals

    out = central_partials(on_directions, p, _DIRECTION_STEP)
    return out[0] if single else out


def apply_gauge_to_potential(config: PotentialConfig, g: GaugeElement) -> PotentialConfig:
    """Gauge action A -> A + grad(m theta + phi + L) on a configuration.

    In the plane the transversal profile changes exactly in coefficient
    space: a_hat -> a_hat + m + phi'. In 3-space the profile gains the
    gradient of phi_callable; a phi_sphere gauge raises ValueError, as a
    sampled phase has no gradient off its nodes. The scalar part adds grad L
    to the short-range field and widens its envelope: L's declared
    closed-form gradient when it has one (every catalog kind does), central
    differences of L otherwise.
    """
    if config.dimension != g.dimension:
        raise DimensionMismatch("gauge and configuration dimensions differ")
    if g.phi_sphere is not None:
        raise ValueError("a phi_sphere phase has no gradient off its nodes: give phi_callable")
    transversal = config.transversal
    if config.dimension == 2:
        base = transversal.a_hat if transversal is not None else AngularFunction.zero()
        a_hat = base + float(g.m)
        if g.phi is not None:
            a_hat = a_hat + g.phi.derivative()
        transversal = TransversalField.from_profile(a_hat)
    elif g.phi_callable is not None:
        def profile(w, _psi=g.phi_callable, _prev=transversal):
            grad = gradient_of_direction_function(_psi, np.asarray(w, dtype=float))
            base = _prev.profile(w) if _prev is not None else 0.0
            return np.asarray(base) + grad
        transversal = TransversalField(dimension=3, profile=profile)
    short_range = config.short_range
    if g.scalar is not None:
        dim = config.dimension
        grad_L = g.scalar.gradient
        if grad_L is None:
            def grad_L(p, _L=g.scalar.func):
                # step balances truncation against roundoff: downstream consumers
                # differentiate integrals of this field, so the error must stay
                # smooth in p rather than minimal at a single point
                return central_partials(_L, p, 1e-4 * np.maximum(1.0, np.linalg.norm(p, axis=1)))

        if short_range is None:
            short_range = ShortRangeField(dimension=dim, func=grad_L, envelope=g.scalar.envelope)
        else:
            prev_func = short_range.func
            short_range = ShortRangeField(
                dimension=dim,
                func=lambda p, _f=prev_func, _g=grad_L: np.asarray(_f(p)) + _g(p),
                envelope=short_range.envelope + g.scalar.envelope)
    return replace(config, transversal=transversal, short_range=short_range)
