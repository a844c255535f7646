"""Potential configurations on the exterior of a disk/ball and gauge action.

A configuration splits a magnetic potential into a homogeneous degree -1
transversal part (x . A = 0), a short-range remainder with a declared decay
envelope, and an electric potential. The transversal part in the plane is
determined by a circle profile; every such profile splits into a constant
flux times the vortex field plus an exact gradient of a periodic function.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .angular import AngularFunction, SphereFunction, SphereGrid, sphere_grid, zero_mean_antiderivative
from .errors import (
    CircleInsideObstacle,
    DimensionMismatch,
    EnvelopeViolation,
    NonConvergent,
    NotTransversal,
    OriginSingularity,
    RegionTouchesObstacle,
    TailNotBounded,
)

ORIGIN_TOL = 1e-12
TRANSVERSAL_TOL = 1e-10


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
    """Bound |f(x)| <= C (1+|x|^2)^(-(1+eps0)/2) with decay rate eps0 > 0."""

    C: float
    eps0: float

    def __post_init__(self):
        if self.C < 0 or self.eps0 <= 0:
            raise ValueError("need C >= 0 and eps0 > 0")

    def bound(self, r) -> np.ndarray:
        return self.C * (1.0 + np.asarray(r, dtype=float) ** 2) ** (-(1.0 + self.eps0) / 2)

    def truncation_radius(self, tail_tol: float) -> float:
        """S with integral of C s^(-1-eps0) over (S, inf) below tail_tol.

        Raises TailNotBounded when S is not a finite float, i.e. when eps0 is
        so small that the decay is not integrable in practice.
        """
        if self.C == 0:
            return 1.0
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

    def verify_envelope(self, points, tol: float = 1e-9) -> None:
        p, _ = _points(points, self.dimension)
        mags = np.linalg.norm(self(p), axis=1)
        bound = self.envelope.bound(np.linalg.norm(p, axis=1))
        bad = mags > bound * (1 + tol) + tol
        if np.any(bad):
            i = int(np.argmax(mags - bound))
            raise EnvelopeViolation(
                f"|A|={mags[i]:.3e} exceeds envelope {bound[i]:.3e} at |x|={np.linalg.norm(p[i]):.3f}")


@dataclass(frozen=True)
class ScalarPotential:
    """Scalar field with a declared envelope on its magnitude."""

    dimension: int
    func: Callable
    envelope: DecayEnvelope
    kind: str | None = None
    params: dict | None = None

    def __call__(self, x) -> np.ndarray:
        p, single = _points(x, self.dimension)
        out = np.asarray(self.func(p), dtype=float)
        if out.shape != (p.shape[0],):
            raise ValueError("scalar callable must map (m,n) points to (m,) values")
        return float(out[0]) if single else out

    def verify_envelope(self, points, tol: float = 1e-9) -> None:
        p, _ = _points(points, self.dimension)
        mags = np.abs(self(p))
        bound = self.envelope.bound(np.linalg.norm(p, axis=1))
        if np.any(mags > bound * (1 + tol) + tol):
            raise EnvelopeViolation("scalar potential exceeds its declared envelope")


@dataclass(frozen=True)
class TransversalField:
    """Homogeneous degree -1 field with x . A(x) = 0.

    In the plane the field is a_hat(theta) * (-x2, x1)/|x|^2 for a circle
    profile a_hat. In 3-space a tangent profile W on the unit sphere gives
    A(x) = W(x/|x|)/|x|.
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

    @classmethod
    def from_sphere_profile(cls, profile: Callable, check_points: int = 64,
                            tol: float = TRANSVERSAL_TOL) -> "TransversalField":
        rng = np.random.default_rng(7)
        w = rng.normal(size=(check_points, 3))
        w /= np.linalg.norm(w, axis=1)[:, None]
        vals = np.asarray([profile(p) for p in w], dtype=float)
        radial = np.abs(np.sum(vals * w, axis=1))
        if np.max(radial) > tol * max(1.0, float(np.max(np.abs(vals)))):
            raise NotTransversal("sphere profile has a radial component")
        return cls(dimension=3, profile=profile)

    def __call__(self, x) -> np.ndarray:
        p, single = _points(x, self.dimension)
        r = np.linalg.norm(p, axis=1)
        if np.any(r < ORIGIN_TOL):
            raise OriginSingularity("evaluation point at the origin")
        if self.dimension == 2:
            theta = np.arctan2(p[:, 1], p[:, 0])
            out = self.a_hat(theta)[:, None] * np.column_stack([-p[:, 1], p[:, 0]]) / (r**2)[:, None]
        else:
            out = np.array([self.profile(q / nq) / nq for q, nq in zip(p, r)], dtype=float)
        return out[0] if single else out


@dataclass(frozen=True)
class FluxDecomposition:
    """Split a_hat = alpha + d(a0)/d(theta) of a plane transversal field."""

    alpha: float
    a0: AngularFunction
    a_hat: AngularFunction

    def reassembled(self) -> "TransversalField":
        return TransversalField.from_profile(self.a0.derivative() + self.alpha)

    def gradient_part(self, x) -> np.ndarray:
        """grad of a0(theta(x)); equals the full field minus the vortex part."""
        p, single = _points(x, 2)
        out = self.a0.derivative()(np.arctan2(p[:, 1], p[:, 0]))[:, None] * vortex(p)
        return out[0] if single else out


def decompose_transversal(field, degree: int = 64, tol: float = TRANSVERSAL_TOL) -> FluxDecomposition:
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
        m = 2 * degree + 1
        theta = np.arange(m) * 2 * np.pi / m
        units = np.column_stack([np.cos(theta), np.sin(theta)])
        vals = np.asarray(field(units), dtype=float)
        radial = np.abs(np.sum(vals * units, axis=1))
        scale = max(1.0, float(np.max(np.abs(vals))))
        if np.max(radial) > tol * scale:
            raise NotTransversal(f"max radial component {np.max(radial):.3e}")
        for t in (2.0, 5.0):
            far = np.asarray(field(t * units), dtype=float)
            if np.max(np.abs(far * t - vals)) > 1e-8 * scale:
                raise NotTransversal("field is not homogeneous of degree -1")
        tangents = np.column_stack([-np.sin(theta), np.cos(theta)])
        a_hat = AngularFunction.from_samples(np.sum(vals * tangents, axis=1))
    alpha = a_hat.mean()
    a0 = zero_mean_antiderivative(a_hat - alpha, mean_tol=1e-8)
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
    In 3-space: no winding; phi is a function of the direction (sampled on
    the sphere grid, optionally backed by a callable for smooth gradients).
    The scalar part L is short-range; its envelope entry bounds grad L.
    """

    dimension: int
    m: int = 0
    phi: AngularFunction | None = None
    phi_sphere: SphereFunction | None = None
    phi_callable: Callable | None = None
    scalar: ScalarPotential | None = None

    def __post_init__(self):
        if self.dimension == 2:
            if self.phi is not None and abs(self.phi.mean()) > 1e-9:
                raise ValueError("circle gauge profile must have zero mean")
        else:
            if self.m != 0:
                raise ValueError("winding is only defined in the plane")

    @classmethod
    def identity(cls, dimension: int = 2) -> "GaugeElement":
        return cls(dimension=dimension)

    def inverse(self) -> "GaugeElement":
        neg_scalar = None
        if self.scalar is not None:
            f = self.scalar.func
            neg_scalar = replace(self.scalar, func=lambda p, _f=f: -np.asarray(_f(p)))
        return GaugeElement(
            dimension=self.dimension,
            m=-self.m,
            phi=None if self.phi is None else -self.phi,
            phi_sphere=None if self.phi_sphere is None else -self.phi_sphere,
            phi_callable=None if self.phi_callable is None
            else (lambda w, _g=self.phi_callable: -_g(w)),
            scalar=neg_scalar,
        )

    def compose(self, other: "GaugeElement") -> "GaugeElement":
        """Gauge acting as self after other (phases add)."""
        if self.dimension != other.dimension:
            raise DimensionMismatch("gauge elements in different dimensions")
        phi = None
        if self.phi is not None or other.phi is not None:
            phi = (self.phi or AngularFunction.zero()) + (other.phi or AngularFunction.zero())
        phs = None
        if self.phi_sphere is not None or other.phi_sphere is not None:
            a, b = self.phi_sphere, other.phi_sphere
            phs = a + b if (a is not None and b is not None) else (a or b)
        scalar = None
        if self.scalar is not None and other.scalar is not None:
            f, g = self.scalar.func, other.scalar.func
            scalar = replace(self.scalar, func=lambda p, _f=f, _g=g: np.asarray(_f(p)) + np.asarray(_g(p)),
                             envelope=DecayEnvelope(self.scalar.envelope.C + other.scalar.envelope.C,
                                                    min(self.scalar.envelope.eps0, other.scalar.envelope.eps0)))
        else:
            scalar = self.scalar or other.scalar
        return GaugeElement(dimension=self.dimension, m=self.m + other.m, phi=phi,
                            phi_sphere=phs, scalar=scalar)


# ===================================================================
# operations
# ===================================================================

def flux(field, circle_radius: float, obstacle_radius: float | None = None,
         n_nodes: int = 2048) -> float:
    """(1/2 pi) times the circulation along the circle |x| = circle_radius.

    Accepts a PotentialConfig, a TransversalField, or a callable. Uses the
    periodic trapezoid rule, which is spectrally accurate for smooth fields.
    """
    if isinstance(field, PotentialConfig):
        if obstacle_radius is None:
            obstacle_radius = field.obstacle_radius
        evaluate = field.vector_potential
    else:
        evaluate = field
    if obstacle_radius is not None and circle_radius <= obstacle_radius:
        raise CircleInsideObstacle(
            f"circle radius {circle_radius} does not enclose the obstacle {obstacle_radius}")
    theta = np.arange(n_nodes) * 2 * np.pi / n_nodes
    pts = circle_radius * np.column_stack([np.cos(theta), np.sin(theta)])
    tangents = np.column_stack([-np.sin(theta), np.cos(theta)])
    vals = np.asarray(evaluate(pts), dtype=float)
    return float(np.sum(vals * tangents) * circle_radius / n_nodes)


def curl(field, points, step_rel: float = 1e-3, step_abs: float | None = None,
         obstacle_radius: float = 0.0):
    """Centered-difference curl at the given points.

    Plane fields give scalar values dA2/dx1 - dA1/dx2; fields in 3-space give
    the three independent two-form components ordered (B12, B13, B23), which
    is antisymmetric by construction.
    """
    if isinstance(field, PotentialConfig):
        dim = field.dimension
        evaluate = field.vector_potential
        obstacle_radius = max(obstacle_radius, field.obstacle_radius)
    elif isinstance(field, (TransversalField, ShortRangeField)):
        dim = field.dimension
        evaluate = field
    else:
        evaluate = field
        probe = np.asarray(points, dtype=float)
        dim = probe.shape[-1]
    p, single = _points(points, dim)
    r = np.linalg.norm(p, axis=1)
    h = np.full(p.shape[0], step_abs) if step_abs is not None else step_rel * r
    if np.any(r - h * np.sqrt(dim) <= obstacle_radius):
        raise RegionTouchesObstacle("difference stencil reaches the obstacle")

    partial = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        plus = np.asarray(evaluate(p + h[:, None] * e), dtype=float)
        minus = np.asarray(evaluate(p - h[:, None] * e), dtype=float)
        partial.append((plus - minus) / (2 * h)[:, None])  # d A / d x_j, shape (m, dim)
    if dim == 2:
        out = partial[0][:, 1] - partial[1][:, 0]
        return float(out[0]) if single else out
    if dim == 3:
        b12 = partial[0][:, 1] - partial[1][:, 0]
        b13 = partial[0][:, 2] - partial[2][:, 0]
        b23 = partial[1][:, 2] - partial[2][:, 1]
        out = np.column_stack([b12, b13, b23])
        return out[0] if single else out
    raise DimensionMismatch("curl implemented for dimensions 2 and 3")


def sample_on_spheres(f: Callable, radii: Sequence[float], grid: SphereGrid) -> np.ndarray:
    """Evaluate f on every grid node scaled by every radius; shape (n_radii, n_nodes[, c])."""
    rows = []
    for r in radii:
        vals = np.asarray(f(r * grid.vertices))
        rows.append(vals)
    return np.stack(rows)


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
    u = 1.0 / radii
    g = vals * (radii**2).reshape((-1,) + (1,) * (vals.ndim - 1))
    # Neville tableau evaluated at u = 0
    tab = [g[j] for j in range(radii.size)]
    prev_top = tab[0]
    for lvl in range(1, radii.size):
        nxt = []
        for i in range(radii.size - lvl):
            x0, x1 = u[i], u[i + lvl]
            nxt.append((x0 * tab[i + 1] - x1 * tab[i]) / (x0 - x1))
        prev_top = tab[0]
        tab = nxt
    limit = tab[0]
    scale = max(1.0, float(np.max(np.abs(limit))))
    residual = float(np.max(np.abs(limit - prev_top)))
    if residual > tol * scale:
        raise NonConvergent(
            f"extrapolation residual {residual:.3e} exceeds {tol:.1e} (decay slower than |x|^-2?)")
    if limit.ndim == 1:
        result = SphereFunction(grid=grid, values=limit)
    else:
        result = [SphereFunction(grid=grid, values=limit[:, c]) for c in range(limit.shape[1])]
    return (result, residual) if return_residual else result


def gradient_of_direction_function(psi: Callable, points: np.ndarray,
                                   step: float = 1e-6) -> np.ndarray:
    """grad of x -> psi(x/|x|) by central differences; psi takes a unit 3-vector."""
    p, single = _points(points, 3)
    out = np.zeros_like(p)
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        for i, q in enumerate(p):
            a = (q + e) / np.linalg.norm(q + e)
            b = (q - e) / np.linalg.norm(q - e)
            out[i, j] = (psi(a) - psi(b)) / (2 * step)
    return out[0] if single else out


def apply_gauge_to_potential(config: PotentialConfig, g: GaugeElement) -> PotentialConfig:
    """Gauge action A -> A + grad(m theta + phi + L) on a configuration.

    In the plane the transversal profile changes exactly in coefficient
    space: a_hat -> a_hat + m + phi'. The scalar part adds a numerical
    gradient of L to the short-range field and widens its envelope.
    """
    if config.dimension != g.dimension:
        raise DimensionMismatch("gauge and configuration dimensions differ")
    transversal = config.transversal
    if config.dimension == 2:
        base = transversal.a_hat if transversal is not None else AngularFunction.zero()
        a_hat = base + float(g.m)
        if g.phi is not None:
            a_hat = a_hat + g.phi.derivative()
        transversal = TransversalField.from_profile(a_hat)
    else:
        psi = g.phi_callable
        if psi is None and g.phi_sphere is not None:
            sph = g.phi_sphere
            psi = lambda w: sph(w)
        if psi is not None:
            prev = transversal
            def profile(w, _psi=psi, _prev=prev):
                grad = gradient_of_direction_function(_psi, np.asarray(w, dtype=float))
                base = _prev.profile(w) if _prev is not None else 0.0
                return np.asarray(base) + grad
            transversal = TransversalField(dimension=3, profile=profile)
    short_range = config.short_range
    if g.scalar is not None:
        L = g.scalar.func
        dim = config.dimension

        def grad_L(p, _L=L, _dim=dim):
            p = np.asarray(p, dtype=float)
            out = np.zeros_like(p)
            # step balances truncation against roundoff: downstream consumers
            # differentiate integrals of this field, so the error must stay
            # smooth in p rather than minimal at a single point
            h = 1e-4 * np.maximum(1.0, np.linalg.norm(p, axis=1))
            for j in range(_dim):
                e = np.zeros(_dim)
                e[j] = 1.0
                out[:, j] = (np.asarray(_L(p + h[:, None] * e)) -
                             np.asarray(_L(p - h[:, None] * e))) / (2 * h)
            return out

        if short_range is None:
            short_range = ShortRangeField(dimension=dim, func=grad_L, envelope=g.scalar.envelope)
        else:
            prev_func = short_range.func
            env = DecayEnvelope(short_range.envelope.C + g.scalar.envelope.C,
                                min(short_range.envelope.eps0, g.scalar.envelope.eps0))
            short_range = ShortRangeField(
                dimension=dim,
                func=lambda p, _f=prev_func, _g=grad_L: np.asarray(_f(p)) + _g(p),
                envelope=env)
    return replace(config, transversal=transversal, short_range=short_range)
