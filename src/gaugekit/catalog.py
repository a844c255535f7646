"""Named analytic potentials for scenarios, phantoms, and serialization.

Configuration files refer to fields by kind name plus parameters; the
builders here return the callables together with calibrated decay envelopes.
"""
from __future__ import annotations

import sys

import numpy as np

from .angular import AngularFunction
from .fields import (
    DecayEnvelope,
    PotentialConfig,
    ScalarPotential,
    ShortRangeField,
    TransversalField,
)
from .errors import TailNotBounded


def _read_number(d, key: str, default, where: str, integer: bool = False, *,
                 above=None, at_least=None):
    """The one reader of JSON numbers: d[key] (default when absent; None: required)
    as a float, or an int with integer, once finite, not a bool, integral with
    integer, and above or at least the given bound; else a ValueError naming where, key."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {d!r}")
    if default is None and key not in d:
        raise ValueError(f"{where} {key!r} must be given")
    value = d.get(key, default)
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if not (isinstance(value, kinds) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):  # not nan, inf or an int beyond floats
        what = "an integer" if integer else "a finite number"
        raise ValueError(f"{where} {key!r} must be {what}, got {value!r}")
    value = int(value) if integer else float(value)
    if above is not None and not value > above:
        raise ValueError(f"{where} {key!r} must be above {above}, got {value!r}")
    if at_least is not None and not value >= at_least:
        raise ValueError(f"{where} {key!r} must be at least {at_least}, got {value!r}")
    return value


def _read_rows(rows, where: str, columns: dict) -> list:
    """rows as given, once they are a list of rows of one number per column
    that _read_number accepts with the column's options (say {"above": 0})."""
    if not isinstance(rows, list) or any(
            not isinstance(row, list) or len(row) != len(columns) for row in rows):
        raise ValueError(f"{where} must be a list of [{', '.join(columns)}] rows, got {rows!r}")
    for i, row in enumerate(rows):
        for name, options in columns.items():
            _read_number(dict(zip(columns, row)), name, None, f"{where} row {i}", **options)
    return rows


# Fields are formed one coordinate column at a time, in the order of operations
# of their broadcast formulas (same values bit for bit): on (m, 2) or (m, 3)
# points a broadcast over the last axis runs numpy's inner loops 2 or 3 long.

def _sq_norms(columns) -> np.ndarray:
    """|p_i|^2 of each row of (m, n) points p, from its coordinate columns
    (p.T, or a list of columns), summed column by column rather than by a
    length-n reduction per row. On (m, 2) and (m, 3) points it equals
    np.sum(p**2, axis=1) bit for bit and is several times faster than that
    or than einsum, whose 3-column sum rounds differently."""
    first, *rest = columns
    out = first * first
    for col in rest:
        out += col * col
    return out


def _scaled_columns(coeff, columns) -> np.ndarray:
    """The (m, n) array whose column k is coeff * columns[k]."""
    out = np.empty((coeff.size, len(columns)))
    for k, col in enumerate(columns):
        np.multiply(coeff, col, out=out[:, k])
    return out


def _calibrate_envelope(func_mag, eps0: float) -> DecayEnvelope:
    """Fit the smallest C with |f| <= C <r>^-(1+eps0) on 400 radii from 0.8
    to 80."""
    r = np.geomspace(0.8, 80.0, 400)
    mags = np.asarray(func_mag(r), dtype=float)
    C = float(np.max(mags * (1 + r**2) ** ((1 + eps0) / 2)))
    return DecayEnvelope(C=max(C * 1.05, 1e-300), eps0=eps0)


# ---------------- scalar kinds ----------------
#
# A scalar builder returns (func, gradient, envelope): func maps (m, n) points
# to (m,) values and gradient, in closed form, maps them to the (m, n) values
# of grad func. The gauge action adds that gradient to the short-range field.

def _bumps_gradient(bumps):
    """grad of the sum of a exp(-|x - c|^2 / (2 w^2)) over [a, *c, w] bumps."""

    def add_bump(out, pts, a, c, w):
        # one bump's temporaries, freed on return; each product is formed in
        # place, in the order of (-a / w**2) * d * decay
        diff = [x - ck for x, ck in zip(pts.T, np.asarray(c, dtype=float))]
        decay = -_sq_norms(diff) / (2 * w**2)
        np.exp(decay, out=decay)
        for k, d in enumerate(diff):
            d *= -a / w**2
            d *= decay
            out[:, k] += d

    def grad(pts):
        out = np.zeros_like(pts)
        for a, *c, w in bumps:
            add_bump(out, pts, a, c, w)
        return out

    return grad


def _power_gradient(c: float, p_exp: float):
    """grad of c (1 + |x|^2)^(-p/2), which is -c p x (1 + |x|^2)^(-p/2 - 1)."""

    def grad(pts):
        r2 = _sq_norms(pts.T)
        return _scaled_columns((1 + r2) ** (-(p_exp + 2) / 2), [(-c * p_exp) * x for x in pts.T])

    return grad


def _scalar_zero(params, dim, where):
    env = DecayEnvelope(C=1e-300, eps0=2.0)
    return (lambda p: np.zeros(p.shape[0])), (lambda p: np.zeros_like(p)), env


def _scalar_gaussian_ring(params, dim, where):
    a = _read_number(params, "amplitude", 1.0, where)
    r0 = _read_number(params, "r0", 1.5, where)
    sig = _read_number(params, "sigma", 0.25, where, above=0)
    mod = _read_rows(params.get("modulation", []), f"{where} 'modulation'",
                     {"l": {"integer": True}, "cos_amp": {}, "sin_amp": {}})

    def f(p):
        r = np.sqrt(_sq_norms(p.T))
        base = a * np.exp(-((r - r0) ** 2) / (2 * sig**2))
        if mod and p.shape[1] == 2:
            th = np.arctan2(p[:, 1], p[:, 0])
            factor = np.ones_like(r)
            for l, ca, sa in mod:
                factor += ca * np.cos(l * th) + sa * np.sin(l * th)
            base = base * factor
        return base

    def grad(p):
        # d/dr of the radial profile times x/r, plus, for a plane modulation,
        # the profile times d(factor)/d(theta) times grad theta = (-x2, x1)/r^2.
        # At the origin the ring has a cone kink and no gradient; it reads 0
        # there, as the symmetric difference does.
        r = np.sqrt(_sq_norms(p.T))
        base = a * np.exp(-((r - r0) ** 2) / (2 * sig**2))
        inv_r = np.divide(1.0, r, out=np.zeros_like(r), where=r > 0)
        radial = (-(r - r0) / sig**2) * base * inv_r
        if not (mod and p.shape[1] == 2):
            return _scaled_columns(radial, p.T)
        th = np.arctan2(p[:, 1], p[:, 0])
        factor = np.ones_like(r)
        dfactor = np.zeros_like(r)
        for l, ca, sa in mod:
            c, s = np.cos(l * th), np.sin(l * th)
            factor += ca * c + sa * s
            dfactor += l * (sa * c - ca * s)
        angular = base * dfactor * inv_r**2
        out = _scaled_columns(radial * factor, p.T)
        out[:, 0] += angular * -p[:, 1]
        out[:, 1] += angular * p[:, 0]
        return out

    mod_sup = 1.0 + sum(abs(ca) + abs(sa) for _, ca, sa in mod)
    env = _calibrate_envelope(
        lambda r: a * mod_sup * np.exp(-((r - r0) ** 2) / (2 * sig**2)), eps0=2.0)
    return f, grad, env


def _bump_rows(params, dim, where) -> list:
    columns = {"amplitude": {}, **{f"centre {k}": {} for k in range(dim)}, "width": {"above": 0}}
    return _read_rows(params.get("bumps"), f"{where} 'bumps'", columns)


def _scalar_gaussian_bumps(params, dim, where):
    bumps = _bump_rows(params, dim, where)

    def f(p):
        out = np.zeros(p.shape[0])
        for a, *c, w in bumps:
            diff = [x - ck for x, ck in zip(p.T, np.asarray(c, dtype=float))]
            out += a * np.exp(-_sq_norms(diff) / (2 * w**2))
        return out

    def mag(r):
        out = np.zeros_like(r)
        for a, *c, w in bumps:
            d = np.maximum(r - np.linalg.norm(c), 0.0)
            out += abs(a) * np.exp(-(d**2) / (2 * w**2))
        return out

    return f, _bumps_gradient(bumps), _calibrate_envelope(mag, eps0=2.0)


def _scalar_power(params, dim, where):
    c = _read_number(params, "c", 1.0, where)
    p_exp = _read_number(params, "p", 1.0, where)
    if p_exp <= 1.0:
        raise TailNotBounded(f"power decay p={p_exp:g} <= 1 is not integrable along a line")

    def f(p):
        r2 = _sq_norms(p.T)
        return c * (1 + r2) ** (-p_exp / 2)

    return f, _power_gradient(c, p_exp), DecayEnvelope(C=abs(c), eps0=p_exp - 1.0)


SCALAR_KINDS = {
    "zero": _scalar_zero,
    "gaussian_ring": _scalar_gaussian_ring,
    "gaussian_bumps": _scalar_gaussian_bumps,
    "power": _scalar_power,
}


# ---------------- vector kinds ----------------

def _vector_zero(params, dim, where):
    return (lambda p: np.zeros_like(p)), DecayEnvelope(C=1e-300, eps0=2.0)


def _vector_grad_power(params, dim, where):
    """grad of c <x>^-p; curl-free and short-range."""
    c = _read_number(params, "c", 1.0, where)
    p_exp = _read_number(params, "p", 1.0, where)

    def mag(r):
        return abs(c) * p_exp * r * (1 + r**2) ** (-(p_exp + 2) / 2)

    return _power_gradient(c, p_exp), _calibrate_envelope(mag, eps0=p_exp)


def _vector_grad_bumps(params, dim, where):
    """grad of a sum of Gaussian bumps; curl-free and short-range."""
    bumps = _bump_rows(params, dim, where)

    def mag(r):
        out = np.zeros_like(r)
        for a, *c, w in bumps:
            d = np.maximum(r - np.linalg.norm(c), 0.0)
            peak = (abs(a) / w) * np.exp(-0.5)  # max of |t| e^{-t^2/2} / w at |t|=w
            out += np.where(d > 0, (abs(a) / w**2) * (d + 3 * w) * np.exp(-(d**2) / (2 * w**2)), peak)
        return out

    return _bumps_gradient(bumps), _calibrate_envelope(mag, eps0=2.0)


# W. J. Cody, "Rational Chebyshev approximations for the error function",
# Math. Comp. 23 (1969) 631-637: erf x = x P(x^2)/Q(x^2) for |x| < 0.5, and
# erfc x = e^{-x^2} P(x)/Q(x) for 0.5 <= x <= 4. Rows P and Q, highest degree
# first; Q is monic.
_CODY_ERF = (
    (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
     3.77485237685302021e02, 3.20937758913846947e03),
    (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
     2.84423683343917062e03))
_CODY_ERFC = (
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
     6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
     1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
    (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03))


def _rational(coeffs, x) -> np.ndarray:
    """P(x)/Q(x) for the rows (P, Q) of coeffs, by Horner's rule in place on
    two work arrays."""
    (p_top, *p), (_, *q) = coeffs
    num = p_top * x
    den = x + q[0]
    for c in p[:-1]:
        num += c
        num *= x
    for c in q[1:]:
        den *= x
        den += c
    num += p[-1]
    num /= den
    return num


def _erfc(z, gauss=None) -> np.ndarray:
    """erfc z on an (m,) float array, from Cody's two rationals: within 2e-15
    relative for z <= 4, and 1e-20 absolute beyond, where the [0.5, 4]
    rational serves every larger |z|. gauss is e^{-z^2}, if the caller has it."""
    y = np.abs(z)
    np.minimum(y, 30.0, out=y)  # e^{-z^2} is 0 from 27.3 on; keeps P(y)/Q(y) finite
    out = _rational(_CODY_ERFC, y)
    out *= np.exp(-(y * y)) if gauss is None else gauss
    np.subtract(2.0, out, out=out, where=z < 0)  # erfc(-y) = 2 - erfc(y)
    small = np.flatnonzero(y < 0.5)
    z_small = z[small]
    out[small] = 1.0 - z_small * _rational(_CODY_ERF, z_small * z_small)
    return out


def _vector_ring_bump_tangential(params, dim, where):
    """Short-range tangential field whose curl is a Gaussian ring bump.

    For the bump b(r) = b0 e^{-z^2}, z = (r - r0)/(sqrt(2) sig), the field is
    A = -T(r)/r^2 (-x2, x1), where T(r) = int_r^inf s b(s) ds is the bump's
    tail moment,

        T(r) = b0 (sig^2 e^{-z^2} + r0 sig sqrt(pi/2) erfc z),

    with erfc from Cody's rationals (Math. Comp. 23, 1969) and one e^{-z^2}
    for both terms. A is the vortex of the moment F(r) = M - T(r) inside r
    less that of the full moment M, so curl A = b(r) away from the origin and
    A decays faster than any power. Past z = 9, |T| < 1e-35 |b0| sig (sig +
    |r0|), and A is set to 0 there without evaluating it.
    """
    b0 = _read_number(params, "b0", 1.0, where)
    r0 = _read_number(params, "r0", 1.5, where)
    sig = _read_number(params, "sigma", 0.25, where, above=0)
    s2 = np.sqrt(2.0) * sig
    r_far_sq = max(r0 + 9.0 * s2, 0.0) ** 2

    def tail(r):
        z = r - r0
        z /= s2
        gauss = z * z
        np.negative(gauss, out=gauss)
        np.exp(gauss, out=gauss)
        t = _erfc(z, gauss)
        t *= b0 * r0 * sig * np.sqrt(np.pi / 2)
        gauss *= b0 * sig**2
        t += gauss
        return t

    def f(pts):
        r2 = _sq_norms(pts.T)
        near = np.flatnonzero(r2 < r_far_sq)
        coeff = np.zeros_like(r2)
        r2_near = r2[near]
        coeff[near] = tail(np.sqrt(r2_near)) / r2_near
        return _scaled_columns(coeff, [pts[:, 1], -pts[:, 0]])

    return f, _calibrate_envelope(lambda r: np.abs(tail(r)) / r, eps0=2.0)


def _vector_cross_axis(params, dim, where):
    """x -> (axis cross x)/|x|^2 scaled; transversal, homogeneous -1, curl != 0 (n=3)."""
    axis = np.asarray(_read_rows([params.get("axis", [0.0, 0.0, 1.0])], f"{where} 'axis'",
                                 dict.fromkeys("xyz", {}))[0], dtype=float)
    c = _read_number(params, "c", 1.0, where)

    def f(pts):
        r2 = _sq_norms(pts.T)
        return c * np.cross(np.broadcast_to(axis, pts.shape), pts) / r2[:, None]

    return f, None  # long-range; used as a transversal profile, not short-range


VECTOR_KINDS = {
    "zero": _vector_zero,
    "grad_power": _vector_grad_power,
    "grad_bumps": _vector_grad_bumps,
    "ring_bump_tangential": _vector_ring_bump_tangential,
    "cross_axis": _vector_cross_axis,
}


def _build(kinds: dict, what: str, kind, params: dict, dimension: int, C, eps0) -> tuple:
    """What the builder of a named kind returns for params, its envelope last,
    with a declared C or eps0 in place of its own half of that envelope."""
    if not (isinstance(kind, str) and kind in kinds):
        raise ValueError(f"unknown {what} kind {kind!r}; known kinds: {', '.join(kinds)}")
    where = f"{kind} params"
    if not isinstance(params, dict):
        raise ValueError(f"{where} must be a JSON object, got {params!r}")
    try:
        *parts, env = kinds[kind](params, dimension, where)
    except (OverflowError, ZeroDivisionError):  # say, the square of a width of 1e300
        raise ValueError(f"{where} {params!r} overflow or underflow a float") from None
    if declared := {key: value for key, value in (("C", C), ("eps0", eps0)) if value is not None}:
        env = DecayEnvelope(C=_read_number(declared, "C", env and env.C, what, at_least=0),
                            eps0=_read_number(declared, "eps0", env and env.eps0, what, above=0))
    return *parts, env


def build_scalar(kind: str, params: dict | None = None, dimension: int = 2,
                 C: float | None = None, eps0: float | None = None) -> ScalarPotential:
    params = params or {}
    func, gradient, env = _build(SCALAR_KINDS, "scalar", kind, params, dimension, C, eps0)
    return ScalarPotential(dimension=dimension, func=func, envelope=env, kind=kind, params=params,
                           gradient=gradient)


def build_vector(kind: str, params: dict | None = None, dimension: int = 2,
                 C: float | None = None, eps0: float | None = None) -> ShortRangeField:
    params = params or {}
    func, env = _build(VECTOR_KINDS, "vector", kind, params, dimension, C, eps0)
    return ShortRangeField(dimension=dimension, func=func, envelope=env, kind=kind, params=params)


def cross_axis_transversal(axis=(0.0, 0.0, 1.0), c: float = 1.0) -> TransversalField:
    func, _ = _vector_cross_axis({"axis": list(axis), "c": c}, 3, "cross_axis params")
    return TransversalField(dimension=3, profile=func)


# ---------------- config serialization ----------------

def config_to_dict(cfg: PotentialConfig) -> dict:
    out = {
        "schema_version": 1,
        "dimension": cfg.dimension,
        "obstacle_radius": cfg.obstacle_radius,
        "label": cfg.label,
        "transversal": None,
        "short_range": None,
        "scalar": None,
    }
    if cfg.transversal is not None:
        if cfg.dimension != 2:
            raise ValueError("only plane transversal profiles serialize")
        out["transversal"] = {"profile": cfg.transversal.a_hat.to_triples()}
    for name, part in (("short_range", cfg.short_range), ("scalar", cfg.scalar)):
        if part is not None:
            if part.kind is None:
                raise ValueError(f"{name} field was not built from a named kind")
            out[name] = {"kind": part.kind, "params": part.params,
                         "C": part.envelope.C, "eps0": part.envelope.eps0}
    return out


def _section(d: dict, name: str, where: str = "configuration") -> dict | None:
    """The object d[name], or None when it is absent or empty."""
    s = d.get(name)
    if not s:
        return None
    if not isinstance(s, dict):
        raise ValueError(f"{where} {name!r} must be a JSON object, got {s!r}")
    return s


def config_from_dict(d: dict) -> PotentialConfig:
    if not isinstance(d, dict):
        raise ValueError("configuration must be a JSON object")
    dim = _read_number(d, "dimension", None, "configuration", integer=True)
    transversal = None
    if s := _section(d, "transversal"):
        transversal = TransversalField.from_profile(AngularFunction.from_triples(s["profile"]))
    short_range = None
    if s := _section(d, "short_range"):
        short_range = build_vector(s["kind"], s.get("params"), dim, s.get("C"), s.get("eps0"))
    scalar = None
    if s := _section(d, "scalar"):
        scalar = build_scalar(s["kind"], s.get("params"), dim, s.get("C"), s.get("eps0"))
    radius = _read_number(d, "obstacle_radius", None, "configuration")
    return PotentialConfig(dimension=dim, obstacle_radius=radius,
                           transversal=transversal, short_range=short_range, scalar=scalar,
                           label=d.get("label", ""))
