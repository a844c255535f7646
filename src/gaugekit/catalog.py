"""Named analytic potentials for scenarios, phantoms, and serialization.

Configuration files refer to fields by kind name plus parameters; the
builders here return the callables together with calibrated decay envelopes.
"""
from __future__ import annotations

import numpy as np
from scipy.special import erf

from .angular import AngularFunction
from .fields import (
    DecayEnvelope,
    PotentialConfig,
    ScalarPotential,
    ShortRangeField,
    TransversalField,
)
from .errors import TailNotBounded


def _calibrate_envelope(func_mag, eps0: float, r_lo: float = 0.8, r_hi: float = 80.0) -> DecayEnvelope:
    """Fit the smallest C with |f| <= C <r>^-(1+eps0) on a radial probe range."""
    r = np.geomspace(r_lo, r_hi, 400)
    mags = np.asarray(func_mag(r), dtype=float)
    C = float(np.max(mags * (1 + r**2) ** ((1 + eps0) / 2)))
    return DecayEnvelope(C=max(C * 1.05, 1e-300), eps0=eps0)


# ---------------- scalar kinds ----------------

def _scalar_zero(params, dim):
    return (lambda p: np.zeros(p.shape[0])), DecayEnvelope(C=1e-300, eps0=2.0)


def _scalar_gaussian_ring(params, dim):
    a = float(params.get("amplitude", 1.0))
    r0 = float(params.get("r0", 1.5))
    sig = float(params.get("sigma", 0.25))
    mod = params.get("modulation", [])  # [[l, cos_amp, sin_amp], ...]

    def f(p):
        r = np.linalg.norm(p, axis=1)
        base = a * np.exp(-((r - r0) ** 2) / (2 * sig**2))
        if mod and p.shape[1] == 2:
            th = np.arctan2(p[:, 1], p[:, 0])
            factor = np.ones_like(r)
            for l, ca, sa in mod:
                factor += ca * np.cos(l * th) + sa * np.sin(l * th)
            base = base * factor
        return base

    mod_sup = 1.0 + sum(abs(ca) + abs(sa) for _, ca, sa in mod)
    env = _calibrate_envelope(
        lambda r: a * mod_sup * np.exp(-((r - r0) ** 2) / (2 * sig**2)), eps0=2.0)
    return f, env


def _scalar_gaussian_bumps(params, dim):
    bumps = params["bumps"]  # [[amplitude, cx, cy(, cz), width], ...]

    def f(p):
        out = np.zeros(p.shape[0])
        for b in bumps:
            a, *c, w = b
            c = np.asarray(c, dtype=float)
            out += a * np.exp(-np.sum((p - c) ** 2, axis=1) / (2 * w**2))
        return out

    def mag(r):
        out = np.zeros_like(r)
        for b in bumps:
            a, *c, w = b
            d = np.maximum(r - np.linalg.norm(c), 0.0)
            out += abs(a) * np.exp(-(d**2) / (2 * w**2))
        return out

    return f, _calibrate_envelope(mag, eps0=2.0)


def _scalar_power(params, dim):
    c = float(params.get("c", 1.0))
    p_exp = float(params.get("p", 1.0))
    if p_exp <= 1.0:
        raise TailNotBounded(f"power decay p={p_exp:g} <= 1 is not integrable along a line")

    def f(p):
        r2 = np.sum(p**2, axis=1)
        return c * (1 + r2) ** (-p_exp / 2)

    return f, DecayEnvelope(C=abs(c), eps0=p_exp - 1.0)


SCALAR_KINDS = {
    "zero": _scalar_zero,
    "gaussian_ring": _scalar_gaussian_ring,
    "gaussian_bumps": _scalar_gaussian_bumps,
    "power": _scalar_power,
}


# ---------------- vector kinds ----------------

def _vector_zero(params, dim):
    return (lambda p: np.zeros_like(p)), DecayEnvelope(C=1e-300, eps0=2.0)


def _vector_grad_power(params, dim):
    """grad of c <x>^-p; curl-free and short-range."""
    c = float(params.get("c", 1.0))
    p_exp = float(params.get("p", 1.0))

    def f(pts):
        r2 = np.sum(pts**2, axis=1)
        return (-c * p_exp) * pts * ((1 + r2) ** (-(p_exp + 2) / 2))[:, None]

    def mag(r):
        return abs(c) * p_exp * r * (1 + r**2) ** (-(p_exp + 2) / 2)

    return f, _calibrate_envelope(mag, eps0=p_exp)


def _vector_grad_bumps(params, dim):
    """grad of a sum of Gaussian bumps; curl-free and short-range."""
    bumps = params["bumps"]

    def f(pts):
        out = np.zeros_like(pts)
        for b in bumps:
            a, *c, w = b
            c = np.asarray(c, dtype=float)
            diff = pts - c
            out += (-a / w**2) * diff * np.exp(-np.sum(diff**2, axis=1) / (2 * w**2))[:, None]
        return out

    def mag(r):
        out = np.zeros_like(r)
        for b in bumps:
            a, *c, w = b
            d = np.maximum(r - np.linalg.norm(c), 0.0)
            peak = (abs(a) / w) * np.exp(-0.5)  # max of |t| e^{-t^2/2} / w at |t|=w
            out += np.where(d > 0, (abs(a) / w**2) * (d + 3 * w) * np.exp(-(d**2) / (2 * w**2)), peak)
        return out

    return f, _calibrate_envelope(mag, eps0=2.0)


def _vector_ring_bump_tangential(params, dim):
    """Short-range tangential field whose curl is a Gaussian ring bump.

    A = (F(r)/r - M/r) that, where F(r) = int_0^r s b(s) ds for the bump
    b(r) = b0 exp(-(r-r0)^2/(2 sig^2)) and M = F(inf); subtracting the full
    moment M removes the vortex tail, so the field decays faster than any
    power while curl A = b(r) is unchanged away from the origin.
    """
    b0 = float(params.get("b0", 1.0))
    r0 = float(params.get("r0", 1.5))
    sig = float(params.get("sigma", 0.25))
    s2 = np.sqrt(2.0) * sig

    def F(r):
        # int_0^r s exp(-(s-r0)^2/(2 sig^2)) ds, exact via erf
        return b0 * (sig**2 * (np.exp(-(r0**2) / (2 * sig**2)) - np.exp(-((r - r0) ** 2) / (2 * sig**2)))
                     + r0 * sig * np.sqrt(np.pi / 2) * (erf((r - r0) / s2) + erf(r0 / s2)))

    M = float(F(np.asarray(r0 + 40 * sig)))

    def f(pts):
        r = np.linalg.norm(pts, axis=1)
        coeff = (F(r) - M) / r**2
        return coeff[:, None] * np.column_stack([-pts[:, 1], pts[:, 0]])

    return f, _calibrate_envelope(lambda r: np.abs(F(r) - M) / r, eps0=2.0)


def _vector_cross_axis(params, dim):
    """x -> (axis cross x)/|x|^2 scaled; transversal, homogeneous -1, curl != 0 (n=3)."""
    axis = np.asarray(params.get("axis", [0.0, 0.0, 1.0]), dtype=float)
    c = float(params.get("c", 1.0))

    def f(pts):
        r2 = np.sum(pts**2, axis=1)
        return c * np.cross(np.broadcast_to(axis, pts.shape), pts) / r2[:, None]

    return f, None  # long-range; used as a transversal profile, not short-range


VECTOR_KINDS = {
    "zero": _vector_zero,
    "grad_power": _vector_grad_power,
    "grad_bumps": _vector_grad_bumps,
    "ring_bump_tangential": _vector_ring_bump_tangential,
    "cross_axis": _vector_cross_axis,
}


def build_scalar(kind: str, params: dict | None = None, dimension: int = 2,
                 C: float | None = None, eps0: float | None = None) -> ScalarPotential:
    params = params or {}
    func, env = SCALAR_KINDS[kind](params, dimension)
    if C is not None and eps0 is not None:
        env = DecayEnvelope(C=C, eps0=eps0)
    return ScalarPotential(dimension=dimension, func=func, envelope=env, kind=kind, params=params)


def build_vector(kind: str, params: dict | None = None, dimension: int = 2,
                 C: float | None = None, eps0: float | None = None) -> ShortRangeField:
    params = params or {}
    func, env = VECTOR_KINDS[kind](params, dimension)
    if C is not None and eps0 is not None:
        env = DecayEnvelope(C=C, eps0=eps0)
    return ShortRangeField(dimension=dimension, func=func, envelope=env, kind=kind, params=params)


def cross_axis_transversal(axis=(0.0, 0.0, 1.0), c: float = 1.0) -> TransversalField:
    func, _ = _vector_cross_axis({"axis": list(axis), "c": c}, 3)
    return TransversalField(dimension=3, profile=lambda w: func(np.asarray(w, dtype=float)[None, :])[0])


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


def config_from_dict(d: dict) -> PotentialConfig:
    dim = int(d["dimension"])
    transversal = None
    if d.get("transversal"):
        transversal = TransversalField.from_profile(
            AngularFunction.from_triples(d["transversal"]["profile"]))
    short_range = None
    if d.get("short_range"):
        s = d["short_range"]
        short_range = build_vector(s["kind"], s.get("params"), dim, s.get("C"), s.get("eps0"))
    scalar = None
    if d.get("scalar"):
        s = d["scalar"]
        scalar = build_scalar(s["kind"], s.get("params"), dim, s.get("C"), s.get("eps0"))
    return PotentialConfig(dimension=dim, obstacle_radius=float(d["obstacle_radius"]),
                           transversal=transversal, short_range=short_range, scalar=scalar,
                           label=d.get("label", ""))
