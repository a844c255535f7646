"""Seeded inputs, the op each input drives, and the answer check for each op.

Every expected answer (verdict, winding m, phase phi, flux, leading order)
comes from how the generator built the input, never from the program's
output. An op whose input class has a known defect carries the defect and
the failure it is expected to produce; it still counts as failed when it
fails, and any other failure of it is unexpected.

A workload is a sequence of rounds. Every round has the same fixed mix of
input classes, so medians and failure counts compare across seeds; the seed
draws each input's parameters. Round r under seed s is drawn from
``numpy.random.default_rng([s, r])``.

Timed calls go through module attributes (``gk.pipeline.run_classify``) so
the tracer's wrappers see them.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import gaugekit as gk
from gaugekit import catalog
from gaugekit.angular import AngularFunction
from gaugekit.fields import (
    DecayEnvelope,
    GaugeElement,
    PotentialConfig,
    ScalarPotential,
    TransversalField,
)
from gaugekit.pipeline import DEFAULT_TOLERANCES, Report, Scenario

PHASE_TOL = DEFAULT_TOLERANCES["phase_tol"]
VERIFY_TOL = DEFAULT_TOLERANCES["verify_tol"]
SPOT_TOL = 1e-7  # forward_sinogram vs the adaptive per-line reference, absolute
LEAD_TOL = 1e-6  # 3-space leading order vs its closed form
LAB_GROWTH_TOL = 0.1  # near-diagonal growth exponent vs 1 (flux kernels ~ 1/u)
# the growth exponent depends only on alpha and the remainder (gauges are unit
# prefactors), so kernel-lab pairs fix both and the seed draws m and phi
LAB_ALPHA = 0.35
LAB_REMAINDER = {"kind": "diagonal_gaussian", "amplitude": 0.04, "width": 0.55}
N_SPOT = 4

@dataclass(frozen=True)
class KnownDefect:
    """A defect an op class shows today, and the failure it is expected to
    produce: the check stage and the start of the reason. A failure with
    another stage or reason is unexpected."""
    what: str
    stage: str
    reason: str

    def matches(self, outcome) -> bool:
        return outcome.stage == self.stage and outcome.reason.startswith(self.reason)


KD_REMAINDER_WINDING = KnownDefect(
    "synthesize_kernels does not apply the winding factor to the remainder when m is "
    "folded into alpha (no declared gauge, remainder, m != 0)",
    "verdict", "expected equivalent, got not_equivalent: {'stage': 'kernel_solver', "
    "'kind': 'verification'")
KD_SLOW_DECAY = KnownDefect(
    "slow-decay power p=1.5 scalar: forward_sinogram's fixed rule misses the tail and the "
    "scalar reconstruction is out of tolerance",
    "sinogram_spot", "spot error")
KD_CURL_FREE = KnownDefect(
    "curl-free short-range field (B = 0): run_reconstruct judges the recovered field by a "
    "relative error against a finite-difference curl that is only noise",
    "report", "entries out of tolerance: ['field_reconstruction_rel_l2']")
KD_OFF_CENTRE = KnownDefect(
    "off-centre gaussian_bumps scalar (bump radius 1.8-2.4): run_reconstruct's scalar "
    "reconstruction is out of tolerance by orders of magnitude",
    "report", "entries out of tolerance: ['scalar_reconstruction_rel_l2']")
KD_CLASSIFY_3D = KnownDefect(
    "3D classify raises DimensionMismatch from decompose_transversal",
    "exception", "DimensionMismatch: ")


@dataclass
class Outcome:
    passed: bool
    stage: str = ""
    reason: str = ""
    figures: list = field(default_factory=list)  # (name, value, tolerance)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    known_defect: KnownDefect | None = None


def _fail(stage: str, reason: str, figures=()) -> Outcome:
    return Outcome(False, stage, reason, list(figures))


def _entry_figures(rep: Report) -> list:
    return [(e.name, e.value, e.tolerance) for e in rep.entries if e.tolerance is not None]


def _failed_entries(rep: Report) -> list:
    return [e.name for e in rep.entries if e.passed is False]


def _identity(func):
    return func


# ===================================================================
# input builders
# ===================================================================

def _profile(rng, alpha: float) -> AngularFunction:
    """Flux alpha plus a two-harmonic gradient part."""
    c1, c2 = rng.uniform(-0.03, 0.03, 2) + 1j * rng.uniform(-0.03, 0.03, 2)
    return AngularFunction.from_coefficients({0: alpha, 1: c1, 2: c2})


def _phase(rng) -> AngularFunction:
    a, b = rng.uniform(-0.05, 0.05, 2) + 1j * rng.uniform(-0.05, 0.05, 2)
    return AngularFunction.from_coefficients({2: a, 3: b})


def _ring_point(rng, r_lo: float, r_hi: float, dim: int = 2) -> list:
    r = rng.uniform(r_lo, r_hi)
    d = rng.normal(size=dim)
    return list(r * d / np.linalg.norm(d))


def _bumps(rng, n: int, dim: int = 2, r=(1.8, 2.4), w=(0.5, 0.8), amp=(0.3, 0.6)) -> list:
    return [[float(rng.uniform(*amp) * rng.choice([-1, 1])), *_ring_point(rng, *r, dim),
             float(rng.uniform(*w))] for _ in range(n)]


def _scalar(kind: str, params: dict, wrap, dim: int = 2) -> ScalarPotential:
    sp = catalog.build_scalar(kind, params, dimension=dim)
    return dataclasses.replace(sp, func=wrap(sp.func))


def _vector(kind: str, params: dict, wrap, dim: int = 2):
    sf = catalog.build_vector(kind, params, dimension=dim)
    return dataclasses.replace(sf, func=wrap(sf.func))


def _draw_scalar(rng, kind: str, wrap) -> ScalarPotential:
    """Scalars that decay inside r_max = 3.5. ``gaussian_bumps`` sits near the
    origin and passes; ``gaussian_bumps-offcentre`` puts the bumps at radius
    1.8-2.4, where the scalar reconstruction fails today (KD_OFF_CENTRE).

    Radii and widths of the passing kinds are fixed, because they set the
    reconstruction error; the seed draws amplitudes, signs and orientations,
    so accuracy figures compare across seeds."""
    if kind == "gaussian_ring":
        turn = rng.uniform(0, 2 * np.pi)
        return _scalar(kind, {"amplitude": rng.uniform(0.75, 0.85), "r0": 2.15, "sigma": 0.4,
                              "modulation": [[2, 0.25 * np.cos(turn), 0.25 * np.sin(turn)]]},
                       wrap)
    if kind == "gaussian_bumps":
        return _scalar(kind, {"bumps": _bumps(rng, 2, r=(0.2, 0.2), w=(0.75, 0.75),
                                              amp=(0.45, 0.45))}, wrap)
    if kind == "gaussian_bumps-offcentre":
        return _scalar("gaussian_bumps", {"bumps": _bumps(rng, 2)}, wrap)
    p = {"power-1.5": 1.5, "power-3": 3.0}[kind]
    return _scalar("power", {"c": rng.uniform(0.7, 0.8), "p": p}, wrap)


def _sum_scalar(a: ScalarPotential, b: ScalarPotential) -> ScalarPotential:
    return ScalarPotential(
        dimension=a.dimension, func=lambda p, f=a.func, g=b.func: f(p) + g(p),
        envelope=DecayEnvelope(a.envelope.C + b.envelope.C,
                               min(a.envelope.eps0, b.envelope.eps0)))


def _remainder(rng, kind: str) -> dict | None:
    if kind == "separable_trig":
        return {"kind": kind, "amplitude": rng.uniform(0.035, 0.045),
                "p": int(rng.integers(1, 3)), "q": int(rng.integers(1, 4))}
    if kind == "diagonal_gaussian":
        return {"kind": kind, "amplitude": rng.uniform(0.035, 0.045),
                "width": rng.uniform(0.5, 0.6)}
    return None


# ===================================================================
# plane pairs (classify-mix, kernel-pairs)
# ===================================================================

# classify-mix classes per n_grid; the remainder-winding slot is the known
# defect and stays in the mix on purpose
PAIR_CLASSES = ("declared", "declared", "undeclared", "remainder-winding",
                "scalar-bump", "flux-offset", "integer-flux")
SCALAR_KINDS = ("gaussian_ring", "gaussian_bumps", "power-1.5", "power-3")
REMAINDERS = ("none", "separable_trig", "diagonal_gaussian")


def _pair_op(rng, cls: str, n_grid: int, scalar_kind: str | None, wrap,
             lab: bool = False) -> Op:
    """One plane configuration pair of the given class and its check."""
    integer = cls == "integer-flux"
    alpha = float(rng.integers(0, 3)) if integer else float(rng.uniform(0.3, 0.7))
    if lab:
        alpha = LAB_ALPHA
    m = int(rng.choice([-2, -1, 1, 2])) if cls == "remainder-winding" or lab \
        else int(rng.integers(-2, 3))
    rem_kind = str(rng.choice(REMAINDERS[1:] if cls == "remainder-winding" else REMAINDERS))
    if cls == "undeclared" and rem_kind != "none":
        m = 0  # with a remainder only m = 0 is answered correctly today
    phi = _phase(rng)
    V = _draw_scalar(rng, scalar_kind, wrap) if scalar_kind else None
    # one fixed gauge scalar: the gradient-residual figure depends only on it
    L = _scalar("gaussian_bumps", {"bumps": [[0.3, 2.0, 0.7, 1.0]]}, wrap) \
        if scalar_kind else None
    cfg1 = PotentialConfig(dimension=2, obstacle_radius=1.0,
                           transversal=TransversalField.from_profile(_profile(rng, alpha)),
                           scalar=V)
    g = GaugeElement(dimension=2, m=m, phi=phi, scalar=L)
    cfg2 = gk.fields.apply_gauge_to_potential(cfg1, g)
    # scalar-bump pairs declare their gauge so that the kernel stage passes
    # and the scalar stage is what answers (remainder-winding covers the rest)
    declared = cls in ("declared", "scalar-bump") or lab or (
        cls == "integer-flux" and bool(rng.integers(0, 2)))
    if cls == "scalar-bump":
        bump = _scalar("gaussian_bumps", {"bumps": _bumps(rng, 1, amp=(0.3, 0.5))}, wrap)
        cfg2 = dataclasses.replace(cfg2, scalar=_sum_scalar(cfg2.scalar, bump) if V else bump)
    if cls == "flux-offset":
        delta = float(rng.uniform(0.1, 0.4) * rng.choice([-1, 1]))
        cfg2 = dataclasses.replace(
            cfg2, transversal=TransversalField.from_profile(cfg2.transversal.a_hat + delta))
        declared = False  # the declared gauge would be a false claim about this pair
    kernels = {"n_grid": n_grid, "lam": 1.0}
    if rem_kind != "none":
        kernels["remainder"] = _remainder(rng, rem_kind)
    if lab:
        kernels["remainder"] = dict(LAB_REMAINDER)
    if declared:
        kernels["relating_gauge"] = {"m": m, "phi": phi.to_triples()}
    label = f"{'lab' if lab else cls}/n{n_grid}" + (f"/{scalar_kind}" if scalar_kind else "")
    if lab:
        sc = Scenario(kind="kernel-lab", config1=cfg1, config2=cfg2, kernels=kernels)
        return Op(label, lambda: gk.pipeline.run_kernel_lab(sc), _check_lab(alpha, m))
    sc = Scenario(kind="classify", config1=cfg1, config2=cfg2, kernels=kernels)
    run = lambda: gk.pipeline.run_classify(sc)  # noqa: E731
    if cls in ("declared", "undeclared", "remainder-winding"):
        check = _check_equivalent(m, phi, has_scalar=L is not None)
    elif cls == "scalar-bump":
        check = _check_verdict("not_equivalent", "scalar_compare")
    elif cls == "flux-offset":
        check = _check_verdict("not_equivalent", "kernel_solver", "channel_spectrum")
    else:
        check = _check_verdict("ambiguous", "kernel_solver")
    return Op(label, run, check, KD_REMAINDER_WINDING if cls == "remainder-winding" else None)


def _check_equivalent(m: int, phi: AngularFunction, has_scalar: bool):
    def check(rep: Report) -> Outcome:
        if rep.verdict != "equivalent":
            return _fail("verdict", f"expected equivalent, got {rep.verdict}: {rep.witness}")
        figures = _entry_figures(rep)
        phase_err = AngularFunction.from_triples(rep.gauge["phi"]).distance(phi)
        figures.append(("fitted_phase_error", phase_err, PHASE_TOL))
        if rep.gauge["m"] != m:
            return _fail("gauge", f"fitted m={rep.gauge['m']}, built with m={m}", figures)
        if phase_err > PHASE_TOL:
            return _fail("gauge", f"fitted phase off by {phase_err:.3e}", figures)
        if rep.gauge["has_scalar"] != has_scalar:
            return _fail("gauge", f"has_scalar={rep.gauge['has_scalar']}, expected {has_scalar}",
                         figures)
        if _failed_entries(rep):
            return _fail("report", f"entries out of tolerance: {_failed_entries(rep)}", figures)
        return Outcome(True, figures=figures)
    return check


def _check_verdict(verdict: str, stage: str | None = None, kind: str | None = None):
    def check(rep: Report) -> Outcome:
        if rep.verdict != verdict:
            return _fail("verdict", f"expected {verdict}, got {rep.verdict}: {rep.witness}")
        w = rep.witness or {}
        if stage is not None and (w.get("stage") != stage
                                  or (kind is not None and w.get("kind") != kind)):
            return _fail("witness", f"expected stage {stage} {kind or ''}, got {w}")
        if verdict != "equivalent":
            return Outcome(True)  # out-of-tolerance entries are the witness here
        if _failed_entries(rep):
            return _fail("report", f"entries out of tolerance: {_failed_entries(rep)}")
        return Outcome(True, figures=_entry_figures(rep))
    return check


def _check_lab(alpha: float, m: int):
    def check(rep: Report) -> Outcome:
        e = {x.name: x.value for x in rep.entries}
        figures = [("flux_1_error", abs(e["flux_1"] - alpha), PHASE_TOL),
                   ("flux_2_error", abs(e["flux_2"] - (alpha + m)), PHASE_TOL),
                   ("growth_exponent_error", abs(e["growth_exponent"] - 1.0), LAB_GROWTH_TOL)]
        bad = [n for n, v, t in figures if v > t]
        if bad:
            return _fail("report", f"out of tolerance: {bad}", figures)
        if not e["kernel_distance"] > 0.1:
            return _fail("report", f"kernel distance {e['kernel_distance']:.3e} for m={m}",
                         figures)
        return Outcome(True, figures=figures)
    return check


def classify_mix_round(rng, r: int, wrap=_identity) -> list:
    """Scalar kinds are assigned to slots, so every round holds the same mix."""
    ops = []
    for i, n in enumerate((256, 512)):
        for j, cls in enumerate(PAIR_CLASSES):
            kind = SCALAR_KINDS[(j + 2 * i) % len(SCALAR_KINDS)]
            ops.append(_pair_op(rng, cls, n, kind, wrap))
    return ops


# n_grid 1024 equivalence ops form the middle group by op time, so
# op_p50_s is a median of them: the fast verdicts and the n_grid 512 ops sit
# below, the two known-defect (failed) ops above
KERNEL_SLOTS = ((512, "flux-offset"), (512, "integer-flux"), (512, "declared"), (512, "lab"),
                (512, "remainder-winding"), (1024, "declared"), (1024, "declared"),
                (1024, "undeclared"), (1024, "undeclared"), (1024, "lab"), (1024, "lab"),
                (1024, "remainder-winding"))


def kernel_pairs_round(rng, r: int, wrap=_identity) -> list:
    """Transversal-only pairs: scattering does all the work, tomography none."""
    return [_pair_op(rng, "declared", n, None, wrap, lab=True) if cls == "lab"
            else _pair_op(rng, cls, n, None, wrap) for n, cls in KERNEL_SLOTS]


# ===================================================================
# plane reconstruction (reconstruct-2d)
# ===================================================================

# vector classes are the middle group by op time, so op_p50_s is a median of
# vector ops: 2 scalar ops below them, 3 known-defect (failed) ops above
RECON_CLASSES = ("transversal", "transversal", "ring-bump", "ring-bump", "grad-bumps",
                 "gaussian_ring", "gaussian_bumps", "gaussian_bumps-offcentre", "power-1.5")
# a sixteenth of the default 180 x 256 parallel geometry: a default-geometry
# op takes 2-8 s and a 90 x 128 op 0.5-2 s, too few ops per run for a steady
# median on a machine whose speed swings by 20 % over seconds
RECON_GEOMETRY = {"n_angles": 45, "n_offsets": 64, "r_min": 1.001, "r_max": 3.5}


def _recon_op(rng, cls: str, wrap) -> Op:
    tv = TransversalField.from_profile(_profile(rng, float(rng.uniform(0.15, 0.85))))
    if cls == "transversal":
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, transversal=tv)
    elif cls == "ring-bump":
        short = _vector("ring_bump_tangential", {"b0": rng.uniform(0.3, 0.5),
                                                 "r0": rng.uniform(1.8, 2.1),
                                                 "sigma": rng.uniform(0.25, 0.32)}, wrap)
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, transversal=tv, short_range=short)
    elif cls == "grad-bumps":
        # narrow bumps: the finite-difference reference curl is always above
        # the 1e-9 switch, so this class fails every time, not by chance
        short = _vector("grad_bumps", {"bumps": _bumps(rng, 2, w=(0.25, 0.35))}, wrap)
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, transversal=tv, short_range=short)
    else:
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0,
                              scalar=_draw_scalar(rng, cls, wrap))
    spots = [(int(rng.integers(0, RECON_GEOMETRY["n_angles"])),
              int(rng.integers(0, RECON_GEOMETRY["n_offsets"]))) for _ in range(N_SPOT)]
    sc = Scenario(kind="reconstruct", config1=cfg, geometry=dict(RECON_GEOMETRY))
    return Op(f"reconstruct/{cls}", lambda: gk.pipeline.run_reconstruct(sc),
              _check_recon(cfg, spots),
              {"power-1.5": KD_SLOW_DECAY, "grad-bumps": KD_CURL_FREE,
               "gaussian_bumps-offcentre": KD_OFF_CENTRE}.get(cls))


def _spot_error(cfg: PotentialConfig, sino, spots) -> float:
    """Largest gap between sinogram samples and the adaptive per-line integral."""
    worst = 0.0
    for i, j in spots:
        line = gk.tomography.line_at(sino.angles[i], sino.offsets[j])
        ref = gk.tomography.line_integral_scalar(cfg.scalar, line) if sino.kind == "scalar" \
            else gk.tomography.line_integral_vector(cfg, line)
        worst = max(worst, abs(float(sino.values[i, j]) - ref))
    return worst


def _check_recon(cfg: PotentialConfig, spots):
    def check(rep: Report) -> Outcome:
        if rep.verdict != "reconstructed":
            return _fail("verdict", f"expected reconstructed, got {rep.verdict}")
        sino = rep.artifacts.get("sinogram_scalar", rep.artifacts.get("sinogram_vector"))
        spot = _spot_error(cfg, sino, spots)
        figures = _entry_figures(rep) + [("sinogram_spot_error", spot, SPOT_TOL)]
        if spot > SPOT_TOL:
            return _fail("sinogram_spot", f"spot error {spot:.3e} > {SPOT_TOL:.0e}", figures)
        if _failed_entries(rep):
            return _fail("report", f"entries out of tolerance: {_failed_entries(rep)}", figures)
        return Outcome(True, figures=figures)
    return check


def reconstruct_2d_round(rng, r: int, wrap=_identity) -> list:
    return [_recon_op(rng, cls, wrap) for cls in RECON_CLASSES]


# ===================================================================
# sphere kernels and 3-space reconstruction (sphere-3d)
# ===================================================================

SPHERE_CLASSES = (("even", 2), ("odd", 2), ("even", 3), ("odd", 3), ("even", 3), ("odd", 3),
                  ("r4", 4), ("recon", 2), ("recon", 3), ("classify-3d", 2))


def _even_phase(rng):
    a, b, c = rng.uniform(-0.4, 0.4, 3)

    def phi(V):
        V = np.atleast_2d(V)
        return a * V[:, 2] ** 2 + b * V[:, 0] * V[:, 1] + c * V[:, 0] * V[:, 2]
    return phi


def _odd_phase(rng):
    a, b = rng.uniform(0.1, 0.4, 2) * rng.choice([-1, 1], 2)

    def phi(V):
        V = np.atleast_2d(V)
        return a * V[:, 2] + b * V[:, 0]
    return phi


def _sphere_pair_op(rng, parity: str, refinement: int) -> Op:
    phi = _even_phase(rng) if parity == "even" else _odd_phase(rng)
    g = GaugeElement(dimension=3, phi_callable=phi)

    def run():
        grid = gk.angular.sphere_grid(refinement)
        K1 = gk.scattering.synthesize_sphere_kernel(grid)
        K2 = gk.scattering.apply_gauge_to_kernel(K1, g)
        return grid, gk.scattering.gauge_equivalence_solver(K1, K2)

    def check(out) -> Outcome:
        grid, res = out
        if parity == "odd":
            kind = (res.witness or {}).get("kind")
            if res.verdict != "not_equivalent" or kind != "odd_phase":
                return _fail("verdict", f"expected not_equivalent/odd_phase, got {res.verdict}/{kind}")
            return Outcome(True)
        if res.verdict != "equivalent":
            return _fail("verdict", f"expected equivalent, got {res.verdict}: {res.witness}")
        gap = np.asarray(res.gauge.phi_sphere.values, dtype=float) - phi(grid.vertices)
        figures = [("fitted_phase_spread", float(np.ptp(gap)), PHASE_TOL),
                   ("verify_distance", res.provenance["verify_distance"], VERIFY_TOL)]
        bad = [n for n, v, t in figures if v > t]
        if bad:
            return _fail("gauge", f"out of tolerance: {bad}", figures)
        return Outcome(True, figures=figures)

    return Op(f"sphere-{parity}/r{refinement}", run, check)


def _leading_order_truth(axis: np.ndarray, c: float, W: np.ndarray) -> np.ndarray:
    """|x|^2 curl of c (axis x x)/|x|^2 along direction W, as (B12, B13, B23)."""
    axw = np.cross(np.broadcast_to(axis, W.shape), W)
    out = []
    for i, j, k, sign in ((0, 1, 2, 1.0), (0, 2, 1, -1.0), (1, 2, 0, 1.0)):
        out.append(2 * c * (sign * axis[k] - (W[:, i] * axw[:, j] - W[:, j] * axw[:, i])))
    return np.column_stack(out)


# the axis and strength of the 3D profile set the leading-order error, so they
# are fixed; the seed draws the curl-free grad_bumps part and the gauges
SPACE_AXIS = np.array([0.0, 0.0, 1.0])
SPACE_C = 0.4


def _space_config(rng, wrap) -> PotentialConfig:
    tv = catalog.cross_axis_transversal(axis=tuple(SPACE_AXIS), c=SPACE_C)
    tv = dataclasses.replace(tv, profile=wrap(tv.profile))
    short = _vector("grad_bumps", {"bumps": _bumps(rng, 1, dim=3, r=(1.2, 1.5), w=(0.5, 0.6))},
                    wrap, dim=3)
    return PotentialConfig(dimension=3, obstacle_radius=1.0, transversal=tv, short_range=short)


def _recon_3d_op(rng, refinement: int, wrap) -> Op:
    cfg = _space_config(rng, wrap)
    sc = Scenario(kind="reconstruct", config1=cfg, geometry={"sphere_refinement": refinement})

    def check(rep: Report) -> Outcome:
        if rep.verdict != "reconstructed":
            return _fail("verdict", f"expected reconstructed, got {rep.verdict}")
        leads = rep.artifacts["leading_order"]
        W = np.asarray(leads[0].grid.vertices)
        got = np.column_stack([np.asarray(x.values, dtype=float) for x in leads])
        err = float(np.max(np.abs(got - _leading_order_truth(SPACE_AXIS, SPACE_C, W))))
        figures = [("leading_order_error", err, LEAD_TOL)]
        if err > LEAD_TOL:
            return _fail("leading_order", f"error {err:.3e}", figures)
        return Outcome(True, figures=figures)

    return Op(f"reconstruct-3d/r{refinement}", lambda: gk.pipeline.run_reconstruct(sc), check)


def _classify_3d_op(rng, wrap) -> Op:
    cfg1 = _space_config(rng, wrap)
    g = GaugeElement(dimension=3, phi_callable=_even_phase(rng))
    cfg2 = gk.fields.apply_gauge_to_potential(cfg1, g)
    sc = Scenario(kind="classify", config1=cfg1, config2=cfg2, kernels={"n_grid": 256, "lam": 1.0})
    return Op("classify-3d", lambda: gk.pipeline.run_classify(sc),
              _check_verdict("equivalent"), KD_CLASSIFY_3D)


def sphere_3d_round(rng, r: int, wrap=_identity) -> list:
    ops = []
    for kind, ref in SPHERE_CLASSES:
        if kind == "recon":
            ops.append(_recon_3d_op(rng, ref, wrap))
        elif kind == "classify-3d":
            ops.append(_classify_3d_op(rng, wrap))
        elif kind == "r4":
            ops.append(_sphere_pair_op(rng, ("even", "odd")[r % 2], ref))
        else:
            ops.append(_sphere_pair_op(rng, kind, ref))
    return ops


WORKLOADS = {
    "classify-mix": classify_mix_round,
    "kernel-pairs": kernel_pairs_round,
    "reconstruct-2d": reconstruct_2d_round,
    "sphere-3d": sphere_3d_round,
}


def make_round(workload: str, seed: int, r: int, wrap=_identity) -> list:
    return WORKLOADS[workload](np.random.default_rng([seed, r]), r, wrap)
