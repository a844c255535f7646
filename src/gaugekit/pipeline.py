"""End-to-end scenarios: classification of configuration pairs from their
kernels, single-configuration tomographic recovery, and report emission.

Kernel provenance: there is no forward solver from a general (A, V) to a
scattering kernel. Classify scenarios synthesize kernels from the analytic
flux family: kernel 1 from the decomposition of config 1, kernel 2 either by
the gauge action on kernel 1 (when the scenario declares the relating gauge)
or independently from config 2's decomposition. The report records which
route produced each kernel.

Reports are deterministic: fixed scenario seeds, no timestamps, and every
numeric entry carries the tolerance it was checked against and the operation
that produced it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import catalog
from .angular import AngularFunction, sphere_grid
from .errors import GaugekitError, NotCurlFree, ResidualFlux
from .fields import (
    DecayEnvelope,
    GaugeElement,
    PotentialConfig,
    ShortRangeField,
    apply_gauge_to_potential,
    curl,
    decompose_transversal,
    extract_leading_order,
    sample_on_spheres,
)
from .scattering import (
    ScatteringKernel,
    apply_gauge_to_kernel,
    assemble_kernel,
    gauge_equivalence_solver,
)
from .tomography import (
    Line,
    PolarGridField,
    Sinogram,
    forward_sinogram,
    find_gauge_scalar,
    line_integrals_scalar,
    parallel_geometry,
    radon_invert_scalar,
    recover_field_2d,
)

DEFAULT_TOLERANCES = {
    "tail_tol": 1e-9,
    "curl_tol": 1e-6,
    "loop_tol": 1e-6,
    "phase_tol": 1e-6,
    "verify_tol": 1e-6,
    "scalar_tol": 1e-7,
    "recon_v_rel": 0.05,
    "recon_b_rel": 0.08,
}


# ===================================================================
# scenario and report containers
# ===================================================================

@dataclass
class Scenario:
    kind: str  # "classify" | "reconstruct" | "kernel-lab"
    config1: PotentialConfig
    config2: PotentialConfig | None = None
    geometry: dict = field(default_factory=lambda: {
        "n_angles": 180, "n_offsets": 256, "r_min": 1.001, "r_max": 3.5})
    tolerances: dict = field(default_factory=dict)
    kernels: dict = field(default_factory=lambda: {"n_grid": 512, "lam": 1.0})
    seed: int = 11
    label: str = ""
    obstacle_convex: bool = True
    output_dir: str | None = None

    def __post_init__(self):
        if self.kind not in ("classify", "reconstruct", "kernel-lab"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.config2 is not None:
            if self.config2.dimension != self.config1.dimension:
                raise ValueError("configurations must share the dimension")
            if self.config2.obstacle_radius != self.config1.obstacle_radius:
                raise ValueError("configurations must share the obstacle radius")
        tol = dict(DEFAULT_TOLERANCES)
        tol.update(self.tolerances)
        self.tolerances = tol

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        data = json.loads(text)
        if data.get("schema_version") != 1:
            raise ValueError("unsupported scenario schema version")
        cfg1 = catalog.config_from_dict(data["config1"])
        cfg2 = catalog.config_from_dict(data["config2"]) if data.get("config2") else None
        return cls(kind=data["kind"], config1=cfg1, config2=cfg2,
                   geometry=data.get("geometry", {
                       "n_angles": 180, "n_offsets": 256, "r_min": 1.001, "r_max": 3.5}),
                   tolerances=data.get("tolerances", {}),
                   kernels=data.get("kernels", {"n_grid": 512, "lam": 1.0}),
                   seed=int(data.get("seed", 11)),
                   label=data.get("label", ""),
                   obstacle_convex=bool(data.get("obstacle_convex", True)),
                   output_dir=data.get("output_dir"))

    @classmethod
    def load(cls, path) -> "Scenario":
        return cls.from_json(Path(path).read_text())

    def to_json(self) -> str:
        data = {
            "schema_version": 1,
            "kind": self.kind,
            "label": self.label,
            "seed": self.seed,
            "obstacle_convex": self.obstacle_convex,
            "config1": catalog.config_to_dict(self.config1),
            "config2": catalog.config_to_dict(self.config2) if self.config2 else None,
            "geometry": self.geometry,
            "tolerances": self.tolerances,
            "kernels": self.kernels,
            "output_dir": self.output_dir,
        }
        return json.dumps(data, indent=2)


@dataclass
class ReportEntry:
    name: str
    value: float
    tolerance: float | None
    operation: str
    passed: bool | None = None


@dataclass
class Report:
    kind: str
    label: str = ""
    verdict: str | None = None
    gauge: dict | None = None
    witness: dict | None = None
    entries: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict, repr=False)

    def add(self, name: str, value: float, tolerance: float | None,
            operation: str, smaller_is_pass: bool = True) -> ReportEntry:
        passed = None
        if tolerance is not None:
            passed = bool(abs(value) <= tolerance) if smaller_is_pass else bool(abs(value) > tolerance)
        e = ReportEntry(name=name, value=float(value), tolerance=tolerance,
                        operation=operation, passed=passed)
        self.entries.append(e)
        return e

    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries if e.passed is not None)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": self.kind,
            "label": self.label,
            "verdict": self.verdict,
            "gauge": self.gauge,
            "witness": self.witness,
            "entries": [asdict(e) for e in self.entries],
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        data = json.loads(text)
        rep = cls(kind=data["kind"], label=data.get("label", ""),
                  verdict=data.get("verdict"), gauge=data.get("gauge"),
                  witness=data.get("witness"), provenance=data.get("provenance", {}))
        for e in data.get("entries", []):
            rep.entries.append(ReportEntry(**e))
        return rep

    def summary_lines(self) -> list:
        lines = [f"kind: {self.kind}" + (f"  label: {self.label}" if self.label else "")]
        if self.verdict is not None:
            lines.append(f"verdict: {self.verdict}")
        if self.gauge is not None:
            lines.append(f"gauge: m={self.gauge.get('m')}  "
                         f"|phi|_max={self.gauge.get('phi_max'):.3e}  "
                         f"L1={'yes' if self.gauge.get('has_scalar') else 'no'}")
        if self.witness is not None:
            lines.append(f"witness: {self.witness}")
        for e in self.entries:
            mark = "" if e.passed is None else ("  [pass]" if e.passed else "  [FAIL]")
            tol = "" if e.tolerance is None else f"  tol {e.tolerance:.2e}"
            lines.append(f"  {e.name}: {e.value:.6e}{tol}  ({e.operation}){mark}")
        return lines


# ===================================================================
# kernel synthesis from configurations
# ===================================================================

def _remainder_from_spec(spec: dict | None):
    if not spec or spec.get("kind", "none") == "none":
        return None
    kind = spec["kind"]
    if kind == "separable_trig":
        a = float(spec.get("amplitude", 0.1))
        p = int(spec.get("p", 1))
        q = int(spec.get("q", 2))
        return lambda t, tp: a * np.cos(p * t) * np.sin(q * tp)
    if kind == "diagonal_gaussian":
        a = float(spec.get("amplitude", 0.1))
        w = float(spec.get("width", 0.5))
        def rem(t, tp):
            u = np.mod(t - tp + np.pi, 2 * np.pi) - np.pi
            return a * np.exp(-u**2 / (2 * w**2))
        return rem
    raise ValueError(f"unknown remainder kind {kind!r}")


def _gauge_from_spec(spec: dict | None, dimension: int) -> GaugeElement | None:
    if spec is None:
        return None
    phi = None
    if spec.get("phi"):
        phi = AngularFunction.from_triples(spec["phi"])
    return GaugeElement(dimension=dimension, m=int(spec.get("m", 0)), phi=phi)


def synthesize_kernels(scenario: Scenario):
    """Kernels for a classify scenario, with provenance strings.

    Kernel 1 always comes from config 1's decomposition (flux family plus
    the gradient-part phases). Kernel 2 comes from the gauge action when the
    scenario declares the relating gauge; otherwise it is synthesized
    independently from config 2's decomposition with the same remainder.
    """
    ks = scenario.kernels
    n_grid = int(ks.get("n_grid", 512))
    lam = float(ks.get("lam", 1.0))
    rem = _remainder_from_spec(ks.get("remainder"))
    dec1 = decompose_transversal(scenario.config1.transversal) \
        if scenario.config1.transversal is not None else None
    a1 = dec1.alpha if dec1 else 0.0
    p1 = dec1.a0 if dec1 else AngularFunction.zero()
    S1 = assemble_kernel(a1, a0_in=p1, a0_out=p1, smooth=rem, lam=lam, n_grid=n_grid)
    prov = {"kernel1": "synthesized from config1 flux decomposition"}
    g_rel = _gauge_from_spec(ks.get("relating_gauge"), scenario.config1.dimension)
    if g_rel is not None:
        S2 = apply_gauge_to_kernel(S1, g_rel)
        prov["kernel2"] = "gauge action on kernel1 (declared relating gauge)"
    elif scenario.config2 is not None and scenario.config2.transversal is not None:
        dec2 = decompose_transversal(scenario.config2.transversal)
        S2 = assemble_kernel(dec2.alpha, a0_in=dec2.a0, a0_out=dec2.a0,
                             smooth=rem, lam=lam, n_grid=n_grid)
        prov["kernel2"] = "synthesized from config2 flux decomposition"
    else:
        S2 = assemble_kernel(a1, a0_in=p1, a0_out=p1, smooth=rem, lam=lam, n_grid=n_grid)
        prov["kernel2"] = "synthesized from config1 flux decomposition (no transversal difference)"
    return S1, S2, prov


# ===================================================================
# classify
# ===================================================================

def run_classify(scenario: Scenario) -> Report:
    """Kernel solve, inverse-gauge transport, and potential-level comparison.

    Stage order: gauge_equivalence_solver on synthesized kernels; on
    Equivalent, pull config 2 back by the inverse gauge and compare the
    transversal decompositions, probe the scalar potentials through line
    integrals and pointwise, and integrate the short-range vector difference
    to a gauge scalar. Every stage must pass for the verdict Equivalent.
    """
    if scenario.kind != "classify":
        raise ValueError("scenario kind must be 'classify'")
    if scenario.config2 is None:
        raise ValueError("classify needs two configurations")
    tol = scenario.tolerances
    rep = Report(kind="classify", label=scenario.label)
    if not scenario.obstacle_convex:
        rep.provenance["regime"] = ("outside proven regime: uniqueness theorems "
                                    "assume a convex obstacle")
    cfg1, cfg2 = scenario.config1, scenario.config2

    S1, S2, kprov = synthesize_kernels(scenario)
    rep.provenance.update(kprov)
    res = gauge_equivalence_solver(S1, S2, verify_tol=tol["verify_tol"],
                                   phase_tol=tol["phase_tol"])
    rep.provenance["solver"] = res.provenance
    if res.verdict == "ambiguous":
        rep.verdict = "ambiguous"
        rep.witness = {"stage": "kernel_solver", "reason": res.reason}
        return rep
    if res.verdict == "not_equivalent":
        rep.verdict = "not_equivalent"
        rep.witness = {"stage": "kernel_solver", **(res.witness or {})}
        return rep
    g = res.gauge
    phi_max = g.phi.max_abs() if g.phi is not None else 0.0
    rep.gauge = {"m": g.m, "phi_max": phi_max, "has_scalar": False,
                 "phi": (g.phi.to_triples() if g.phi is not None else [])}
    rep.add("solver_verify_distance", res.provenance.get("verify_distance", 0.0),
            tol["verify_tol"], "gauge_equivalence_solver")

    # transport config2 back through the fitted gauge
    cfg2_back = apply_gauge_to_potential(cfg2, g.inverse())

    # transversal stage
    if cfg1.transversal is not None or cfg2_back.transversal is not None:
        zero = AngularFunction.zero()
        d1 = decompose_transversal(cfg1.transversal) if cfg1.transversal else None
        d2 = decompose_transversal(cfg2_back.transversal) if cfg2_back.transversal else None
        a1, p1 = (d1.alpha, d1.a0) if d1 else (0.0, zero)
        a2, p2 = (d2.alpha, d2.a0) if d2 else (0.0, zero)
        rep.add("flux_difference", abs(a2 - a1), tol["phase_tol"], "decompose_transversal")
        rep.add("gradient_profile_difference", (p2 - p1).max_abs(),
                tol["phase_tol"], "decompose_transversal")
        if not rep.entries[-1].passed or not rep.entries[-2].passed:
            rep.verdict = "not_equivalent"
            rep.witness = {"stage": "transversal_compare",
                           "flux_difference": abs(a2 - a1),
                           "profile_difference": (p2 - p1).max_abs()}
            return rep

    # scalar potential stage: pointwise and through line integrals
    rng = np.random.default_rng(scenario.seed)
    geo = scenario.geometry
    r_in = cfg1.obstacle_radius + 0.05 * max(1.0, cfg1.obstacle_radius)
    r_out = float(geo.get("r_max", 3.5))
    scale_v = 1.0
    if cfg1.scalar is not None or cfg2.scalar is not None:
        r = rng.uniform(r_in, r_out, 200)
        th = rng.uniform(0, 2 * np.pi, 200)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)]) \
            if cfg1.dimension == 2 else _sphere_points(rng, r)
        v1 = cfg1.scalar(pts) if cfg1.scalar else np.zeros(len(pts))
        v2 = cfg2.scalar(pts) if cfg2.scalar else np.zeros(len(pts))
        scale_v = max(float(np.max(np.abs(v1))), float(np.max(np.abs(v2))), 1e-12)
        rep.add("scalar_pointwise_difference", float(np.max(np.abs(v2 - v1))) / scale_v,
                tol["scalar_tol"] / min(1.0, scale_v), "pointwise probe")
        if cfg1.dimension == 2:
            lines = [Line.from_impact_angle(rng.uniform(r_in, 0.9 * r_out),
                                            rng.uniform(0, 2 * np.pi)) for _ in range(40)]
            absent = (np.zeros(len(lines)), np.zeros(len(lines)))
            i1, e1 = line_integrals_scalar(cfg1.scalar, lines, tail_tol=tol["tail_tol"]) \
                if cfg1.scalar else absent
            i2, e2 = line_integrals_scalar(cfg2.scalar, lines, tail_tol=tol["tail_tol"]) \
                if cfg2.scalar else absent
            worst = float(np.max(np.abs(i2 - i1)))
            rep.provenance["scalar_transform_error_estimate"] = float(max(e1.max(), e2.max()))
            rep.add("scalar_transform_difference", worst / scale_v,
                    tol["scalar_tol"] / min(1.0, scale_v), "line_integrals_scalar probe")
        if not all(e.passed for e in rep.entries if e.name.startswith("scalar")):
            rep.verdict = "not_equivalent"
            rep.witness = {"stage": "scalar_compare",
                           "kind": "scalar_transform",
                           "max_line_integral_mismatch": worst * scale_v
                           if cfg1.dimension == 2 else None,
                           "note": "scalar potentials produce different line integrals"}
            return rep

    # short-range vector stage: the leftover difference must be a gradient
    diff_field, diff_scale = _short_range_difference(cfg1, cfg2_back, r_in, r_out)
    if diff_field is not None and diff_scale > 1e-12:
        try:
            gs = find_gauge_scalar(diff_field, r_in=r_in, r_out=r_out,
                                   curl_tol=tol["curl_tol"], loop_tol=tol["loop_tol"],
                                   tail_tol=tol["tail_tol"], seed=scenario.seed)
        except (NotCurlFree, ResidualFlux) as exc:
            rep.verdict = "not_equivalent"
            rep.witness = {"stage": "short_range_gradient",
                           "kind": type(exc).__name__, "detail": str(exc)}
            return rep
        resid = _gradient_residual(gs, diff_field, r_in, r_out, scenario.seed)
        rep.add("short_range_gradient_residual", resid / max(diff_scale, 1e-12),
                tol["curl_tol"], "find_gauge_scalar")
        rep.gauge["has_scalar"] = True
        rep.artifacts["gauge_scalar"] = gs
        if not rep.entries[-1].passed:
            rep.verdict = "not_equivalent"
            rep.witness = {"stage": "short_range_gradient", "kind": "residual",
                           "residual": resid}
            return rep
    else:
        rep.add("short_range_difference_scale", diff_scale, None, "probe max")

    rep.verdict = "equivalent"
    return rep


def _sphere_points(rng, radii: np.ndarray) -> np.ndarray:
    d = rng.normal(size=(radii.size, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    return radii[:, None] * d


def _short_range_difference(cfg1: PotentialConfig, cfg2: PotentialConfig,
                            r_in: float, r_out: float):
    """Difference of short-range vector parts as a field, plus its probe scale."""
    if cfg1.short_range is None and cfg2.short_range is None:
        return None, 0.0
    dim = cfg1.dimension

    def diff(p):
        p = np.atleast_2d(np.asarray(p, dtype=float))
        a = cfg2.short_range(p) if cfg2.short_range else np.zeros_like(p)
        b = cfg1.short_range(p) if cfg1.short_range else np.zeros_like(p)
        return a - b

    envs = [f.envelope for f in (cfg1.short_range, cfg2.short_range)
            if f is not None and f.envelope is not None]
    env = DecayEnvelope(C=sum(e.C for e in envs), eps0=min(e.eps0 for e in envs)) \
        if envs else None
    field_obj = ShortRangeField(dimension=dim, func=diff, envelope=env)
    rng = np.random.default_rng(1)
    r = rng.uniform(r_in, r_out, 64)
    th = rng.uniform(0, 2 * np.pi, 64)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)]) if dim == 2 \
        else _sphere_points(rng, r)
    scale = float(np.max(np.abs(field_obj(pts))))
    return field_obj, scale


def _gradient_residual(gs, field_obj, r_in: float, r_out: float, seed: int,
                       n_probe: int = 20, h: float = 1e-5) -> float:
    """Max |grad L - field| over probe points, by central differences."""
    rng = np.random.default_rng(seed + 1)
    r = rng.uniform(r_in, r_out, n_probe)
    th = rng.uniform(0, 2 * np.pi, n_probe)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    steps = np.array([1.0, -1.0])[:, None, None] * (h * np.eye(2))  # (sign, axis, coord)
    vals = gs.evaluate((pts[:, None, None, :] + steps).reshape(-1, 2)).reshape(n_probe, 2, 2)
    grad = (vals[:, 0] - vals[:, 1]) / (2 * h)
    return float(np.max(np.abs(grad - np.asarray(field_obj(pts)))))


# ===================================================================
# reconstruct
# ===================================================================

def run_reconstruct(scenario: Scenario) -> Report:
    """Forward-project a configuration and recover its pieces from the data:
    flux from oriented vector integrals, the scalar potential by exterior
    inversion, the magnetic field from the offset derivative of the vector
    transform (plane) or sphere-sampled leading orders (3-space)."""
    if scenario.kind != "reconstruct":
        raise ValueError("scenario kind must be 'reconstruct'")
    cfg = scenario.config1
    tol = scenario.tolerances
    rep = Report(kind="reconstruct", label=scenario.label)
    if cfg.dimension == 3:
        return _reconstruct_3d(scenario, rep)
    geo = scenario.geometry
    angles, offsets = parallel_geometry(int(geo["n_angles"]), int(geo["n_offsets"]),
                                        float(geo["r_min"]), float(geo["r_max"]))

    has_vector = cfg.transversal is not None or cfg.short_range is not None
    if has_vector:
        sino_a = forward_sinogram(cfg, angles, offsets, kind="vector")
        rep.artifacts["sinogram_vector"] = sino_a
        half = offsets.size // 2
        top = sino_a.values[:, -1]  # largest positive offset: orientation +1
        alpha_hat = float(np.mean(top)) / np.pi
        spread = float(np.ptp(top))
        truth = decompose_transversal(cfg.transversal).alpha if cfg.transversal else 0.0
        rep.add("flux_recovered_error", abs(alpha_hat - truth),
                None, "mean oriented vector integral / pi")
        rep.add("flux_line_spread", spread, None, "vector transform at fixed offset")
        rep.provenance["flux_recovered"] = alpha_hat
        recB = recover_field_2d(sino_a)
        rep.artifacts["reconstruction_b"] = recB

        def b_truth(p):
            return curl(cfg, np.atleast_2d(p), step_rel=1e-5)

        rr, tt = np.meshgrid(recB.radii, recB.thetas, indexing="ij")
        pts = np.column_stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])
        ref = np.asarray(b_truth(pts), dtype=float).reshape(rr.shape)
        scale_b = float(np.max(np.abs(ref)))
        if scale_b > 1e-9:
            w = recB.radii[:, None]
            rel = np.sqrt(np.sum(w * (recB.values - ref) ** 2) / np.sum(w * ref**2))
            rep.add("field_reconstruction_rel_l2", float(rel),
                    tol["recon_b_rel"], "recover_field_2d")
        else:
            rep.add("field_reconstruction_max", recB.max_abs(), None, "recover_field_2d")
    if cfg.scalar is not None:
        sino_v = forward_sinogram(cfg, angles, offsets, kind="scalar")
        rep.artifacts["sinogram_scalar"] = sino_v
        recV = radon_invert_scalar(sino_v)
        rep.artifacts["reconstruction_v"] = recV
        rel = recV.l2_relative_error(cfg.scalar)
        rep.add("scalar_reconstruction_rel_l2", float(rel),
                tol["recon_v_rel"], "radon_invert_scalar")
    if not has_vector and cfg.scalar is None:
        rep.add("all_zero", 0.0, None, "empty configuration")
    rep.verdict = "reconstructed"
    return rep


def _reconstruct_3d(scenario: Scenario, rep: Report) -> Report:
    cfg = scenario.config1
    geo = scenario.geometry
    r_lo = max(4.0, 3.0 * cfg.obstacle_radius)
    radii = np.geomspace(r_lo, 8 * r_lo, int(geo.get("n_radii", 6)))
    grid = sphere_grid(int(geo.get("sphere_refinement", 2)))

    def b_comps(p):
        return curl(cfg, np.atleast_2d(p), step_rel=1e-5)

    samples = sample_on_spheres(b_comps, radii, grid)
    leads, resid = extract_leading_order(radii, samples, grid,
                                         tol=scenario.tolerances.get("leading_tol", 1e-4),
                                         return_residual=True)
    rep.add("leading_order_residual", resid, None, "extract_leading_order")
    rep.artifacts["leading_order"] = leads
    rep.provenance["radii"] = list(map(float, radii))
    rep.verdict = "reconstructed"
    return rep


# ===================================================================
# kernel lab
# ===================================================================

def run_kernel_lab(scenario: Scenario) -> Report:
    """Kernel inspection without a verdict: synthesize the pair, record
    spectra, mutual distance, and the near-diagonal growth exponent."""
    if scenario.kind != "kernel-lab":
        raise ValueError("scenario kind must be 'kernel-lab'")
    from .scattering import kernel_distance, near_diagonal_growth
    rep = Report(kind="kernel-lab", label=scenario.label)
    S1, S2, kprov = synthesize_kernels(scenario)
    rep.provenance.update(kprov)
    rep.artifacts["kernel1"] = S1
    rep.artifacts["kernel2"] = S2
    rep.add("flux_1", S1.effective_flux(), None, "kernel synthesis")
    rep.add("flux_2", S2.effective_flux(), None, "kernel synthesis")
    rep.add("kernel_distance", kernel_distance(S1, S2), None, "kernel_distance")
    expo, C = near_diagonal_growth(S1)
    rep.add("growth_exponent", expo, None, "near_diagonal_growth")
    rep.provenance["growth_constant"] = C
    rep.verdict = "inspected"
    return rep


def run_scenario(scenario: Scenario) -> Report:
    runner = {"classify": run_classify, "reconstruct": run_reconstruct,
              "kernel-lab": run_kernel_lab}[scenario.kind]
    return runner(scenario)


# ===================================================================
# emission
# ===================================================================

def emit_report(report: Report, out_dir) -> list:
    """Write the JSON report plus CSV tables for every tabular artifact.
    Returns the list of written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    p = out / "report.json"
    p.write_text(report.to_json())
    written.append(p)
    for name, obj in report.artifacts.items():
        if isinstance(obj, ScatteringKernel):
            q = out / f"{name}_slice.csv"
            kernel_slice_csv(obj, q)
            written.append(q)
        elif isinstance(obj, Sinogram):
            q = out / f"{name}.csv"
            obj.to_csv(q)
            written.append(q)
        elif isinstance(obj, PolarGridField):
            q = out / f"{name}.csv"
            obj.to_csv(q)
            written.append(q)
        elif name == "gauge_scalar":
            q = out / "gauge_scalar.csv"
            _gauge_scalar_to_csv(obj, q)
            written.append(q)
        elif name == "leading_order":
            q = out / "leading_order.csv"
            _leading_to_csv(obj, q)
            written.append(q)
    return written


def _gauge_scalar_to_csv(gs, path) -> None:
    radii = np.linspace(gs.far_radius / 8.0, gs.far_radius / 2.0, 24)
    thetas = np.arange(48) * 2 * np.pi / 48
    rr, tt = (a.ravel() for a in np.meshgrid(radii, thetas, indexing="ij"))
    vals = gs.evaluate(np.column_stack([rr * np.cos(tt), rr * np.sin(tt)]))
    np.savetxt(path, np.column_stack([rr, tt, vals]), delimiter=",", header="r,theta,L",
               comments="")


def _leading_to_csv(leads, path) -> None:
    if not isinstance(leads, list):
        leads = [leads]
    grid = leads[0].grid
    cols = [grid.vertices[:, i] for i in range(3)]
    cols += [lead.values for lead in leads]
    header = "wx,wy,wz," + ",".join(f"b{k}" for k in range(len(leads)))
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=header, comments="")


def kernel_slice_csv(kernel: ScatteringKernel, path, stride: int = 8) -> None:
    """One off-diagonal band of kernel values, for plotting."""
    M = kernel.n_grid
    cols = (np.arange(M) - stride) % M
    vals = kernel.value_grid()[np.arange(M), cols]
    body = np.column_stack([kernel.thetas, vals.real, vals.imag])
    np.savetxt(path, body, delimiter=",", header="theta,re,im", comments="")
