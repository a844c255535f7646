"""End-to-end scenarios: classification of configuration pairs from their
kernels, single-configuration tomographic recovery, and report emission.

Kernel provenance: there is no forward solver from a general (A, V) to a
scattering kernel. Classify and kernel-lab scenarios synthesize plane kernels
from the analytic flux family: kernel 1 from the decomposition of config 1,
kernel 2 either by the gauge action on kernel 1 (when the scenario declares
the relating gauge) or independently from config 2's decomposition. The
report records which route produced each kernel. Configurations in 3-space
are rejected with DimensionMismatch before any stage runs.

Reports are deterministic: fixed scenario seeds, no timestamps, and every
numeric entry carries the tolerance it was checked against and the operation
that produced it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from ._csvio import write_csv, write_grid_csv
from .angular import AngularFunction, sphere_grid
from .catalog import _read_number, _section, config_from_dict, config_to_dict
from .errors import DimensionMismatch, NonConvergent, NotCurlFree, ResidualFlux
from .fields import (
    GaugeElement,
    PotentialConfig,
    ShortRangeField,
    apply_gauge_to_potential,
    central_partials,
    curl,
    decompose_transversal,
    extract_leading_order,
    sample_on_spheres,
)
from .scattering import (
    ScatteringKernel,
    _circulant,
    apply_gauge_to_kernel,
    assemble_kernel,
    flux_step,
    gauge_equivalence_solver,
)
from .tomography import (
    Line,
    PolarGridField,
    Sinogram,
    annulus_points,
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
    "leading_tol": 1e-4,
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
        self.tolerances = {key: _read_number(self.tolerances, key, default, "tolerances")
                           for key, default in DEFAULT_TOLERANCES.items()}
        self.seed = _read_number(vars(self), "seed", None, "scenario", integer=True, at_least=0)
        if not isinstance(self.output_dir, (str, type(None))):
            raise ValueError(f"scenario 'output_dir' must be a path, got {self.output_dir!r}")

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("scenario must be a JSON object")
        if data.get("schema_version") != 1:
            raise ValueError("unsupported scenario schema version")
        cfg1 = config_from_dict(data["config1"])
        cfg2 = config_from_dict(data["config2"]) if data.get("config2") else None
        options = {k: data[k] for k in ("geometry", "tolerances", "kernels", "seed", "label",
                                        "obstacle_convex", "output_dir") if k in data}
        return cls(kind=data["kind"], config1=cfg1, config2=cfg2, **options)

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
            "config1": config_to_dict(self.config1),
            "config2": config_to_dict(self.config2) if self.config2 else None,
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


def _read_entry(e, where: str) -> ReportEntry:
    """The ReportEntry a JSON object holds, with a finite value, a finite
    tolerance or null, and passed true, false or null; else a ValueError."""
    try:
        entry = ReportEntry(**e)
    except TypeError:
        raise ValueError(f"{where} must be an object with name, value, tolerance and "
                         f"operation, got {e!r}") from None
    entry.value = _read_number(e, "value", None, where)
    if entry.tolerance is not None:
        entry.tolerance = _read_number(e, "tolerance", None, where)
    if not isinstance(entry.passed, (bool, type(None))):
        raise ValueError(f"{where} 'passed' must be true, false or null, got {entry.passed!r}")
    return entry


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
            operation: str) -> ReportEntry:
        if not np.isfinite(value):  # say, a reconstruction that overflowed
            raise NonConvergent(f"report entry {name!r} is not finite, got {value!r}")
        passed = None if tolerance is None else bool(abs(value) <= tolerance)
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
        if not isinstance(data, dict):
            raise ValueError("report must be a JSON object")
        if data.get("gauge") is not None:  # an object whose phi_max summary_lines prints
            _read_number(data["gauge"], "phi_max", None, "report 'gauge'")
        kind, entries = data.get("kind"), data.get("entries", [])
        if not isinstance(kind, str):
            raise ValueError(f"report 'kind' must be a string, got {kind!r}")
        if not isinstance(entries, list):
            raise ValueError(f"report 'entries' must be a list of objects, got {entries!r}")
        rep = cls(kind=kind, label=data.get("label", ""),
                  verdict=data.get("verdict"), gauge=data.get("gauge"),
                  witness=data.get("witness"), provenance=data.get("provenance", {}))
        rep.entries = [_read_entry(e, f"report entry {i}") for i, e in enumerate(entries)]
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

def _remainder_grid(spec: dict | None, n_grid: int) -> np.ndarray | None:
    """The remainder grid a kernel spec declares on the uniform n_grid angle
    grid, sampled in its structure: separable_trig,
    a cos(p theta) sin(q theta'), as the outer product of its two factors on
    the grid angles; diagonal_gaussian, a function of the offset
    theta - theta' alone, at the n_grid offsets 2 pi k / n_grid, read over
    every cell through a circulant view. ValueError names a refused key."""
    if not spec or spec.get("kind", "none") == "none":
        return None
    kind = spec["kind"]
    thetas = np.arange(n_grid) * 2 * np.pi / n_grid
    if kind == "separable_trig":
        a = _read_number(spec, "amplitude", 0.1, "remainder")
        p = _read_number(spec, "p", 1, "remainder", integer=True)
        q = _read_number(spec, "q", 2, "remainder", integer=True)
        return np.outer(a * np.cos(p * thetas), np.sin(q * thetas))
    if kind == "diagonal_gaussian":
        a = _read_number(spec, "amplitude", 0.1, "remainder")
        w = _read_number(spec, "width", 0.5, "remainder", above=0)
        if not 0 < w * w < np.inf:  # w**2 below would overflow, or give 0 and a nan diagonal
            raise ValueError(f"remainder 'width' must have a float square, got {w!r}")
        u = np.mod(thetas + np.pi, 2 * np.pi) - np.pi
        return np.ascontiguousarray(_circulant(a * np.exp(-u**2 / (2 * w**2))))
    raise ValueError(f"unknown remainder kind {kind!r}")


def _gauge_from_spec(spec: dict | None) -> GaugeElement | None:
    if spec is None:
        return None
    m = _read_number(spec, "m", 0, "relating_gauge", integer=True)
    phi = AngularFunction.from_triples(spec["phi"]) if spec.get("phi") else None
    return GaugeElement(dimension=2, m=m, phi=phi)


def synthesize_kernels(scenario: Scenario):
    """Kernels for a classify scenario, with provenance strings.

    Kernel 1 always comes from config 1's decomposition (flux family plus
    the gradient-part phases). Kernel 2 comes from the gauge action when the
    scenario declares the relating gauge; otherwise it is synthesized from
    config 2's decomposition. Either way it shares kernel 1's remainder grid
    and certified bound, so the grid is sampled and scanned once.
    A synthesized kernel holds the integer step of its flux as the winding,
    so the remainder carries the winding factor as under the gauge action.
    Raises DimensionMismatch for configurations in 3-space, and ValueError
    naming kernels 'n_grid' unless it is an integer of at least 16.
    """
    if scenario.config1.dimension != 2:
        raise DimensionMismatch("classify and kernel-lab compare plane kernels")
    ks = scenario.kernels
    n_grid = _read_number(ks, "n_grid", 512, "kernels", integer=True, at_least=16)
    lam = _read_number(ks, "lam", 1.0, "kernels")
    dec1 = decompose_transversal(scenario.config1.transversal) \
        if scenario.config1.transversal is not None else None
    a1 = dec1.alpha if dec1 else 0.0
    p1 = dec1.a0 if dec1 else AngularFunction.zero()
    w1 = flux_step(a1)
    S1 = assemble_kernel(a1 - w1, a0_in=p1, a0_out=p1,
                         smooth=_remainder_grid(_section(ks, "remainder", "kernels"), n_grid),
                         lam=lam, n_grid=n_grid, winding=w1)

    def flux_kernel(alpha, a0):  # kernel 1's remainder and certified bound
        w = flux_step(alpha)
        return S1._rephased(alpha - w, w, a0, a0)

    prov = {"kernel1": "synthesized from config1 flux decomposition"}
    g_rel = _gauge_from_spec(ks.get("relating_gauge"))
    if g_rel is not None:
        S2 = apply_gauge_to_kernel(S1, g_rel)
        prov["kernel2"] = "gauge action on kernel1 (declared relating gauge)"
    elif scenario.config2 is not None and scenario.config2.transversal is not None:
        dec2 = decompose_transversal(scenario.config2.transversal)
        S2 = flux_kernel(dec2.alpha, dec2.a0)
        prov["kernel2"] = "synthesized from config2 flux decomposition"
    else:
        S2 = flux_kernel(a1, p1)
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
    # a bound when the certificate decided, else the exact distance
    rep.add("solver_verify_distance", res.provenance.get("verify_distance", 0.0),
            tol["verify_tol"], f"gauge_equivalence_solver, {res.provenance['verified_by']}")

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
    r_out = _read_number(geo, "r_max", 3.5, "geometry")
    scale_v = 1.0
    if cfg1.scalar is not None or cfg2.scalar is not None:
        pts = annulus_points(rng, r_in, r_out, 200)
        v1 = cfg1.scalar(pts) if cfg1.scalar else np.zeros(len(pts))
        v2 = cfg2.scalar(pts) if cfg2.scalar else np.zeros(len(pts))
        scale_v = max(float(np.max(np.abs(v1))), float(np.max(np.abs(v2))), 1e-12)
        rep.add("scalar_pointwise_difference", float(np.max(np.abs(v2 - v1))) / scale_v,
                tol["scalar_tol"] / min(1.0, scale_v), "pointwise probe")
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
                           "max_line_integral_mismatch": worst * scale_v,
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


def _short_range_difference(cfg1: PotentialConfig, cfg2: PotentialConfig,
                            r_in: float, r_out: float):
    """Difference of short-range vector parts as a field, plus its probe scale."""
    if cfg1.short_range is None and cfg2.short_range is None:
        return None, 0.0

    def diff(p):
        p = np.atleast_2d(np.asarray(p, dtype=float))
        a = cfg2.short_range(p) if cfg2.short_range else np.zeros_like(p)
        b = cfg1.short_range(p) if cfg1.short_range else np.zeros_like(p)
        return a - b

    envs = [f.envelope for f in (cfg1.short_range, cfg2.short_range)
            if f is not None and f.envelope is not None]
    env = sum(envs[1:], envs[0]) if envs else None
    field_obj = ShortRangeField(dimension=2, func=diff, envelope=env)
    pts = annulus_points(np.random.default_rng(1), r_in, r_out, 64)
    scale = float(np.max(np.abs(field_obj(pts))))
    return field_obj, scale


def _gradient_residual(gs, field_obj, r_in: float, r_out: float, seed: int) -> float:
    """Max |grad L - field| over 20 probe points, by central differences."""
    pts = annulus_points(np.random.default_rng(seed + 1), r_in, r_out, 20)
    grad = central_partials(gs.evaluate, pts, 1e-5)
    return float(np.max(np.abs(grad - np.asarray(field_obj(pts)))))


# ===================================================================
# reconstruct
# ===================================================================

def run_reconstruct(scenario: Scenario) -> Report:
    """Forward-project a configuration and recover its pieces from the data:
    flux from the vector integrals at the outermost offsets +-T of both banks,
    the scalar potential by exterior inversion, the magnetic field from the
    offset derivative of the vector transform (plane, against the curl of
    the short-range part) or sphere-sampled leading orders (3-space)."""
    if scenario.kind != "reconstruct":
        raise ValueError("scenario kind must be 'reconstruct'")
    cfg = scenario.config1
    tol = scenario.tolerances
    rep = Report(kind="reconstruct", label=scenario.label)
    if cfg.dimension == 3:
        return _reconstruct_3d(scenario, rep)
    geo = scenario.geometry
    angles, offsets = parallel_geometry(
        *(_read_number(geo, key, None, "geometry", integer=key.startswith("n_"))
          for key in ("n_angles", "n_offsets", "r_min", "r_max")))

    has_vector = cfg.transversal is not None or cfg.short_range is not None
    if has_vector:
        sino_a = forward_sinogram(cfg, angles, offsets, kind="vector")
        rep.artifacts["sinogram_vector"] = sino_a
        # the lines at offsets T and -T share a direction and have opposite
        # orientations: the vortex part gives 2 pi alpha, the gradient part cancels
        banks = sino_a.values[:, -1] - sino_a.values[:, 0]
        alpha_hat = float(np.mean(banks)) / (2 * np.pi)
        spread = float(np.ptp(banks))
        truth = decompose_transversal(cfg.transversal).alpha if cfg.transversal else 0.0
        rep.add("flux_recovered_error", abs(alpha_hat - truth),
                None, "mean of p(phi, T) - p(phi, -T) / 2 pi")
        rep.add("flux_line_spread", spread, None, "p(phi, T) - p(phi, -T) over angles")
        rep.provenance["flux_recovered"] = alpha_hat
        recB = recover_field_2d(sino_a)
        rep.artifacts["reconstruction_b"] = recB
        # a plane transversal field a(theta)/r theta^ is curl-free off the origin
        ref = (np.zeros(recB.values.shape) if cfg.short_range is None
               else recB.sample(lambda p: curl(cfg.short_range, p)))
        if float(np.max(np.abs(ref))) > 1e-9:
            rep.add("field_reconstruction_rel_l2", recB.l2_relative_error(ref),
                    tol["recon_b_rel"], "recover_field_2d")
        else:  # no field to be relative to: measure against the data scale
            rep.add("field_reconstruction_max", recB.max_abs(),
                    tol["recon_b_rel"] * float(np.max(np.abs(sino_a.values))),
                    "recover_field_2d")
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
    radii = np.geomspace(r_lo, 8 * r_lo, _read_number(geo, "n_radii", 6, "geometry", integer=True))
    grid = sphere_grid(_read_number(geo, "sphere_refinement", 2, "geometry", integer=True))

    samples = sample_on_spheres(lambda p: curl(cfg, p), radii, grid)
    leads, resid = extract_leading_order(
        radii, samples, grid, tol=scenario.tolerances["leading_tol"], return_residual=True)
    rep.add("leading_order_residual", resid, None, "extract_leading_order")
    rep.artifacts["leading_order"] = leads
    rep.provenance["radii"] = list(map(float, radii))
    rep.provenance["field_source"] = "configuration, circulation curl"  # no line data
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
        elif isinstance(obj, (Sinogram, PolarGridField)):
            q = out / f"{name}.csv"
            obj.to_csv(q)
        elif name in ("gauge_scalar", "leading_order"):
            q = out / f"{name}.csv"
            (_gauge_scalar_to_csv if name == "gauge_scalar" else _leading_to_csv)(obj, q)
        else:
            continue
        written.append(q)
    return written


def _gauge_scalar_to_csv(gs, path) -> None:
    radii = np.linspace(gs.far_radius / 8.0, gs.far_radius / 2.0, 24)
    thetas = np.arange(48) * 2 * np.pi / 48
    write_grid_csv(path, "r,theta,L", radii, thetas, gs.on_polar_grid(radii, thetas))


def _leading_to_csv(leads, path) -> None:
    grid = leads[0].grid
    header = "wx,wy,wz," + ",".join(f"b{k}" for k in range(len(leads)))
    write_csv(path, header, [grid.vertices] + [lead.values for lead in leads])


def kernel_slice_csv(kernel: ScatteringKernel, path) -> None:
    """The off-diagonal band theta' = theta - 8 cells of kernel values, for
    plotting."""
    vals = kernel.band(8)
    write_csv(path, "theta,re,im", [kernel.thetas, vals.real, vals.imag])
