"""Scenario runners: classification, reconstruction, report emission, CLI."""
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from oracles import CountingField, count_remainder_scans

from gaugekit import _csvio, catalog, cli, pipeline
from gaugekit.angular import AngularFunction
from gaugekit.errors import DimensionMismatch, GaugekitError
from gaugekit.fields import (
    DecayEnvelope,
    GaugeElement,
    PotentialConfig,
    ShortRangeField,
    TransversalField,
    apply_gauge_to_potential,
)
from gaugekit.pipeline import (
    DEFAULT_TOLERANCES,
    Report,
    ReportEntry,
    Scenario,
    emit_report,
    kernel_slice_csv,
    run_classify,
    run_kernel_lab,
    run_reconstruct,
    run_scenario,
    synthesize_kernels,
)
from gaugekit.scattering import assemble_kernel, sample_remainder
from gaugekit.tomography import PolarGridField, polar_points

SMALL_GEO = {"n_angles": 40, "n_offsets": 64, "r_min": 1.001, "r_max": 3.5}
MID_GEO = {"n_angles": 90, "n_offsets": 128, "r_min": 1.001, "r_max": 3.5}
FAST_KERNELS = {"n_grid": 256, "lam": 1.0}


def _profile(alpha, extra=None):
    coeffs = {0: complex(alpha)}
    if extra:
        coeffs.update(extra)
    return AngularFunction.from_coefficients(coeffs)


def _plane_config(alpha=None, extra=None, scalar=None, short=None, label=""):
    tv = None
    if alpha is not None:
        tv = TransversalField.from_profile(_profile(alpha, extra))
    return PotentialConfig(dimension=2, obstacle_radius=1.0, transversal=tv,
                           short_range=short, scalar=scalar, label=label)


def _space_config(transversal=True):
    tv = catalog.cross_axis_transversal(c=0.4) if transversal else None
    short = catalog.build_vector("grad_bumps", {"bumps": [[0.3, 1.3, 0.0, 0.0, 0.5]]},
                                 dimension=3)
    return PotentialConfig(dimension=3, obstacle_radius=1.0, transversal=tv,
                           short_range=short)


def _gauge_pair_scenario(m=1, label="gauge-pair"):
    phi = AngularFunction.from_coefficients({2: 0.05})  # 0.1 cos(2 theta)
    g = GaugeElement(dimension=2, m=m, phi=phi)
    cfg1 = _plane_config(0.3, {1: 0.025})
    cfg2 = apply_gauge_to_potential(cfg1, g)
    kernels = dict(FAST_KERNELS)
    kernels["relating_gauge"] = {"m": m, "phi": phi.to_triples()}
    return Scenario(kind="classify", config1=cfg1, config2=cfg2,
                    kernels=kernels, label=label), g


class TestScenario:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Scenario(kind="frobnicate", config1=_plane_config(0.3))

    def test_dimension_mismatch_rejected(self):
        cfg3 = PotentialConfig(dimension=3, obstacle_radius=1.0)
        with pytest.raises(ValueError):
            Scenario(kind="classify", config1=_plane_config(0.3), config2=cfg3)

    def test_obstacle_mismatch_rejected(self):
        cfg_b = PotentialConfig(dimension=2, obstacle_radius=2.0)
        with pytest.raises(ValueError):
            Scenario(kind="classify", config1=_plane_config(0.3), config2=cfg_b)

    def test_tolerances_merge_with_defaults(self):
        sc = Scenario(kind="reconstruct", config1=_plane_config(0.3),
                      tolerances={"phase_tol": 1e-4})
        assert sc.tolerances["phase_tol"] == 1e-4
        assert sc.tolerances["curl_tol"] == DEFAULT_TOLERANCES["curl_tol"]

    def test_json_round_trip(self):
        scalar = catalog.build_scalar("gaussian_ring",
                                      {"amplitude": 1.0, "r0": 2.0, "sigma": 0.4},
                                      dimension=2)
        sc = Scenario(kind="reconstruct", config1=_plane_config(0.5, scalar=scalar),
                      geometry=dict(SMALL_GEO), seed=7, label="round-trip")
        back = Scenario.from_json(sc.to_json())
        assert back.to_json() == sc.to_json()
        assert back.seed == 7
        assert back.kind == "reconstruct"

    def test_minimal_json_takes_the_dataclass_defaults(self):
        cfg = _plane_config(0.3)
        text = json.dumps({"schema_version": 1, "kind": "reconstruct",
                           "config1": catalog.config_to_dict(cfg)})
        sc = Scenario.from_json(text)
        assert sc.to_json() == Scenario(kind="reconstruct", config1=cfg).to_json()
        assert (sc.geometry, sc.kernels, sc.seed, sc.obstacle_convex) == (
            {"n_angles": 180, "n_offsets": 256, "r_min": 1.001, "r_max": 3.5},
            {"n_grid": 512, "lam": 1.0}, 11, True)

    def test_schema_version_guard(self):
        with pytest.raises(ValueError):
            Scenario.from_json(json.dumps({"schema_version": 2, "kind": "classify"}))


class TestSynthesizeKernels:
    def test_declared_gauge_route(self):
        sc, _ = _gauge_pair_scenario(m=1)
        S1, S2, prov = synthesize_kernels(sc)
        assert prov["kernel2"].startswith("gauge action")
        assert S2.winding - S1.winding == 1
        assert S2.alpha == S1.alpha

    def test_independent_route(self):
        sc = Scenario(kind="classify", config1=_plane_config(0.3),
                      config2=_plane_config(0.55), kernels=dict(FAST_KERNELS))
        S1, S2, prov = synthesize_kernels(sc)
        assert "config2" in prov["kernel2"]
        assert S1.effective_flux() == pytest.approx(0.3)
        assert S2.effective_flux() == pytest.approx(0.55)

    def test_no_transversal_difference_route(self):
        sc = Scenario(kind="classify", config1=_plane_config(0.4),
                      kernels=dict(FAST_KERNELS))
        S1, S2, prov = synthesize_kernels(sc)
        assert "no transversal difference" in prov["kernel2"]
        assert np.array_equal(S1.remainder, S2.remainder)

    def test_remainder_kinds(self):
        for spec in ({"kind": "separable_trig", "amplitude": 0.05},
                     {"kind": "diagonal_gaussian", "amplitude": 0.05, "width": 0.5}):
            sc = Scenario(kind="kernel-lab", config1=_plane_config(0.3),
                          kernels={"n_grid": 64, "lam": 1.0, "remainder": spec})
            S1, _, _ = synthesize_kernels(sc)
            assert np.max(np.abs(S1.remainder)) > 0

    @pytest.mark.parametrize("M", [64, 256, 1024])
    def test_structural_samplers_match_the_meshgrid(self, M):
        def trig_cells(t, tp):
            return 0.043 * np.cos(2 * t) * np.sin(3 * tp)

        def gaussian_cells(t, tp):
            u = np.mod(t - tp + np.pi, 2 * np.pi) - np.pi
            return 0.041 * np.exp(-u**2 / (2 * 0.55**2))

        trig = {"kind": "separable_trig", "amplitude": 0.043, "p": 2, "q": 3}
        gaussian = {"kind": "diagonal_gaussian", "amplitude": 0.041, "width": 0.55}
        np.testing.assert_array_equal(pipeline._remainder_grid(trig, M),
                                      sample_remainder(trig_cells, M))
        gap = pipeline._remainder_grid(gaussian, M) - sample_remainder(gaussian_cells, M)
        assert np.max(np.abs(gap)) <= 1e-15

    @pytest.mark.parametrize("remainder", [
        None, {"kind": "separable_trig", "amplitude": 0.05},
        {"kind": "diagonal_gaussian", "amplitude": 0.05, "width": 0.5}],
        ids=["none", "separable_trig", "diagonal_gaussian"])
    @pytest.mark.parametrize("route", ["declared", "config2", "config1"])
    def test_one_scan_per_synthesis(self, monkeypatch, route, remainder):
        scans = count_remainder_scans(monkeypatch)
        sc, _ = _gauge_pair_scenario(m=1)
        config2 = {"declared": sc.config2, "config2": _plane_config(0.55),
                   "config1": None}[route]
        kernels = {**FAST_KERNELS, "remainder": remainder}
        if route == "declared":
            kernels["relating_gauge"] = sc.kernels["relating_gauge"]
        S1, S2, _ = synthesize_kernels(dataclasses.replace(sc, config2=config2,
                                                           kernels=kernels))
        assert len(scans) == (0 if remainder is None else 1)
        assert S2.remainder is S1.remainder and S2.bound_C == S1.bound_C

    def test_unknown_remainder_rejected(self):
        sc = Scenario(kind="kernel-lab", config1=_plane_config(0.3),
                      kernels={"n_grid": 64, "lam": 1.0,
                               "remainder": {"kind": "nope"}})
        with pytest.raises(ValueError):
            synthesize_kernels(sc)

    @pytest.mark.parametrize("kind, key, value", [
        ("separable_trig", "amplitude", float("nan")),
        ("diagonal_gaussian", "amplitude", float("inf")),
        ("diagonal_gaussian", "amplitude", None),
        ("separable_trig", "amplitude", 10**400),
        ("diagonal_gaussian", "width", 0.0),
        ("diagonal_gaussian", "width", -0.5),
        ("diagonal_gaussian", "width", float("nan")),
        ("diagonal_gaussian", "width", "0.5"),
        ("separable_trig", "p", 1.5),
        ("separable_trig", "q", "2"),
        ("separable_trig", "p", True),
    ])
    def test_bad_remainder_spec_names_the_key(self, kind, key, value):
        # unchecked, a width of 0 gives a nan growth exponent under the verdict
        # inspected
        sc = Scenario(kind="kernel-lab", config1=_plane_config(0.3),
                      kernels={"n_grid": 64, "lam": 1.0, "remainder": {"kind": kind, key: value}})
        with pytest.raises(ValueError, match=f"^remainder '{key}' must be "):
            run_kernel_lab(sc)

    @pytest.mark.parametrize("n_grid", [None, 2.5, 512.0, True, "512", 15, -64])
    def test_n_grid_must_be_an_integer_of_at_least_16(self, n_grid):
        sc = Scenario(kind="kernel-lab", config1=_plane_config(0.3),
                      kernels={"n_grid": n_grid, "lam": 1.0})
        with pytest.raises(ValueError, match="^kernels 'n_grid' must be "):
            synthesize_kernels(sc)
        assert synthesize_kernels(dataclasses.replace(
            sc, kernels={"n_grid": 16, "lam": 1.0}))[0].n_grid == 16


class TestClassify:
    def test_gauge_pair_equivalent(self):
        sc, g = _gauge_pair_scenario(m=1)
        rep = run_classify(sc)
        assert rep.verdict == "equivalent"
        assert rep.gauge["m"] == 1
        assert rep.all_passed()
        fitted = AngularFunction.from_triples(rep.gauge["phi"])
        assert fitted.distance(g.phi) < 1e-6

    def test_swap_symmetry_inverts_gauge(self):
        phi = AngularFunction.from_coefficients({2: 0.05})
        g = GaugeElement(dimension=2, m=2, phi=phi)
        cfg1 = _plane_config(0.3, {1: 0.025})
        cfg2 = apply_gauge_to_potential(cfg1, g)
        fwd = Scenario(kind="classify", config1=cfg1, config2=cfg2,
                       kernels={**FAST_KERNELS,
                                "relating_gauge": {"m": 2, "phi": phi.to_triples()}})
        ginv = g.inverse()
        bwd = Scenario(kind="classify", config1=cfg2, config2=cfg1,
                       kernels={**FAST_KERNELS,
                                "relating_gauge": {"m": -2,
                                                   "phi": ginv.phi.to_triples()}})
        rf, rb = run_classify(fwd), run_classify(bwd)
        assert rf.verdict == "equivalent" and rb.verdict == "equivalent"
        assert rf.gauge["m"] == 2 and rb.gauge["m"] == -2
        pf = AngularFunction.from_triples(rf.gauge["phi"])
        pb = AngularFunction.from_triples(rb.gauge["phi"])
        assert pf.distance(-pb) < 1e-6

    @pytest.mark.parametrize("m", [-2, -1, 1, 2])
    @pytest.mark.parametrize("remainder", [
        {"kind": "separable_trig", "amplitude": 0.05},
        {"kind": "diagonal_gaussian", "amplitude": 0.05, "width": 0.5}],
        ids=["separable_trig", "diagonal_gaussian"])
    def test_undeclared_winding_with_remainder_equivalent(self, m, remainder):
        phi = AngularFunction.from_coefficients({2: 0.05})
        cfg1 = _plane_config(0.3, {1: 0.025})
        cfg2 = apply_gauge_to_potential(cfg1, GaugeElement(dimension=2, m=m, phi=phi))
        sc = Scenario(kind="classify", config1=cfg1, config2=cfg2,
                      kernels={**FAST_KERNELS, "remainder": remainder})
        rep = run_classify(sc)
        assert rep.verdict == "equivalent", rep.witness
        assert rep.gauge["m"] == m
        assert AngularFunction.from_triples(rep.gauge["phi"]).distance(phi) < 1e-6

    def test_identical_configs_equivalent_identity(self):
        cfg = _plane_config(0.5, {1: 0.02})
        sc = Scenario(kind="classify", config1=cfg, config2=cfg,
                      kernels=dict(FAST_KERNELS))
        rep = run_classify(sc)
        assert rep.verdict == "equivalent"
        assert rep.gauge["m"] == 0
        assert rep.gauge["phi_max"] < 1e-6

    def test_scalar_gauge_part_recovered(self):
        L = catalog.build_scalar("gaussian_bumps",
                                 {"bumps": [[0.4, 1.8, 0.6, 0.9]]}, dimension=2)
        g = GaugeElement(dimension=2, scalar=L)
        cfg1 = _plane_config(0.5)
        cfg2 = apply_gauge_to_potential(cfg1, g)
        sc = Scenario(kind="classify", config1=cfg1, config2=cfg2,
                      kernels=dict(FAST_KERNELS), label="scalar-part")
        rep = run_classify(sc)
        assert rep.verdict == "equivalent"
        assert rep.gauge["has_scalar"]
        assert "gauge_scalar" in rep.artifacts
        entry = {e.name: e for e in rep.entries}["short_range_gradient_residual"]
        assert entry.passed

    def test_scalar_potential_mismatch_witnessed(self):
        v1 = catalog.build_scalar("gaussian_bumps",
                                  {"bumps": [[0.5, 1.5, 0.8, 0.6]]}, dimension=2)
        cfg1 = _plane_config(0.3, scalar=v1)
        cfg2 = _plane_config(0.3)
        sc = Scenario(kind="classify", config1=cfg1, config2=cfg2,
                      kernels=dict(FAST_KERNELS))
        rep = run_classify(sc)
        assert rep.verdict == "not_equivalent"
        assert rep.witness["stage"] == "scalar_compare"
        assert rep.witness["kind"] == "scalar_transform"
        assert rep.witness["max_line_integral_mismatch"] > 0

    def test_fractional_flux_difference_witnessed(self):
        sc = Scenario(kind="classify", config1=_plane_config(0.3),
                      config2=_plane_config(0.55), kernels=dict(FAST_KERNELS))
        rep = run_classify(sc)
        assert rep.verdict == "not_equivalent"
        assert rep.witness["stage"] == "kernel_solver"
        assert rep.witness["kind"] == "channel_spectrum"

    def test_gradient_profile_difference_witnessed(self):
        # the declared identity gauge relates the kernels, so the solver
        # passes; the configurations' gradient profiles still differ
        sc = Scenario(kind="classify", config1=_plane_config(0.3, {1: 0.025}),
                      config2=_plane_config(0.3, {1: 0.1}),
                      kernels={**FAST_KERNELS, "relating_gauge": {"m": 0}})
        rep = run_classify(sc)
        assert rep.verdict == "not_equivalent"
        assert rep.witness["stage"] == "transversal_compare"
        assert rep.witness["flux_difference"] < 1e-12
        assert rep.witness["profile_difference"] == pytest.approx(0.15, rel=1e-6)

    def test_short_range_swirl_witnessed(self):
        def swirl(p):
            r2 = np.sum(p**2, axis=1)
            return np.column_stack([-p[:, 1], p[:, 0]]) * np.exp(-r2 / 8.0)[:, None]

        short = ShortRangeField(dimension=2, func=swirl, envelope=DecayEnvelope(C=10.0, eps0=1.0))
        sc = Scenario(kind="classify", config1=_plane_config(0.3),
                      config2=_plane_config(0.3, short=short), kernels=dict(FAST_KERNELS))
        rep = run_classify(sc)
        assert rep.verdict == "not_equivalent"
        assert rep.witness["stage"] == "short_range_gradient"
        assert rep.witness["kind"] == "NotCurlFree"
        assert "max |curl| 1.467e+00" in rep.witness["detail"]

    def test_short_range_circulation_witnessed(self):
        # curl-free on the probed annulus (the ring bump of its curl sits at
        # r = 5, beyond r_max = 3.5), but inside the ring it is a vortex
        # whose loop integral is minus the ring's whole curl
        short = catalog.build_vector("ring_bump_tangential",
                                     {"b0": 0.05, "r0": 5.0, "sigma": 0.25})
        sc = Scenario(kind="classify", config1=_plane_config(0.3),
                      config2=_plane_config(0.3, short=short), kernels=dict(FAST_KERNELS))
        rep = run_classify(sc)
        assert rep.verdict == "not_equivalent"
        assert rep.witness["stage"] == "short_range_gradient"
        assert rep.witness["kind"] == "ResidualFlux"
        assert "loop integral -" in rep.witness["detail"]

    def test_short_range_gradient_residual_witnessed(self):
        # the swirl of test_short_range_swirl_witnessed at amplitude 1e-8:
        # its curl (1.5e-8) and loop integral (1.7e-7) pass their absolute
        # tolerances, but no gauge scalar's gradient matches it, relative to
        # its own scale
        def swirl(p):
            r2 = np.sum(p**2, axis=1)
            return 1e-8 * np.column_stack([-p[:, 1], p[:, 0]]) * np.exp(-r2 / 8.0)[:, None]

        short = ShortRangeField(dimension=2, func=swirl,
                                envelope=DecayEnvelope(C=1e-7, eps0=1.0))
        sc = Scenario(kind="classify", config1=_plane_config(0.3),
                      config2=_plane_config(0.3, short=short), kernels=dict(FAST_KERNELS))
        rep = run_classify(sc)
        assert rep.verdict == "not_equivalent"
        assert rep.witness["stage"] == "short_range_gradient"
        assert rep.witness["kind"] == "residual"
        entry = rep.entries[-1]
        assert entry.name == "short_range_gradient_residual" and not entry.passed
        assert entry.value > 0.5

    def test_integer_flux_ambiguous(self):
        sc = Scenario(kind="classify", config1=_plane_config(1.0),
                      config2=_plane_config(1.0), kernels=dict(FAST_KERNELS))
        rep = run_classify(sc)
        assert rep.verdict == "ambiguous"
        assert rep.witness["stage"] == "kernel_solver"

    def test_non_convex_obstacle_noted(self):
        sc, _ = _gauge_pair_scenario()
        sc.obstacle_convex = False
        rep = run_classify(sc)
        assert "outside proven regime" in rep.provenance["regime"]

    def test_report_is_deterministic(self):
        first = run_classify(_gauge_pair_scenario()[0]).to_json()
        second = run_classify(_gauge_pair_scenario()[0]).to_json()
        assert first == second

    def test_requires_two_configs(self):
        sc = Scenario(kind="classify", config1=_plane_config(0.3),
                      kernels=dict(FAST_KERNELS))
        with pytest.raises(ValueError):
            run_classify(sc)


class TestReconstruct:
    def test_pure_flux_plane(self):
        sc = Scenario(kind="reconstruct", config1=_plane_config(0.7),
                      geometry=dict(SMALL_GEO), label="pure-flux")
        rep = run_reconstruct(sc)
        assert rep.verdict == "reconstructed"
        entries = {e.name: e for e in rep.entries}
        assert entries["flux_recovered_error"].value < 1e-6
        assert entries["flux_line_spread"].value < 1e-8
        assert entries["field_reconstruction_max"].value < 1e-6

    def test_field_and_scalar_recovered(self):
        short = catalog.build_vector(
            "ring_bump_tangential",
            {"amplitude": 0.4, "r0": 2.0, "sigma": 0.35}, dimension=2)
        scalar = catalog.build_scalar(
            "gaussian_ring",
            {"amplitude": 1.0, "r0": 2.2, "sigma": 0.4,
             "modulation": [[2, 0.3, 0.1]]}, dimension=2)
        cfg = _plane_config(0.4, short=short, scalar=scalar)
        sc = Scenario(kind="reconstruct", config1=cfg, geometry=dict(MID_GEO))
        rep = run_reconstruct(sc)
        assert rep.verdict == "reconstructed"
        entries = {e.name: e for e in rep.entries}
        assert entries["field_reconstruction_rel_l2"].passed
        assert entries["scalar_reconstruction_rel_l2"].passed
        # the ring bump still carries a little circulation past r_max, so the
        # flux read off at the outermost offsets sees that genuine tail
        assert entries["flux_recovered_error"].value < 1e-5

    def test_flux_read_off_both_banks(self):
        # the odd harmonic makes the gradient part's antipodal difference
        # vary with the angle; it cancels between the offsets T and -T
        cfg = _plane_config(0.3, {1: 0.03, 2: 0.02j})
        rep = run_reconstruct(Scenario(kind="reconstruct", config1=cfg,
                                       geometry=dict(SMALL_GEO)))
        entries = {e.name: e for e in rep.entries}
        assert entries["flux_recovered_error"].value < 1e-12
        assert entries["flux_line_spread"].value < 1e-12
        assert abs(rep.provenance["flux_recovered"] - 0.3) < 1e-12

    def test_transversal_reference_needs_no_field_call(self, monkeypatch):
        # a plane transversal field is curl-free off the origin and its
        # vector transform is closed-form: the reconstruct calls no field
        calls = []
        field_call = TransversalField.__call__
        monkeypatch.setattr(TransversalField, "__call__",
                            lambda self, x: calls.append(len(x)) or field_call(self, x))
        cfg = _plane_config(0.3, {2: 0.02j})
        rep = run_reconstruct(Scenario(kind="reconstruct", config1=cfg,
                                       geometry=dict(SMALL_GEO)))
        assert calls == []
        entries = {e.name: e for e in rep.entries}
        assert "field_reconstruction_rel_l2" not in entries
        assert entries["field_reconstruction_max"].value < 1e-6

    def test_curl_free_short_range_is_judged_against_the_data(self):
        # a gradient's reference curl is zero: the recovered field's largest
        # value then carries recon_b_rel times the largest |value| of the
        # vector sinogram as its tolerance, and passes it
        short = catalog.build_vector("grad_bumps", {"bumps": [[0.4, 1.8, 0.5, 0.3]]})
        cfg = _plane_config(0.3, short=short)
        rep = run_reconstruct(Scenario(kind="reconstruct", config1=cfg,
                                       geometry=dict(SMALL_GEO)))
        entries = {e.name: e for e in rep.entries}
        assert "field_reconstruction_rel_l2" not in entries
        scale = float(np.max(np.abs(rep.artifacts["sinogram_vector"].values)))
        got = entries["field_reconstruction_max"]
        assert got.tolerance == DEFAULT_TOLERANCES["recon_b_rel"] * scale
        assert got.passed and got.value < 1e-6 * scale

    def test_empty_configuration(self):
        sc = Scenario(kind="reconstruct", config1=_plane_config(),
                      geometry=dict(SMALL_GEO))
        rep = run_reconstruct(sc)
        assert rep.verdict == "reconstructed"
        assert rep.entries[0].name == "all_zero"

    def test_no_offsets_refused_before_the_sinogram(self):
        # n_offsets = 0 once reached the line rule and failed on an empty
        # reduction there
        short = catalog.build_vector("ring_bump_tangential", {"b0": 0.4, "r0": 1.9, "sigma": 0.3})
        sc = Scenario(kind="reconstruct", config1=_plane_config(0.3, short=short),
                      geometry=dict(SMALL_GEO, n_offsets=0))
        with pytest.raises(ValueError, match="^n_offsets must be at least 2"):
            run_reconstruct(sc)

    def test_space_leading_order(self):
        short = catalog.build_vector("cross_axis",
                                     {"axis": [0.0, 0.0, 1.0], "c": 0.4},
                                     dimension=3)
        cfg = PotentialConfig(dimension=3, obstacle_radius=1.0, short_range=short)
        sc = Scenario(kind="reconstruct", config1=cfg)
        rep = run_reconstruct(sc)
        assert rep.verdict == "reconstructed"
        leads = rep.artifacts["leading_order"]
        W = leads[0].grid.vertices
        want = [0.8 * W[:, 2] ** 2, -0.8 * W[:, 1] * W[:, 2], 0.8 * W[:, 0] * W[:, 2]]
        for lead, ref in zip(leads, want):
            assert np.max(np.abs(np.asarray(lead.values) - ref)) < 1e-6

    def test_space_field_source_is_recorded(self, tmp_path):
        """In 3-space B is the configuration's own circulation curl, not a
        reconstruction from line data, and the report says so."""
        sc = Scenario(kind="reconstruct", config1=_space_config(),
                      geometry={"n_radii": 3, "sphere_refinement": 1})
        rep = run_reconstruct(sc)
        assert rep.provenance["field_source"] == "configuration, circulation curl"
        emit_report(rep, tmp_path)
        back = Report.from_json((tmp_path / "report.json").read_text())
        assert back.provenance["field_source"] == "configuration, circulation curl"

    def test_kind_guard(self):
        sc = Scenario(kind="reconstruct", config1=_plane_config(0.3))
        with pytest.raises(ValueError):
            run_classify(sc)


class TestKernelLab:
    def test_inspection_entries(self):
        kernels = {"n_grid": 256, "lam": 1.0,
                   "remainder": {"kind": "separable_trig", "amplitude": 0.02},
                   "relating_gauge": {"m": 1, "phi": []}}
        sc = Scenario(kind="kernel-lab", config1=_plane_config(0.3),
                      kernels=kernels, label="lab")
        rep = run_kernel_lab(sc)
        assert rep.verdict == "inspected"
        entries = {e.name: e for e in rep.entries}
        assert entries["flux_2"].value - entries["flux_1"].value == pytest.approx(1.0)
        assert entries["kernel_distance"].value > 1.0
        assert 0.9 < entries["growth_exponent"].value < 1.1
        assert "kernel1" in rep.artifacts and "kernel2" in rep.artifacts

    def test_run_scenario_dispatch(self):
        sc = Scenario(kind="kernel-lab", config1=_plane_config(0.3),
                      kernels=dict(FAST_KERNELS))
        rep = run_scenario(sc)
        assert rep.kind == "kernel-lab"


class TestReport:
    def test_add_marks_pass_and_fail(self):
        rep = Report(kind="classify")
        rep.add("ok", 1e-9, 1e-6, "probe")
        rep.add("bad", 1e-3, 1e-6, "probe")
        rep.add("info", 42.0, None, "probe")
        assert rep.entries[0].passed is True
        assert rep.entries[1].passed is False
        assert rep.entries[2].passed is None
        assert not rep.all_passed()

    def test_json_round_trip(self):
        rep = Report(kind="classify", label="x", verdict="equivalent",
                     gauge={"m": 1, "phi_max": 0.0, "has_scalar": False, "phi": []})
        rep.add("flux_difference", 1e-9, 1e-6, "decompose_transversal")
        back = Report.from_json(rep.to_json())
        assert back.verdict == "equivalent"
        assert back.entries[0].name == "flux_difference"
        assert back.to_json() == rep.to_json()

    def test_malformed_entry_exit_one(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text('{"kind": "classify", "entries": [{"name": "x"}]}')
        assert cli.main(["report", "--report", str(path)]) == cli.EXIT_ERROR
        assert capsys.readouterr().err.splitlines() == [
            "error: report entry 0 must be an object with name, value, tolerance and "
            "operation, got {'name': 'x'}"]

    @pytest.mark.parametrize("doc, message", [
        ('{"kind": "classify", "entries": 5}',
         "report 'entries' must be a list of objects, got 5"),
        ('{"kind": "classify", "entries": [{"name": "x", "value": "a", "tolerance": 1e-6, '
         '"operation": "probe"}]}', "report entry 0 'value' must be a finite number, got 'a'"),
        ('{"kind": "classify", "entries": [{"name": "x", "value": 1.0, "tolerance": "a", '
         '"operation": "probe"}]}', "report entry 0 'tolerance' must be a finite number, got 'a'"),
        ('{"kind": "classify", "entries": [{"name": "x", "value": 1.0, "tolerance": null, '
         '"operation": "probe", "passed": 1}]}',
         "report entry 0 'passed' must be true, false or null, got 1"),
        ('{"entries": []}', "report 'kind' must be a string, got None"),
        ('{"kind": 3}', "report 'kind' must be a string, got 3")],
        ids=["entries-not-list", "value-string", "tolerance-string",
             "passed-int", "kind-missing", "kind-number"])
    def test_malformed_report_exit_one(self, tmp_path, capsys, doc, message):
        path = tmp_path / "report.json"
        path.write_text(doc)
        assert cli.main(["report", "--report", str(path)]) == cli.EXIT_ERROR
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_report_entry_with_null_tolerance_reads_back(self):
        back = Report.from_json('{"kind": "reconstruct", "entries": [{"name": "x", "value": 2, '
                                '"tolerance": null, "operation": "probe", "passed": null}]}')
        assert back.entries == [ReportEntry("x", 2.0, None, "probe", None)]
        assert isinstance(back.entries[0].value, float)

    @pytest.mark.parametrize("gauge, message", [
        ("5", "report 'gauge' must be a JSON object, got 5"),
        ("[1]", "report 'gauge' must be a JSON object, got [1]"),
        ("{}", "report 'gauge' 'phi_max' must be given"),
        ('{"phi_max": "x"}', "report 'gauge' 'phi_max' must be a finite number, got 'x'")])
    def test_malformed_gauge_exit_one(self, tmp_path, capsys, gauge, message):
        path = tmp_path / "report.json"
        path.write_text(f'{{"kind": "classify", "gauge": {gauge}}}')
        assert cli.main(["report", "--report", str(path)]) == cli.EXIT_ERROR
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_summary_lines_mark_outcomes(self):
        rep = Report(kind="classify", verdict="equivalent")
        rep.add("good", 0.0, 1e-6, "probe")
        rep.add("bad", 1.0, 1e-6, "probe")
        text = "\n".join(rep.summary_lines())
        assert "[pass]" in text and "[FAIL]" in text and "verdict: equivalent" in text


@pytest.fixture(scope="module")
def scalar_part_report():
    L = catalog.build_scalar("gaussian_bumps",
                             {"bumps": [[0.4, 1.8, 0.6, 0.9]]}, dimension=2)
    cfg1 = _plane_config(0.5)
    cfg2 = apply_gauge_to_potential(cfg1, GaugeElement(dimension=2, scalar=L))
    return run_classify(Scenario(kind="classify", config1=cfg1, config2=cfg2,
                                 kernels=dict(FAST_KERNELS)))


class TestCsvCodec:
    def test_writes_the_bytes_of_savetxt(self, tmp_path, monkeypatch):
        # 7-row blocks, so that 50 rows span several % operations
        monkeypatch.setattr(_csvio, "_BLOCK_ROWS", 7)
        rng = np.random.default_rng(6)
        body = rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-300, 300, (50, 3))
        body[::5, 0] = 0.0
        body[1::5, 1] = -0.0
        body[2, 2], body[3, 2], body[4, 2] = np.inf, -np.inf, 5e-324
        ints = np.arange(50)
        np.savetxt(tmp_path / "ref.csv", np.column_stack([ints, body]), delimiter=",",
                   header="i,a,b,c", comments="")
        _csvio.write_csv(tmp_path / "got.csv", "i,a,b,c", [ints, body])
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        back = _csvio.read_csv(tmp_path / "got.csv")
        np.testing.assert_array_equal(back, np.column_stack([ints, body]))
        np.testing.assert_array_equal(np.signbit(back), np.signbit(np.column_stack([ints, body])))

    def test_one_row_reads_as_a_row(self, tmp_path):
        _csvio.write_csv(tmp_path / "one.csv", "a,b,c", [[1.5], [2.0], [-3.0]])
        assert _csvio.read_csv(tmp_path / "one.csv").shape == (1, 3)

    @staticmethod
    def _edge_values(rng, shape):
        v = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape)
        edges = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324])
        every_third = v.reshape(-1)[::3]
        k = min(edges.size, every_third.size)
        every_third[:k] = edges[:k]
        return v

    @pytest.mark.parametrize("m, n, n_values", [(5, 7, 1), (1, 9, 1), (9, 1, 1), (6, 4, 2)])
    def test_grid_writes_the_bytes_of_savetxt(self, tmp_path, m, n, n_values):
        rng = np.random.default_rng(m * 10 + n)
        outer, inner = self._edge_values(rng, m), self._edge_values(rng, n)
        values = [self._edge_values(rng, (m, n)) for _ in range(n_values)]
        header = "u,v," + ",".join(f"f{k}" for k in range(n_values))
        body = np.column_stack([np.repeat(outer, n), np.tile(inner, m)]
                               + [v.ravel() for v in values])
        np.savetxt(tmp_path / "ref.csv", body, delimiter=",", header=header, comments="")
        _csvio.write_grid_csv(tmp_path / "got.csv", header, outer, inner,
                              values if n_values > 1 else values[0])
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        back = _csvio.read_csv(tmp_path / "got.csv")
        np.testing.assert_array_equal(back, body)
        np.testing.assert_array_equal(np.signbit(back), np.signbit(body))


class TestEmitReport:
    def test_gauge_scalar_csv_matches_evaluate(self, tmp_path, scalar_part_report):
        emit_report(scalar_part_report, tmp_path)
        path = tmp_path / "gauge_scalar.csv"
        assert path.read_text().splitlines()[0] == "r,theta,L"
        body = np.loadtxt(path, delimiter=",", skiprows=1)
        assert body.shape == (24 * 48, 3)
        r, th = body[:, 0], body[:, 1]
        gs = scalar_part_report.artifacts["gauge_scalar"]
        want = gs.evaluate(np.column_stack([r * np.cos(th), r * np.sin(th)]))
        assert np.max(np.abs(want)) > 1e-3
        assert np.max(np.abs(body[:, 2] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_polar_csv_has_the_bytes_of_radius_major_columns(self, tmp_path):
        rng = np.random.default_rng(4)
        radii, thetas = np.linspace(1.2, 3.0, 5), np.arange(7) * 2 * np.pi / 7
        field = PolarGridField(radii=radii, thetas=thetas, values=rng.normal(size=(5, 7)))
        emit_report(Report(kind="reconstruct", artifacts={"reconstruction_b": field}), tmp_path)
        r, t, _ = polar_points(radii, thetas)
        np.savetxt(tmp_path / "ref.csv", np.column_stack([r, t, field.values.ravel()]),
                   delimiter=",", header="r,theta,value", comments="")
        assert ((tmp_path / "reconstruction_b.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    def test_gauge_scalar_csv_field_points(self, tmp_path, scalar_part_report):
        # point-by-point rays would take 1,152 x 175 nodes = 201,600; the grid takes 36,000
        gs = scalar_part_report.artifacts["gauge_scalar"]
        counted = dataclasses.replace(gs, field=CountingField(gs.field))
        emit_report(Report(kind="classify", artifacts={"gauge_scalar": counted}), tmp_path)
        assert 0 < counted.field.points <= 50_000

    def test_classify_outputs(self, tmp_path):
        L = catalog.build_scalar("gaussian_bumps",
                                 {"bumps": [[0.4, 1.8, 0.6, 0.9]]}, dimension=2)
        g = GaugeElement(dimension=2, scalar=L)
        cfg1 = _plane_config(0.5)
        cfg2 = apply_gauge_to_potential(cfg1, g)
        sc = Scenario(kind="classify", config1=cfg1, config2=cfg2,
                      kernels=dict(FAST_KERNELS))
        rep = run_classify(sc)
        paths = emit_report(rep, tmp_path)
        names = {p.name for p in paths}
        assert "report.json" in names
        assert "gauge_scalar.csv" in names
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["verdict"] == "equivalent"
        assert data["schema_version"] == 1
        rows = (tmp_path / "gauge_scalar.csv").read_text().strip().splitlines()
        assert rows[0] == "r,theta,L"
        assert len(rows) == 24 * 48 + 1

    def test_reconstruct_outputs(self, tmp_path):
        scalar = catalog.build_scalar("gaussian_ring",
                                      {"amplitude": 1.0, "r0": 2.0, "sigma": 0.4},
                                      dimension=2)
        sc = Scenario(kind="reconstruct", config1=_plane_config(0.4, scalar=scalar),
                      geometry=dict(SMALL_GEO))
        rep = run_reconstruct(sc)
        paths = emit_report(rep, tmp_path)
        names = {p.name for p in paths}
        assert {"report.json", "sinogram_vector.csv", "reconstruction_b.csv",
                "sinogram_scalar.csv", "reconstruction_v.csv"} <= names
        rows = (tmp_path / "sinogram_vector.csv").read_text().strip().splitlines()
        assert rows[0] == "angle,offset,value"
        assert len(rows) == SMALL_GEO["n_angles"] * SMALL_GEO["n_offsets"] + 1

    def test_kernel_lab_outputs(self, tmp_path):
        sc = Scenario(kind="kernel-lab", config1=_plane_config(0.3),
                      kernels={"n_grid": 64, "lam": 1.0})
        rep = run_kernel_lab(sc)
        paths = emit_report(rep, tmp_path)
        names = {p.name for p in paths}
        assert {"kernel1_slice.csv", "kernel2_slice.csv"} <= names
        rows = (tmp_path / "kernel1_slice.csv").read_text().strip().splitlines()
        assert rows[0] == "theta,re,im"
        assert len(rows) == 64 + 1

    @pytest.mark.parametrize("n_grid", [256, 1024])
    def test_kernel_slice_is_the_value_grid_band(self, tmp_path, n_grid):
        def remainder(t, p):
            return 0.04 * np.exp(-np.minimum(abs(t - p), 2 * np.pi - abs(t - p)) ** 2 / 0.3)

        S = assemble_kernel(0.35, a0_out=AngularFunction.harmonic(2, 0.1, 0.05),
                            a0_in=AngularFunction.harmonic(3, cos_amp=0.02),
                            smooth=remainder, n_grid=n_grid, winding=1)
        kernel_slice_csv(S, tmp_path / "slice.csv")
        body = np.loadtxt(tmp_path / "slice.csv", delimiter=",", skiprows=1)
        rows = np.arange(n_grid)
        want = S.value_grid()[rows, (rows - 8) % n_grid]
        np.testing.assert_array_equal(body[:, 0], S.thetas)
        assert np.max(np.abs(body[:, 1] + 1j * body[:, 2] - want)) < 1e-15

    def test_space_leading_order_output(self, tmp_path):
        short = catalog.build_vector("cross_axis",
                                     {"axis": [0.0, 0.0, 1.0], "c": 0.4},
                                     dimension=3)
        cfg = PotentialConfig(dimension=3, obstacle_radius=1.0, short_range=short)
        rep = run_reconstruct(Scenario(kind="reconstruct", config1=cfg))
        paths = emit_report(rep, tmp_path)
        assert "leading_order.csv" in {p.name for p in paths}
        rows = (tmp_path / "leading_order.csv").read_text().strip().splitlines()
        grid_size = rep.artifacts["leading_order"][0].grid.size
        assert len(rows) == grid_size + 1


class TestPlaneOnly:
    """Kernels are synthesized from the plane flux decomposition, so classify
    and kernel-lab reject configurations in 3-space before any stage runs."""

    @pytest.mark.parametrize("transversal", [True, False])
    def test_classify_rejects_space_pair(self, transversal):
        cfg = _space_config(transversal)
        sc = Scenario(kind="classify", config1=cfg, config2=cfg, kernels=dict(FAST_KERNELS))
        with pytest.raises(DimensionMismatch, match="plane kernels"):
            run_classify(sc)

    def test_classify_rejects_declared_space_gauge(self):
        cfg = _space_config(transversal=False)
        sc = Scenario(kind="classify", config1=cfg, config2=cfg,
                      kernels={**FAST_KERNELS, "relating_gauge": {"m": 0}})
        with pytest.raises(DimensionMismatch, match="plane kernels"):
            run_classify(sc)

    def test_kernel_lab_rejects_space_config(self):
        sc = Scenario(kind="kernel-lab", config1=_space_config(), kernels=dict(FAST_KERNELS))
        with pytest.raises(DimensionMismatch, match="plane kernels"):
            run_kernel_lab(sc)


class TestKindDimensionContract:
    """Every scenario kind x dimension either runs to a verdict or raises a
    typed GaugekitError; this table pins which one."""

    @pytest.mark.parametrize("kind,dimension,rejected", [
        ("classify", 2, None),
        ("classify", 3, DimensionMismatch),
        ("reconstruct", 2, None),
        ("reconstruct", 3, None),
        ("kernel-lab", 2, None),
        ("kernel-lab", 3, DimensionMismatch),
    ])
    def test_runs_or_raises_typed(self, kind, dimension, rejected):
        cfg = _plane_config(0.3, {1: 0.025}) if dimension == 2 else _space_config()
        sc = Scenario(kind=kind, config1=cfg, config2=cfg if kind == "classify" else None,
                      geometry=dict(SMALL_GEO), kernels=dict(FAST_KERNELS))
        if rejected is not None:
            with pytest.raises(rejected) as info:
                run_scenario(sc)
            assert isinstance(info.value, GaugekitError)
            return
        rep = run_scenario(sc)
        assert isinstance(rep, Report)
        assert rep.verdict in {"equivalent", "not_equivalent", "ambiguous",
                               "reconstructed", "inspected"}


class TestCli:
    def _write_gauge_pair_scenario(self, tmp_path, alpha=0.3):
        phi = AngularFunction.from_coefficients({2: 0.05})
        g = GaugeElement(dimension=2, m=1, phi=phi)
        cfg1 = _plane_config(alpha, {1: 0.025})
        cfg2 = apply_gauge_to_potential(cfg1, g)
        sc = Scenario(kind="classify", config1=cfg1, config2=cfg2,
                      kernels={**FAST_KERNELS,
                               "relating_gauge": {"m": 1, "phi": phi.to_triples()}})
        path = tmp_path / "scenario.json"
        path.write_text(sc.to_json())
        return path

    def test_classify_equivalent_exit_zero(self, tmp_path, capsys):
        path = self._write_gauge_pair_scenario(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["classify", "--scenario", str(path), "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert "verdict: equivalent" in capsys.readouterr().out

    def test_classify_ambiguous_exit_two(self, tmp_path, capsys):
        sc = Scenario(kind="classify", config1=_plane_config(1.0),
                      config2=_plane_config(1.0), kernels=dict(FAST_KERNELS))
        path = tmp_path / "scenario.json"
        path.write_text(sc.to_json())
        code = cli.main(["classify", "--scenario", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 2

    def test_kind_mismatch_exit_one(self, tmp_path):
        sc = Scenario(kind="reconstruct", config1=_plane_config(0.3),
                      geometry=dict(SMALL_GEO))
        path = tmp_path / "scenario.json"
        path.write_text(sc.to_json())
        assert cli.main(["classify", "--scenario", str(path)]) == 1

    def test_classify_space_scenario_exit_one(self, tmp_path, capsys):
        cfg = _space_config(transversal=False)
        sc = Scenario(kind="classify", config1=cfg, config2=cfg, kernels=dict(FAST_KERNELS))
        path = tmp_path / "scenario.json"
        path.write_text(sc.to_json())
        assert cli.main(["classify", "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: DimensionMismatch: ")

    def test_n_grid_that_is_null_exit_one(self, tmp_path, capsys):
        path = self._write_gauge_pair_scenario(tmp_path)
        data = json.loads(path.read_text())
        data["kernels"]["n_grid"] = None
        path.write_text(json.dumps(data))
        assert cli.main(["classify", "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: kernels 'n_grid' must be an integer, got None"]

    def test_missing_scenario_exit_one(self, tmp_path):
        assert cli.main(["classify", "--scenario",
                         str(tmp_path / "missing.json")]) == 1

    @pytest.mark.parametrize("refinement", [-3, 9])
    def test_sphere_refinement_outside_the_build_exit_one(self, tmp_path, capsys, refinement):
        sc = Scenario(kind="reconstruct", config1=_space_config(transversal=False),
                      geometry={"n_radii": 3, "sphere_refinement": refinement})
        path = tmp_path / "scenario.json"
        path.write_text(sc.to_json())
        assert cli.main(["reconstruct", "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"error: sphere refinement must be an integer from 0 to 8, got {refinement}"]

    def test_reconstruct_and_report_commands(self, tmp_path, capsys):
        scalar = catalog.build_scalar("gaussian_ring",
                                      {"amplitude": 1.0, "r0": 2.0, "sigma": 0.4},
                                      dimension=2)
        sc = Scenario(kind="reconstruct", config1=_plane_config(scalar=scalar),
                      geometry=dict(SMALL_GEO))
        path = tmp_path / "scenario.json"
        path.write_text(sc.to_json())
        out = tmp_path / "out"
        assert cli.main(["reconstruct", "--scenario", str(path),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["report", "--report", str(out / "report.json")]) == 0
        assert "verdict: reconstructed" in capsys.readouterr().out

    def test_readme_classify_demo_prints_the_shown_output(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        authoring = next(block for block in re.findall(r"```python\n(.*?)```", readme, re.S)
                         if 'open("scenario.json", "w")' in block)
        command = "$ gaugekit classify --scenario scenario.json --out out_classify\n"
        shown = readme.split(command, 1)[1].split("\n\n", 1)[0].splitlines()
        monkeypatch.chdir(tmp_path)
        exec(authoring, {})
        assert cli.main(["classify", "--scenario", "scenario.json", "--out", "out_classify"]) == 0
        assert capsys.readouterr().out.splitlines() == shown

    def test_kernel_build_gauge_solve_chain(self, tmp_path, capsys):
        k1 = str(tmp_path / "k1")
        k2 = str(tmp_path / "k2")
        assert cli.main(["kernel", "build", "--alpha", "0.3", "--grid", "64",
                         "--out", k1]) == 0
        assert cli.main(["kernel", "gauge", "--kernel", k1, "--m", "1",
                         "--phi-coeffs", "[[2, 0.05, 0.0]]", "--out", k2]) == 0
        capsys.readouterr()
        assert cli.main(["kernel", "solve", "--kernel1", k1, "--kernel2", k2]) == 0
        text = capsys.readouterr().out
        assert "verdict: equivalent" in text
        assert "m = 1" in text
        assert cli.main(["kernel", "compare", "--kernel1", k1,
                         "--kernel2", k2]) == 0

    def test_kernel_files_round_trip_through_a_zero_gauge(self, tmp_path, capsys):
        k1, k2 = str(tmp_path / "k1"), str(tmp_path / "k2")
        assert cli.main(["kernel", "build", "--alpha", "0.3", "--grid", "64",
                         "--phi-coeffs", "[[2, 0.05, 0.0]]", "--out", k1]) == 0
        assert cli._load_kernel(k1).remainder.dtype == np.float64
        assert cli.main(["kernel", "gauge", "--kernel", k1, "--out", k2]) == 0
        for suffix in (".json", "_remainder.csv"):
            assert Path(k2 + suffix).read_bytes() == Path(k1 + suffix).read_bytes()
        capsys.readouterr()
        assert cli.main(["kernel", "solve", "--kernel1", k1, "--kernel2", k2]) == 0
        assert "verdict: equivalent" in capsys.readouterr().out

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_kernel_build_non_finite_flux_exit_one(self, tmp_path, capsys, alpha):
        k1 = tmp_path / "k1"
        assert cli.main(["kernel", "build", "--alpha", alpha, "--grid", "32",
                         "--out", str(k1)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: kernel alpha must be finite, got {float(alpha)!r}"]
        assert list(tmp_path.iterdir()) == []

    def test_kernel_header_non_finite_flux_exit_one(self, tmp_path, capsys):
        k1, k2 = tmp_path / "k1", tmp_path / "k2"
        assert cli.main(["kernel", "build", "--alpha", "0.3", "--grid", "16",
                         "--out", str(k1)]) == 0
        header = (tmp_path / "k1.json").read_text()
        (tmp_path / "k1.json").write_text(header.replace('"alpha": 0.3', '"alpha": Infinity'))
        capsys.readouterr()
        for argv in (["compare", "--kernel1", str(k1), "--kernel2", str(k1)],
                     ["gauge", "--kernel", str(k1), "--m", "1", "--out", str(k2)]):
            assert cli.main(["kernel"] + argv) == cli.EXIT_ERROR
            err = capsys.readouterr().err.splitlines()
            assert err == ["error: kernel header 'alpha' must be a finite number, got inf"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k1.json", "k1_remainder.csv"]

    def test_kernel_solve_integer_flux_exit_two(self, tmp_path, capsys):
        k1 = str(tmp_path / "k1")
        assert cli.main(["kernel", "build", "--alpha", "1.0", "--grid", "64",
                         "--out", k1]) == 0
        capsys.readouterr()
        assert cli.main(["kernel", "solve", "--kernel1", k1, "--kernel2", k1]) == 2
        assert "verdict: ambiguous" in capsys.readouterr().out

    def test_decompose_profile(self, capsys):
        code = cli.main(["decompose", "--profile",
                         "[[0, 0.3, 0.0], [1, 0.025, 0.0]]"])
        assert code == 0
        assert "flux alpha = 0.3" in capsys.readouterr().out

    def test_decompose_without_source_exit_one(self, capsys):
        assert cli.main(["decompose"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: decompose needs --profile or --config"]

    def test_profile_that_is_not_triples_exit_one(self, capsys):
        assert cli.main(["decompose", "--profile", "5"]) == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: coefficients must be a list of ")

    def test_config_section_that_is_not_an_object_exit_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"dimension": 2, "obstacle_radius": 1.0, "transversal": [1]}')
        assert cli.main(["flux", "--config", str(path)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: configuration 'transversal' must be a JSON object, got [1]"]

    def test_kernel_header_that_is_not_an_object_exit_one(self, tmp_path, capsys):
        k1 = tmp_path / "k1"
        assert cli.main(["kernel", "build", "--alpha", "0.3", "--grid", "16",
                         "--out", str(k1)]) == 0
        (tmp_path / "k1.json").write_text("[]")
        capsys.readouterr()
        assert cli.main(["kernel", "compare", "--kernel1", str(k1),
                         "--kernel2", str(k1)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: kernel header must be a JSON object, got []"]

    def test_kernel_header_number_that_is_null_exit_one(self, tmp_path, capsys):
        k1 = tmp_path / "k1"
        assert cli.main(["kernel", "build", "--alpha", "0.3", "--grid", "16",
                         "--out", str(k1)]) == 0
        header = json.loads((tmp_path / "k1.json").read_text())
        (tmp_path / "k1.json").write_text(json.dumps({**header, "n_grid": None}))
        capsys.readouterr()
        assert cli.main(["kernel", "compare", "--kernel1", str(k1),
                         "--kernel2", str(k1)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: kernel header 'n_grid' must be an integer, got None"]

    def test_kernel_header_of_another_dimension_exit_one(self, tmp_path, capsys):
        # a plane kernel file holds dimension 2; any other value is refused
        k1 = tmp_path / "k1"
        assert cli.main(["kernel", "build", "--alpha", "0.3", "--grid", "16",
                         "--out", str(k1)]) == 0
        header = json.loads((tmp_path / "k1.json").read_text())
        assert header["dimension"] == 2
        (tmp_path / "k1.json").write_text(json.dumps({**header, "dimension": 3}))
        capsys.readouterr()
        assert cli.main(["kernel", "compare", "--kernel1", str(k1),
                         "--kernel2", str(k1)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: kernel header 'dimension' must be 2, got 3"]

    @pytest.mark.parametrize("section", ["scalar", "short_range"])
    def test_config_kind_that_is_not_a_name_exit_one(self, tmp_path, capsys, section):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dimension": 2, "obstacle_radius": 1.0,
                                    section: {"kind": ["x"]}}))
        assert cli.main(["flux", "--config", str(path)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        what = "scalar" if section == "scalar" else "vector"
        assert len(err) == 1 and err[0].startswith(f"error: unknown {what} kind ['x']; ")

    @pytest.mark.parametrize("argv, text", [
        (["report", "--report"], "[]"),
        (["classify", "--scenario"], "[]"),
        (["classify", "--scenario"], '{"schema_version": 1, "kind": "classify", "config1": []}'),
        (["flux", "--config"], "[]"),
        (["xray", "--out", "x.csv", "--config"], "[]"),
    ], ids=["report", "classify", "classify-config1", "flux", "xray"])
    def test_json_that_is_not_an_object_exit_one(self, tmp_path, monkeypatch, capsys,
                                                 argv, text):
        monkeypatch.chdir(tmp_path)
        Path("doc.json").write_text(text)
        assert cli.main(argv + ["doc.json"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert err[0].endswith(" must be a JSON object")
        assert not Path("x.csv").exists()

    def test_xray_radon_chain(self, tmp_path, capsys):
        scalar = catalog.build_scalar("gaussian_ring",
                                      {"amplitude": 1.0, "r0": 2.0, "sigma": 0.4},
                                      dimension=2)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(_plane_config(scalar=scalar).to_json())
        sino = tmp_path / "sino.csv"
        rec = tmp_path / "rec.csv"
        assert cli.main(["xray", "--config", str(cfg_path), "--kind", "scalar",
                         "--n-angles", "24", "--n-offsets", "32",
                         "--out", str(sino)]) == 0
        assert cli.main(["radon", "--sinogram", str(sino), "--kind", "scalar",
                         "--out", str(rec)]) == 0
        assert rec.exists()

    def test_flux_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(_plane_config(0.5).to_json())
        assert cli.main(["flux", "--config", str(cfg_path),
                         "--radius", "2.0"]) == 0
        assert "flux = 0.5" in capsys.readouterr().out
