"""Acceptance properties for the toolkit, one test per numbered criterion.

Each test prints a single summary line (visible under pytest -s) of the form

    criterion NN <name>: PASS <measured values>

and then asserts the stated bounds, so a plain pytest run fails loudly when a
property regresses while the printed line records the measured margins.
"""
import time

import numpy as np
import pytest

from gaugekit import catalog
from gaugekit.angular import AngularFunction, SphereFunction, sphere_grid
from gaugekit.errors import ResidualFlux
from gaugekit.fields import (
    DecayEnvelope,
    GaugeElement,
    PotentialConfig,
    ShortRangeField,
    TransversalField,
    apply_gauge_to_potential,
    curl,
    decompose_transversal,
    eval_ab_potential,
    extract_leading_order,
    sample_on_spheres,
)
from gaugekit.pipeline import Scenario, run_classify
from gaugekit.scattering import (
    ab_kernel_channels,
    apply_gauge_to_kernel,
    assemble_kernel,
    gauge_equivalence_solver,
    near_diagonal_growth,
)
from oracles import line_integral_vector_quadrature
from gaugekit.tomography import (
    Line,
    Plane,
    antipodal_defect,
    find_gauge_scalar,
    forward_sinogram,
    parallel_geometry,
    plane_restrict,
    radon_invert_scalar,
    recover_field_2d,
    resolve_winding,
    synthetic_winding_family,
)


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")


def _random_profile(rng, degree: int, scale: float, mean: float = 0.0) -> AngularFunction:
    coeffs = {0: complex(mean)}
    for k in range(1, degree + 1):
        coeffs[k] = (rng.normal() + 1j * rng.normal()) * scale / k
    return AngularFunction.from_coefficients(coeffs)


def _vortex(pts: np.ndarray) -> np.ndarray:
    r2 = np.sum(pts**2, axis=1)
    return np.column_stack([-pts[:, 1], pts[:, 0]]) / r2[:, None]


def test_criterion_01_decomposition_round_trip():
    rng = np.random.default_rng(201)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        profile = _random_profile(rng, 16, 0.4, mean=rng.uniform(-2.0, 2.0))
        tv = TransversalField.from_profile(profile)
        dec = decompose_transversal(tv)
        deriv = dec.a0.derivative()
        r = np.exp(rng.uniform(0.0, np.log(100.0), 40))
        th = rng.uniform(0, 2 * np.pi, 40)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        rebuilt = eval_ab_potential(dec.alpha, pts) \
            + deriv(th)[:, None] * _vortex(pts)
        truth = tv(pts)
        mags = np.linalg.norm(truth, axis=1)
        keep = mags > 1e-12
        rel = np.linalg.norm(rebuilt - truth, axis=1)[keep] / mags[keep]
        worst = max(worst, float(np.max(rel)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    _line(1, "decomposition round trip", ok,
          f"max_rel={worst:.3e} (tol 1e-09) runtime={elapsed:.2f}s (limit 5s)")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_02_flux_line_integral_constancy():
    rng = np.random.default_rng(202)
    worst_dev, worst_spread = 0.0, 0.0
    for alpha in (0.25, 0.5, 1.0, 2.5):
        cfg = PotentialConfig(
            dimension=2, obstacle_radius=1.0,
            transversal=TransversalField.from_profile(AngularFunction.constant(alpha)))
        vals = []
        for _ in range(100):
            ln = Line.from_impact_angle(rng.uniform(1.05, 5.0),
                                        rng.uniform(0, 2 * np.pi))
            vals.append(line_integral_vector_quadrature(cfg, ln))
        vals = np.asarray(vals)
        worst_dev = max(worst_dev, float(np.max(np.abs(vals - alpha * np.pi))))
        worst_spread = max(worst_spread, float(np.ptp(vals)))
    ok = worst_dev < 1e-8 and worst_spread < 1e-10
    _line(2, "flux line constancy", ok,
          f"max|I-alpha*pi|={worst_dev:.3e} (tol 1e-08) "
          f"spread={worst_spread:.3e} (tol 1e-10)")
    assert worst_dev < 1e-8
    assert worst_spread < 1e-10


def test_criterion_03_gradient_line_integral():
    rng = np.random.default_rng(203)
    worst = 0.0
    for _ in range(20):
        phi = _random_profile(rng, 8, 0.3)
        cfg = PotentialConfig(
            dimension=2, obstacle_radius=1.0,
            transversal=TransversalField.from_profile(phi.derivative()))
        for _ in range(3):
            ang = rng.uniform(0, 2 * np.pi)
            ln = Line.from_impact_angle(rng.uniform(1.05, 4.0), ang)
            theta_w = float(np.arctan2(ln.omega[1], ln.omega[0]))
            want = phi(theta_w) - phi(theta_w + np.pi)
            got = line_integral_vector_quadrature(cfg, ln)
            worst = max(worst, abs(got - want))
    ok = worst < 1e-7
    _line(3, "gradient line integral", ok, f"max_err={worst:.3e} (tol 1e-07)")
    assert worst < 1e-7


def test_criterion_04_winding_resolution():
    rng = np.random.default_rng(204)
    total, good = 0, 0
    for m in range(-3, 4):
        for eps0 in (0.5, 1.0, 2.0):
            for _ in range(10):
                data = synthetic_winding_family(
                    m, eps0,
                    anchor_phase=rng.uniform(-0.8 * np.pi, 0.8 * np.pi),
                    angle=rng.uniform(0, 2 * np.pi))
                total += 1
                good += int(resolve_winding(data) == m)
    ok = good == total == 210
    _line(4, "winding resolution", ok, f"recovered {good}/{total} (need 210/210)")
    assert good == total == 210


def test_criterion_05_channel_unitarity_and_periodicity():
    worst_mod = 0.0
    for alpha in np.arange(0.1, 0.95, 0.1):
        spec = ab_kernel_channels(float(alpha), 32)
        worst_mod = max(worst_mod, float(np.max(np.abs(np.abs(spec.values) - 1.0))))
    worst_shift = 0.0
    for alpha in (0.1, 0.3, 0.55, 0.9, -0.7):
        base = ab_kernel_channels(alpha, 32)
        lifted = ab_kernel_channels(alpha + 2.0, 32)
        worst_shift = max(worst_shift, base.shifted(2).distance(lifted))
    worst_int = 0.0
    for a in (-2, -1, 0, 1, 2, 3):
        spec = ab_kernel_channels(float(a), 32)
        worst_int = max(worst_int, float(np.max(np.abs(spec.values - (-1.0) ** a))))
    ok = worst_mod < 1e-6 and worst_shift < 1e-8 and worst_int == 0.0
    _line(5, "channel unitarity/periodicity", ok,
          f"||2pi c_k|-1|={worst_mod:.3e} (tol 1e-06) "
          f"shift2={worst_shift:.3e} (tol 1e-08) integer_exact={worst_int:.1e}")
    assert worst_mod < 1e-6
    assert worst_shift < 1e-8
    assert worst_int == 0.0


def test_criterion_06_near_diagonal_growth():
    expos = []
    for alpha in (0.25, 0.5, 0.75, 1.3, -0.4):
        S = assemble_kernel(alpha, n_grid=256)
        p, _ = near_diagonal_growth(S)
        expos.append(p)
    lo, hi = min(expos), max(expos)
    ok = lo > 0.9 and hi < 1.1
    _line(6, "near-diagonal growth", ok,
          f"exponents in [{lo:.4f}, {hi:.4f}] (band [0.9, 1.1])")
    assert lo > 0.9
    assert hi < 1.1


def test_criterion_07_solver_round_trip():
    rng = np.random.default_rng(207)
    t0 = time.perf_counter()
    worst_phi = 0.0
    for alpha in (0.25, 0.5, 0.75):
        S1 = assemble_kernel(alpha, n_grid=256)
        for m in range(-3, 4):
            phi = _random_profile(rng, 8, 0.05)
            g = GaugeElement(dimension=2, m=m, phi=phi)
            S2 = apply_gauge_to_kernel(S1, g)
            res = gauge_equivalence_solver(S1, S2)
            assert res.verdict == "equivalent", (alpha, m)
            assert res.gauge.m == m, (alpha, m)
            worst_phi = max(worst_phi, res.gauge.phi.distance(phi))
    n_amb = 0
    for a in (-1, 0, 1, 2):
        S = assemble_kernel(float(a), n_grid=256)
        n_amb += int(gauge_equivalence_solver(S, S).verdict == "ambiguous")
    elapsed = time.perf_counter() - t0
    ok = worst_phi < 1e-6 and n_amb == 4 and elapsed < 30.0
    _line(7, "solver round trip", ok,
          f"21/21 gauges exact m, max|phi err|={worst_phi:.3e} (tol 1e-06), "
          f"integer ambiguous {n_amb}/4, runtime={elapsed:.1f}s (limit 30s)")
    assert worst_phi < 1e-6
    assert n_amb == 4
    assert elapsed < 30.0


def test_criterion_08_tomographic_recovery():
    angles, offsets = parallel_geometry(180, 256, 1.001, 3.5)

    scalar = catalog.build_scalar(
        "gaussian_ring",
        {"amplitude": 1.0, "r0": 2.2, "sigma": 0.4, "modulation": [[2, 0.3, 0.1]]},
        dimension=2)
    cfg_v = PotentialConfig(dimension=2, obstacle_radius=1.0, scalar=scalar)
    recV = radon_invert_scalar(forward_sinogram(cfg_v, angles, offsets, kind="scalar"))
    err_v = recV.l2_relative_error(scalar)

    bump = catalog.build_vector(
        "ring_bump_tangential",
        {"b0": 0.4, "r0": 2.0, "sigma": 0.35}, dimension=2)
    cfg_b = PotentialConfig(
        dimension=2, obstacle_radius=1.0,
        transversal=TransversalField.from_profile(AngularFunction.constant(0.4)),
        short_range=bump)
    recB = recover_field_2d(forward_sinogram(cfg_b, angles, offsets, kind="vector"))
    err_b = recB.l2_relative_error(
        lambda pts: np.asarray(curl(cfg_b, pts, step_rel=1e-5)))

    grad_profile = AngularFunction.from_coefficients({1: 0.15, 2: -0.1j})
    cfg_g = PotentialConfig(
        dimension=2, obstacle_radius=1.0,
        transversal=TransversalField.from_profile(grad_profile))
    recG = recover_field_2d(forward_sinogram(cfg_g, angles, offsets, kind="vector"))
    rr, tt = np.meshgrid(recG.radii, recG.thetas, indexing="ij")
    pts = np.column_stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])
    scale_a = float(np.max(np.linalg.norm(cfg_g.transversal(pts), axis=1)))
    err_g = recG.max_abs() / scale_a

    ok = err_v < 0.05 and err_b < 0.08 and err_g < 1e-3
    _line(8, "tomographic recovery", ok,
          f"V rel L2={err_v:.3e} (tol 5e-02) B rel L2={err_b:.3e} (tol 8e-02) "
          f"gradient max|B|/scale={err_g:.3e} (tol 1e-03)")
    assert err_v < 0.05
    assert err_b < 0.08
    assert err_g < 1e-3


def test_criterion_09_gauge_scalar_reconstruction():
    rng = np.random.default_rng(209)
    worst = 0.0
    for _ in range(20):
        bumps = []
        for _ in range(int(rng.integers(1, 4))):
            rad = rng.uniform(1.6, 3.2)
            ang = rng.uniform(0, 2 * np.pi)
            bumps.append([rng.uniform(0.2, 0.5), rad * np.cos(ang),
                          rad * np.sin(ang), rng.uniform(0.7, 1.3)])
        fld = catalog.build_vector("grad_bumps", {"bumps": bumps}, dimension=2)
        gs = find_gauge_scalar(fld, r_in=1.2, r_out=4.0)
        h = 1e-5
        for _ in range(12):
            r = rng.uniform(1.3, 3.8)
            th = rng.uniform(0, 2 * np.pi)
            q = np.array([r * np.cos(th), r * np.sin(th)])
            grad = np.zeros(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                grad[j] = (gs(q + e) - gs(q - e)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(grad - fld(q[None])[0]))))
    n_flux = 0
    for _ in range(20):
        alpha = rng.uniform(-3.0, 3.0)
        while abs(alpha - np.round(alpha)) < 0.05:
            alpha = rng.uniform(-3.0, 3.0)
        tr = TransversalField.from_profile(AngularFunction.constant(alpha))
        fld = ShortRangeField(dimension=2, func=tr,
                              envelope=DecayEnvelope(C=abs(alpha) + 0.1, eps0=1.0))
        try:
            find_gauge_scalar(fld, r_in=1.2, r_out=4.0)
        except ResidualFlux:
            n_flux += 1
    ok = worst < 1e-6 and n_flux == 20
    _line(9, "gauge scalar reconstruction", ok,
          f"max FD residual={worst:.3e} (tol 1e-06), flux rejected {n_flux}/20")
    assert worst < 1e-6
    assert n_flux == 20


def test_criterion_10_space_identities():
    rng = np.random.default_rng(210)
    grid = sphere_grid(2)

    worst_even = 0.0
    for _ in range(5):
        c = rng.uniform(-1.0, 1.0, 4)
        W = grid.vertices
        vals = (c[0] * W[:, 0] ** 2 + c[1] * W[:, 1] * W[:, 2]
                + c[2] * W[:, 0] * W[:, 1] + c[3] * (W[:, 2] ** 2 - 1.0 / 3.0))
        defect = antipodal_defect(SphereFunction(grid=grid, values=vals))
        worst_even = max(worst_even, defect.max_defect)

    worst_plane = 0.0
    for _ in range(100):
        a, b, c, d = rng.uniform(-0.5, 0.5, 4)

        def grad_psi(p, a=a, b=b, c=c, d=d):
            p = np.atleast_2d(p)
            r = np.linalg.norm(p, axis=1)
            w = p / r[:, None]
            gw = np.column_stack([a * w[:, 1] + 3 * d * w[:, 0] ** 2,
                                  a * w[:, 0] + b * w[:, 2],
                                  b * w[:, 1] + 2 * c * w[:, 2]])
            radial = np.sum(gw * w, axis=1)
            return (gw - radial[:, None] * w) / r[:, None]

        A = ShortRangeField(dimension=3, func=grad_psi,
                            envelope=DecayEnvelope(C=10.0, eps0=1.0))
        point = rng.normal(size=3)
        point *= rng.uniform(2.5, 5.0) / np.linalg.norm(point)
        q1, q2 = rng.normal(size=3), rng.normal(size=3)
        e1 = q1 / np.linalg.norm(q1)
        e2 = q2 - (q2 @ e1) * e1
        e2 /= np.linalg.norm(e2)
        rest = plane_restrict(A, Plane(point=point, e1=e1, e2=e2),
                              half_width=1.0, n=5)
        worst_plane = max(worst_plane, float(np.max(np.abs(rest))))

    radii = np.geomspace(4.0, 64.0, 6)
    W = grid.vertices
    b_true = 0.7 * W[:, 0] ** 2 - 0.4 * W[:, 1] * W[:, 2]

    def B(p):
        r2 = np.sum(p**2, axis=1)
        w = p / np.sqrt(r2)[:, None]
        lead = 0.7 * w[:, 0] ** 2 - 0.4 * w[:, 1] * w[:, 2]
        tail = 0.3 * w[:, 0] * w[:, 2] / np.sqrt(r2)
        return (lead + tail) / r2

    lead = extract_leading_order(radii, sample_on_spheres(B, radii, grid), grid)
    err_lead = float(np.max(np.abs(lead.values - b_true)))

    ok = worst_even < 1e-12 and worst_plane < 1e-6 and err_lead < 1e-6
    _line(10, "space identities", ok,
          f"even defect={worst_even:.1e} (tol 1e-12) "
          f"plane restriction={worst_plane:.3e} (tol 1e-06) "
          f"leading order={err_lead:.3e} (tol 1e-06)")
    assert worst_even < 1e-12
    assert worst_plane < 1e-6
    assert err_lead < 1e-6


def test_criterion_11_end_to_end_classify():
    scalar = catalog.build_scalar("gaussian_ring",
                                  {"amplitude": 0.8, "r0": 2.4, "sigma": 0.5},
                                  dimension=2)
    L = catalog.build_scalar("gaussian_bumps",
                             {"bumps": [[0.3, 2.0, 0.7, 1.0]]}, dimension=2)
    cfg1 = PotentialConfig(
        dimension=2, obstacle_radius=1.0,
        transversal=TransversalField.from_profile(
            AngularFunction.from_coefficients({0: 0.3, 1: 0.025})),
        scalar=scalar)
    phi = AngularFunction.from_coefficients({2: 0.05, 3: -0.02j})

    verdicts = []
    for m in range(-2, 3):
        g = GaugeElement(dimension=2, m=m, phi=phi, scalar=L)
        cfg2 = apply_gauge_to_potential(cfg1, g)
        sc = Scenario(kind="classify", config1=cfg1, config2=cfg2,
                      kernels={"n_grid": 256, "lam": 1.0,
                               "relating_gauge": {"m": m, "phi": phi.to_triples()}})
        rep = run_classify(sc)
        verdicts.append(rep.verdict == "equivalent" and rep.gauge["m"] == m
                        and rep.all_passed())
    n_eq = sum(verdicts)

    bump_v = catalog.build_scalar("gaussian_bumps",
                                  {"bumps": [[0.5, 1.5, 0.8, 0.6]]}, dimension=2)
    cfg2b = PotentialConfig(dimension=2, obstacle_radius=1.0,
                            transversal=cfg1.transversal, scalar=bump_v)
    sc_v = Scenario(kind="classify", config1=cfg1, config2=cfg2b,
                    kernels={"n_grid": 256, "lam": 1.0})
    rep_v = run_classify(sc_v)
    v_ok = (rep_v.verdict == "not_equivalent"
            and rep_v.witness["kind"] == "scalar_transform")

    g = GaugeElement(dimension=2, m=1, phi=phi, scalar=L)
    cfg2 = apply_gauge_to_potential(cfg1, g)
    sc = Scenario(kind="classify", config1=cfg1, config2=cfg2,
                  kernels={"n_grid": 256, "lam": 1.0,
                           "relating_gauge": {"m": 1, "phi": phi.to_triples()}})
    det_ok = run_classify(sc).to_json() == run_classify(sc).to_json()

    ok = n_eq == 5 and v_ok and det_ok
    _line(11, "end-to-end classify", ok,
          f"gauge matrix equivalent {n_eq}/5, V-bump witnessed={v_ok}, "
          f"deterministic={det_ok}")
    assert n_eq == 5
    assert v_ok
    assert det_ok
