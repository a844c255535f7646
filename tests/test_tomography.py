"""Line integrals, winding resolution, exterior inversion, gauge scalars,
plane restrictions."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.special import gamma

from gaugekit import catalog, tomography
from gaugekit.angular import AngularFunction, SphereFunction, sphere_grid
from gaugekit.errors import (
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
from gaugekit.fields import (
    DecayEnvelope,
    GaugeElement,
    PotentialConfig,
    ScalarPotential,
    ShortRangeField,
    TransversalField,
    apply_gauge_to_potential,
    gradient_of_direction_function,
)
from gaugekit.tomography import (
    Line,
    Plane,
    Sinogram,
    XRayData,
    annulus_points,
    antipodal_defect,
    find_gauge_scalar,
    forward_sinogram,
    line_at,
    line_integral_scalar,
    line_integral_vector,
    line_integrals_scalar,
    line_integrals_vector,
    parallel_geometry,
    plane_restrict,
    polar_points,
    radon_invert_scalar,
    recover_field_2d,
    resolve_winding,
    synthetic_winding_family,
)
from gaugekit.tomography import (
    _gauss_kronrod,
    _gauss_legendre,
    _line_rule,
    _not_a_knot_slopes,
    _spline_derivative,
    _spline_interval,
)
from oracles import (
    adaptive_line_integral,
    fixed_line_rule,
    line_integral_vector_quadrature,
    per_angle_sinogram,
)


def _power_scalar(p_exp=3.0, amp=1.0, dim=2):
    def f(p):
        return amp * (1.0 + np.sum(p**2, axis=1)) ** (-p_exp / 2.0)
    return ScalarPotential(dimension=dim, func=f,
                           envelope=DecayEnvelope(C=amp, eps0=p_exp - 1.0))


class TestLine:
    def test_from_impact_angle(self):
        ln = Line.from_impact_angle(2.0, 0.3)
        assert ln.distance == pytest.approx(2.0, abs=1e-12)
        assert abs(np.dot(ln.x0, ln.omega)) < 1e-12
        wedge = ln.x0[0] * ln.omega[1] - ln.x0[1] * ln.omega[0]
        assert wedge == pytest.approx(2.0, abs=1e-12)  # positively oriented

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            Line(x0=np.array([1.0, 0.0]), omega=np.array([0.0, 2.0]))

    def test_points_parametrization(self):
        ln = Line.from_impact_angle(1.5, 1.0)
        pts = ln.points(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(pts[1], ln.x0, atol=1e-15)
        np.testing.assert_allclose(pts[2] - pts[0], 3.0 * ln.omega, atol=1e-14)


class TestLineIntegralScalar:
    def test_zero_potential(self):
        V = catalog.build_scalar("zero")
        assert line_integral_scalar(V, Line.from_impact_angle(2.0, 0.1)) == 0.0

    @pytest.mark.parametrize("d", [1.5, 2.0, 3.7])
    def test_closed_form_power(self, d):
        # int (1 + d^2 + s^2)^(-3/2) ds = 2 / (1 + d^2)
        V = _power_scalar(3.0)
        val = line_integral_scalar(V, Line.from_impact_angle(d, 0.7), tail_tol=1e-12)
        assert val == pytest.approx(2.0 / (1.0 + d**2), abs=1e-10)

    def test_distant_bump_negligible(self):
        V = catalog.build_scalar("gaussian_bumps", {"bumps": [[1.0, 0.0, 40.0, 0.5]]})
        val = line_integral_scalar(V, Line.from_impact_angle(2.0, np.pi / 2))
        assert abs(val) < 1e-9

    def test_line_through_obstacle(self):
        V = _power_scalar()
        with pytest.raises(LineHitsObstacle):
            line_integral_scalar(V, Line.from_impact_angle(0.5, 0.0),
                                 obstacle_radius=1.0)

    def test_missing_envelope(self):
        with pytest.raises(TailNotBounded):
            line_integral_scalar(lambda p: np.ones(p.shape[0]),
                                 Line.from_impact_angle(2.0, 0.0))

    def test_no_lines(self):
        vals, est = line_integrals_scalar(_power_scalar(), [])
        assert vals.shape == est.shape == (0,)


def _power_closed_form(c, p, d):
    # int c (1 + d^2 + s^2)^(-p/2) ds over the whole line
    return c * np.sqrt(np.pi) * gamma((p - 1) / 2) / gamma(p / 2) * (1 + d**2) ** ((1 - p) / 2)


def _random_lines(seed, n=32):
    rng = np.random.default_rng(seed)
    return [Line.from_impact_angle(rng.uniform(1.05, 6.0), rng.uniform(0, 2 * np.pi))
            for _ in range(n)]


class TestGaussKronrod:
    """The 25-node Kronrod extension of the 12-node Gauss rule."""

    def test_gauss_nodes_sit_inside(self):
        x, w = _gauss_kronrod(12)
        xg, wg = _gauss_legendre(12)
        assert x.shape == (25,) and w.shape == (2, 25)
        np.testing.assert_array_equal(x[1::2], xg)
        # the second row is the Kronrod minus the Gauss weights
        np.testing.assert_array_equal((w[0] - w[1])[1::2], wg)
        np.testing.assert_array_equal(w[1, 0::2], w[0, 0::2])
        assert np.all(np.diff(x) > 0) and -1 < x[0] and x[-1] < 1

    def test_exact_to_degree_37(self):
        x, w = _gauss_kronrod(12)
        for d in range(39):
            exact = 0.0 if d % 2 else 2.0 / (d + 1)
            err = abs(float(w[0] @ x**d) - exact)
            if d <= 37:
                assert err <= 1e-15, (d, err)
            else:
                assert err > 1e-14, (d, err)

    def test_weights_positive_and_symmetric(self):
        x, w = _gauss_kronrod(12)
        assert np.all(w[0] > 0)
        np.testing.assert_array_equal(x, -x[::-1])
        np.testing.assert_array_equal(w, w[:, ::-1])

    def test_read_only(self):
        x, w = _gauss_kronrod(12)
        assert _gauss_kronrod(12)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestLineRule:
    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
    def test_closed_form_power_slow_decay(self, p):
        V = catalog.build_scalar("power", {"c": 0.8, "p": p})
        lines = _random_lines(31)
        d = np.array([ln.distance for ln in lines])
        exact = _power_closed_form(0.8, p, d)
        vals, est = line_integrals_scalar(V, lines)
        assert np.max(np.abs(vals - exact)) < 1e-9
        assert np.max(est) < 1e-9
        for ln, ref in zip(lines[:5], exact):
            assert abs(line_integral_scalar(V, ln) - ref) < 1e-9

    @pytest.mark.parametrize("p", [0.8, 1.0])
    def test_non_integrable_decay_is_typed(self, p):
        with pytest.raises(TailNotBounded):
            catalog.build_scalar("power", {"p": p})
        # the envelope catalog power scalars used to declare for p <= 1
        V = ScalarPotential(dimension=2, func=lambda x: (1 + np.sum(x**2, axis=1)) ** (-p / 2),
                            envelope=DecayEnvelope(C=1.0, eps0=1e-6))
        ln = Line.from_impact_angle(2.0, 0.3)
        with pytest.raises(TailNotBounded):
            line_integral_scalar(V, ln)
        with pytest.raises(TailNotBounded):
            line_integrals_scalar(V, [ln, Line.from_impact_angle(3.0, 1.0)])

    @pytest.mark.parametrize("scalar,exact", [
        # the bump's maximum on the line is 1, its declared envelope 1e-8
        ({"kind": "gaussian_bumps", "params": {"bumps": [[1.0, 1.5, 3.0, 0.3]]},
          "C": 1e-8, "eps0": 2.0}, 0.3 * np.sqrt(2.0 * np.pi)),
        ({"kind": "power", "params": {"c": 0.8, "p": 3.0}, "C": 1e-7, "eps0": 2.0},
         _power_closed_form(0.8, 3.0, 1.5)),
    ], ids=["gaussian_bumps", "power"])
    def test_understated_envelope_is_not_trusted(self, scalar, exact):
        # a declared C far below the field's magnitude must not cut the line
        # short: the decay rate alone maps both tails, and K25 - G12 measures
        # them
        cfg = catalog.config_from_dict({"dimension": 2, "obstacle_radius": 1.0, "scalar": scalar})
        vals, est = line_integrals_scalar(
            cfg.scalar, [Line(x0=np.array([1.5, 0.0]), omega=np.array([0.0, 1.0]))])
        assert abs(vals[0] - exact) <= 1e-12
        assert est[0] <= tomography.TAIL_TOL

    @pytest.mark.parametrize("kind,params", [
        ("zero", {}),
        ("gaussian_ring", {"amplitude": 0.8, "r0": 2.15, "sigma": 0.4,
                           "modulation": [[2, 0.2, -0.1]]}),
        ("gaussian_ring", {"amplitude": 1.0, "r0": 1.5, "sigma": 0.25}),
        ("gaussian_bumps", {"bumps": [[0.45, 0.2, 0.0, 0.75], [0.45, -0.1, 0.17, 0.75]]}),
        ("gaussian_bumps", {"bumps": [[0.5, 2.0, 0.7, 0.5], [-0.4, -1.5, 1.6, 0.8]]}),
        ("power", {"c": 0.75, "p": 1.5}),
        ("power", {"c": 0.75, "p": 3.0}),
    ])
    def test_scalar_kinds_match_adaptive_oracle(self, kind, params):
        V = catalog.build_scalar(kind, params)
        lines = _random_lines(5)
        x0s = np.array([ln.x0 for ln in lines])
        vals, _ = _line_rule(V.envelope.eps0, np.linalg.norm(x0s, axis=1), 1e-9)(
            V, x0s, np.array([ln.omega for ln in lines]))
        ref = [adaptive_line_integral(V, ln) for ln in lines]
        np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind,params", [
        ("zero", {}),
        ("grad_power", {"c": 1.0, "p": 1.0}),
        ("grad_bumps", {"bumps": [[0.5, 1.6, 0.4, 0.5], [-0.2, -1.0, 1.2, 0.6]]}),
        ("ring_bump_tangential", {"b0": 1.0, "r0": 1.5, "sigma": 0.25}),
    ])
    def test_vector_kinds_match_adaptive_oracle(self, kind, params):
        F = catalog.build_vector(kind, params)
        lines = _random_lines(6)
        x0s = np.array([ln.x0 for ln in lines])
        vals, _ = _line_rule(F.envelope.eps0, np.linalg.norm(x0s, axis=1), 1e-9)(
            F, x0s, np.array([ln.omega for ln in lines]))
        ref = [adaptive_line_integral(F, ln) for ln in lines]
        np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("width", [0.05, 0.08, 0.12])
    def test_estimate_bounds_the_error(self, width):
        # a bump on the lines' path: the estimate, |K25 - G12|, runs from
        # 1.6e-7 at width 0.05 to 9.4e-14 at 0.12, above the true error
        V = catalog.build_scalar("gaussian_bumps", {"bumps": [[1.0, 2.0, 0.0, width]]})
        lines = [Line.from_impact_angle(d, 0.0) for d in np.linspace(1.5, 2.3, 9)]
        vals, est = line_integrals_scalar(V, lines, tail_tol=1e-6)
        ref = np.array([adaptive_line_integral(V, ln) for ln in lines])
        assert np.all(np.abs(vals - ref) <= est + 1e-14)

    @pytest.mark.parametrize("width", [0.02, 0.03])
    def test_narrow_bump_is_refined(self, width):
        # the starting panels miss their share of tail_tol on these bumps, so
        # the panels on them are bisected until they meet it
        V = catalog.build_scalar("gaussian_bumps", {"bumps": [[1.0, 2.0, 0.0, width]]})
        lines = [Line.from_impact_angle(d, 0.0) for d in np.linspace(1.5, 2.3, 9)]
        vals, est = line_integrals_scalar(V, lines, tail_tol=1e-6)
        ref = np.array([adaptive_line_integral(V, ln) for ln in lines])
        assert np.all(np.abs(vals - ref) <= est + 1e-14)

    @pytest.mark.parametrize("width", [0.001])
    def test_unresolved_bump_raises_non_convergent(self, width):
        # _LINE_DEPTH bisections leave the panels next to s = 0 too wide for
        # this bump: they are accepted at the cap, and the line's summed
        # estimate exceeds tail_tol
        V = catalog.build_scalar("gaussian_bumps", {"bumps": [[1.0, 2.0, 0.0, width]]})
        lines = [Line.from_impact_angle(d, 0.0) for d in np.linspace(1.5, 2.3, 9)]
        with pytest.raises(NonConvergent, match="Kronrod/Gauss difference"):
            line_integrals_scalar(V, lines, tail_tol=1e-6)

    def test_narrow_spike_is_refined(self):
        # adaptive quad loses this spike (its first bisection puts s = 0 at an
        # interval end, where it has no node), so the reference is the closed
        # form w sqrt(2 pi)
        V = catalog.build_scalar("gaussian_bumps", {"bumps": [[1.0, 2.0, 0.0, 0.01]]})
        vals, est = line_integrals_scalar(
            V, [Line(x0=np.array([2.0, 0.0]), omega=np.array([0.0, 1.0]))])
        assert est[0] <= 1e-9
        assert abs(vals[0] - 0.01 * np.sqrt(2.0 * np.pi)) <= est[0]

    def test_batch_equals_single_lines(self):
        V = catalog.build_scalar("gaussian_ring", {"amplitude": 0.7, "r0": 2.0, "sigma": 0.3})
        lines = _random_lines(9, n=8)
        vals, est = line_integrals_scalar(V, lines)
        single = [line_integral_scalar(V, ln) for ln in lines]
        np.testing.assert_allclose(vals, single, rtol=0, atol=1e-15)
        # the oracle's own absolute error is near its epsabs, 1e-13, on lines
        # whose integral is tiny, as in test_estimate_bounds_the_error
        ref = np.array([adaptive_line_integral(V, ln) for ln in lines])
        assert est.shape == (8,) and np.all(est <= 1e-9)
        assert np.all(np.abs(vals - ref) <= est + 1e-14)


class TestLineIntegralVector:
    def test_pure_ab_gives_alpha_pi(self):
        tr = TransversalField.from_profile(AngularFunction.constant(1.0))
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, transversal=tr)
        val = line_integral_vector(cfg, Line.from_impact_angle(2.0, 0.4))
        assert val == pytest.approx(np.pi, abs=1e-12)

    def test_gradient_profile_antipodal_difference(self):
        # A = grad(sin theta); direction (0,1) picks up sin(pi/2) - sin(3pi/2) = 2
        phi = AngularFunction.harmonic(1, sin_amp=1.0)
        tr = TransversalField.from_profile(phi.derivative())
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, transversal=tr)
        ln = Line(x0=np.array([5.0, 0.0]), omega=np.array([0.0, 1.0]))
        assert line_integral_vector(cfg, ln) == pytest.approx(2.0, abs=1e-12)

    def test_even_gradient_part_drops(self):
        phi = AngularFunction.harmonic(2, cos_amp=1.0)
        prof = AngularFunction.constant(0.5) + phi.derivative()
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0,
                              transversal=TransversalField.from_profile(prof))
        rng = np.random.default_rng(2)
        for _ in range(5):
            ln = Line.from_impact_angle(rng.uniform(1.5, 4.0), rng.uniform(0, 2 * np.pi))
            assert line_integral_vector(cfg, ln) == pytest.approx(0.5 * np.pi, abs=1e-10)

    def test_constancy_over_lines(self):
        tr = TransversalField.from_profile(AngularFunction.constant(0.37))
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, transversal=tr)
        rng = np.random.default_rng(8)
        vals = [line_integral_vector(
            cfg, Line.from_impact_angle(rng.uniform(1.2, 30.0), rng.uniform(0, 2 * np.pi)))
            for _ in range(25)]
        assert np.ptp(vals) < 1e-10

    def test_split_matches_brute_quadrature(self):
        prof = AngularFunction.constant(0.6) + AngularFunction.harmonic(1, sin_amp=0.2) \
            + AngularFunction.harmonic(4, cos_amp=0.15)
        cfg = PotentialConfig(
            dimension=2, obstacle_radius=1.0,
            transversal=TransversalField.from_profile(prof),
            short_range=catalog.build_vector(
                "grad_bumps", {"bumps": [[0.5, 1.6, 0.4, 0.5], [-0.2, -1.0, 1.2, 0.6]]}))
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(200):
            ln = Line.from_impact_angle(rng.uniform(1.2, 5.0), rng.uniform(0, 2 * np.pi))
            split = line_integral_vector(cfg, ln)
            brute = line_integral_vector_quadrature(cfg, ln)
            worst = max(worst, abs(split - brute))
        assert worst < 1e-7

    def test_three_d_homogeneous_plus_short_range(self):
        tr = catalog.cross_axis_transversal(axis=(0.0, 0.0, 1.0), c=0.5)
        sr = catalog.build_vector("grad_bumps", {"bumps": [[0.4, 1.5, 0.0, 0.5, 0.6]]},
                                  dimension=3)
        cfg = PotentialConfig(dimension=3, obstacle_radius=1.0,
                              transversal=tr, short_range=sr)
        x0 = np.array([2.0, 1.0, 0.5])
        om = np.array([1.0, -1.0, 3.0])
        om = om / np.linalg.norm(om)
        x0 = x0 - np.dot(x0, om) * om
        lines = [Line(x0=x0, omega=om)] + _random_space_lines(23, n=16)
        split = line_integrals_vector(cfg, lines)
        brute = [line_integral_vector_quadrature(cfg, ln) for ln in lines]
        np.testing.assert_allclose(split, brute, rtol=0, atol=1e-8)

    def test_three_d_homogeneous_closed_form(self):
        # A = c (a x x) / |x|^2 gives c (a x x0) . w pi / |x0| on every line;
        # the line rule maps its tails with rate 1 (A . w decays like s^-2)
        axis, c = np.array([0.0, 0.0, 1.0]), 0.5
        cfg = PotentialConfig(dimension=3, obstacle_radius=1.0,
                              transversal=catalog.cross_axis_transversal(axis=tuple(axis), c=c))
        lines = _random_space_lines(5, n=200)
        exact = [c * np.cross(axis, ln.x0) @ ln.omega * np.pi / ln.distance for ln in lines]
        np.testing.assert_allclose(line_integrals_vector(cfg, lines), exact, rtol=0, atol=1e-13)

    def test_batch_equals_single_lines(self):
        prof = AngularFunction.constant(0.45) + AngularFunction.harmonic(2, sin_amp=0.1)
        cfg = PotentialConfig(
            dimension=2, obstacle_radius=1.0,
            transversal=TransversalField.from_profile(prof),
            short_range=catalog.build_vector("ring_bump_tangential",
                                             {"b0": 0.4, "r0": 1.9, "sigma": 0.3}))
        lines = _random_lines(12, n=16)
        single = [line_integral_vector(cfg, ln) for ln in lines]
        np.testing.assert_allclose(line_integrals_vector(cfg, lines), single,
                                   rtol=0, atol=1e-15)
        assert line_integrals_vector(cfg, []).shape == (0,)

    def test_reversed_direction_negates(self):
        # the vortex part gives alpha pi sign(x0 ^ w); the gradient part and
        # the remainder are odd in w by themselves
        prof = AngularFunction.constant(0.6) + AngularFunction.harmonic(3, cos_amp=0.2)
        cfg = PotentialConfig(
            dimension=2, obstacle_radius=1.0,
            transversal=TransversalField.from_profile(prof),
            short_range=catalog.build_vector(
                "grad_bumps", {"bumps": [[0.5, 1.6, 0.4, 0.5], [-0.2, -1.0, 1.2, 0.6]]}))
        lines = _random_lines(31, n=32)
        forward = line_integrals_vector(cfg, lines)
        back = line_integrals_vector(cfg, [Line(x0=ln.x0, omega=-ln.omega) for ln in lines])
        np.testing.assert_allclose(back, -forward, rtol=0, atol=1e-12)

    def test_sinogram_nodes_equal_line_integrals(self):
        prof = AngularFunction.constant(0.3) + AngularFunction.harmonic(1, cos_amp=0.2)
        cfg = PotentialConfig(
            dimension=2, obstacle_radius=1.0,
            transversal=TransversalField.from_profile(prof),
            short_range=catalog.build_vector(
                "grad_bumps", {"bumps": [[0.5, 1.6, 0.4, 0.5], [-0.2, -1.0, 1.2, 0.6]]}))
        angles, offsets = parallel_geometry(6, 10, 1.001, 3.5)
        sino = forward_sinogram(cfg, angles, offsets, kind="vector")
        for i, ang in enumerate(angles):
            for j, t in enumerate(offsets):
                ref = line_integral_vector(cfg, line_at(ang, t))
                assert abs(sino.values[i, j] - ref) < 1e-13

    def test_line_dimension_mismatch_is_typed(self):
        vortex = TransversalField.from_profile(AngularFunction.constant(0.2))
        plane = PotentialConfig(dimension=2, obstacle_radius=1.0, transversal=vortex)
        space = PotentialConfig(dimension=3, obstacle_radius=1.0,
                                transversal=catalog.cross_axis_transversal(c=0.3))
        with pytest.raises(DimensionMismatch):
            line_integrals_vector(plane, _random_space_lines(1, n=2))
        with pytest.raises(DimensionMismatch):
            line_integral_vector(space, Line.from_impact_angle(2.0, 0.3))

    def test_line_through_obstacle(self):
        vortex = TransversalField.from_profile(AngularFunction.constant(0.2))
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, transversal=vortex)
        with pytest.raises(LineHitsObstacle):
            line_integrals_vector(cfg, [Line.from_impact_angle(2.0, 0.0),
                                        Line.from_impact_angle(0.5, 0.0)])


def _random_space_lines(seed, n):
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        om = rng.normal(size=3)
        om /= np.linalg.norm(om)
        x0 = rng.normal(size=3)
        x0 -= np.dot(x0, om) * om
        x0 *= rng.uniform(1.2, 5.0) / np.linalg.norm(x0)
        lines.append(Line(x0=x0, omega=om))
    return lines


def test_annulus_points_draw_radii_then_angles():
    pts = annulus_points(np.random.default_rng(5), 1.2, 3.5, 40)
    rng = np.random.default_rng(5)
    r, th = rng.uniform(1.2, 3.5, 40), rng.uniform(0, 2 * np.pi, 40)
    np.testing.assert_array_equal(pts, np.column_stack([r * np.cos(th), r * np.sin(th)]))
    assert np.all((np.hypot(*pts.T) >= 1.2 - 1e-12) & (np.hypot(*pts.T) < 3.5))


class TestResolveWinding:
    def test_all_ones(self):
        lines = [Line.from_impact_angle(d, 0.0) for d in np.linspace(2, 30, 40)]
        data = XRayData(lines=lines, values=np.ones(40, dtype=complex), kind="vector_exp")
        assert resolve_winding(data) == 0

    @pytest.mark.parametrize("m,eps0", [(1, 1.0), (-2, 0.5), (3, 2.0), (0, 1.0)])
    def test_synthetic_families(self, m, eps0):
        data = synthetic_winding_family(m, eps0)
        assert resolve_winding(data) == m

    def test_half_pi_jump_ambiguous(self):
        lines = [Line.from_impact_angle(d, 0.0) for d in (2.0, 4.0)]
        data = XRayData(lines=lines, values=np.exp(1j * np.array([0.0, np.pi])),
                        kind="vector_exp")
        with pytest.raises(BranchAmbiguous):
            resolve_winding(data)

    def test_half_integer_limit_ambiguous(self):
        lines = [Line.from_impact_angle(d, 0.0) for d in np.linspace(2, 20, 30)]
        data = XRayData(lines=lines,
                        values=np.full(30, np.exp(1j * 0.9 * np.pi)), kind="vector_exp")
        with pytest.raises(BranchAmbiguous):
            resolve_winding(data)

    @pytest.mark.parametrize("kind", ["scalar", "vector", "vector_exp"])
    def test_no_lines_refused(self, kind):
        with pytest.raises(ValueError, match="at least one line"):
            XRayData(lines=(), values=np.zeros(0), kind=kind)


class TestRadonInvertScalar:
    def test_zero_data(self):
        angles, offsets = parallel_geometry(16, 16, 1.0, 3.0)
        sino = Sinogram(angles=angles, offsets=offsets,
                        values=np.zeros((16, 16)), kind="scalar", obstacle_radius=1.0)
        rec = radon_invert_scalar(sino)
        assert rec.max_abs() < 1e-14

    def test_insufficient_coverage(self):
        angles, offsets = parallel_geometry(4, 16, 1.0, 3.0)
        sino = Sinogram(angles=angles, offsets=offsets,
                        values=np.zeros((4, 16)), kind="scalar", obstacle_radius=1.0)
        with pytest.raises(InsufficientCoverage):
            radon_invert_scalar(sino)

    def test_convergence_under_refinement(self):
        V = catalog.build_scalar("gaussian_ring",
                                 {"amplitude": 1.0, "r0": 1.8, "sigma": 0.45})
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, scalar=V)
        errs = []
        for na, no in [(12, 16), (24, 32), (48, 64)]:
            angles, offsets = parallel_geometry(na, no, 1.001, 3.5)
            rec = radon_invert_scalar(forward_sinogram(cfg, angles, offsets, kind="scalar"))
            errs.append(rec.l2_relative_error(V))
        assert errs[1] < errs[0] / 1.5
        assert errs[2] < errs[1] / 1.5

    def test_difference_of_identical_depths(self):
        V = catalog.build_scalar("gaussian_ring", {"amplitude": 1.0, "r0": 1.6})
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, scalar=V)
        angles, offsets = parallel_geometry(24, 32, 1.001, 3.5)
        s1 = forward_sinogram(cfg, angles, offsets, kind="scalar")
        diff = Sinogram(angles=angles, offsets=offsets,
                        values=s1.values - s1.values, kind="scalar",
                        obstacle_radius=1.0)
        rec = radon_invert_scalar(diff)
        assert rec.max_abs() < 1e-13

    def test_sinogram_csv_round_trip(self, tmp_path):
        V = catalog.build_scalar("gaussian_ring", {"amplitude": 0.5})
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, scalar=V)
        angles, offsets = parallel_geometry(8, 12, 1.001, 3.0)
        sino = forward_sinogram(cfg, angles, offsets, kind="scalar")
        path = tmp_path / "sino.csv"
        sino.to_csv(path)
        back = Sinogram.from_csv(path, kind="scalar", obstacle_radius=1.0)
        # bit for bit, on a non-square grid: from_csv reads angle-major rows
        np.testing.assert_array_equal(back.angles, sino.angles)
        np.testing.assert_array_equal(back.offsets, sino.offsets)
        np.testing.assert_array_equal(back.values, sino.values)


class TestForwardSinogram:
    def test_scalar_sinogram_without_a_scalar_part_is_zero(self):
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0,
                              transversal=TransversalField.from_profile(
                                  AngularFunction.constant(0.3)))
        angles, offsets = parallel_geometry(5, 8, 1.001, 3.0)
        sino = forward_sinogram(cfg, angles, offsets, kind="scalar")
        assert sino.values.shape == (5, 8)
        np.testing.assert_array_equal(sino.values, 0.0)

    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_space_config_rejected(self, kind):
        # no scalar part: a scalar sinogram must not come back as silent zeros
        cfg = PotentialConfig(dimension=3, obstacle_radius=1.0,
                              transversal=catalog.cross_axis_transversal(c=0.3))
        angles, offsets = parallel_geometry(8, 8, 1.001, 3.0)
        with pytest.raises(DimensionMismatch, match="planar"):
            forward_sinogram(cfg, angles, offsets, kind=kind)


class TestParallelGeometry:
    @pytest.mark.parametrize("args,name", [
        ((0, 8, 1.001, 3.5), "n_angles"),
        ((4, 0, 1.001, 3.5), "n_offsets"),
        ((4, 1, 1.001, 3.5), "n_offsets"),
        ((4, 7, 1.001, 3.5), "n_offsets"),
        ((4, 8, 3.5, 1.001), "r_min"),
        ((4, 8, 2.0, 2.0), "r_min"),
    ])
    def test_degenerate_geometry_is_refused(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            parallel_geometry(*args)

    def test_one_offset_per_bank_needs_no_r_max(self):
        angles, offsets = parallel_geometry(3, 2, 3.5, 1.0)
        np.testing.assert_array_equal(offsets, [-3.5, 3.5])
        assert angles.size == 3


_SINOGRAM_GEOMETRIES = [(45, 64, 3.5), (12, 16, 9.0)]
_SINOGRAM_SCALARS = [
    ("zero", {}),
    ("gaussian_ring", {"amplitude": 0.8, "r0": 2.15, "sigma": 0.4, "modulation": [[2, 0.2, -0.1]]}),
    ("gaussian_ring", {"amplitude": 1.0, "r0": 1.5, "sigma": 0.25}),
    ("gaussian_bumps", {"bumps": [[0.5, 2.0, 0.7, 0.5], [-0.4, -1.5, 1.6, 0.8]]}),
    ("power", {"c": 0.75, "p": 1.5}),
]
_SINOGRAM_REMAINDERS = [
    ("grad_bumps", {"bumps": [[0.5, 1.6, 0.4, 0.5], [-0.2, -1.0, 1.2, 0.6]]}),
    ("ring_bump_tangential", {"b0": 0.4, "r0": 1.9, "sigma": 0.3}),
]


def _counted(part, calls):
    """The field or scalar part with its func recording each call's point count."""
    return dataclasses.replace(part, func=lambda p: calls.append(len(p)) or part.func(p))


def _sinogram_config(short_range=None, scalar=None):
    prof = AngularFunction.constant(0.3) + AngularFunction.harmonic(1, cos_amp=0.2)
    return PotentialConfig(
        dimension=2, obstacle_radius=1.0,
        transversal=None if scalar else TransversalField.from_profile(prof),
        short_range=short_range, scalar=scalar)


class TestSinogramPlan:
    """A sinogram is planned once per geometry and equals, bit for bit, the
    sinogram rebuilt line table by line table for every angle."""

    @pytest.mark.parametrize("geometry", _SINOGRAM_GEOMETRIES)
    @pytest.mark.parametrize("kind,params", _SINOGRAM_SCALARS)
    def test_scalar_equals_per_angle_rules(self, kind, params, geometry):
        cfg = _sinogram_config(scalar=catalog.build_scalar(kind, params))
        angles, offsets = parallel_geometry(geometry[0], geometry[1], 1.001, geometry[2])
        sino = forward_sinogram(cfg, angles, offsets, kind="scalar")
        np.testing.assert_array_equal(sino.values,
                                      per_angle_sinogram(cfg, angles, offsets, "scalar"))

    @pytest.mark.parametrize("geometry", _SINOGRAM_GEOMETRIES)
    @pytest.mark.parametrize("kind,params", _SINOGRAM_REMAINDERS)
    def test_vector_equals_per_angle_rules(self, kind, params, geometry):
        cfg = _sinogram_config(short_range=catalog.build_vector(kind, params))
        angles, offsets = parallel_geometry(geometry[0], geometry[1], 1.001, geometry[2])
        sino = forward_sinogram(cfg, angles, offsets, kind="vector")
        np.testing.assert_array_equal(sino.values,
                                      per_angle_sinogram(cfg, angles, offsets, "vector"))
        np.testing.assert_allclose(
            sino.values, per_angle_sinogram(cfg, angles, offsets, "vector", fixed_line_rule),
            rtol=0, atol=1e-13)

    def test_vector_calls(self, monkeypatch):
        # at most _LINE_DEPTH + 1 line-rule calls per angle, the first with the
        # tails, well under the fixed rule's 650 nodes per line, and one
        # decomposition
        decompositions = []
        decompose = tomography.decompose_transversal
        monkeypatch.setattr(tomography, "decompose_transversal",
                            lambda field: decompositions.append(field) or decompose(field))
        node_tables = []  # every angle's first call passes the same planned table
        on_lines = tomography._on_lines
        monkeypatch.setattr(tomography, "_on_lines",
                            lambda f, x0s, omegas, s: node_tables.append(s) or on_lines(f, x0s, omegas, s))
        calls = []
        sr = _counted(catalog.build_vector(*_SINOGRAM_REMAINDERS[0]), calls)
        angles, offsets = parallel_geometry(12, 16, 1.001, 3.5)
        forward_sinogram(_sinogram_config(short_range=sr), angles, offsets, kind="vector")
        firsts = [i for i, s in enumerate(node_tables) if s is node_tables[0]]
        assert len(firsts) == angles.size and len(calls) == len(node_tables)
        assert np.max(np.diff(firsts + [len(calls)])) <= tomography._LINE_DEPTH + 1
        assert sum(calls) < 0.6 * 650 * offsets.size * angles.size
        assert len(decompositions) == 1

    def test_scalar_calls(self):
        calls = []
        V = _counted(catalog.build_scalar(*_SINOGRAM_SCALARS[1]), calls)
        angles, offsets = parallel_geometry(12, 16, 1.001, 3.5)
        forward_sinogram(_sinogram_config(scalar=V), angles, offsets, kind="scalar")
        assert calls == [offsets.size * 384] * angles.size

    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_lines_through_obstacle_are_refused(self, kind):
        calls = []
        cfg = PotentialConfig(
            dimension=2, obstacle_radius=1.0,
            short_range=_counted(catalog.build_vector(*_SINOGRAM_REMAINDERS[0]), calls),
            scalar=_counted(catalog.build_scalar(*_SINOGRAM_SCALARS[1]), calls))
        angles, offsets = parallel_geometry(8, 8, 0.5, 3.0)
        with pytest.raises(LineHitsObstacle, match="distance 0.500"):
            forward_sinogram(cfg, angles, offsets, kind=kind)
        assert calls == []

    def test_memory_of_a_default_vector_sinogram(self):
        # one 180 x 256 vector sinogram: 3.6 MiB traced peak with the ring
        # bump, 4.0 MiB with the two bumps; batching angles would trade the
        # run's memory for speed
        angles, offsets = parallel_geometry(180, 256, 1.001, 3.5)
        for remainder in _SINOGRAM_REMAINDERS:
            cfg = _sinogram_config(short_range=catalog.build_vector(*remainder))
            tracemalloc.start()
            try:
                forward_sinogram(cfg, angles, offsets, kind="vector")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 2**20, remainder[0]


class TestNotAKnotSpline:
    @pytest.mark.parametrize("n", [8, 32, 128])
    @pytest.mark.parametrize("spacing", ["uniform", "non-uniform"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_scipy_cubic_spline(self, n, spacing, dtype):
        rng = np.random.default_rng(n)
        if spacing == "uniform":
            x = np.linspace(1.001, 3.5, n)
        else:
            x = 1.001 + np.cumsum(rng.uniform(0.05, 1.0, n))
        y = rng.standard_normal((n, 5))
        if dtype is complex:
            y = y + 1j * rng.standard_normal((n, 5))
        slopes = _not_a_knot_slopes(x, y)
        t = np.concatenate([x, rng.uniform(x[0], x[-1], 1000)])
        for j in range(y.shape[1]):
            ref = CubicSpline(x, y[:, j]).derivative()(t)
            got = _spline_derivative(x, y[:, j], slopes[:, j], t)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= 1e-13 * scale
            assert np.max(np.abs(slopes[:, j] - ref[:n])) <= 1e-13 * scale

    def test_cubic_data_reproduced(self):
        # a cubic is its own not-a-knot spline, whatever the spacing
        x = np.array([1.0, 1.3, 2.2, 2.4, 3.9, 4.0])
        slopes = _not_a_knot_slopes(x, np.column_stack([x**3 - 2 * x, 5 - x**2]))
        np.testing.assert_allclose(slopes, np.column_stack([3 * x**2 - 2, -2 * x]),
                                   rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(_not_a_knot_slopes(x, x**3 - 2 * x), 3 * x**2 - 2,
                                   rtol=1e-13, atol=1e-13)

    def test_shared_interval_matches_own_lookup(self):
        rng = np.random.default_rng(4)
        x = 1.001 + np.cumsum(rng.uniform(0.05, 1.0, 40))
        y = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
        slopes = _not_a_knot_slopes(x, y)
        t = np.concatenate([x, rng.uniform(x[0], x[-1], 65)]).reshape(7, 15)
        interval = _spline_interval(x, t)
        for j in range(6):
            got = _spline_derivative(x, y[:, j], slopes[:, j], t, interval)
            assert got.shape == (7, 15)
            np.testing.assert_array_equal(got, _spline_derivative(x, y[:, j], slopes[:, j], t))

    def test_inversion_locates_the_nodes_once(self, monkeypatch):
        angles, offsets = parallel_geometry(45, 64, 1.001, 3.5)
        rng = np.random.default_rng(8)
        sino = Sinogram(angles=angles, offsets=offsets, values=rng.standard_normal((45, 64)),
                        kind="scalar", obstacle_radius=1.0)
        calls = []
        searchsorted = np.searchsorted

        def counted(*args, **kwargs):
            calls.append(1)
            return searchsorted(*args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counted)
        radon_invert_scalar(sino)
        assert len(calls) == 1

    def test_non_increasing_offsets_rejected(self):
        offsets = np.array([-1.0, -3.0, -2.0, 2.0, 3.0, 1.0])
        with pytest.raises(ValueError, match="increase strictly"):
            Sinogram(angles=np.zeros(1), offsets=offsets, values=np.zeros((1, 6)),
                     kind="vector")


class TestRecoverField2d:
    def test_one_offset_per_bank_is_typed(self):
        angles = np.arange(16) * np.pi / 16
        sino = Sinogram(angles=angles, offsets=[-2.0, 2.0], values=np.ones((16, 2)),
                        kind="vector", obstacle_radius=1.0)
        with pytest.raises(InsufficientCoverage, match="8 offsets per bank"):
            recover_field_2d(sino)

    def test_non_uniform_csv_sinogram(self, tmp_path):
        """Non-uniform offsets read back from CSV invert to the field that a
        scipy CubicSpline offset derivative gives."""
        sr = catalog.build_vector("ring_bump_tangential", {"b0": 1.0, "r0": 2.0, "sigma": 0.3})
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, short_range=sr)
        pos = np.geomspace(1.001, 3.5, 24)
        angles = np.arange(24) * np.pi / 24
        sino = forward_sinogram(cfg, angles, np.concatenate([-pos[::-1], pos]), kind="vector")
        path = tmp_path / "sino.csv"
        sino.to_csv(path)
        back = Sinogram.from_csv(path, kind="vector", obstacle_radius=1.0)
        rec = recover_field_2d(back)
        dvals = np.concatenate(
            [np.array([CubicSpline(t, row).derivative()(t) for row in back.values[:, sl]])
             for sl, t in ((slice(None, 24), -pos[::-1]), (slice(24, None), pos))], axis=1)
        ref = radon_invert_scalar(Sinogram(angles=angles, offsets=back.offsets, values=dvals,
                                           kind="scalar", obstacle_radius=1.0))
        assert np.max(np.abs(rec.values - ref.values)) <= 1e-12 * ref.max_abs()
        bump = rec.sample(lambda p: np.exp(-(np.linalg.norm(p, axis=1) - 2.0) ** 2 / 0.18))
        assert rec.l2_relative_error(bump) < 5e-3

    def test_ab_data_gives_zero_field(self):
        tr = TransversalField.from_profile(AngularFunction.constant(0.8))
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, transversal=tr)
        angles, offsets = parallel_geometry(24, 48, 1.001, 3.5)
        sino = forward_sinogram(cfg, angles, offsets, kind="vector")
        rec = recover_field_2d(sino)
        assert rec.max_abs() < 1e-6

    def test_gradient_field_in_kernel(self):
        sr = catalog.build_vector("grad_bumps", {"bumps": [[1.0, 1.8, 0.3, 0.45]]})
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, short_range=sr)
        angles, offsets = parallel_geometry(48, 96, 1.001, 3.5)
        sino = forward_sinogram(cfg, angles, offsets, kind="vector")
        rec = recover_field_2d(sino)
        scale = np.max(np.abs(sr(np.array([[1.8, 0.3 + 0.45]]))))
        assert rec.max_abs() < 1e-3 * scale


class TestNonFiniteFields:
    """A nan or inf field value ends every line and ray integral with
    NonConvergent: no rule returns a nan value."""

    @staticmethod
    def _gaussian(bad, where, calls):
        def f(p):
            calls.append(len(p))
            return np.where(where(p), bad, np.exp(-np.sum(p**2, axis=1)))
        return f

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_line(self, bad):
        calls = []
        V = ScalarPotential(dimension=2, func=self._gaussian(bad, lambda p: p[:, 1] > 5, calls),
                            envelope=DecayEnvelope(C=1.0, eps0=1.0))
        with np.errstate(invalid="ignore"), pytest.raises(
                NonConvergent, match="Kronrod/Gauss difference nan"):
            line_integrals_scalar(V, [Line.from_impact_angle(1.5, 0.0),
                                      Line.from_impact_angle(2.0, 1.0)])
        # the nan panels are accepted, not bisected down to the depth cap
        assert len(calls) <= 2 and sum(calls) < 2 * 650

    @pytest.mark.parametrize("where", ["leg", "tail"])
    def test_gauge_scalar_ray(self, where):
        # F = x e^{-|x|^2 / 8} = grad(-4 e^{-|x|^2 / 8}), nan on a shell of
        # radii inside the far radius 16 (the leg of panels from the point
        # out to it) or beyond it (the tail)
        lo, hi = {"leg": (3.0, 3.5), "tail": (30.0, 40.0)}[where]

        def F(p):
            r = np.linalg.norm(p, axis=1)
            return np.where(((lo < r) & (r < hi))[:, None], np.nan,
                            p * np.exp(-r**2 / 8)[:, None])

        gs = tomography.GaugeScalar(
            field=ShortRangeField(dimension=2, func=F, envelope=DecayEnvelope(C=2.0, eps0=1.0)),
            far_radius=16.0, tail_tol=1e-9)
        match = "gauge-scalar ray Kronrod/Gauss difference nan"
        with pytest.raises(NonConvergent, match=match):
            gs.evaluate(np.array([[2.0, 0.5], [-2.5, 1.0]]))
        with pytest.raises(NonConvergent, match=match):
            gs.on_polar_grid([2.5, 4.0], [0.0, 1.0, 2.0])

    def test_scalar_sinogram(self):
        V = ScalarPotential(dimension=2, func=self._gaussian(np.nan, lambda p: p[:, 1] > 5, []),
                            envelope=DecayEnvelope(C=1.0, eps0=1.0))
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, scalar=V)
        angles, offsets = parallel_geometry(4, 8, 1.5, 3.0)
        with pytest.raises(NonConvergent, match="tangent rule sum is not finite"):
            forward_sinogram(cfg, angles, offsets, kind="scalar")


class TestFindGaugeScalar:
    def test_recovers_inverse_bracket(self):
        # field = grad <x>^-1, potential <x>^-1
        fld = catalog.build_vector("grad_power", {"c": 1.0, "p": 1.0})
        gs = find_gauge_scalar(fld, r_in=1.2, r_out=4.0)
        rng = np.random.default_rng(13)
        r = rng.uniform(1.3, 3.8, 30)
        th = rng.uniform(0, 2 * np.pi, 30)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        expected = (1.0 + r**2) ** -0.5
        np.testing.assert_allclose(gs.evaluate(pts), expected, atol=1e-8)

    def test_tail_closed_form(self):
        # int_R^inf of -s (1 + s^2)^(-3/2) ds along every ray: at the far
        # radius the panels have no length and L is minus that tail
        fld = catalog.build_vector("grad_power", {"c": 1.0, "p": 1.0})
        gs = find_gauge_scalar(fld, r_in=1.2, r_out=4.0)
        R = gs.far_radius
        th = np.array([0.0, 0.5 * np.pi, np.pi, -0.5 * np.pi, 1.0, -2.5])
        dirs = np.column_stack([np.cos(th), np.sin(th)])
        np.testing.assert_allclose(gs.on_polar_grid([R], th)[0], (1.0 + R**2) ** -0.5,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(gs.evaluate(R * dirs), (1.0 + R**2) ** -0.5,
                                   rtol=0, atol=1e-13)

    def test_beyond_far_radius(self):
        # past the far radius the graded panels run back to it; they are
        # accepted as readily as the panels of a point inside it
        fld = catalog.build_vector("grad_power", {"c": 1.0, "p": 1.0})
        gs = find_gauge_scalar(fld, r_in=1.2, r_out=4.0)
        batches = []
        counted = dataclasses.replace(gs, field=dataclasses.replace(
            fld, func=lambda p: batches.append(len(p)) or fld.func(p)))
        dirs = np.column_stack([np.cos([0.3, 2.0]), np.sin([0.3, 2.0])])
        points = {}
        for scale in (0.5, 2.0):
            batches.clear()
            r = scale * gs.far_radius
            np.testing.assert_allclose(counted.evaluate(r * dirs), (1.0 + r**2) ** -0.5,
                                       rtol=0, atol=1e-15)
            points[scale] = sum(batches)
        assert points[2.0] <= points[0.5] == 2 * 175

    def test_field_calls(self):
        # evaluate: one call of 6 graded panels and the tail, 7 x 25 nodes per
        # point; the polar grid: one call for the whole grid, (23 panels
        # between radii + 6 graded + the tail) x 25 per angle, 36,000 for
        # the 24 x 48 grid of gauge_scalar.csv; no panel of this smooth
        # field is bisected
        fld = catalog.build_vector("grad_power", {"c": 1.0, "p": 1.0})
        gs = find_gauge_scalar(fld, r_in=1.2, r_out=4.0)
        batches = []
        counted = dataclasses.replace(gs, field=dataclasses.replace(
            fld, func=lambda p: batches.append(p) or fld.func(p)))
        pts = annulus_points(np.random.default_rng(3), 1.2, 4.0, 7)
        counted.evaluate(pts)
        assert [b.shape for b in batches] == [(7 * 175, 2)]
        batches.clear()
        radii = np.linspace(gs.far_radius / 8.0, gs.far_radius / 2.0, 24)
        counted.on_polar_grid(radii, np.arange(48) * 2 * np.pi / 48)
        assert [b.shape for b in batches] == [(48 * (23 + 6 + 1) * 25, 2)]

    @pytest.mark.parametrize("kind, params", [
        ("gaussian_bumps", {"bumps": [[0.5, 2.2, 0.0, 1.0]]}),
        ("gaussian_bumps", {"bumps": [[0.5, 2.2, 0.0, 0.3]]}),
        ("gaussian_bumps", {"bumps": [[0.5, 2.2, 0.0, 0.05]]}),
        ("gaussian_bumps", {"bumps": [[0.5, 2.2, 0.0, 0.02]]}),
        ("gaussian_ring", {"amplitude": 0.7, "r0": 2.0, "sigma": 0.25,
                           "modulation": [[2, 0.3, -0.2]]}),
        ("power", {"c": 1.0, "p": 1.5}),
    ], ids=["bump-1", "bump-0.3", "bump-0.05", "bump-0.02", "ring", "power-1.5"])
    def test_closed_form(self, kind, params):
        # grad L of a catalog scalar gives back L, which vanishes at
        # infinity; the bumps sit on the grid's ray at angle 0, and the
        # narrow ones are refined, not stepped over
        L = catalog.build_scalar(kind, params, dimension=2)
        cfg = apply_gauge_to_potential(PotentialConfig(dimension=2, obstacle_radius=1.0),
                                       GaugeElement(dimension=2, scalar=L))
        gs = tomography.GaugeScalar(field=cfg.short_range, far_radius=32.0, tail_tol=1e-9)
        radii, thetas = np.linspace(1.2, 4.0, 15), np.arange(24) * 2 * np.pi / 24
        pts = polar_points(radii, thetas)[2]
        np.testing.assert_allclose(gs.evaluate(pts), L(pts), rtol=0, atol=3e-14)
        np.testing.assert_allclose(gs.on_polar_grid(radii, thetas).ravel(), L(pts),
                                   rtol=0, atol=3e-14)

    def test_unresolved_ray_raises(self):
        # F = (x - c)/|x - c| e^{-|x|^2 / 8} jumps at c = (2, 0), on the ray
        # from (1.5, 0): bisection to the depth cap leaves an estimate far
        # above tail_tol, which raises, as on a line
        c = np.array([2.0, 0.0])

        def F(p):
            d = p - c
            return d / np.linalg.norm(d, axis=1)[:, None] * np.exp(-np.sum(p**2, axis=1) / 8)[:, None]

        gs = tomography.GaugeScalar(
            field=ShortRangeField(dimension=2, func=F, envelope=DecayEnvelope(C=2.0, eps0=1.0)),
            far_radius=16.0, tail_tol=1e-9)
        with pytest.raises(NonConvergent, match="gauge-scalar ray Kronrod/Gauss difference"):
            gs.evaluate(np.array([[1.5, 0.0]]))
        with pytest.raises(NonConvergent, match="gauge-scalar ray Kronrod/Gauss difference"):
            gs.on_polar_grid([1.5, 3.0], [0.0, 1.0])

    def test_zero_field(self):
        fld = catalog.build_vector("zero")
        gs = find_gauge_scalar(fld, r_in=1.2, r_out=4.0)
        pts = np.array([[1.5, 0.0], [0.0, 2.5], [-3.0, 1.0]])
        assert np.max(np.abs(gs.evaluate(pts))) < 1e-12

    def test_no_decay_rate_raises_tail_not_bounded(self):
        # a field without an envelope, or with a rate too slow to map, is
        # refused by find_gauge_scalar before its curl check (the swirl is not
        # curl-free), and by a GaugeScalar built on it directly
        def swirl(p):
            return np.column_stack([-p[:, 1], p[:, 0]]) * np.exp(-np.sum(p**2, axis=1) / 8.0)[:, None]

        for envelope in (None, DecayEnvelope(C=1.0, eps0=1e-6)):
            fld = ShortRangeField(dimension=2, func=swirl, envelope=envelope)
            with pytest.raises(TailNotBounded):
                find_gauge_scalar(fld, r_in=1.2, r_out=4.0)
            gs = tomography.GaugeScalar(field=fld, far_radius=16.0, tail_tol=1e-9)
            with pytest.raises(TailNotBounded):
                gs.evaluate(np.array([[2.0, 0.5]]))
            with pytest.raises(TailNotBounded):
                gs.on_polar_grid([2.5, 4.0], [0.0, 1.0])

    @pytest.mark.parametrize("alpha", [0.3, -0.6, 1.4])
    def test_ab_raises_residual_flux(self, alpha):
        tr = TransversalField.from_profile(AngularFunction.constant(alpha))
        fld = ShortRangeField(dimension=2, func=tr,
                              envelope=DecayEnvelope(C=abs(alpha), eps0=1.0))
        with pytest.raises(ResidualFlux):
            find_gauge_scalar(fld, r_in=1.2, r_out=4.0)

    @pytest.mark.parametrize("source", ["swirl", "ring_bump_tangential"])
    def test_curl_raises_not_curl_free(self, source):
        # the ring bump's curl is a Gaussian ring of height 0.4 at radius 1.9
        def swirl(p):
            r2 = np.sum(p**2, axis=1)
            return np.column_stack([-p[:, 1], p[:, 0]]) * np.exp(-r2 / 8.0)[:, None]

        fld = (ShortRangeField(dimension=2, func=swirl, envelope=DecayEnvelope(C=10.0, eps0=1.0))
               if source == "swirl" else
               catalog.build_vector(source, {"b0": 0.4, "r0": 1.9, "sigma": 0.3}))
        with pytest.raises(NotCurlFree):
            find_gauge_scalar(fld, r_in=1.2, r_out=4.0, curl_tol=1e-6)

    def test_narrow_bump_gradients_are_curl_free(self):
        # the gradient of one narrow bump, 20 draws per width: central
        # differences of step 1e-4 |x| read a curl above 1e-6 on 24 of
        # these 60 true gradients; the circulation reads at most 2e-10
        rng = np.random.default_rng(16)
        refused = []
        for w in (0.1, 0.05, 0.02):
            for _ in range(20):
                rad, ang = rng.uniform(1.5, 3.5), rng.uniform(0, 2 * np.pi)
                bump = [0.5, rad * np.cos(ang), rad * np.sin(ang), w]
                try:
                    find_gauge_scalar(catalog.build_vector("grad_bumps", {"bumps": [bump]}),
                                      r_in=1.2, r_out=4.0, curl_tol=1e-6)
                except NotCurlFree:
                    refused.append(bump)
        assert refused == []

    @pytest.mark.parametrize("shell, error", [((2.0, 2.5), NotCurlFree),
                                              ((2.25 - 1e-6, 2.25 + 1e-6), ResidualFlux)])
    def test_nan_on_the_probe_annulus_raises(self, shell, error):
        # F = x e^{-|x|^2 / 8} = grad(-4 e^{-|x|^2 / 8}), nan on a shell of the
        # probe annulus 1.5-3 (a nan curl) or only on the loop's circle, radius
        # 2.25 (a nan loop): a nan fails its check, it does not pass it
        lo, hi = shell

        def F(p):
            r = np.linalg.norm(p, axis=1)
            return np.where(((lo < r) & (r < hi))[:, None], np.nan,
                            p * np.exp(-r**2 / 8)[:, None])

        fld = ShortRangeField(dimension=2, func=F, envelope=DecayEnvelope(C=2.0, eps0=1.0))
        with np.errstate(invalid="ignore"), pytest.raises(error, match="nan"):
            find_gauge_scalar(fld, r_in=1.5, r_out=3.0)

    def test_batch_evaluate_matches_points(self):
        fld = catalog.build_vector("grad_bumps", {"bumps": [[0.5, 2.0, 0.7, 0.8]]})
        gs = find_gauge_scalar(fld, r_in=1.2, r_out=4.0)
        rng = np.random.default_rng(4)
        r = rng.uniform(1.3, 3.8, 25)
        th = rng.uniform(0, 2 * np.pi, 25)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        one_by_one = np.array([gs.evaluate(q)[0] for q in pts])
        np.testing.assert_allclose(gs.evaluate(pts), one_by_one, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("source", ["apply_gauge", "grad_bumps"])
    def test_polar_grid_matches_evaluate(self, source):
        if source == "apply_gauge":
            L = catalog.build_scalar("gaussian_bumps", {"bumps": [[0.4, 1.8, 0.6, 0.9]]},
                                     dimension=2)
            cfg = apply_gauge_to_potential(PotentialConfig(dimension=2, obstacle_radius=1.0),
                                           GaugeElement(dimension=2, scalar=L))
            fld = cfg.short_range
        else:
            fld = catalog.build_vector("grad_bumps",
                                       {"bumps": [[0.6, 2.0, 0.5, 0.6], [-0.4, -1.5, -1.0, 0.7]]})
        gs = find_gauge_scalar(fld, r_in=1.05, r_out=3.5)
        radii = np.linspace(gs.far_radius / 8.0, gs.far_radius / 2.0, 24)
        thetas = np.arange(48) * 2 * np.pi / 48
        want = gs.evaluate(polar_points(radii, thetas)[2]).reshape(24, 48)
        got = gs.on_polar_grid(radii, thetas)
        assert np.max(np.abs(want)) > 1e-3
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # the legs are shared by sorted radius, whatever order they come in
        perm = np.random.default_rng(5).permutation(24)
        np.testing.assert_allclose(gs.on_polar_grid(radii[perm], thetas), got[perm],
                                   rtol=0, atol=1e-15)

    def test_gradient_residual_on_probes(self):
        fld = catalog.build_vector("grad_bumps",
                                   {"bumps": [[0.6, 2.0, 0.5, 0.6], [-0.4, -1.5, -1.0, 0.7]]})
        gs = find_gauge_scalar(fld, r_in=1.2, r_out=4.5)
        rng = np.random.default_rng(17)
        h = 1e-5
        worst = 0.0
        for _ in range(20):
            r, t = rng.uniform(1.4, 4.2), rng.uniform(0, 2 * np.pi)
            q = np.array([r * np.cos(t), r * np.sin(t)])
            grad = np.array([
                (gs.evaluate(q + [h, 0]) - gs.evaluate(q - [h, 0]))[0] / (2 * h),
                (gs.evaluate(q + [0, h]) - gs.evaluate(q - [0, h]))[0] / (2 * h)])
            worst = max(worst, np.max(np.abs(grad - fld(q[None])[0])))
        assert worst < 1e-6


class TestPlaneRestrict:
    def test_gradient_field_restricts_to_zero(self):
        # psi(w) = sin(w1) w2 + w3^3; grad of psi(x/|x|) through the projector
        def grad_psi_dir(p):
            r = np.linalg.norm(p, axis=1)
            w = p / r[:, None]
            gw = np.column_stack([np.cos(w[:, 0]) * w[:, 1],
                                  np.sin(w[:, 0]),
                                  3.0 * w[:, 2] ** 2])
            radial = np.sum(gw * w, axis=1)
            return (gw - radial[:, None] * w) / r[:, None]

        A = ShortRangeField(dimension=3, func=grad_psi_dir,
                            envelope=DecayEnvelope(C=10.0, eps0=1.0))
        plane = Plane(point=np.array([0.0, 0.0, 3.0]),
                      e1=np.array([1.0, 0.0, 0.0]), e2=np.array([0.0, 1.0, 0.0]))
        rest = plane_restrict(A, plane, half_width=1.5, n=9)
        assert np.max(np.abs(rest)) < 1e-7

    def test_constant_two_form(self):
        def B(p):  # constant dx1 ^ dx2
            out = np.zeros((p.shape[0], 3))
            out[:, 0] = 1.0
            return out

        plane = Plane(point=np.array([0.0, 0.0, 2.0]),
                      e1=np.array([1.0, 0.0, 0.0]), e2=np.array([0.0, 1.0, 0.0]))
        rest = plane_restrict(B, plane, half_width=1.0, n=7)
        np.testing.assert_allclose(rest, 1.0, atol=1e-12)

    def test_matches_symbolic_pullback(self):
        import sympy as sp
        x1, x2, x3, u, v = sp.symbols("x1 x2 x3 u v", real=True)
        A_sym = sp.Matrix([sp.sin(x2) * x3, x1 * x3**2, sp.exp(-x1**2 / 4)])
        coords = sp.Matrix([x1, x2, x3])
        dA = {}
        for i, j in ((0, 1), (0, 2), (1, 2)):
            dA[(i, j)] = sp.diff(A_sym[j], coords[i]) - sp.diff(A_sym[i], coords[j])
        rng = np.random.default_rng(23)
        e1 = rng.normal(size=3)
        e1 /= np.linalg.norm(e1)
        e2 = rng.normal(size=3)
        e2 -= np.dot(e2, e1) * e1
        e2 /= np.linalg.norm(e2)
        origin = np.array([3.0, -1.0, 2.0])
        point = sp.Matrix(origin) + u * sp.Matrix(e1) + v * sp.Matrix(e2)
        subs = dict(zip([x1, x2, x3], point))
        pullback = sum(dA[(i, j)].subs(subs) * (e1[i] * e2[j] - e1[j] * e2[i])
                       for (i, j) in dA)
        pull_num = sp.lambdify((u, v), pullback, "numpy")

        def A_num(p):
            return np.column_stack([np.sin(p[:, 1]) * p[:, 2],
                                    p[:, 0] * p[:, 2] ** 2,
                                    np.exp(-p[:, 0] ** 2 / 4)])

        A_field = ShortRangeField(dimension=3, func=A_num,
                                  envelope=DecayEnvelope(C=100.0, eps0=1.0))
        plane = Plane(point=origin, e1=e1, e2=e2)
        n = 7
        rest = plane_restrict(A_field, plane, half_width=1.0, n=n)
        axis = np.linspace(-1.0, 1.0, n)
        uu, vv = np.meshgrid(axis, axis, indexing="ij")
        expected = pull_num(uu, vv)
        np.testing.assert_allclose(rest, expected, atol=1e-7)

    def test_plane_through_obstacle(self):
        plane = Plane(point=np.array([0.0, 0.0, 0.2]),
                      e1=np.array([1.0, 0.0, 0.0]), e2=np.array([0.0, 1.0, 0.0]))
        with pytest.raises(PlaneHitsObstacle):
            plane_restrict(lambda p: np.zeros_like(p), plane, half_width=1.0,
                           n=5, obstacle_radius=1.0)

    def test_two_form_callable_must_return_three_components(self):
        plane = Plane(point=np.array([0.0, 0.0, 3.0]),
                      e1=np.array([1.0, 0.0, 0.0]), e2=np.array([0.0, 1.0, 0.0]))
        with pytest.raises(DimensionMismatch, match=r"\(m, 3\)"):
            plane_restrict(lambda p: np.zeros((len(p), 2)), plane, half_width=1.0, n=5)


class TestAntipodalDefect:
    def test_even_function_zero(self):
        f = SphereFunction.from_callable(lambda w: w[..., 0] ** 2 - w[..., 2] ** 2,
                                         refinement=3)
        res = antipodal_defect(f)
        assert res.max_defect < 1e-13
        assert abs(res.fitted_constant) < 1e-13

    def test_odd_coordinate(self):
        f = SphereFunction.from_callable(lambda w: w[..., 2], refinement=3)
        res = antipodal_defect(f)
        assert res.max_defect == pytest.approx(2.0, abs=1e-12)

    def test_small_odd_perturbation(self):
        f = SphereFunction.from_callable(
            lambda w: w[..., 1] ** 2 + 1e-6 * w[..., 0], refinement=3)
        res = antipodal_defect(f)
        assert res.max_defect == pytest.approx(2e-6, rel=1e-6)
