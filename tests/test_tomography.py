"""Line integrals, winding resolution, exterior inversion, gauge scalars,
plane restrictions."""
import numpy as np
import pytest
from scipy.special import gamma

from gaugekit import catalog
from gaugekit.angular import AngularFunction, SphereFunction, sphere_grid
from gaugekit.errors import (
    BranchAmbiguous,
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
    PotentialConfig,
    ScalarPotential,
    ShortRangeField,
    TransversalField,
    gradient_of_direction_function,
)
from gaugekit.tomography import (
    Line,
    Plane,
    Sinogram,
    XRayData,
    antipodal_defect,
    find_gauge_scalar,
    forward_sinogram,
    line_at,
    line_integral_scalar,
    line_integral_vector,
    line_integrals_scalar,
    parallel_geometry,
    plane_restrict,
    radon_invert_scalar,
    recover_field_2d,
    resolve_winding,
    synthetic_winding_family,
)
from gaugekit.tomography import _line_quad
from oracles import adaptive_line_integral, line_integral_vector_quadrature


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
        assert ln.orientation() == 1.0

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


def _power_closed_form(c, p, d):
    # int c (1 + d^2 + s^2)^(-p/2) ds over the whole line
    return c * np.sqrt(np.pi) * gamma((p - 1) / 2) / gamma(p / 2) * (1 + d**2) ** ((1 - p) / 2)


def _random_lines(seed, n=32):
    rng = np.random.default_rng(seed)
    return [Line.from_impact_angle(rng.uniform(1.05, 6.0), rng.uniform(0, 2 * np.pi))
            for _ in range(n)]


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
        vals, _ = _line_quad(V, [ln.x0 for ln in lines], [ln.omega for ln in lines],
                             V.envelope, 1e-9)
        ref = [adaptive_line_integral(V, ln, V.envelope) for ln in lines]
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
        vals, _ = _line_quad(F, [ln.x0 for ln in lines], [ln.omega for ln in lines],
                             F.envelope, 1e-9)
        ref = [adaptive_line_integral(F, ln, F.envelope) for ln in lines]
        np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-12)

    def test_narrow_spike_raises_non_convergent(self):
        V = catalog.build_scalar("gaussian_bumps", {"bumps": [[1.0, 2.0, 0.0, 0.01]]})
        with pytest.raises(NonConvergent):
            line_integral_scalar(V, Line(x0=np.array([2.0, 0.0]), omega=np.array([0.0, 1.0])))

    def test_batch_equals_single_lines(self):
        V = catalog.build_scalar("gaussian_ring", {"amplitude": 0.7, "r0": 2.0, "sigma": 0.3})
        lines = _random_lines(9, n=8)
        vals, est = line_integrals_scalar(V, lines)
        single = [line_integral_scalar(V, ln) for ln in lines]
        np.testing.assert_allclose(vals, single, rtol=0, atol=1e-15)
        assert est.shape == (8,) and np.all(est < 1e-12)


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
        ln = Line(x0=x0, omega=om)
        split = line_integral_vector(cfg, ln)
        brute = line_integral_vector_quadrature(cfg, ln)
        assert split == pytest.approx(brute, abs=1e-8)


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

    def test_csv_round_trip(self, tmp_path):
        data = synthetic_winding_family(1, 1.0)
        path = tmp_path / "winding.csv"
        data.to_csv(path)
        back = XRayData.from_csv(path, kind="vector_exp")
        np.testing.assert_allclose(back.values, data.values, atol=1e-12)
        assert resolve_winding(back) == 1


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
        np.testing.assert_allclose(back.values, sino.values, atol=1e-15)


class TestRecoverField2d:
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
        np.testing.assert_allclose(gs(pts), expected, atol=1e-8)

    def test_zero_field(self):
        fld = catalog.build_vector("zero")
        gs = find_gauge_scalar(fld, r_in=1.2, r_out=4.0)
        pts = np.array([[1.5, 0.0], [0.0, 2.5], [-3.0, 1.0]])
        assert np.max(np.abs(gs(pts))) < 1e-12

    @pytest.mark.parametrize("alpha", [0.3, -0.6, 1.4])
    def test_ab_raises_residual_flux(self, alpha):
        tr = TransversalField.from_profile(AngularFunction.constant(alpha))
        fld = ShortRangeField(dimension=2, func=tr,
                              envelope=DecayEnvelope(C=abs(alpha), eps0=1.0))
        with pytest.raises(ResidualFlux):
            find_gauge_scalar(fld, r_in=1.2, r_out=4.0)

    def test_swirl_raises_not_curl_free(self):
        def swirl(p):
            r2 = np.sum(p**2, axis=1)
            return np.column_stack([-p[:, 1], p[:, 0]]) * np.exp(-r2 / 8.0)[:, None]

        fld = ShortRangeField(dimension=2, func=swirl,
                              envelope=DecayEnvelope(C=10.0, eps0=1.0))
        with pytest.raises(NotCurlFree):
            find_gauge_scalar(fld, r_in=1.2, r_out=4.0)

    def test_batch_evaluate_matches_points(self):
        fld = catalog.build_vector("grad_bumps", {"bumps": [[0.5, 2.0, 0.7, 0.8]]})
        gs = find_gauge_scalar(fld, r_in=1.2, r_out=4.0)
        rng = np.random.default_rng(4)
        r = rng.uniform(1.3, 3.8, 25)
        th = rng.uniform(0, 2 * np.pi, 25)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        one_by_one = np.array([gs(q) for q in pts])
        np.testing.assert_allclose(gs.evaluate(pts), one_by_one, rtol=0, atol=1e-13)

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
                (gs(q + [h, 0]) - gs(q - [h, 0])) / (2 * h),
                (gs(q + [0, h]) - gs(q - [0, h])) / (2 * h)])
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
        rest = plane_restrict(A_field, plane, half_width=1.0, n=n, step_rel=1e-5)
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
