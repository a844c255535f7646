"""Vortex potentials, flux decomposition, gauge action, leading orders."""
import dataclasses
import math

import numpy as np
import pytest
import oracles
from oracles import per_axis_partials

from gaugekit import catalog
from gaugekit.angular import AngularFunction, SphereFunction, sphere_grid
from gaugekit.errors import (
    CircleInsideObstacle,
    DimensionMismatch,
    NonConvergent,
    NotTransversal,
    OriginSingularity,
    RegionTouchesObstacle,
)
from gaugekit.fields import (
    DecayEnvelope,
    GaugeElement,
    PotentialConfig,
    ScalarPotential,
    ShortRangeField,
    TransversalField,
    apply_gauge_to_potential,
    central_partials,
    curl,
    decompose_transversal,
    eval_ab_potential,
    extract_leading_order,
    flux,
    gradient_of_direction_function,
    sample_on_spheres,
)


class TestAbPotential:
    def test_unit_flux_east(self):
        np.testing.assert_allclose(eval_ab_potential(1.0, [1.0, 0.0]), [0.0, 1.0],
                                   atol=1e-15)

    def test_zero_flux(self):
        np.testing.assert_allclose(eval_ab_potential(0.0, [2.0, -3.0]), [0.0, 0.0])

    def test_hand_value(self):
        # 0.5 * (-4, 3) / 25
        np.testing.assert_allclose(eval_ab_potential(0.5, [3.0, 4.0]), [-0.08, 0.06],
                                   atol=1e-15)

    def test_origin_rejected(self):
        with pytest.raises(OriginSingularity):
            eval_ab_potential(1.0, [0.0, 1e-13])


def _reassembled(dec) -> TransversalField:
    """The plane field of the profile alpha + a0'(theta)."""
    return TransversalField.from_profile(dec.a0.derivative() + dec.alpha)


class TestDecomposeTransversal:
    def test_constant_profile(self):
        field = TransversalField.from_profile(AngularFunction.constant(0.4))
        dec = decompose_transversal(field)
        assert dec.alpha == pytest.approx(0.4, abs=1e-14)
        assert dec.a0.max_abs() < 1e-14

    def test_two_plus_cos(self):
        prof = AngularFunction.constant(2.0) + AngularFunction.harmonic(1, cos_amp=1.0)
        dec = decompose_transversal(TransversalField.from_profile(prof))
        assert dec.alpha == pytest.approx(2.0, abs=1e-14)
        th = np.linspace(0, 2 * np.pi, 100)
        np.testing.assert_allclose(dec.a0(th), np.sin(th), atol=1e-13)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3, 3, (200, 2))
        pts = pts[np.linalg.norm(pts, axis=1) > 0.5]
        orig = TransversalField.from_profile(prof)(pts)
        np.testing.assert_allclose(_reassembled(dec)(pts), orig, atol=1e-10)

    def test_sin3(self):
        prof = AngularFunction.harmonic(3, sin_amp=1.0)
        dec = decompose_transversal(TransversalField.from_profile(prof))
        assert abs(dec.alpha) < 1e-14
        th = np.linspace(0, 2 * np.pi, 100)
        np.testing.assert_allclose(dec.a0(th), -np.cos(3 * th) / 3, atol=1e-13)
        assert abs(dec.a0.mean()) < 1e-14

    def test_rejects_radial_field(self):
        with pytest.raises(NotTransversal):
            decompose_transversal(lambda p: p / np.sum(p**2, axis=1)[:, None])

    def test_raw_callable_matches_the_field(self):
        prof = AngularFunction.constant(0.35) + AngularFunction.harmonic(2, cos_amp=0.2) \
            + AngularFunction.harmonic(3, sin_amp=-0.1)
        field = TransversalField.from_profile(prof)
        raw = decompose_transversal(lambda p: field(p))
        dec = decompose_transversal(field)
        assert abs(raw.alpha - dec.alpha) < 1e-15
        th = np.linspace(0, 2 * np.pi, 100)
        np.testing.assert_allclose(raw.a0(th), dec.a0(th), rtol=0, atol=1e-15)

    def test_raw_callable_of_wrong_degree_rejected(self):
        # tangential, so it passes the radial check, but it decays like 1/r^2
        def field(p):
            return np.column_stack([-p[:, 1], p[:, 0]]) / np.sum(p**2, axis=1)[:, None] ** 1.5

        with pytest.raises(NotTransversal, match="field is not homogeneous of degree -1"):
            decompose_transversal(field)

    @pytest.mark.parametrize("seed", range(5))
    def test_reassembly_random(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = {int(k): complex(rng.normal(), rng.normal()) * 0.3
                  for k in rng.integers(1, 17, size=5)}
        coeffs[0] = complex(rng.normal(), 0.0)
        prof = AngularFunction.from_coefficients(coeffs)
        field = TransversalField.from_profile(prof)
        dec = decompose_transversal(field)
        r = rng.uniform(1.0, 100.0, 500)
        th = rng.uniform(0, 2 * np.pi, 500)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        orig = field(pts)
        scale = np.max(np.abs(orig))
        assert np.max(np.abs(_reassembled(dec)(pts) - orig)) < 1e-9 * max(scale, 1.0)


class TestFlux:
    def test_pure_ab(self):
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0,
                              transversal=TransversalField.from_profile(
                                  AngularFunction.constant(0.5)))
        assert flux(cfg, circle_radius=3.0) == pytest.approx(0.5, abs=1e-12)

    def test_pure_gradient(self):
        prof = AngularFunction.harmonic(2, cos_amp=1.0) + AngularFunction.harmonic(5, sin_amp=0.3)
        field = TransversalField.from_profile(prof)
        assert abs(flux(field, circle_radius=2.0)) < 1e-12

    def test_radius_independent(self):
        prof = AngularFunction.constant(0.7) + AngularFunction.harmonic(3, sin_amp=0.4)
        field = TransversalField.from_profile(prof)
        values = [flux(field, circle_radius=R) for R in (1.5, 4.0, 20.0)]
        assert np.ptp(values) < 1e-11

    def test_short_range_tail_decays_like_inverse_radius(self):
        from gaugekit.fields import DecayEnvelope, ShortRangeField
        ab = TransversalField.from_profile(AngularFunction.constant(0.5))

        def swirl(p):  # tangential with <x>^-2 decay: circulation O(1/R)
            r2 = np.sum(p**2, axis=1)
            return np.column_stack([-p[:, 1], p[:, 0]]) / ((1.0 + r2) ** 1.5)[:, None]

        tail = ShortRangeField(dimension=2, func=swirl,
                               envelope=DecayEnvelope(C=1.0, eps0=1.0))
        cfg = PotentialConfig(dimension=2, obstacle_radius=0.5,
                              transversal=ab, short_range=tail)
        errs = np.array([abs(flux(cfg, circle_radius=R) - 0.5) for R in (10, 20, 40)])
        assert np.all(errs > 0)
        # halving rate consistent with O(1/R)
        np.testing.assert_allclose(errs[:-1] / errs[1:], 2.0, rtol=0.1)

    def test_circle_inside_obstacle(self):
        cfg = PotentialConfig(dimension=2, obstacle_radius=2.0,
                              transversal=TransversalField.from_profile(
                                  AngularFunction.constant(1.0)))
        with pytest.raises(CircleInsideObstacle):
            flux(cfg, circle_radius=1.5)


class TestCurl:
    def test_ab_curl_free(self):
        field = TransversalField.from_profile(AngularFunction.constant(0.8))
        rng = np.random.default_rng(1)
        pts = rng.uniform(1.0, 3.0, (40, 2)) * np.sign(rng.normal(size=(40, 2)))
        pts = pts[np.linalg.norm(pts, axis=1) > 1.0]
        vals = curl(field, pts)
        assert np.max(np.abs(vals)) < 1e-7

    @pytest.mark.parametrize("dim", [2, 3])
    def test_linear_field_is_exact(self, dim):
        # the loop nodes u_k sum to 0 and u_k u_k^T to (N / n) I, so the rule
        # returns the antisymmetric part of M for A(x) = M x + c, up to rounding
        rng = np.random.default_rng(dim)
        M = rng.standard_normal((dim, dim))
        c = rng.standard_normal(dim)
        linear = ShortRangeField(dimension=dim, func=lambda p: p @ M.T + c,
                                 envelope=DecayEnvelope(C=1.0, eps0=1.0))
        cfg = PotentialConfig(dimension=dim, obstacle_radius=1.0, short_range=linear)
        pts = rng.normal(size=(60, dim))
        pts *= rng.uniform(1.2, 4.0, (60, 1)) / np.linalg.norm(pts, axis=1)[:, None]
        pairs = [(0, 1)] if dim == 2 else [(0, 1), (0, 2), (1, 2)]
        want = np.array([M[j, i] - M[i, j] for i, j in pairs])  # dA_j/dx_i - dA_i/dx_j
        got = curl(cfg, pts)
        assert got.shape == ((60,) if dim == 2 else (60, 3))
        np.testing.assert_allclose(got.reshape(60, -1) - want, 0.0, rtol=0, atol=1e-10)

    def test_profile_against_symbolic_curl(self):
        # A = cos(theta) (-y, x)/r^2 has curl  d/dx(x cos th / r^2) - d/dy(-y cos th / r^2)
        # which vanishes identically away from 0 (locally a gradient)
        field = TransversalField.from_profile(AngularFunction.harmonic(1, cos_amp=1.0))
        pts = np.array([[1.3, 0.4], [-0.8, 1.1], [2.0, 2.0]])
        assert np.max(np.abs(curl(field, pts))) < 1e-10

    def test_obstacle_guard(self):
        # the loop around x has radius 1e-5 |x|: it reaches the unit obstacle
        # from |x| = 1 / (1 - 1e-5) inwards
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0,
                              transversal=TransversalField.from_profile(
                                  AngularFunction.constant(1.0)))
        with pytest.raises(RegionTouchesObstacle):
            curl(cfg, np.array([[1.000005, 0.0]]))
        assert abs(curl(cfg, np.array([[1.00002, 0.0]]))) < 1e-6

    def test_three_d_antisymmetry_is_structural(self):
        tr = catalog.cross_axis_transversal(axis=(0, 0, 1.0), c=0.7)
        pts = np.array([[2.0, 1.0, 1.5], [-1.0, 2.5, 0.5]])
        vals = curl(tr, pts)
        assert vals.shape == (2, 3)

    @pytest.mark.parametrize("dim, nodes", [(2, 6), (3, 12)])
    def test_curl_calls_its_field_once(self, dim, nodes):
        # one call on all loops: the hexagon's 6 or the icosahedron's 12 nodes per point
        calls = []
        curl(_counted(np.sin, calls), np.full((7, dim), 1.5))
        assert calls == [nodes * 7]

    def test_four_dimensional_points_raise(self):
        with pytest.raises(DimensionMismatch):
            curl(lambda p: p, np.full((3, 4), 2.0))


def _counted(func, calls):
    def counted(p):
        calls.append(len(p))
        return func(p)
    return counted


class TestCentralPartials:
    @pytest.mark.parametrize("steps", ["scalar", "per_point"])
    @pytest.mark.parametrize("values", ["scalar", "vector"])
    def test_exact_on_a_quadratic(self, steps, values):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((2, 3, 3))
        b = rng.standard_normal((2, 3))
        pts = rng.uniform(-1.0, 1.0, (40, 3))

        def f(p):
            out = np.einsum("mi,cij,mj->mc", p, A, p) + p @ b.T + 0.7
            return out[:, 0] if values == "scalar" else out

        want = np.einsum("mj,cij->mic", pts, A + A.transpose(0, 2, 1)) + b.T
        if values == "scalar":
            want = want[..., 0]
        h = 0.3 if steps == "scalar" else rng.uniform(0.1, 0.5, 40)
        calls = []
        got = central_partials(_counted(f, calls), pts, h)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert calls == [6 * 40]

    def test_gauge_scalar_gradient_matches_per_axis_reference(self):
        L = catalog.build_scalar("gaussian_bumps", {"bumps": [[0.6, 1.9, -0.5, 0.5]]})
        calls = []
        counted = ScalarPotential(dimension=2, func=_counted(L.func, calls), envelope=L.envelope)
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0)
        gauged = apply_gauge_to_potential(cfg, GaugeElement(dimension=2, scalar=counted))
        rng = np.random.default_rng(9)
        pts = rng.uniform(1.2, 4.0, (50, 1)) * _unit(rng, 50)
        got = gauged.short_range(pts)
        assert calls == [4 * 50]
        h = 1e-4 * np.maximum(1.0, np.linalg.norm(pts, axis=1))
        np.testing.assert_array_equal(got, per_axis_partials(L.func, pts, h))

    def test_direction_gradient_matches_per_axis_reference(self):
        rng = np.random.default_rng(12)
        pts = _directions(rng, 40) * rng.uniform(1.2, 5.0, (40, 1))

        def on_directions(q):
            return _space_phase(q / np.linalg.norm(q, axis=1)[:, None])

        np.testing.assert_array_equal(gradient_of_direction_function(_space_phase, pts),
                                      per_axis_partials(on_directions, pts, 1e-6))


def _directions(rng, n):
    w = rng.normal(size=(n, 3))
    return w / np.linalg.norm(w, axis=1)[:, None]


def _space_phase(V):
    """An antipodally even direction function on (m, 3) unit vectors."""
    return 0.3 * V[:, 2] ** 2 + 0.2 * V[:, 0] * V[:, 1] - 0.1 * V[:, 0] * V[:, 2]


class TestSpaceProfiles:
    def test_profile_called_once_per_evaluation(self):
        base = catalog.cross_axis_transversal(c=0.7).profile
        shapes = []

        def profile(w):
            shapes.append(w.shape)
            return base(w)

        tr = TransversalField(dimension=3, profile=profile)
        assert shapes == []
        rng = np.random.default_rng(11)
        pts = _directions(rng, 500) * rng.uniform(1.2, 6.0, (500, 1))
        shapes.clear()
        vals = tr(pts)
        assert shapes == [(500, 3)]
        assert vals.shape == (500, 3)
        # a gauged field calls the base profile and the phase once each
        phases = []

        def psi(V):
            phases.append(V.shape)
            return _space_phase(V)

        cfg = PotentialConfig(dimension=3, obstacle_radius=1.0, transversal=tr)
        gauged = apply_gauge_to_potential(cfg, GaugeElement(dimension=3, phi_callable=psi))
        shapes.clear()
        gauged.vector_potential(pts)
        assert shapes == [(500, 3)]
        assert phases == [(6 * 500, 3)]

    def test_profile_must_return_one_vector_per_direction(self):
        tr = TransversalField(dimension=3, profile=lambda w: np.zeros(3))
        with pytest.raises(ValueError):
            tr(np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]]))


class TestExtractLeadingOrder:
    def test_short_range_curl_limits_to_zero(self):
        sr = catalog.build_vector("grad_bumps",
                                  {"bumps": [[0.5, 1.0, 0.5, 0.0, 0.4]]}, dimension=3)
        grid = sphere_grid(1)
        radii = np.geomspace(6.0, 60.0, 6)
        samples = sample_on_spheres(lambda p: curl(sr, p), radii, grid)
        leads, resid = extract_leading_order(radii, samples, grid, tol=1e-5,
                                             return_residual=True)
        assert max(l.values.max() for l in leads) < 1e-6

    def test_synthetic_homogeneous_recovered(self):
        grid = sphere_grid(2)

        def B(p):
            r2 = np.sum(p**2, axis=1)
            return (p[:, 0] ** 2 / r2) / r2  # b0(w) = w1^2, decay r^-2

        radii = np.geomspace(4.0, 64.0, 6)
        samples = sample_on_spheres(B, radii, grid)
        lead = extract_leading_order(radii, samples, grid, tol=1e-8)
        np.testing.assert_allclose(lead.values, grid.vertices[:, 0] ** 2, atol=1e-8)

    def test_mixed_decay_error_scales_with_outer_radius(self):
        grid = sphere_grid(1)

        def B(p, rmaxpow=3):
            r2 = np.sum(p**2, axis=1)
            b0 = p[:, 2] ** 2 / r2
            return b0 / r2 + 1.0 / r2 ** (rmaxpow / 2.0 + 0.0) / np.sqrt(r2)

        errs = []
        for rmax in (32.0, 128.0):
            radii = np.geomspace(4.0, rmax, 6)
            samples = sample_on_spheres(B, radii, grid)
            lead = extract_leading_order(radii, samples, grid, tol=1.0)
            errs.append(np.max(np.abs(lead.values - grid.vertices[:, 2] ** 2)))
        assert errs[1] < errs[0]

    def test_slow_decay_rejected(self):
        grid = sphere_grid(1)
        radii = np.geomspace(4.0, 64.0, 6)

        def B(p):  # decays like r^-1: |x|^2 B diverges
            return 1.0 / np.sqrt(np.sum(p**2, axis=1))

        samples = sample_on_spheres(B, radii, grid)
        with pytest.raises(NonConvergent):
            extract_leading_order(radii, samples, grid, tol=1e-6)


class TestGaugeAction:
    def _config(self):
        prof = AngularFunction.constant(0.6) + AngularFunction.harmonic(2, sin_amp=0.3)
        return PotentialConfig(
            dimension=2, obstacle_radius=1.0,
            transversal=TransversalField.from_profile(prof),
            short_range=catalog.build_vector("grad_bumps",
                                             {"bumps": [[0.4, 1.5, 0.0, 0.5]]}),
            scalar=catalog.build_scalar("gaussian_ring", {"amplitude": 1.0}))

    def test_identity_leaves_config(self):
        cfg = self._config()
        out = apply_gauge_to_potential(cfg, GaugeElement(dimension=2))
        rng = np.random.default_rng(3)
        pts = rng.uniform(1.2, 4.0, (50, 1)) * _unit(rng, 50)
        np.testing.assert_allclose(out.vector_potential(pts), cfg.vector_potential(pts),
                                   atol=1e-14)

    def test_winding_shifts_flux(self):
        cfg = self._config()
        out = apply_gauge_to_potential(cfg, GaugeElement(dimension=2, m=1))
        before = flux(cfg, circle_radius=50.0)
        after = flux(out, circle_radius=50.0)
        assert after - before == pytest.approx(1.0, abs=1e-9)

    def test_opposite_gradient_part_cancels(self):
        prof = AngularFunction.harmonic(3, cos_amp=0.5)
        field = TransversalField.from_profile(prof)
        dec = decompose_transversal(field)
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, transversal=field)
        out = apply_gauge_to_potential(cfg, GaugeElement(dimension=2, m=0, phi=-dec.a0))
        rng = np.random.default_rng(4)
        pts = rng.uniform(1.5, 5.0, (40, 1)) * _unit(rng, 40)
        assert np.max(np.abs(out.vector_potential(pts))) < 1e-12

    def test_group_inverse_round_trip(self):
        cfg = self._config()
        g = GaugeElement(dimension=2, m=2,
                         phi=AngularFunction.harmonic(1, sin_amp=0.2),
                         scalar=catalog.build_scalar("gaussian_bumps",
                                                     {"bumps": [[0.3, 1.5, 0.0, 0.8]]}))
        back = apply_gauge_to_potential(apply_gauge_to_potential(cfg, g), g.inverse())
        rng = np.random.default_rng(5)
        pts = rng.uniform(1.2, 4.0, (50, 1)) * _unit(rng, 50)
        np.testing.assert_allclose(back.vector_potential(pts), cfg.vector_potential(pts),
                                   atol=1e-9)

    def test_catalog_scalar_round_trip_is_exact(self):
        cfg = self._config()
        g = GaugeElement(dimension=2, m=2,
                         phi=AngularFunction.harmonic(1, sin_amp=0.2),
                         scalar=catalog.build_scalar("gaussian_bumps",
                                                     {"bumps": [[0.3, 1.5, 0.0, 0.8]]}))
        back = apply_gauge_to_potential(apply_gauge_to_potential(cfg, g), g.inverse())
        rng = np.random.default_rng(5)
        pts = rng.uniform(1.2, 4.0, (50, 1)) * _unit(rng, 50)
        np.testing.assert_allclose(back.vector_potential(pts), cfg.vector_potential(pts),
                                   rtol=0, atol=1e-13)

    def test_catalog_scalar_adds_its_declared_gradient(self):
        L = catalog.build_scalar("gaussian_bumps", {"bumps": [[0.6, 1.9, -0.5, 0.5]]})
        f_calls, g_calls = [], []
        counted = dataclasses.replace(L, func=_counted(L.func, f_calls),
                                      gradient=_counted(L.gradient, g_calls))
        cfg = self._config()
        gauged = apply_gauge_to_potential(cfg, GaugeElement(dimension=2, scalar=counted))
        rng = np.random.default_rng(9)
        pts = rng.uniform(1.2, 4.0, (50, 1)) * _unit(rng, 50)
        got = gauged.short_range(pts)
        gauged.vector_potential(pts)
        assert f_calls == [] and g_calls == [50, 50]
        np.testing.assert_array_equal(got, cfg.short_range(pts) + L.gradient(pts))

    def test_envelopes_of_sums_add(self):
        assert (DecayEnvelope(C=1.0, eps0=2.0) + DecayEnvelope(C=0.5, eps0=1.0)
                == DecayEnvelope(C=1.5, eps0=1.0))
        cfg = self._config()
        L = cfg.scalar
        g = GaugeElement(dimension=2, scalar=L)
        out = apply_gauge_to_potential(cfg, g)
        assert out.short_range.envelope == DecayEnvelope(
            cfg.short_range.envelope.C + L.envelope.C,
            min(cfg.short_range.envelope.eps0, L.envelope.eps0))

    def test_inverse_and_compose_carry_gradients(self):
        L = catalog.build_scalar("gaussian_ring", _SCALAR_PARAMS["gaussian_ring"])
        K = catalog.build_scalar("power", _SCALAR_PARAMS["power"])
        gL, gK = GaugeElement(dimension=2, scalar=L), GaugeElement(dimension=2, scalar=K)
        rng = np.random.default_rng(13)
        pts = rng.uniform(1.2, 4.0, (50, 1)) * _unit(rng, 50)
        np.testing.assert_array_equal(gL.inverse().scalar.gradient(pts), -L.gradient(pts))
        # the action of gK after gL adds both declared gradients
        cfg = self._config()
        both = apply_gauge_to_potential(apply_gauge_to_potential(cfg, gL), gK)
        np.testing.assert_array_equal(both.short_range(pts),
                                      cfg.short_range(pts) + L.gradient(pts) + K.gradient(pts))
        bare = GaugeElement(dimension=2, scalar=ScalarPotential(
            dimension=2, func=L.func, envelope=L.envelope))
        assert bare.inverse().scalar.gradient is None

    def test_derived_scalars_do_not_serialize_as_their_kind(self):
        # a negated scalar is no longer the kind it was built from; writing
        # that kind would read back as a different scalar
        L = catalog.build_scalar("gaussian_bumps", {"bumps": [[0.3, 2.0, 0.7, 1.0]]})
        derived = GaugeElement(dimension=2, scalar=L).inverse().scalar
        assert derived.kind is None and derived.params is None
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, scalar=derived)
        with pytest.raises(ValueError):
            cfg.to_json()

    def test_compose_matches_sequential(self):
        cfg = self._config()
        g1 = GaugeElement(dimension=2, m=1, phi=AngularFunction.harmonic(1, cos_amp=0.1))
        g2 = GaugeElement(dimension=2, m=-2, phi=AngularFunction.harmonic(2, sin_amp=0.2))
        seq = apply_gauge_to_potential(apply_gauge_to_potential(cfg, g1), g2)
        product = GaugeElement(dimension=2, m=g1.m + g2.m, phi=g1.phi + g2.phi)
        comp = apply_gauge_to_potential(cfg, product)
        rng = np.random.default_rng(6)
        pts = rng.uniform(1.2, 4.0, (50, 1)) * _unit(rng, 50)
        np.testing.assert_allclose(seq.vector_potential(pts), comp.vector_potential(pts),
                                   atol=1e-12)

    def test_compose_adds_callable_phases(self):
        def other(V):
            return 0.4 * V[:, 0] ** 2 - 0.1 * V[:, 1] * V[:, 2]

        cfg = PotentialConfig(dimension=3, obstacle_radius=1.0,
                              transversal=catalog.cross_axis_transversal(c=0.4))
        g1 = GaugeElement(dimension=3, phi_callable=_space_phase)
        g2 = GaugeElement(dimension=3, phi_callable=other)
        seq = apply_gauge_to_potential(apply_gauge_to_potential(cfg, g1), g2)
        product = GaugeElement(dimension=3, phi_callable=lambda V: _space_phase(V) + other(V))
        comp = apply_gauge_to_potential(cfg, product)
        rng = np.random.default_rng(10)
        pts = _directions(rng, 50) * rng.uniform(1.5, 5.0, (50, 1))
        assert np.max(np.abs(comp.vector_potential(pts) - cfg.vector_potential(pts))) > 1e-2
        np.testing.assert_allclose(seq.vector_potential(pts), comp.vector_potential(pts),
                                   rtol=0, atol=1e-9)

    def test_space_gauge_keeps_curl(self):
        cfg = PotentialConfig(dimension=3, obstacle_radius=1.0,
                              transversal=catalog.cross_axis_transversal(c=0.4),
                              short_range=catalog.build_vector(
                                  "grad_bumps", {"bumps": [[0.4, 1.3, 0.2, -0.3, 0.5]]}, 3))
        gauged = apply_gauge_to_potential(cfg, GaugeElement(dimension=3, phi_callable=_space_phase))
        rng = np.random.default_rng(3)
        pts = _directions(rng, 40) * rng.uniform(1.5, 5.0, (40, 1))
        assert np.max(np.abs(gauged.vector_potential(pts) - cfg.vector_potential(pts))) > 1e-2
        assert np.max(np.abs(curl(gauged, pts) - curl(cfg, pts))) < 1e-6

    def test_sphere_function_gauge_is_refused(self):
        # a phase sampled on the nodes has no gradient off them, so it
        # cannot add grad phi to a potential
        cfg = PotentialConfig(dimension=3, obstacle_radius=1.0,
                              transversal=catalog.cross_axis_transversal(c=0.4))
        phi = SphereFunction.from_callable(_space_phase, refinement=2)
        with pytest.raises(ValueError, match="no gradient off its nodes"):
            apply_gauge_to_potential(cfg, GaugeElement(dimension=3, phi_sphere=phi))

    def test_gauge_slot_rules(self):
        # a 3-space gauge carries one real phase and no circle profile; a
        # plane gauge carries no sphere phase
        phi = SphereFunction.from_callable(_space_phase, refinement=1)
        circle = AngularFunction.harmonic(1, sin_amp=0.2)
        for bad in ({"dimension": 3, "phi_sphere": phi, "phi_callable": _space_phase},
                    {"dimension": 3, "phi": circle},
                    {"dimension": 3, "phi": circle, "phi_callable": _space_phase},
                    {"dimension": 2, "phi_sphere": phi},
                    {"dimension": 2, "phi_callable": _space_phase},
                    {"dimension": 2, "phi": circle, "phi_sphere": phi}):
            with pytest.raises(ValueError):
                GaugeElement(**bad)
        for good in ({"dimension": 3}, {"dimension": 3, "phi_sphere": phi},
                     {"dimension": 3, "phi_callable": _space_phase},
                     {"dimension": 2, "m": 1, "phi": circle}):
            GaugeElement(**good).inverse()  # the inverse keeps the slots

    def test_sphere_direction_gradient_is_transversal(self):
        psi = lambda w: w[..., 0] * w[..., 1] + 0.5 * w[..., 2] ** 2
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(30, 3))
        pts = pts / np.linalg.norm(pts, axis=1)[:, None] * rng.uniform(1.5, 5, (30, 1))
        grads = gradient_of_direction_function(psi, pts)
        radial = np.abs(np.sum(grads * pts, axis=1))
        assert np.max(radial) < 1e-8


# parameters for every catalog scalar kind; the modulation of the ring acts
# in the plane only, so in 3-space the ring is radial
_SCALAR_PARAMS = {
    "zero": {},
    "gaussian_ring": {"amplitude": 0.8, "r0": 1.2, "sigma": 0.4,
                      "modulation": [[2, 0.25, -0.1], [3, 0.05, 0.15]]},
    "gaussian_bumps": {"bumps": [[0.6, 0.4, -0.3, 0.7], [-0.4, -0.5, 0.1, 0.5]]},
    "power": {"c": 0.75, "p": 1.5},
}
_SCALAR_PARAMS_3D = {**_SCALAR_PARAMS, "gaussian_bumps": {
    "bumps": [[0.6, 0.4, -0.3, 0.2, 0.7], [-0.4, -0.5, 0.1, 0.6, 0.5]]}}


class TestScalarGradients:
    @pytest.mark.parametrize("kind", sorted(catalog.SCALAR_KINDS))
    def test_every_kind_declares_a_gradient(self, kind):
        # a kind without one would fall back to central differences unnoticed
        assert catalog.build_scalar(kind, _SCALAR_PARAMS[kind]).gradient is not None

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", sorted(catalog.SCALAR_KINDS))
    def test_gradient_matches_per_axis_differences(self, kind, dim):
        params = (_SCALAR_PARAMS if dim == 2 else _SCALAR_PARAMS_3D)[kind]
        L = catalog.build_scalar(kind, params, dimension=dim)
        rng = np.random.default_rng(dim)
        pts = rng.normal(size=(200, dim))
        # |x| >= 0.5: the ring has a cone kink at the origin
        pts *= rng.uniform(0.5, 4.0, (200, 1)) / np.linalg.norm(pts, axis=1)[:, None]
        got = L.gradient(pts)
        want = per_axis_partials(L.func, pts, 1e-5)
        assert got.shape == pts.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-7 * np.max(np.abs(want)))

    def test_json_round_trip_keeps_the_gradient(self):
        cfg = PotentialConfig(dimension=2, obstacle_radius=1.0,
                              scalar=catalog.build_scalar("gaussian_ring",
                                                          _SCALAR_PARAMS["gaussian_ring"]))
        back = PotentialConfig.from_json(cfg.to_json())
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.5, 3.0, (30, 1)) * _unit(rng, 30)
        np.testing.assert_array_equal(back.scalar.gradient(pts), cfg.scalar.gradient(pts))


def _catalog_points(dim, m=400, seed=8):
    """Random points at radii 0.3-5, plus the origin and a point on each axis."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(m, dim))
    pts *= rng.uniform(0.3, 5.0, (m, 1)) / np.linalg.norm(pts, axis=1)[:, None]
    return np.concatenate([np.zeros((1, dim)), np.eye(dim), -2.5 * np.eye(dim), pts])


class TestCatalogColumns:
    """The catalog kinds, formed one coordinate column at a time, equal their
    broadcast formulas (tests/oracles.py) bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_gaussian_bumps_value_and_gradient(self, dim):
        bumps = (_SCALAR_PARAMS if dim == 2 else _SCALAR_PARAMS_3D)["gaussian_bumps"]["bumps"]
        L = catalog.build_scalar("gaussian_bumps", {"bumps": bumps}, dimension=dim)
        pts = _catalog_points(dim)
        np.testing.assert_array_equal(L.func(pts), oracles.bumps_value(bumps, pts))
        np.testing.assert_array_equal(L.gradient(pts), oracles.bumps_gradient(bumps, pts))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_grad_bumps_field(self, dim):
        bumps = (_SCALAR_PARAMS if dim == 2 else _SCALAR_PARAMS_3D)["gaussian_bumps"]["bumps"]
        F = catalog.build_vector("grad_bumps", {"bumps": bumps}, dimension=dim)
        # the catalog points, and 40,000 random points whose columns pass
        # numpy's size for eliding temporaries
        for pts in (_catalog_points(dim),
                    np.random.default_rng(dim).uniform(-4.0, 4.0, (40_000, dim))):
            np.testing.assert_array_equal(F(pts), oracles.bumps_gradient(bumps, pts))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_power_gradient(self, dim):
        L = catalog.build_scalar("power", {"c": 0.75, "p": 1.5}, dimension=dim)
        F = catalog.build_vector("grad_power", {"c": -1.3, "p": 2.5}, dimension=dim)
        pts = _catalog_points(dim)
        np.testing.assert_array_equal(L.gradient(pts), oracles.power_gradient(0.75, 1.5, pts))
        np.testing.assert_array_equal(F(pts), oracles.power_gradient(-1.3, 2.5, pts))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("modulation", [[], [[2, 0.25, -0.1], [3, 0.05, 0.15]]])
    def test_gaussian_ring_gradient(self, modulation, dim):
        L = catalog.build_scalar("gaussian_ring", {"amplitude": 0.8, "r0": 1.2, "sigma": 0.4,
                                                   "modulation": modulation}, dimension=dim)
        pts = _catalog_points(dim)
        np.testing.assert_array_equal(L.gradient(pts),
                                      oracles.ring_gradient(0.8, 1.2, 0.4, modulation, pts))

    def test_ring_bump_tangential(self):
        """Not bit for bit: the catalog forms the tail moment with its own erfc,
        the oracle the inner moment with scipy's erf."""
        F = catalog.build_vector("ring_bump_tangential", {"b0": 0.4, "r0": 1.9, "sigma": 0.3})
        pts = _catalog_points(2)[1:]  # the field is singular at the origin
        expected = oracles.ring_bump_tangential(0.4, 1.9, 0.3, pts)
        np.testing.assert_allclose(F(pts), expected, rtol=0,
                                   atol=1e-15 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("b0, r0, sig", [(0.4, 1.9, 0.3), (-1.2, 2.5, 0.15)])
    def test_ring_bump_curl_is_the_bump(self, b0, r0, sig):
        """Needs no erf: the circulation curl of the field is b0 e^{-(r-r0)^2/(2 sig^2)}."""
        F = catalog.build_vector("ring_bump_tangential", {"b0": b0, "r0": r0, "sigma": sig})
        rng = np.random.default_rng(3)
        r = rng.uniform(r0 - 3 * sig, r0 + 3 * sig, 60)
        th = rng.uniform(0, 2 * np.pi, 60)
        pts = r[:, None] * np.column_stack([np.cos(th), np.sin(th)])
        np.testing.assert_allclose(curl(F, pts),  # a disc mean, O(rho^2): 4e-9 at sigma 0.15
                                   b0 * np.exp(-((r - r0) ** 2) / (2 * sig**2)),
                                   rtol=0, atol=1e-8 * abs(b0))


class TestErfc:
    """catalog._erfc, Cody's rationals in numpy, against the standard library."""

    def _sweep(self, z):
        return catalog._erfc(z), np.array([math.erfc(v) for v in z])

    def test_relative_accuracy_up_to_4(self):
        edges = [0.0, -0.0, 0.5, -0.5, 4.0, -4.0]
        z = np.concatenate([edges, np.linspace(-10.0, 4.0, 140_001)])
        got, ref = self._sweep(z)
        assert np.max(np.abs(got - ref) / ref) < 2e-15
        np.testing.assert_array_equal(got[:2], 1.0)

    def test_absolute_accuracy_beyond_4(self):
        got, ref = self._sweep(np.linspace(4.0, 30.0, 26_001))
        assert np.max(np.abs(got - ref)) < 1e-20

    def test_far_tails(self):
        z = np.array([27.0, 40.0, 1e200, np.inf, -40.0, -1e200, -np.inf])
        np.testing.assert_array_equal(catalog._erfc(z), [math.erfc(v) for v in z[:2]] + [0, 0, 2, 2, 2])


def _unit(rng, n):
    th = rng.uniform(0, 2 * np.pi, n)
    return np.column_stack([np.cos(th), np.sin(th)])
