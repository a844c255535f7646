"""Scattering kernels: channels, assembly, gauge action, equivalence solver."""
import dataclasses
import inspect
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    ab_channel_pv_quadrature,
    count_remainder_scans,
    dense_plane_distance,
    dense_sphere_phase_fit,
    direct_value_grid,
    fft2_remainder_pairs,
    gathered_offset_max,
)

from gaugekit import pipeline, scattering

from gaugekit.angular import AngularFunction, SphereFunction, row_blocks, sphere_grid
from gaugekit.errors import (
    DimensionMismatch,
    GridMismatch,
    NonConvergent,
    RemainderBoundViolated,
    SingularPartMissing,
)
from gaugekit.fields import GaugeElement
from gaugekit.scattering import (
    ChannelSpectrum,
    ScatteringKernel,
    SphereScatteringKernel,
    ab_kernel_channels,
    apply_gauge_to_kernel,
    assemble_kernel,
    flux_step,
    gauge_equivalence_solver,
    kernel_distance,
    near_diagonal_growth,
    singular_offdiagonal,
    synthesize_sphere_kernel,
    verify_remainder_bound,
)


# two kernels on one base are compared by |base| |a_i - b_j|, the dense
# oracles by |v1 - v2| of the values: the same figure up to the rounding of
# the values, within this many ulps of max(1, largest |value|)
_ROUNDING = 8 * np.finfo(float).eps


def _phi_sin(amplitude: float, k: int = 1) -> AngularFunction:
    """amplitude * sin(k theta) as an angular profile."""
    return AngularFunction.from_coefficients({k: -0.5j * amplitude})


def _phi_cos(amplitude: float, k: int) -> AngularFunction:
    """amplitude * cos(k theta) as an angular profile."""
    return AngularFunction.from_coefficients({k: 0.5 * amplitude})


def _channel(spec: ChannelSpectrum, k: int) -> complex:
    """The stored eigenvalue of channel k."""
    return spec.values[k - spec.indices[0]]


class TestChannelSpectrum:
    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            ChannelSpectrum(indices=np.arange(3), values=np.array([1.0, 0.5, 1.0]))

    def test_rejects_non_consecutive_indices(self):
        with pytest.raises(ValueError):
            ChannelSpectrum(indices=np.array([0, 2, 3]),
                            values=np.ones(3, dtype=complex))

    def test_shifted_relabels_indices(self):
        spec = ab_kernel_channels(0.3, 4)
        moved = spec.shifted(2)
        assert _channel(moved, 2) == pytest.approx(_channel(spec, 0))
        assert moved.indices[0] == spec.indices[0] + 2

    def test_distance_requires_overlap(self):
        a = ChannelSpectrum(indices=np.arange(0, 3), values=np.ones(3, dtype=complex))
        b = ChannelSpectrum(indices=np.arange(10, 13), values=np.ones(3, dtype=complex))
        with pytest.raises(GridMismatch):
            a.distance(b)


class TestAbChannels:
    def test_zero_flux_is_identity(self):
        spec = ab_kernel_channels(0.0, 8)
        assert np.max(np.abs(spec.values - 1.0)) == 0.0

    def test_even_integer_flux_is_identity(self):
        spec = ab_kernel_channels(2.0, 8)
        assert np.max(np.abs(spec.values - 1.0)) == 0.0

    def test_odd_integer_flux_is_minus_identity(self):
        for a in (1.0, -1.0, 3.0):
            spec = ab_kernel_channels(a, 8)
            assert np.max(np.abs(spec.values + 1.0)) == 0.0

    def test_half_flux_splits_at_step(self):
        spec = ab_kernel_channels(0.5, 6)
        for k in range(-6, 0):
            assert _channel(spec, k) == pytest.approx(-1j, abs=1e-14)
        for k in range(0, 7):
            assert _channel(spec, k) == pytest.approx(1j, abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.3, 1.7, -0.4, 2.25])
    def test_two_values_split_at_floor(self, alpha):
        spec = ab_kernel_channels(alpha, 8)
        step = flux_step(alpha)
        up = np.exp(1j * np.pi * alpha)
        dn = np.exp(-1j * np.pi * alpha)
        for k in range(-8, 9):
            want = up if k >= step else dn
            assert _channel(spec, k) == pytest.approx(want, abs=1e-14)

    def test_unimodular_within_tolerance(self):
        for alpha in (0.1, 0.5, 0.93, 1.6, -2.3):
            spec = ab_kernel_channels(alpha, 16)
            assert np.max(np.abs(np.abs(spec.values) - 1.0)) < 1e-6

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.filterwarnings(
        "ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("alpha,k", [
        (0.3, 0), (0.3, -3), (0.3, 2),
        (0.5, 1), (0.5, -1),
        (1.7, 1), (1.7, 0),
        (-0.4, -1), (-0.4, -2),
    ])
    def test_closed_form_matches_pv_quadrature(self, alpha, k):
        exact = _channel(ab_kernel_channels(alpha, 8), k)
        oracle = ab_channel_pv_quadrature(alpha, k)
        assert abs(exact - oracle) < 1e-6

    def test_flux_plus_two_shifts_channels_by_two(self):
        for alpha in (0.3, 0.5, -0.8):
            base = ab_kernel_channels(alpha, 12)
            lifted = ab_kernel_channels(alpha + 2.0, 12)
            assert base.shifted(2).distance(lifted) < 1e-8


class TestSingularOffdiagonal:
    def test_vanishes_at_integer_flux(self):
        u = np.linspace(0.1, 6.0, 40)
        assert np.max(np.abs(singular_offdiagonal(1.0, u))) < 1e-12

    def test_grows_like_inverse_angle(self):
        small = abs(singular_offdiagonal(0.5, 1e-4))
        smaller = abs(singular_offdiagonal(0.5, 1e-5))
        assert smaller / small == pytest.approx(10.0, rel=1e-3)


class TestAssembleKernel:
    def test_pure_flux_kernel_matches_closed_form(self):
        S = assemble_kernel(0.3, n_grid=64)
        th = np.array([1.0, 2.5, 4.0])
        tp = np.array([0.2, 0.2, 0.2])
        got = S.evaluate(th, tp)
        want = singular_offdiagonal(0.3, th - tp)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_zero_flux_kernel_vanishes_off_diagonal(self):
        S = assemble_kernel(0.0, n_grid=64)
        assert np.max(np.abs(S.evaluate(np.array([1.0]), np.array([3.0])))) < 1e-14

    def test_full_structure_at_a_point(self):
        alpha = 0.3
        a_out = _phi_sin(0.2)
        a_in = _phi_cos(0.15, 2)

        def bump(t, p):
            # periodic bump: trigonometric interpolation is exact to rounding
            return 0.05 * np.exp(4.0 * (np.cos(t - 2.0) + np.cos(p - 4.0) - 2.0))

        S = assemble_kernel(alpha, a0_in=a_in, a0_out=a_out, smooth=bump,
                            n_grid=256, winding=1)
        th, tp = 1.0, 0.4
        pref_out = np.exp(1j * (1 * th + a_out(th)))
        pref_in = np.exp(-1j * (1 * (tp + np.pi) + a_in(tp + np.pi)))
        want = pref_out * (singular_offdiagonal(alpha, th - tp)
                           + bump(th, tp)) * pref_in
        got = S.evaluate(th, tp)
        assert abs(got - want) < 1e-10

    def test_winding_shifts_effective_flux(self):
        S = assemble_kernel(0.3, n_grid=64, winding=2)
        assert S.effective_flux() == pytest.approx(2.3)
        ref = ab_kernel_channels(2.3, 32)
        assert S.channel_spectrum().distance(ref) < 1e-12

    def test_declared_bound_too_small_rejected(self):
        def bump(t, p):
            return 0.5 * np.exp(-(((t - 2.0) ** 2) + (p - 4.0) ** 2) / 0.5)

        with pytest.raises(RemainderBoundViolated):
            assemble_kernel(0.3, smooth=bump, n_grid=64, bound_C=1e-6)

    def test_fitted_bound_certifies_grid(self):
        rng = np.random.default_rng(5)
        M = 64
        R = 0.1 * (rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M)))
        C = assemble_kernel(0.3, smooth=R, n_grid=M, bound_delta=0.5).bound_C
        S = assemble_kernel(0.2, smooth=R, n_grid=M, bound_C=C)
        assert S.bound_C == pytest.approx(C)

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            assemble_kernel(0.3, n_grid=8)


def _structured_kernel(M: int) -> ScatteringKernel:
    """Winding, both phase profiles and a remainder peaked on the diagonal."""
    def remainder(t, p):
        u = np.mod(t - p + np.pi, 2 * np.pi) - np.pi
        return 0.04 * np.exp(-u**2 / 0.3) + 0.01 * np.cos(t) * np.sin(2 * p)

    return assemble_kernel(0.35, a0_out=_phi_sin(0.2) + _phi_cos(0.05, 3),
                           a0_in=_phi_cos(0.15, 2), smooth=remainder, n_grid=M, winding=2)


class TestOffsetTables:
    @pytest.mark.parametrize("M", [64, 256, 1024])
    def test_value_grid_matches_direct_grid(self, M):
        S = _structured_kernel(M)
        got, want = S.value_grid(), direct_value_grid(S)
        off = ~np.eye(M, dtype=bool)
        assert np.max(np.abs(got - want)[off] / np.abs(want)[off]) < 1e-12
        # the grid tables read the phases by one inverse FFT, the oracle by
        # the dense sum: the same values up to rounding
        np.testing.assert_allclose(np.diagonal(got), np.diagonal(want), rtol=1e-14, atol=0)

    def test_band_matches_value_grid(self):
        M = 64
        S = _structured_kernel(M)
        grid = S.value_grid()
        rows = np.arange(M)
        for p in range(-M, M):
            assert np.max(np.abs(S.band(p) - grid[rows, (rows - p) % M])) < 1e-15

    @pytest.mark.parametrize("complex_remainder", [False, True])
    @pytest.mark.parametrize("M", [64, 256, 1024])
    def test_band_is_the_value_grid_bit_for_bit(self, M, complex_remainder):
        # a gauged kernel: unit prefactors that are not 1, and a remainder
        # whose products round differently in another operand order
        rng = np.random.default_rng(M)
        R = 0.01 * rng.standard_normal((M, M))
        if complex_remainder:
            R = R + 0.01j * rng.standard_normal((M, M))
        S = apply_gauge_to_kernel(
            assemble_kernel(0.35, a0_out=_phi_sin(0.2), a0_in=_phi_cos(0.15, 2), smooth=R,
                            n_grid=M),
            GaugeElement(dimension=2, m=1, phi=_phi_cos(0.3, 3)))
        grid = S.value_grid()
        rows = np.arange(M)
        for p in (-8, 8, 9, 48):
            assert S.band(p).tobytes() == grid[rows, (rows - p) % M].tobytes()

    @pytest.mark.parametrize("read", ["value_grid", "band"])
    def test_singular_part_evaluated_once_per_offset(self, monkeypatch, read):
        M = 256
        S = _structured_kernel(M)
        points = []

        def counted(alpha, u):
            points.append(np.size(u))
            return singular_offdiagonal(alpha, u)

        monkeypatch.setattr(scattering, "singular_offdiagonal", counted)
        if read == "value_grid":
            S.value_grid()
        else:
            S.band(8)
        assert 0 < sum(points) <= M

    @pytest.mark.parametrize("delta", [0.0, 0.5, 0.9])
    def test_remainder_bounds_exclude_the_diagonal(self, delta):
        M = 32
        th = np.arange(M) * 2 * np.pi / M
        rng = np.random.default_rng(11)
        R = 0.1 * (rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M)))
        R[np.diag_indices(M)] = 1e6
        u = np.abs(np.subtract.outer(th, th))
        dist = np.minimum(u, 2 * np.pi - u)
        off = ~np.eye(M, dtype=bool)
        want = 1.05 * np.max(np.abs(R[off]) * dist[off] ** delta)
        C = assemble_kernel(0.3, smooth=R, n_grid=M, bound_delta=delta).bound_C
        assert C == pytest.approx(want, rel=1e-12)
        verify_remainder_bound(R, C, delta)
        with pytest.raises(RemainderBoundViolated):
            verify_remainder_bound(R, 0.9 * C, delta)

    @pytest.mark.parametrize("M", [16, 17, 64, 1024])
    def test_circulant_view_matches_gather(self, M):
        rng = np.random.default_rng(M)
        t = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        i = np.arange(M)
        view = scattering._circulant(t)
        np.testing.assert_array_equal(view, t[(i[:, None] - i[None, :]) % M])
        assert not view.flags.writeable

    @pytest.mark.parametrize("M", [16, 17, 33, 64, 1000, 1024])
    def test_offset_max_matches_gather(self, M):
        # the blocked peak scan of |R| per offset, bit for bit; at 17, 33 and
        # 1000 the last row block is shorter than the rest
        rng = np.random.default_rng(M)
        A = rng.standard_normal((M, M))
        for grid in (A, A + 1j * rng.standard_normal((M, M))):
            np.testing.assert_array_equal(scattering._offdiagonal_peaks(grid),
                                          gathered_offset_max(np.abs(grid))[1:])

    def test_peak_on_a_wrapped_offset_in_the_last_block(self):
        M = 1000
        blocks = row_blocks(M)
        assert len(blocks) > 1 and blocks[-1].stop - blocks[-1].start < blocks[0].stop
        R = np.full((M, M), 1e-3)
        i, j = blocks[-1].start + 3, M - 2  # i < j: offset (i - j) mod M wraps
        R[i, j] = -0.7
        peaks = scattering._offdiagonal_peaks(R)
        np.testing.assert_array_equal(peaks, gathered_offset_max(np.abs(R))[1:])
        assert np.flatnonzero(peaks == 0.7).tolist() == [(i - j) % M - 1]

    def test_prefactor_tables_read_only_and_cached(self):
        S = _structured_kernel(64)
        tables = S._grid_tables
        assert S._grid_tables is tables
        for t, want in zip(tables, (S.prefactor_out(S.thetas), S.prefactor_in(S.thetas))):
            np.testing.assert_allclose(t, want, rtol=1e-14, atol=0)
        assert not any(t.flags.writeable for t in tables)

    def test_prefactors_off_the_grid_match_the_tables(self):
        # degree-64 phases read pointwise at the grid angles agree with the
        # on_grid tables; a dense sum read at theta' + pi would meet the
        # rounding of theta' + pi (5.3e-15 sum |c_k| over 20 such profiles,
        # 1.9e-14 for coefficients that do not decay)
        rng = np.random.default_rng(64)
        for _ in range(8):
            coeffs = {k: complex(*rng.uniform(-0.5, 0.5, 2)) / k for k in range(1, 65)}
            phase = AngularFunction.from_coefficients(coeffs)
            S = assemble_kernel(0.35, a0_out=phase, a0_in=phase, n_grid=256, winding=1)
            tol = 3e-15 * np.sum(np.abs(phase.coefficients))
            out, inc, _ = S._grid_tables
            assert np.max(np.abs(S.prefactor_out(S.thetas) - out)) <= tol
            assert np.max(np.abs(S.prefactor_in(S.thetas) - inc)) <= tol

    def test_grid_reads_never_evaluate_a_profile_pointwise(self, monkeypatch):
        # the grid tables and the certified sup read the phase profiles by
        # on_grid only; the dense AngularFunction.__call__ is for angles off
        # a grid
        S = _structured_kernel(256)

        def dense(self, theta):
            raise AssertionError("AngularFunction.__call__ on a uniform grid")

        monkeypatch.setattr(AngularFunction, "__call__", dense)
        out, inc, _ = S._grid_tables
        assert out.shape == inc.shape == (256,)
        assert S.phase_out.max_abs() > 0 and S.phase_in.max_abs() > 0

    def test_thetas_derived_from_the_remainder(self):
        assert "thetas" not in {f.name for f in dataclasses.fields(ScatteringKernel)}
        S = _structured_kernel(64)
        np.testing.assert_array_equal(S.thetas, np.arange(64) * 2 * np.pi / 64)


class TestRemainderBoundChecks:
    def _kernel(self):
        def bump(t, p):
            return 0.5 * np.exp(-(((t - 2.0) ** 2) + (p - 4.0) ** 2) / 0.5)

        return assemble_kernel(0.3, smooth=bump, n_grid=64)

    def test_too_small_bound_rejected_at_construction(self):
        S = self._kernel()
        with pytest.raises(RemainderBoundViolated):
            ScatteringKernel(alpha=S.alpha, winding=S.winding, phase_out=S.phase_out,
                             phase_in=S.phase_in, remainder=S.remainder,
                             bound_C=0.5 * S.bound_C, bound_delta=S.bound_delta)

    def test_too_small_bound_rejected_through_replace(self):
        S = self._kernel()
        with pytest.raises(RemainderBoundViolated):
            dataclasses.replace(S, bound_C=0.5 * S.bound_C)

    def test_gauge_action_shares_the_certified_remainder(self, monkeypatch):
        S = self._kernel()
        scans = count_remainder_scans(monkeypatch)
        T = apply_gauge_to_kernel(S, GaugeElement(dimension=2, m=1, phi=_phi_sin(0.1)))
        assert np.shares_memory(T.remainder, S.remainder)
        assert (T.bound_C, T.bound_delta) == (S.bound_C, S.bound_delta)
        assert T.winding == S.winding + 1
        assert scans == []

    def test_assembly_scans_the_grid_once(self, monkeypatch):
        scans = count_remainder_scans(monkeypatch)
        S = self._kernel()
        assert len(scans) == 1
        fresh = assemble_kernel(0.3, smooth=S.remainder, n_grid=64, bound_delta=S.bound_delta)
        assert S.bound_C == pytest.approx(fresh.bound_C)

    def test_no_remainder_certifies_zero_without_a_scan(self, monkeypatch):
        scans = count_remainder_scans(monkeypatch)
        S = assemble_kernel(0.3, n_grid=64)
        T = assemble_kernel(0.3, n_grid=64, bound_C=0.2)
        assert (S.bound_C, T.bound_C) == (0.0, 0.2)
        assert scans == []
        with pytest.raises(RemainderBoundViolated):
            assemble_kernel(0.3, n_grid=64, bound_C=-1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cell_off_the_diagonal_refused(self, bad):
        M = 32
        R = np.zeros((M, M), dtype=complex)
        R[3, 1] = bad
        for certify in (lambda: verify_remainder_bound(R, 1.0, 0.5),
                        lambda: assemble_kernel(0.3, smooth=R, n_grid=M)):
            with pytest.raises(RemainderBoundViolated, match="non-finite"):
                certify()
        D = np.zeros((M, M), dtype=complex)
        D[3, 3] = bad  # the diagonal stays unconstrained
        assert assemble_kernel(0.3, smooth=D, n_grid=M).bound_C == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_non_finite_cell_refused_in_the_first_and_last_row_blocks(self, bad, dtype):
        M = 1000
        blocks = row_blocks(M)
        for i, j in ((0, 1), (blocks[-1].start, M - 1), (M - 1, 2)):
            R = np.zeros((M, M), dtype=dtype)
            R[i, j] = bad
            with pytest.raises(RemainderBoundViolated, match="non-finite"):
                assemble_kernel(0.3, smooth=R, n_grid=M)
        D = np.zeros((M, M), dtype=dtype)
        D[blocks[-1].start, blocks[-1].start] = bad  # on the diagonal: certified
        assert assemble_kernel(0.3, smooth=D, n_grid=M).bound_C == 0.0

    def test_certifying_a_grid_forms_no_grid_sized_array(self):
        M = 1024
        R = 0.01 * np.random.default_rng(3).standard_normal((M, M))
        assemble_kernel(0.3, smooth=R.copy(), n_grid=M)  # warm the row-block plan
        tracemalloc.start()
        try:
            S = assemble_kernel(0.3, smooth=R, n_grid=M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert S.bound_C > 0
        # one reused row-block buffer (about 512 KiB) and M-vectors
        assert peak <= 0.25 * M**2 * 8

    @pytest.mark.parametrize("delta", [1.0, -0.1])
    def test_bound_exponent_outside_the_unit_interval_refused(self, delta):
        with pytest.raises(ValueError, match="exponent must lie in"):
            assemble_kernel(0.3, smooth=np.zeros((64, 64)), n_grid=64, bound_delta=delta)

    def test_grid_of_another_size_refused(self):
        with pytest.raises(ValueError, match="shape must match n_grid"):
            assemble_kernel(0.3, smooth=np.zeros((64, 64)), n_grid=128)

    def test_nan_bound_constant_refused(self):
        S = self._kernel()
        for build in (lambda: assemble_kernel(0.3, smooth=S.remainder, n_grid=64,
                                              bound_C=np.nan),
                      lambda: assemble_kernel(0.3, n_grid=64, bound_C=np.nan),
                      lambda: dataclasses.replace(S, bound_C=np.nan)):
            with pytest.raises(RemainderBoundViolated):
                build()


def _bare_remainder(S: ScatteringKernel) -> ScatteringKernel:
    """S's remainder grid at flux 0 with no winding or phases: its kernel
    values off the diagonal are the remainder alone."""
    return assemble_kernel(0.0, smooth=S.remainder, n_grid=S.n_grid, bound_C=S.bound_C,
                           bound_delta=S.bound_delta)


class TestEvaluate:
    @pytest.mark.parametrize("M", [64, 512, 1024])
    def test_paired_remainder_matches_fft2_formula(self, M):
        S = _structured_kernel(M)
        th = 0.37 + np.geomspace(1e-3, 1e-1, 24)
        tp = np.full(24, 0.37)
        want = fft2_remainder_pairs(S, th, tp)
        got = _bare_remainder(S).evaluate(th, tp)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        value = S.evaluate(th, tp)
        pref = S.prefactor_out(th) * S.prefactor_in(tp)
        base = singular_offdiagonal(S.alpha, th - tp)
        assert np.max(np.abs(value - pref * (base + want))) <= 1e-14 * np.max(np.abs(value))

    def test_broadcast_table_matches_fft2_formula(self, monkeypatch):
        S = _bare_remainder(_structured_kernel(64))
        th, tp = np.array([0.5, 1.5, 2.5]), np.array([3.0, 4.0])
        want = np.column_stack([fft2_remainder_pairs(S, th, np.full(3, t)) for t in tp])

        def refuse(*args, **kwargs):
            raise AssertionError("fft2 of the remainder grid")

        monkeypatch.setattr(np.fft, "fft2", refuse)
        table = S.evaluate(th[:, None], tp[None, :])
        assert table.shape == (3, 2)
        assert np.max(np.abs(table - want)) <= 1e-14 * np.max(np.abs(want))
        one = S.evaluate(0.5, 3.0)
        assert np.ndim(one) == 0
        assert abs(one - table[0, 0]) <= 1e-14 * np.max(np.abs(want))

    def test_near_diagonal_growth_takes_no_fft2(self, monkeypatch):
        S = _structured_kernel(256)
        want = near_diagonal_growth(S)

        def refuse(*args, **kwargs):
            raise AssertionError("fft2 of the remainder grid")

        monkeypatch.setattr(np.fft, "fft2", refuse)
        assert near_diagonal_growth(S) == pytest.approx(want, rel=1e-12)

    def test_equal_shapes_read_pairwise(self):
        S = _structured_kernel(64)
        th = np.array([[0.5, 1.0], [1.5, 2.0]])
        tp = np.array([[3.0, 4.0], [5.0, 6.0]])
        got = S.evaluate(th, tp)
        assert got.shape == (2, 2)
        np.testing.assert_allclose(got.ravel(), S.evaluate(th.ravel(), tp.ravel()),
                                   rtol=1e-14, atol=0)

    def test_other_shapes_give_every_pair(self):
        S = _structured_kernel(64)
        th = np.array([[0.5, 1.0], [1.5, 2.0]])
        tp = np.array([3.0, 4.0, 5.0])
        with pytest.raises(ValueError):
            S.evaluate(th, tp)  # shapes that do not broadcast
        got = S.evaluate(th[..., None], tp)
        assert got.shape == (2, 2, 3)
        for i, j, k in np.ndindex(got.shape):
            assert abs(got[i, j, k] - S.evaluate(th[i, j], tp[k])) <= 1e-13 * abs(got[i, j, k])

    def test_value_does_not_depend_on_batch_size(self):
        # 20,000 pairs lie above numpy's temporary-elision size, 1,000 below
        S = _structured_kernel(256)
        rng = np.random.default_rng(11)
        th, tp = rng.uniform(0, 2 * np.pi, (2, 20_000))
        whole = S.evaluate(th, tp)
        parts = np.concatenate([S.evaluate(th[k:k + 1000], tp[k:k + 1000])
                                for k in range(0, 20_000, 1000)])
        np.testing.assert_array_equal(whole, parts)

    @pytest.mark.parametrize("complex_remainder", [False, True])
    def test_repeated_in_angles_match_distinct_pairs(self, complex_remainder):
        S = _structured_kernel(256)
        if complex_remainder:
            S = dataclasses.replace(S, remainder=S.remainder + 0.01j * S.remainder.T)
        rng = np.random.default_rng(13)
        th = rng.uniform(0, 2 * np.pi, 30)
        tp = rng.choice([0.37, 2.0, 5.5], 30)
        got = S.evaluate(th, tp)
        one_by_one = np.array([S.evaluate(a, b) for a, b in zip(th, tp)])
        assert np.max(np.abs(got - one_by_one)) <= 1e-13 * np.max(np.abs(one_by_one))

    def test_near_diagonal_probe_contracts_one_in_angle(self, monkeypatch):
        # its 24 pairs share theta' = 0.37: the remainder grid meets the
        # Dirichlet row of that one angle, not 24 copies of it
        S = _structured_kernel(256)
        sizes = []
        rows = ScatteringKernel._dirichlet_rows

        def counted(self, theta):
            sizes.append(np.size(theta))
            return rows(self, theta)

        monkeypatch.setattr(ScatteringKernel, "_dirichlet_rows", counted)
        near_diagonal_growth(S)
        assert sorted(sizes) == [1, 24]

    def test_one_angle_against_a_number(self):
        S = _structured_kernel(64)
        got = S.evaluate(np.array([1.0]), 3.0)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(S.evaluate(1.0, 3.0), rel=1e-13)
        assert np.ndim(S.evaluate(1.0, 3.0)) == 0


class TestGaugeActionOnKernels:
    def test_identity_gauge_preserves_values(self):
        S = assemble_kernel(0.4, a0_out=_phi_sin(0.1), n_grid=64)
        T = apply_gauge_to_kernel(S, GaugeElement(dimension=2))
        assert kernel_distance(S, T) < 1e-13

    def test_winding_shifts_channels(self):
        S = assemble_kernel(0.4, n_grid=64)
        g = GaugeElement(dimension=2, m=1)
        T = apply_gauge_to_kernel(S, g)
        ref = ab_kernel_channels(1.4, 32)
        assert T.channel_spectrum().distance(ref) < 1e-12

    def test_flux_parameters_and_remainder_untouched(self):
        def bump(t, p):
            return 0.02 * np.exp(-(((t - 1.0) ** 2) + (p - 5.0) ** 2) / 0.8)

        S = assemble_kernel(0.4, smooth=bump, n_grid=64)
        g = GaugeElement(dimension=2, m=3, phi=_phi_cos(0.2, 1))
        T = apply_gauge_to_kernel(S, g)
        assert T.alpha == S.alpha
        assert T.winding == S.winding + 3
        assert np.array_equal(T.remainder, S.remainder)

    def test_inverse_round_trip(self):
        S = assemble_kernel(0.25, a0_in=_phi_sin(0.3, 2), n_grid=64)
        g = GaugeElement(dimension=2, m=-2, phi=_phi_cos(0.4, 3))
        T = apply_gauge_to_kernel(apply_gauge_to_kernel(S, g), g.inverse())
        assert kernel_distance(S, T) < 1e-12

    def test_action_respects_composition(self):
        S = assemble_kernel(0.25, n_grid=64)
        g1 = GaugeElement(dimension=2, m=1, phi=_phi_sin(0.2))
        g2 = GaugeElement(dimension=2, m=-3, phi=_phi_cos(0.1, 2))
        seq = apply_gauge_to_kernel(apply_gauge_to_kernel(S, g1), g2)
        product = GaugeElement(dimension=2, m=g1.m + g2.m, phi=g1.phi + g2.phi)
        oneshot = apply_gauge_to_kernel(S, product)
        assert kernel_distance(seq, oneshot) < 1e-12

    def test_plane_kernel_needs_plane_gauge(self):
        S = assemble_kernel(0.25, n_grid=64)
        with pytest.raises(DimensionMismatch):
            apply_gauge_to_kernel(S, GaugeElement(dimension=3))

    def test_sphere_kernel_needs_space_gauge(self):
        grid = sphere_grid(refinement=1)
        K = synthesize_sphere_kernel(grid)
        with pytest.raises(DimensionMismatch):
            apply_gauge_to_kernel(K, GaugeElement(dimension=2, m=1))

    def test_no_winding_exists_in_space(self):
        with pytest.raises(ValueError):
            GaugeElement(dimension=3, m=1)

    def test_sphere_action_is_prefactor_pair(self):
        for refinement in (1, 3):
            grid = sphere_grid(refinement=refinement)
            K = synthesize_sphere_kernel(grid)
            g = GaugeElement(dimension=3,
                             phi_callable=lambda V: 0.3 * np.atleast_2d(V)[:, 2] ** 2)
            T = apply_gauge_to_kernel(K, g)
            phi = 0.3 * grid.vertices[:, 2] ** 2
            np.testing.assert_array_equal(T.phase_out, phi)
            np.testing.assert_array_equal(T.phase_in, -phi[grid.antipode])
            want = (np.exp(1j * phi)[:, None] * K.values
                    * np.exp(-1j * phi[grid.antipode])[None, :])
            assert np.array_equal(T.values, want)
            assert np.shares_memory(T.base, K.base)

    def test_sphere_action_respects_composition(self):
        grid = sphere_grid(refinement=2)
        K = synthesize_sphere_kernel(grid)
        g1 = GaugeElement(dimension=3, phi_callable=_even_phase())
        g2 = GaugeElement(dimension=3, phi_callable=_even_phase(-0.1, 0.3, 0.25))
        seq = apply_gauge_to_kernel(apply_gauge_to_kernel(K, g1), g2)
        product = GaugeElement(dimension=3, phi_callable=lambda V: (
            g1.phi_callable(V) + g2.phi_callable(V)))
        oneshot = apply_gauge_to_kernel(K, product)
        assert np.max(np.abs(seq.values - oneshot.values)) < 1e-12
        assert np.shares_memory(seq.base, K.base)

    def test_sampled_phases_compose_by_their_sum(self):
        # the action adds phases: two gauges given on the nodes equal one
        # gauge by the summed phase
        grid = sphere_grid(refinement=2)
        K = synthesize_sphere_kernel(grid)
        f1 = SphereFunction.from_callable(_even_phase(), refinement=2)
        f2 = SphereFunction.from_callable(_even_phase(-0.3, 0.1, 0.35), refinement=2)
        seq = apply_gauge_to_kernel(apply_gauge_to_kernel(
            K, GaugeElement(dimension=3, phi_sphere=f1)), GaugeElement(dimension=3, phi_sphere=f2))
        total = SphereFunction(grid=grid, values=f1.values + f2.values)
        oneshot = apply_gauge_to_kernel(K, GaugeElement(dimension=3, phi_sphere=total))
        np.testing.assert_array_equal(seq.phase_out, oneshot.phase_out)
        np.testing.assert_array_equal(seq.phase_in, oneshot.phase_in)
        assert np.max(np.abs(seq.values - oneshot.values)) < 1e-12

    def test_sampled_phase_needs_the_kernel_refinement(self):
        K = synthesize_sphere_kernel(sphere_grid(refinement=2))
        phi = SphereFunction.from_callable(_even_phase(), refinement=1)
        with pytest.raises(GridMismatch):
            apply_gauge_to_kernel(K, GaugeElement(dimension=3, phi_sphere=phi))

    def test_sphere_inverse_round_trip(self):
        grid = sphere_grid(refinement=2)
        K = synthesize_sphere_kernel(grid)
        g = GaugeElement(dimension=3, phi_callable=_even_phase(0.3, 0.2, -0.4))
        T = apply_gauge_to_kernel(apply_gauge_to_kernel(K, g), g.inverse())
        assert np.max(np.abs(T.values - K.values)) < 1e-12

    def test_sphere_kernel_reads_match_values(self):
        grid = sphere_grid(refinement=2)
        K = apply_gauge_to_kernel(synthesize_sphere_kernel(grid),
                                  GaugeElement(dimension=3, phi_callable=_even_phase()))
        V = K.values
        i, j = grid.edges().T
        assert np.array_equal(K.entries(i, j), V[i, j])
        nodes = np.arange(grid.size)
        assert np.array_equal(K.entries(nodes, nodes), np.diagonal(V))
        assert K.max_abs() == np.max(np.abs(V))
        assert np.array_equal(K.rows(slice(5, 9)), V[5:9])

    def test_sphere_phases_come_in_pairs(self):
        # both phases or neither, one finite real value per node
        grid = sphere_grid(refinement=1)
        base = synthesize_sphere_kernel(grid).base
        zero = np.zeros(grid.size)
        for bad in ({"phase_out": zero}, {"phase_in": zero},
                    {"phase_out": np.zeros(3), "phase_in": np.zeros(3)},
                    {"phase_out": zero, "phase_in": np.r_[np.nan, zero[1:]]},
                    {"phase_out": np.r_[zero[1:], np.inf], "phase_in": zero}):
            with pytest.raises(ValueError):
                SphereScatteringKernel(grid=grid, base=base, **bad)
        given = np.linspace(-1.0, 1.0, grid.size)
        K = SphereScatteringKernel(grid=grid, base=base, phase_out=given, phase_in=-given)
        assert K.phase_out.dtype == float and not K.phase_out.flags.writeable
        assert not np.shares_memory(K.phase_out, given)
        out, inc = K._prefactors
        np.testing.assert_array_equal(out, np.exp(1j * given))
        np.testing.assert_array_equal(inc, np.exp(-1j * given))
        ungauged = SphereScatteringKernel(grid=grid, base=base)
        assert all(p.dtype == float and np.all(p == 1.0) for p in ungauged._prefactors)
        assert np.shares_memory(ungauged.rows(slice(0, 4)), base)


class TestKernelDistance:
    def test_self_distance_is_zero(self):
        S = assemble_kernel(0.3, a0_out=_phi_sin(0.2), n_grid=64)
        assert kernel_distance(S, S) == 0.0

    def test_winding_gauge_separates_kernels(self):
        S = assemble_kernel(0.3, n_grid=64)
        T = apply_gauge_to_kernel(S, GaugeElement(dimension=2, m=1))
        # channels move from e^{i 0.3 pi} to e^{i 1.3 pi}; displacement 2 sin(pi/2)
        assert kernel_distance(S, T) > 1.0

    def test_small_flux_perturbation_small_distance(self):
        S = assemble_kernel(0.3, n_grid=256)
        T = assemble_kernel(0.3 + 1e-3, n_grid=256)
        d = kernel_distance(S, T)
        assert 1e-4 < d < 0.2

    def test_grid_mismatch_rejected(self):
        with pytest.raises(GridMismatch):
            kernel_distance(assemble_kernel(0.3, n_grid=64),
                            assemble_kernel(0.3, n_grid=128))

    def test_energy_mismatch_rejected(self):
        with pytest.raises(GridMismatch):
            kernel_distance(assemble_kernel(0.3, n_grid=64, lam=1.0),
                            assemble_kernel(0.3, n_grid=64, lam=2.0))

    def test_type_mismatch_rejected(self):
        grid = sphere_grid(refinement=1)
        with pytest.raises(DimensionMismatch):
            kernel_distance(assemble_kernel(0.3, n_grid=64),
                            synthesize_sphere_kernel(grid))

    @pytest.mark.parametrize("compare", [kernel_distance, gauge_equivalence_solver])
    @pytest.mark.parametrize("fault", ["mixed", "grid", "energy"])
    @pytest.mark.parametrize("kind", ["plane", "sphere"])
    def test_pair_check_errors(self, kind, fault, compare):
        build = {"plane": lambda grid=64, lam=1.0: assemble_kernel(0.3, n_grid=grid, lam=lam),
                 "sphere": lambda grid=1, lam=1.0: synthesize_sphere_kernel(
                     sphere_grid(refinement=grid), lam=lam)}
        other_kind = "sphere" if kind == "plane" else "plane"
        second = {"mixed": build[other_kind],
                  "grid": lambda: build[kind](grid=128 if kind == "plane" else 2),
                  "energy": lambda: build[kind](lam=2.0)}[fault]()
        grids = "angle" if kind == "plane" else "sphere"
        error, message = {"mixed": (DimensionMismatch, "kernel types differ"),
                          "grid": (GridMismatch, f"kernels on different {grids} grids"),
                          "energy": (GridMismatch, "kernels at different energies")}[fault]
        with pytest.raises(error, match=f"^{message}$"):
            compare(build[kind](), second)

    @pytest.mark.parametrize("diagonal", ["finite", "nan"])
    @pytest.mark.parametrize("M", [64, 256, 1024])
    def test_row_blocks_match_the_dense_distance(self, M, diagonal):
        S1 = _structured_kernel(M)
        if diagonal == "nan":
            R = np.array(S1.remainder)
            R[np.diag_indices(M)] = np.nan
            S1 = assemble_kernel(S1.alpha, a0_out=S1.phase_out, a0_in=S1.phase_in, smooth=R,
                                 n_grid=M, winding=S1.winding)
        for g in (GaugeElement(dimension=2, m=1, phi=_phi_cos(0.1, 2)),
                  GaugeElement(dimension=2, m=0, phi=_phi_sin(1e-7, 3))):
            S2 = apply_gauge_to_kernel(S1, g)
            with np.errstate(invalid="ignore"):
                got = scattering._distance(S1, S2)
                want = dense_plane_distance(S1, S2)
                tol = _ROUNDING * max(1.0, np.nanmax(np.abs(S2.value_grid())))
            assert scattering._one_base(S1, S2)
            assert abs(got[0] - want[0]) <= tol
            assert np.isfinite(got[0]) and np.isnan(got[1]) == (diagonal == "nan")
            assert np.isnan(want[1]) if diagonal == "nan" else abs(got[1] - want[1]) <= tol

    @pytest.mark.parametrize("kind", ["real", "complex", "none", "sphere"])
    def test_one_base_pass_matches_the_values_pass(self, kind):
        # the same pair compared on one base and, through a copy of kernel
        # 2 that holds its own grid, by the rows of both kernels
        if kind == "sphere":
            grid = sphere_grid(refinement=3)
            S1 = apply_gauge_to_kernel(synthesize_sphere_kernel(grid), GaugeElement(
                dimension=3, phi_callable=_even_phase(0.1, 0.3, -0.2)))
            S2 = apply_gauge_to_kernel(S1, GaugeElement(dimension=3, phi_callable=_even_phase()))
            copy = SphereScatteringKernel(grid=grid, base=np.array(S2.base),
                                          phase_out=S2.phase_out, phase_in=S2.phase_in)
        else:
            rng = np.random.default_rng(12)
            R = {"real": 0.02 * rng.standard_normal((256, 256)),
                 "complex": 0.02 * (rng.standard_normal((256, 256))
                                    + 1j * rng.standard_normal((256, 256))),
                 "none": None}[kind]
            S1 = assemble_kernel(0.35, a0_out=_phi_sin(0.2), a0_in=_phi_cos(0.15, 2), smooth=R,
                                 n_grid=256, winding=1)
            S2 = apply_gauge_to_kernel(S1, GaugeElement(dimension=2, m=-1, phi=_phi_cos(0.3, 3)))
            copy = ScatteringKernel.from_header_and_grid(S2.header_dict(), np.array(S2.remainder))
        assert scattering._one_base(S1, S2) and not scattering._one_base(S1, copy)
        shared, unshared = scattering._distance(S1, S2), scattering._distance(S1, copy)
        tol = _ROUNDING * max(1.0, unshared[1])
        assert shared[0] > 0.1
        assert abs(shared[0] - unshared[0]) <= tol and abs(shared[1] - unshared[1]) <= tol

    @pytest.mark.parametrize("kind", ["real", "complex", "sphere"])
    def test_equal_phases_give_exactly_zero(self, kind):
        if kind == "sphere":
            S = apply_gauge_to_kernel(synthesize_sphere_kernel(sphere_grid(refinement=2)),
                                      GaugeElement(dimension=3, phi_callable=_even_phase()))
            twin = dataclasses.replace(S)
        else:
            S = _structured_kernel(256)
            if kind == "complex":
                S = dataclasses.replace(S, remainder=S.remainder * np.exp(0.3j))
            twin = apply_gauge_to_kernel(S, GaugeElement(dimension=2))
        assert kernel_distance(S, S) == 0.0
        # another kernel object with the same base and phase bits
        assert scattering._one_base(S, twin) and kernel_distance(S, twin) == 0.0

    @pytest.mark.parametrize("kind", ["plane", "sphere"])
    def test_nan_cell_off_the_diagonal_shows(self, kind):
        if kind == "sphere":
            grid = sphere_grid(refinement=2)
            base = np.array(synthesize_sphere_kernel(grid).base)
            base[0, grid.antipode[0]] = np.nan
            S = SphereScatteringKernel(grid=grid, base=base)
            g = GaugeElement(dimension=3, phi_callable=_even_phase())
        else:
            # the certificate refuses such a grid, so the kernel is built
            # past it, as a stand-in for corrupted data
            S = _structured_kernel(64)
            R = np.array(S.remainder)
            R[3, 40] = np.nan
            S = ScatteringKernel._certified(**{**{f.name: getattr(S, f.name)
                                                  for f in dataclasses.fields(S)},
                                               "remainder": R})
            g = GaugeElement(dimension=2, m=1, phi=_phi_cos(0.1, 2))
        for T in (S, apply_gauge_to_kernel(S, g)):
            assert scattering._one_base(S, T)
            assert np.isnan(kernel_distance(S, T))

    @pytest.mark.parametrize("M", [64, 256, 1024])
    def test_row_blocks_are_the_value_grid(self, M):
        S = _structured_kernel(M)
        grid = S.value_grid()
        blocks = row_blocks(M)
        assert blocks[0].start == 0 and blocks[-1].stop == M
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        np.testing.assert_array_equal(np.concatenate([S.rows(b) for b in blocks]), grid)


class TestNearDiagonalGrowth:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_exponent_is_one(self, alpha):
        S = assemble_kernel(alpha, n_grid=256)
        p, c = near_diagonal_growth(S)
        assert 0.9 < p < 1.1
        assert c > 0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -2.0])
    def test_integer_flux_has_no_growth_to_fit(self, alpha):
        # sin(alpha pi) vanishes: the fit would read rounding noise or nan
        with pytest.raises(SingularPartMissing, match="integer flux"):
            near_diagonal_growth(assemble_kernel(alpha, n_grid=64))

    def test_non_finite_probe_raises(self):
        # a nan on the remainder's diagonal is accepted (the certificate reads
        # the off-diagonal cells only), and every probed value contracts it
        R = np.zeros((16, 16))
        R[3, 3] = np.nan
        with pytest.raises(NonConvergent, match="not finite"):
            near_diagonal_growth(assemble_kernel(0.3, smooth=R, n_grid=16))

    def test_phases_do_not_change_exponent(self):
        S = assemble_kernel(0.3, a0_out=_phi_sin(0.5), a0_in=_phi_cos(0.4, 2),
                            n_grid=256, winding=2)
        p, _ = near_diagonal_growth(S)
        assert 0.9 < p < 1.1


class TestPlaneSolver:
    def test_identical_kernels_equivalent_with_identity(self):
        S = assemble_kernel(0.5, n_grid=64)
        res = gauge_equivalence_solver(S, S)
        assert res.verdict == "equivalent"
        assert res.gauge.m == 0
        assert res.gauge.phi.max_abs() < 1e-6

    def test_gauge_pair_recovers_winding_and_phase(self):
        S1 = assemble_kernel(0.3, n_grid=256)
        phi = _phi_cos(0.1, 2)
        g = GaugeElement(dimension=2, m=2, phi=phi)
        S2 = apply_gauge_to_kernel(S1, g)
        res = gauge_equivalence_solver(S1, S2)
        assert res.verdict == "equivalent"
        assert res.gauge.m == 2
        assert res.gauge.phi.distance(phi) < 1e-6

    def test_gauge_pair_with_remainder(self):
        def bump(t, p):
            return 0.03 * np.exp(-(((t - 2.0) ** 2) + (p - 4.0) ** 2) / 0.6)

        S1 = assemble_kernel(0.4, smooth=bump, n_grid=256)
        phi = _phi_sin(0.05, 3)
        g = GaugeElement(dimension=2, m=-1, phi=phi)
        S2 = apply_gauge_to_kernel(S1, g)
        res = gauge_equivalence_solver(S1, S2)
        assert res.verdict == "equivalent"
        assert res.gauge.m == -1
        assert res.gauge.phi.distance(phi) < 1e-6

    def test_fractional_flux_difference_not_equivalent(self):
        S1 = assemble_kernel(0.3, n_grid=64)
        S2 = assemble_kernel(0.55, n_grid=64)
        res = gauge_equivalence_solver(S1, S2)
        assert res.verdict == "not_equivalent"
        assert res.witness["kind"] == "channel_spectrum"
        assert abs(res.witness["flux_difference_mod_1"] - 0.25) < 1e-9

    def test_integer_flux_is_ambiguous(self):
        S1 = assemble_kernel(1.0, n_grid=64)
        S2 = assemble_kernel(1.0, n_grid=64)
        res = gauge_equivalence_solver(S1, S2)
        assert res.verdict == "ambiguous"
        assert res.gauge is None

    @pytest.mark.parametrize("m", [33, 40])
    def test_flux_beyond_the_channel_window(self, m):
        # the effective flux 0.3 + m lies beyond the 65 channels of
        # channel_spectrum, which show it no jump; the solver reads the
        # stored flux and anchors it
        S1 = assemble_kernel(0.3, n_grid=256)
        phi = _phi_cos(0.1, 2)
        S2 = apply_gauge_to_kernel(S1, GaugeElement(dimension=2, m=m, phi=phi))
        res = gauge_equivalence_solver(S1, S2)
        assert res.verdict == "equivalent"
        assert res.gauge.m == m
        assert res.gauge.phi.distance(phi) < 1e-6
        res = gauge_equivalence_solver(S2, S2)
        assert res.verdict == "equivalent" and res.gauge.m == 0

    def test_near_integer_flux_is_ambiguous(self):
        # a flux of 1e-7 jumps by 2 sin(1e-7 pi) < 1e-6 across the channels
        S = assemble_kernel(1e-7, n_grid=64)
        res = gauge_equivalence_solver(S, S)
        assert res.verdict == "ambiguous"
        assert res.provenance["flux_1"] is None and res.provenance["flux_2"] is None

    def test_distinct_remainders_fail_verification(self):
        def bump(t, p):
            return 0.2 * np.exp(-(((t - 2.0) ** 2) + (p - 4.0) ** 2) / 0.6)

        S1 = assemble_kernel(0.3, n_grid=256)
        S2 = assemble_kernel(0.3, smooth=bump, n_grid=256)
        res = gauge_equivalence_solver(S1, S2)
        assert res.verdict == "not_equivalent"
        assert res.witness["kind"] == "verification"

    def test_grid_mismatch_raises(self):
        with pytest.raises(GridMismatch):
            gauge_equivalence_solver(assemble_kernel(0.3, n_grid=64),
                                     assemble_kernel(0.3, n_grid=128))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("offset", [20, 2, 0])  # far, inside the diagonal band, diagonal
    def test_non_finite_remainder_is_never_equivalent(self, offset, bad):
        M = 64
        R = np.zeros((M, M), dtype=complex)
        R[10, 10 - offset] = bad
        if offset:  # off the diagonal the bound's certification refuses it
            with pytest.raises(RemainderBoundViolated):
                assemble_kernel(0.3, smooth=R, n_grid=M)
            return
        g = GaugeElement(dimension=2, m=1, phi=_phi_cos(0.1, 2))
        with np.errstate(invalid="ignore"):
            S2 = apply_gauge_to_kernel(assemble_kernel(0.3, smooth=R, n_grid=M), g)
            res = gauge_equivalence_solver(assemble_kernel(0.3, n_grid=M), S2)
        assert res.verdict == "not_equivalent"
        assert res.witness["kind"] == "verification"

    @staticmethod
    def _gauge_pair(M):
        S1 = _structured_kernel(M)
        return S1, apply_gauge_to_kernel(S1, GaugeElement(dimension=2, m=1, phi=_phi_cos(0.1, 2)))

    def test_no_value_grid_per_solve(self, monkeypatch):
        S1, S2 = self._gauge_pair(256)

        def refuse(self):
            raise AssertionError("a full value grid in the plane solver")

        monkeypatch.setattr(ScatteringKernel, "value_grid", refuse)
        res = gauge_equivalence_solver(S1, S2)
        assert res.verdict == "equivalent" and "verify_distance" in res.provenance
        assert kernel_distance(S1, S2) > 0

    def test_declared_gauge_solve_memory_stays_below_half_a_grid(self):
        M = 1024
        S1, S2 = self._gauge_pair(M)
        tracemalloc.start()
        try:
            res = gauge_equivalence_solver(S1, S2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.verdict == "equivalent" and res.provenance["verified_by"] == "certificate"
        assert peak <= 0.5 * M**2 * 16
        # the certificate forms no M x M array: O(M), far below half a grid
        assert peak <= 64 * M * 16

    def test_verify_distance_bounds_the_kernel_distance(self):
        # the pair shares one remainder grid, so the certificate decides;
        # TestCertifiedVerify::test_unshared_grid_takes_the_exact_distance
        # pins the equality on the exact path
        S1, S2 = self._gauge_pair(256)
        res = gauge_equivalence_solver(S1, S2)
        assert res.provenance["verified_by"] == "certificate"
        assert kernel_distance(apply_gauge_to_kernel(S1, res.gauge), S2) \
            <= res.provenance["verify_distance"] <= 1e-6

    def test_gauge_fit_reads_each_profile_once(self, monkeypatch):
        S1, S2 = self._gauge_pair(256)
        calls = []
        call = AngularFunction.__call__

        def counted(self, theta):
            calls.append(1)
            return call(self, theta)

        monkeypatch.setattr(AngularFunction, "__call__", counted)
        scattering._fit_plane_gauge(S1, S2, 1)
        assert len(calls) <= 4


def _even_phase(a=0.4, b=-0.2, c=0.0):
    """a z^2 + b x y + c x z on (m, 3) unit vectors: antipodally even."""
    return lambda V: a * V[:, 2] ** 2 + b * V[:, 0] * V[:, 1] + c * V[:, 0] * V[:, 2]


def _in_a_fresh_process(*lines: str) -> str:
    """stdout of a fresh interpreter that imports gaugekit, checks that no
    scipy module is loaded, defines _even_phase and runs the given lines."""
    code = "\n".join([
        "import sys", "import gaugekit",
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']",
        inspect.getsource(_even_phase), *lines])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(scattering.__file__).resolve().parents[1])]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def _round_trip_memory():
    """(verdict, traced peak bytes, grid size) of a refinement-4 even-gauge
    round trip, traced from its first solve: the solver imports nothing, so
    no warm-up is needed. Only the grid's far-pair mask is cached first, as
    a grid keeps it for every later solve. It imports what it needs, so that
    a fresh interpreter can run its source."""
    import tracemalloc

    from gaugekit.angular import sphere_grid
    from gaugekit.fields import GaugeElement
    from gaugekit.scattering import (
        apply_gauge_to_kernel,
        gauge_equivalence_solver,
        synthesize_sphere_kernel,
    )

    g = GaugeElement(dimension=3, phi_callable=_even_phase())
    grid = sphere_grid(refinement=4)
    grid.far_pairs()
    tracemalloc.start()
    try:
        K1 = synthesize_sphere_kernel(grid)
        res = gauge_equivalence_solver(K1, apply_gauge_to_kernel(K1, g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return res.verdict, peak, grid.size


class TestSphereSolver:
    @staticmethod
    def _even_round_trip(refinement):
        grid = sphere_grid(refinement=refinement)
        K1 = synthesize_sphere_kernel(grid)
        phi = _even_phase()
        K2 = apply_gauge_to_kernel(K1, GaugeElement(dimension=3, phi_callable=phi))
        res = gauge_equivalence_solver(K1, K2)
        assert res.verdict == "equivalent"
        fitted = np.asarray(res.gauge.phi_sphere.values, dtype=float)
        gap = fitted - phi(grid.vertices)
        assert np.max(gap) - np.min(gap) < 1e-6

    def test_even_phase_round_trip(self):
        self._even_round_trip(2)

    def test_even_phase_round_trip_refinement_4(self):
        self._even_round_trip(4)

    @pytest.mark.parametrize("refinement", [1, 2, 3])
    def test_sparse_fit_matches_dense_oracle(self, refinement):
        grid = sphere_grid(refinement=refinement)
        rng = np.random.default_rng(30 + refinement)
        K1 = synthesize_sphere_kernel(grid)
        phi = _even_phase(*rng.uniform(-0.4, 0.4, 3))
        K2 = apply_gauge_to_kernel(K1, GaugeElement(dimension=3, phi_callable=phi))
        noise = 1e-9 * (rng.standard_normal(K2.values.shape)
                        + 1j * rng.standard_normal(K2.values.shape))
        K2 = SphereScatteringKernel(grid=grid, base=K2.values + noise)
        res = gauge_equivalence_solver(K1, K2)
        assert res.verdict == "equivalent"
        # the noise leaves edge residuals, so the fit is a true least-squares problem
        assert res.provenance["even_fit_residual"] > 1e-10
        assert 0 < res.provenance["even_fit_iterations"] < scattering._CG_MAX_ITER
        assert res.provenance["even_fit_relative_residual"] <= scattering._CG_TOL
        want = dense_sphere_phase_fit(K1, K2)
        assert np.max(np.abs(res.gauge.phi_sphere.values - want)) < 1e-12

    def test_far_pair_mask_cached_read_only(self):
        grid = sphere_grid(refinement=2)
        K1 = synthesize_sphere_kernel(grid)
        K2 = apply_gauge_to_kernel(K1, GaugeElement(dimension=3, phi_callable=_even_phase()))
        d = kernel_distance(K1, K2)
        mask = grid.far_pairs()
        assert grid.far_pairs() is mask
        assert not mask.flags.writeable
        np.testing.assert_array_equal(mask, grid.vertices @ grid.vertices.T < np.cos(0.15))
        want = np.max(np.abs(K1.values - K2.values)[mask])
        assert abs(d - want) <= _ROUNDING * max(1.0, K2.max_abs())

    @pytest.mark.parametrize("refinement", [0, 1, 2, 3])
    def test_blocked_distance_matches_dense(self, refinement):
        grid = sphere_grid(refinement=refinement)
        mask = grid.far_pairs()
        np.testing.assert_array_equal(mask, grid.vertices @ grid.vertices.T < np.cos(0.15))
        K1 = synthesize_sphere_kernel(grid)
        K2 = apply_gauge_to_kernel(K1, GaugeElement(dimension=3, phi_callable=_even_phase()))
        K3 = apply_gauge_to_kernel(K1, GaugeElement(dimension=3,
                                                    phi_callable=_even_phase(0.1, 0.3, -0.2)))
        for A, B in ((K1, K2), (K2, K1), (K3, K2)):
            want = np.max(np.abs(A.values - B.values)[mask])
            assert abs(kernel_distance(A, B) - want) <= _ROUNDING * max(1.0, B.max_abs())

    def test_row_blocks_cover_the_grid_without_one_row_blocks(self):
        plane_sizes = [64, 256, 512, 1024]
        for n in plane_sizes + [sphere_grid(refinement=r).size for r in range(6)]:
            blocks = row_blocks(n)
            assert row_blocks(n) is blocks
            assert blocks[0].start == 0 and blocks[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert min(b.stop - b.start for b in blocks) >= 2

    def test_synthesis_matches_dense_formula(self):
        for refinement in (1, 3):
            grid = sphere_grid(refinement=refinement)
            V = grid.vertices
            d2 = np.maximum(2.0 - 2.0 * (V @ V.T), 0.0)
            want = np.exp(-d2 / 0.6**2) + 0.05
            got = synthesize_sphere_kernel(grid).values
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

    def test_round_trip_memory_stays_near_one_matrix(self):
        verdict, peak, n = _round_trip_memory()
        assert verdict == "equivalent"
        assert peak <= 1.5 * n ** 2 * 8

    def test_round_trip_memory_in_a_fresh_process(self):
        # the same round trip where no scipy module is loaded beforehand, as
        # in a process that imports only gaugekit
        verdict, peak, n = _in_a_fresh_process(
            inspect.getsource(_round_trip_memory), "print(*_round_trip_memory())").split()
        assert verdict == "equivalent"
        assert int(peak) <= 1.5 * int(n) ** 2 * 8

    def test_sphere_solve_loads_no_scipy(self):
        out = _in_a_fresh_process(
            "from gaugekit.angular import sphere_grid",
            "from gaugekit.fields import GaugeElement",
            "from gaugekit.scattering import (",
            "    apply_gauge_to_kernel, gauge_equivalence_solver, synthesize_sphere_kernel)",
            "K1 = synthesize_sphere_kernel(sphere_grid(refinement=3))",
            "g = GaugeElement(dimension=3, phi_callable=_even_phase())",
            "print(gauge_equivalence_solver(K1, apply_gauge_to_kernel(K1, g)).verdict)",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert out.splitlines() == ["equivalent", "[]"]

    def test_fit_at_its_iteration_cap_is_ambiguous(self, monkeypatch):
        monkeypatch.setattr(scattering, "_CG_MAX_ITER", 2)
        grid = sphere_grid(refinement=2)
        K1 = synthesize_sphere_kernel(grid)
        K2 = apply_gauge_to_kernel(K1, GaugeElement(dimension=3, phi_callable=_even_phase()))
        res = gauge_equivalence_solver(K1, K2)
        assert res.verdict == "ambiguous"
        assert res.gauge is None
        assert "did not converge in 2 conjugate-gradient iterations" in res.reason
        assert res.provenance["even_fit_iterations"] == 2
        assert res.provenance["even_fit_relative_residual"] > scattering._CG_TOL

    def test_component_count_by_label_propagation(self):
        # a path 0-4-2, a triangle 1-3-5 and the lone node 6
        i, j = np.array([[0, 4], [2, 4], [1, 3], [3, 5], [1, 5]]).T
        assert scattering._component_count(i, j, 7) == 3
        grid = sphere_grid(refinement=2)
        assert scattering._component_count(*grid.edges().T, grid.size) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["far", "near", "diagonal"])
    def test_non_finite_value_is_never_equivalent(self, where, bad):
        grid = sphere_grid(refinement=3)
        K1 = synthesize_sphere_kernel(grid)
        far = grid.far_pairs()
        near_edges = [(a, b) for a, b in grid.edges() if not far[a, b]]
        i, j = {"far": (0, grid.antipode[0]), "near": near_edges[0], "diagonal": (0, 0)}[where]
        vals = np.array(apply_gauge_to_kernel(
            K1, GaugeElement(dimension=3, phi_callable=_even_phase())).values)
        vals[i, j] = bad
        with np.errstate(invalid="ignore"):
            res = gauge_equivalence_solver(K1, SphereScatteringKernel(grid=grid, base=vals))
        assert res.verdict == "not_equivalent"
        assert res.witness["kind"] == "verification"

    def test_sphere_solve_calls_no_dense_least_squares(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense least squares in the sphere solver")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        grid = sphere_grid(refinement=2)
        K1 = synthesize_sphere_kernel(grid)
        K2 = apply_gauge_to_kernel(K1, GaugeElement(dimension=3, phi_callable=_even_phase()))
        assert gauge_equivalence_solver(K1, K2).verdict == "equivalent"

    def test_disconnected_anchors_are_ambiguous(self):
        grid = sphere_grid(refinement=1)
        vals = np.array(synthesize_sphere_kernel(grid).values)
        v = 5  # every edge entry at this vertex falls below the floor
        others = np.arange(grid.size) != v
        vals[v, others] = 0.0
        vals[others, v] = 0.0
        K1 = SphereScatteringKernel(grid=grid, base=vals)
        K2 = apply_gauge_to_kernel(K1, GaugeElement(dimension=3, phi_callable=_even_phase()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = gauge_equivalence_solver(K1, K2)
        assert res.verdict == "ambiguous"
        assert res.gauge is None
        assert "2 components" in res.reason

    def test_odd_phase_rejected(self):
        grid = sphere_grid(refinement=2)
        K1 = synthesize_sphere_kernel(grid)
        g = GaugeElement(dimension=3,
                         phi_callable=lambda V: 0.3 * np.atleast_2d(V)[:, 2])
        K2 = apply_gauge_to_kernel(K1, g)
        res = gauge_equivalence_solver(K1, K2)
        assert res.verdict == "not_equivalent"
        assert res.witness["kind"] == "odd_phase"

    def test_missing_singular_support_raises(self):
        grid = sphere_grid(refinement=1)
        K1 = dataclasses.replace(synthesize_sphere_kernel(grid), singular_support=False)
        K2 = dataclasses.replace(synthesize_sphere_kernel(grid), singular_support=False)
        with pytest.raises(SingularPartMissing):
            gauge_equivalence_solver(K1, K2)

    def test_energy_mismatch_rejected(self):
        grid = sphere_grid(refinement=1)
        with pytest.raises(GridMismatch):
            gauge_equivalence_solver(synthesize_sphere_kernel(grid, lam=1.0),
                                     synthesize_sphere_kernel(grid, lam=2.0))


_REMAINDER_SPECS = {
    "none": None,
    "separable_trig": {"kind": "separable_trig", "amplitude": 0.04, "p": 2, "q": 3},
    "diagonal_gaussian": {"kind": "diagonal_gaussian", "amplitude": 0.04, "width": 0.55},
}


def _pipeline_kernel(M: int, kind: str) -> ScatteringKernel:
    """Kernel 1 of a classify pair: a flux with its gradient phase on both
    sides and a pipeline remainder of the given kind."""
    return assemble_kernel(0.41, a0_out=_phi_sin(0.1), a0_in=_phi_sin(0.1),
                           smooth=pipeline._remainder_grid(_REMAINDER_SPECS[kind], M),
                           n_grid=M)


class TestCertifiedVerify:
    """_verify answers equivalent from an O(n) bound when both kernels hold
    one grid object, and from the exact blocked distance otherwise."""

    @pytest.mark.parametrize("eta", [0.0, 1e-12, 1e-9, 1e-6, 1e-3])
    @pytest.mark.parametrize("kind", list(_REMAINDER_SPECS))
    @pytest.mark.parametrize("M", [64, 256, 1024])
    def test_plane_bound_holds(self, M, kind, eta):
        # S1 under a gauge whose phase is off by eta cos(3 theta), against S2
        S1 = _pipeline_kernel(M, kind)
        phi = _phi_cos(0.1, 2)
        S2 = apply_gauge_to_kernel(S1, GaugeElement(dimension=2, m=-1, phi=phi))
        S1g = apply_gauge_to_kernel(S1, GaugeElement(dimension=2, m=-1,
                                                     phi=phi + _phi_cos(eta, 3)))
        assert S1g.remainder is S2.remainder
        bound = scattering._shared_grid_bound(S1g, S2, None)
        dist = kernel_distance(S1g, S2)
        assert dist <= bound < 100 * dist + 1e-12

    def test_flux_off_in_the_last_bits(self):
        # a kernel 2 synthesized from config 2's decomposition: its flux may
        # differ from kernel 1's in the last bits, and so its singular table
        S1 = _pipeline_kernel(256, "diagonal_gaussian")
        phi = _phi_cos(0.1, 2)
        S2 = S1._rephased(np.nextafter(np.nextafter(S1.alpha, 1), 1), S1.winding + 1,
                          S1.phase_out + phi, S1.phase_in + phi)
        res = gauge_equivalence_solver(S1, S2)
        assert res.verdict == "equivalent" and res.provenance["verified_by"] == "certificate"
        S1g = apply_gauge_to_kernel(S1, res.gauge)
        assert np.any(S1g._grid_tables[2] != S2._grid_tables[2])
        assert kernel_distance(S1g, S2) <= res.provenance["verify_distance"] <= 1e-6

    @pytest.mark.parametrize("offset", [0.0, 0.9, -2.5])
    @pytest.mark.parametrize("refinement", [2, 3])
    def test_sphere_bound_holds(self, refinement, offset):
        # a fitted sphere phase is known up to a constant
        grid = sphere_grid(refinement=refinement)
        K1 = synthesize_sphere_kernel(grid)
        phi = _even_phase()
        K2 = apply_gauge_to_kernel(K1, GaugeElement(dimension=3, phi_callable=phi))
        K1g = apply_gauge_to_kernel(K1, GaugeElement(
            dimension=3, phi_callable=lambda V: phi(V) + offset))
        bound = scattering._shared_grid_bound(K1g, K2, K1.max_abs())
        assert kernel_distance(K1g, K2) <= bound <= 1e-12

    @pytest.mark.parametrize("refinement", [2, 3])
    def test_sphere_solve_on_a_gauged_kernel(self, refinement):
        grid = sphere_grid(refinement=refinement)
        K1 = apply_gauge_to_kernel(synthesize_sphere_kernel(grid), GaugeElement(
            dimension=3, phi_callable=_even_phase(0.1, 0.3, -0.2)))
        K2 = apply_gauge_to_kernel(K1, GaugeElement(dimension=3, phi_callable=_even_phase()))
        res = gauge_equivalence_solver(K1, K2)
        assert res.verdict == "equivalent" and res.provenance["verified_by"] == "certificate"
        assert kernel_distance(apply_gauge_to_kernel(K1, res.gauge), K2) \
            <= res.provenance["verify_distance"] <= 1e-6

    def test_unshared_grid_takes_the_exact_distance(self):
        R = pipeline._remainder_grid(_REMAINDER_SPECS["diagonal_gaussian"], 256)
        g = GaugeElement(dimension=2, m=1, phi=_phi_cos(0.1, 2))
        S1 = assemble_kernel(0.41, smooth=R, n_grid=256)
        S2 = apply_gauge_to_kernel(assemble_kernel(0.41, smooth=R.copy(), n_grid=256), g)
        res = gauge_equivalence_solver(S1, S2)
        assert res.verdict == "equivalent" and res.provenance["verified_by"] == "distance"
        assert res.provenance["verify_distance"] == kernel_distance(
            apply_gauge_to_kernel(S1, res.gauge), S2)

    def test_unshared_sphere_base_takes_the_exact_distance(self):
        grid = sphere_grid(refinement=2)
        K1 = synthesize_sphere_kernel(grid)
        K2 = apply_gauge_to_kernel(SphereScatteringKernel(grid=grid, base=K1.base.copy()),
                                   GaugeElement(dimension=3, phi_callable=_even_phase()))
        res = gauge_equivalence_solver(K1, K2)
        assert res.verdict == "equivalent" and res.provenance["verified_by"] == "distance"
        assert res.provenance["verify_distance"] == kernel_distance(
            apply_gauge_to_kernel(K1, res.gauge), K2)

    def test_non_gauge_pair_on_one_grid_is_not_equivalent(self):
        # in and out phases moved apart: no gauge relates the pair, the bound
        # fails and the exact distance answers
        S1 = _pipeline_kernel(256, "separable_trig")
        S2 = S1._rephased(S1.alpha, S1.winding + 1, S1.phase_out + _phi_cos(0.1, 2),
                          S1.phase_in + _phi_cos(0.1, 3))
        res = gauge_equivalence_solver(S1, S2)
        assert res.verdict == "not_equivalent"
        assert res.witness["kind"] == "verification"
        assert res.provenance["verified_by"] == "distance"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_diagonal_on_one_grid_is_never_equivalent(self, bad):
        # the certificate leaves the diagonal out, so the bound is not used
        M = 64
        R = np.zeros((M, M))
        R[10, 10] = bad
        S1 = assemble_kernel(0.3, smooth=R, n_grid=M)
        S2 = apply_gauge_to_kernel(S1, GaugeElement(dimension=2, m=1, phi=_phi_cos(0.1, 2)))
        with np.errstate(invalid="ignore"):
            res = gauge_equivalence_solver(S1, S2)
        assert res.verdict == "not_equivalent"
        assert res.witness["kind"] == "verification"
        assert res.provenance["verified_by"] == "distance"

    def test_scaled_base_is_not_equivalent(self):
        # a base scaled by 4 has no phase to fit: the kernels hold two
        # bases, and the exact distance answers
        grid = sphere_grid(refinement=2)
        K1 = synthesize_sphere_kernel(grid)
        K2 = SphereScatteringKernel(grid=grid, base=4 * K1.base)
        res = gauge_equivalence_solver(K1, K2)
        assert res.verdict == "not_equivalent"
        assert res.witness["kind"] == "verification"
        assert res.provenance["verified_by"] == "distance"
        assert res.provenance["verify_distance"] > 2 * K1.max_abs()

    def test_nan_prefactor_table_takes_the_exact_distance(self):
        # a finite phase whose grid values overflow, 0.8e308 + 1e308 cos 64
        # theta = 1.8e308 on every one of the 64 grid angles, makes a
        # prefactor table nan: the bound is not finite, and the exact
        # distance answers
        S1 = _pipeline_kernel(64, "diagonal_gaussian")
        huge = AngularFunction.from_coefficients({0: 0.8e308, 64: 0.5e308})
        S2 = S1._rephased(S1.alpha, S1.winding, S1.phase_out + huge, S1.phase_in)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.all(np.isnan(S2._grid_tables[0]))
            assert np.isnan(scattering._shared_grid_bound(S1, S2, None))
        prov = {}
        with np.errstate(invalid="ignore"):
            res = scattering._verify(S1, S2, GaugeElement(dimension=2), prov, 1e-6, dict)
        assert res.verdict == "not_equivalent" and res.witness["kind"] == "verification"
        assert prov["verified_by"] == "distance" and np.isnan(prov["verify_distance"])

    @pytest.mark.parametrize("kind", ["plane", "sphere"])
    def test_bound_holds_for_composed_random_gauges(self, kind):
        # kernel 1 under one gauge against kernel 1 under two composed
        # gauges whose phases sum to it, up to a constant and an error eta
        # from 0 to 1e-3: the certificate bound is never below the distance,
        # and within 100 times it (plus rounding)
        rng = np.random.default_rng(25)
        if kind == "plane":
            S = _pipeline_kernel(64, "diagonal_gaussian")
        else:
            grid = sphere_grid(refinement=2)
            S = apply_gauge_to_kernel(synthesize_sphere_kernel(grid), GaugeElement(
                dimension=3, phi_callable=_even_phase(0.1, 0.3, -0.2)))
        for eta in np.r_[0.0, np.geomspace(1e-15, 1e-3, 49)]:
            if kind == "plane":
                phases = [_phi_cos(rng.uniform(-0.5, 0.5), k) + _phi_sin(rng.uniform(-0.5, 0.5), k)
                          for k in rng.integers(1, 6, 2)]
                m1, m2 = rng.integers(-3, 4, 2)
                g1 = GaugeElement(dimension=2, m=m1, phi=phases[0])
                g2 = GaugeElement(dimension=2, m=m2, phi=phases[1])
                g = GaugeElement(dimension=2, m=m1 + m2,
                                 phi=phases[0] + phases[1] + _phi_cos(eta, 2))
            else:
                a = rng.uniform(-0.5, 0.5, (2, 3))
                const, wobble = rng.uniform(-3, 3), rng.integers(grid.size)
                g1 = GaugeElement(dimension=3, phi_callable=_even_phase(*a[0]))
                g2 = GaugeElement(dimension=3, phi_callable=_even_phase(*a[1]))
                g = GaugeElement(dimension=3, phi_callable=lambda V: (
                    _even_phase(*a[0])(V) + _even_phase(*a[1])(V) + const
                    + eta * (np.arange(len(V)) == wobble)))
            S2 = apply_gauge_to_kernel(apply_gauge_to_kernel(S, g1), g2)
            Sg = apply_gauge_to_kernel(S, g)
            bound = scattering._shared_grid_bound(
                Sg, S2, None if kind == "plane" else S.max_abs())
            dist = kernel_distance(Sg, S2)
            assert dist <= bound < 100 * dist + 1e-12


class TestSerialization:
    def test_header_and_grid_round_trip(self):
        def bump(t, p):
            return 0.05 * np.exp(-(((t - 2.0) ** 2) + (p - 4.0) ** 2) / 0.5)

        S = assemble_kernel(0.3, a0_out=_phi_sin(0.2), a0_in=_phi_cos(0.1, 2),
                            smooth=bump, n_grid=64, winding=1, lam=2.0)
        T = ScatteringKernel.from_header_and_grid(S.header_dict(), S.remainder)
        assert T.alpha == S.alpha
        assert T.winding == S.winding
        assert T.lam == S.lam
        assert np.array_equal(T.remainder, S.remainder)
        th = np.array([0.7, 3.1])
        tp = np.array([2.2, 5.0])
        assert np.max(np.abs(T.evaluate(th, tp) - S.evaluate(th, tp))) < 1e-12

    def test_remainder_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        M = 32
        R = 0.01 * (rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M)))
        S = assemble_kernel(0.3, smooth=R, n_grid=M)
        path = tmp_path / "remainder.csv"
        S.remainder_to_csv(path)
        back = ScatteringKernel.remainder_from_csv(path)
        np.testing.assert_array_equal(back, S.remainder)

    def test_real_remainder_csv_reads_back_real(self, tmp_path):
        S = _structured_kernel(32)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        S.remainder_to_csv(first)
        back = ScatteringKernel.remainder_from_csv(first)
        assert back.dtype == np.float64 and back.flags.c_contiguous
        assert np.array_equal(back, S.remainder)
        ScatteringKernel.from_header_and_grid(S.header_dict(), back).remainder_to_csv(second)
        assert second.read_bytes() == first.read_bytes()

    def test_negative_zero_imaginary_cell_keeps_the_grid_complex(self, tmp_path):
        R = _structured_kernel(32).remainder.astype(complex)
        R[3, 20] = complex(R[3, 20].real, -0.0)
        S = assemble_kernel(0.3, smooth=R, n_grid=32)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        S.remainder_to_csv(first)
        back = ScatteringKernel.remainder_from_csv(first)
        assert back.dtype == np.complex128
        assert np.signbit(back[3, 20].imag) and np.count_nonzero(np.signbit(back.imag)) == 1
        ScatteringKernel.from_header_and_grid(S.header_dict(), back).remainder_to_csv(second)
        assert second.read_bytes() == first.read_bytes()


def _complex_bytes(a) -> bytes:
    """The bytes of an array read as complex128: real values and the same
    values cast to complex give the same bytes."""
    return np.asarray(a, dtype=complex).tobytes()


def _twins(kind: str) -> tuple:
    """A kernel with real grid data, the same kernel built from its grid cast
    to complex, and both under one gauge: (K, K_complex, G, G_complex)."""
    if kind == "plane":
        K = _structured_kernel(64)
        twin = dataclasses.replace(K, remainder=K.remainder.astype(complex))
        g = GaugeElement(dimension=2, m=1, phi=_phi_sin(0.1, 2) + _phi_cos(0.05, 1))
    else:
        K = synthesize_sphere_kernel(sphere_grid(refinement=2))
        twin = SphereScatteringKernel(grid=K.grid, base=K.base.astype(complex))
        g = GaugeElement(dimension=3, phi_callable=_even_phase(0.3, 0.2, -0.4))
    return K, twin, apply_gauge_to_kernel(K, g), apply_gauge_to_kernel(twin, g)


class TestGridStorage:
    """A kernel stores its grid in the dtype of its data: float64 when the
    data is real, complex128 when it is complex; reads give the same bits."""

    @pytest.mark.parametrize("source", ["none", "array", "int", "callable",
                                        "separable_trig", "diagonal_gaussian"])
    def test_real_remainders_stored_as_float64(self, source):
        M = 64
        smooth = {
            "none": None,
            "array": 0.01 * np.random.default_rng(3).standard_normal((M, M)),
            "int": np.arange(M * M).reshape(M, M) % 3,
            "callable": lambda t, p: 0.02 * np.cos(t) * np.sin(2 * p),
            "separable_trig": pipeline._remainder_grid({"kind": "separable_trig"}, M),
            "diagonal_gaussian": pipeline._remainder_grid({"kind": "diagonal_gaussian"}, M),
        }[source]
        S = assemble_kernel(0.3, smooth=smooth, n_grid=M)
        assert S.remainder.dtype == np.float64
        assert not S.remainder.flags.writeable
        G = apply_gauge_to_kernel(S, GaugeElement(dimension=2, m=1, phi=_phi_sin(0.1)))
        assert G.remainder is S.remainder
        assert S.rows(slice(0, 4)).dtype == G.rows(slice(0, 4)).dtype == np.complex128

    def test_float64_input_is_kept_and_frozen(self):
        R = 0.01 * np.random.default_rng(4).standard_normal((32, 32))
        assert assemble_kernel(0.3, smooth=R, n_grid=32).remainder is R
        assert not R.flags.writeable

    def test_complex_input_stays_complex(self):
        R = 0.01 * np.random.default_rng(5).standard_normal((32, 32)) + 0j
        S = assemble_kernel(0.3, smooth=R, n_grid=32)
        assert S.remainder.dtype == np.complex128 and not S.remainder.flags.writeable
        K = synthesize_sphere_kernel(sphere_grid(refinement=1))
        Kc = SphereScatteringKernel(grid=K.grid, base=K.base + 0j)
        assert Kc.base.dtype == np.complex128 and not Kc.base.flags.writeable

    def test_sphere_base_stored_as_float64(self):
        K = synthesize_sphere_kernel(sphere_grid(refinement=2))
        assert K.base.dtype == np.float64 and not K.base.flags.writeable
        assert K.values.dtype == np.float64 and np.shares_memory(K.values, K.base)
        G = apply_gauge_to_kernel(K, GaugeElement(dimension=3, phi_callable=_even_phase()))
        assert G.base is K.base
        assert G.values.dtype == G.rows(slice(0, 4)).dtype == np.complex128
        n = K.grid.size
        assert G.entries(np.arange(n), np.arange(n)).dtype == np.complex128

    @pytest.mark.parametrize("kind", ["plane", "sphere"])
    def test_reads_match_the_complex_twin_bit_for_bit(self, kind):
        K, Kc, G, Gc = _twins(kind)
        rng = np.random.default_rng(6)
        for a, b in ((K, Kc), (G, Gc)):
            n = a.far_pairs().shape[0]
            for block in row_blocks(n):
                assert _complex_bytes(a.rows(block)) == _complex_bytes(b.rows(block))
            if kind == "plane":
                for p in (-9, 3, 8, 40):
                    assert a.band(p).tobytes() == b.band(p).tobytes()
                th, tp = rng.uniform(0, 2 * np.pi, (2, 50))
                assert a.evaluate(th, tp).tobytes() == b.evaluate(th, tp).tobytes()
                assert (a.evaluate(th[:, None], tp).tobytes()
                        == b.evaluate(th[:, None], tp).tobytes())
            else:
                i, j = rng.integers(0, n, (2, 200))
                assert _complex_bytes(a.entries(i, j)) == _complex_bytes(b.entries(i, j))
        for pair, twin_pair in (((K, G), (Kc, Gc)), ((G, K), (Gc, Kc)), ((K, K), (Kc, Kc))):
            assert (np.float64(kernel_distance(*pair)).tobytes()
                    == np.float64(kernel_distance(*twin_pair)).tobytes())

    @pytest.mark.parametrize("kind", ["plane", "sphere"])
    def test_solver_matches_the_complex_twin_exactly(self, kind):
        K, Kc, G, Gc = _twins(kind)
        for pair, twin_pair in (((K, G), (Kc, Gc)), ((K, K), (Kc, Kc))):
            res, twin = gauge_equivalence_solver(*pair), gauge_equivalence_solver(*twin_pair)
            assert res.verdict == twin.verdict == "equivalent"
            assert repr(res.provenance) == repr(twin.provenance)
            if kind == "plane":
                assert res.gauge.m == twin.gauge.m
                phase, twin_phase = res.gauge.phi.coefficients, twin.gauge.phi.coefficients
            else:
                phase, twin_phase = res.gauge.phi_sphere.values, twin.gauge.phi_sphere.values
            assert np.asarray(phase).tobytes() == np.asarray(twin_phase).tobytes()


class TestNonFiniteScalars:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["alpha", "lam"])
    def test_plane_kernel_refuses(self, name, bad):
        with pytest.raises(ValueError, match=f"kernel {name} must be finite"):
            assemble_kernel(**{"alpha": 0.3, name: bad}, n_grid=16)
        S = assemble_kernel(0.3, n_grid=16)
        with pytest.raises(ValueError, match=f"kernel {name} must be finite"):
            dataclasses.replace(S, **{name: bad})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sphere_kernel_refuses_lam(self, bad):
        with pytest.raises(ValueError, match="kernel lam must be finite"):
            synthesize_sphere_kernel(sphere_grid(refinement=1), lam=bad)
