"""Circle profiles, antiderivatives, sphere grids, antipodal differences."""
import numpy as np
import pytest

from gaugekit.angular import AngularFunction, SphereFunction, sphere_grid
from gaugekit.errors import NonzeroMean
from oracles import fine_profile_samples


class TestAngularFunction:
    def test_eval_cos_at_zero(self):
        f = AngularFunction.from_coefficients({1: 0.5, -1: 0.5})
        assert f(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_eval_constant(self):
        f = AngularFunction.constant(0.7)
        for theta in (0.0, 1.3, -2.0, 17.0):
            assert f(theta) == pytest.approx(0.7, abs=1e-15)

    def test_eval_matches_direct_summation(self):
        rng = np.random.default_rng(42)
        ks = np.arange(-8, 9)
        half = rng.normal(size=8) + 1j * rng.normal(size=8)
        coeffs = np.concatenate([np.conj(half[::-1]), [rng.normal()], half])
        f = AngularFunction(coeffs)
        theta = 0.3
        direct = np.sum(coeffs * np.exp(1j * ks * theta)).real
        assert abs(f(theta) - direct) < 1e-14

    def test_harmonic_matches_trig(self):
        f = AngularFunction.harmonic(3, cos_amp=0.4, sin_amp=-0.2)
        th = np.linspace(0, 2 * np.pi, 97)
        np.testing.assert_allclose(f(th), 0.4 * np.cos(3 * th) - 0.2 * np.sin(3 * th),
                                   atol=1e-14)

    def test_realness_enforced(self):
        with pytest.raises(ValueError):
            AngularFunction(np.array([0.2, 1.0, 0.5], dtype=complex))

    def test_arithmetic_and_distance(self):
        f = AngularFunction.harmonic(1, cos_amp=1.0)
        g = AngularFunction.harmonic(2, sin_amp=0.5)
        h = f + g - f
        assert h.distance(g) < 1e-15
        assert (f * 2.0)(0.0) == pytest.approx(2.0)

    def test_triples_round_trip(self):
        f = AngularFunction.from_coefficients({0: 0.3, 2: 0.1 - 0.2j})
        g = AngularFunction.from_triples(f.to_triples())
        assert f.distance(g) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_refused(self, bad):
        # a nan passes the realness comparison (nan > tol is False), and
        # inf - inf is nan: finiteness is checked first
        with pytest.raises(ValueError, match="finite"):
            AngularFunction(np.array([bad, 1.0, bad], dtype=complex))
        with pytest.raises(ValueError, match="finite"):
            AngularFunction(np.array([0.5, bad, 0.5], dtype=complex))
        with pytest.raises(ValueError, match="finite"):
            AngularFunction.from_triples([[0, bad, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            AngularFunction.from_triples([[0, 0.1, 0.0], [2, 0.5, bad]])

    def test_non_integer_index_refused(self):
        # int() would read the index 1.5 as 1; an integral float still reads
        with pytest.raises(ValueError, match="indices must be integers"):
            AngularFunction.from_triples([[0, 0.1, 0.0], [1.5, 0.1, 0.0]])
        f = AngularFunction.from_triples([[2.0, 0.1, 0.2]])
        want = AngularFunction.from_coefficients({2: 0.1 + 0.2j})
        assert np.array_equal(f.coefficients, want.coefficients)

    def test_largest_coefficients_stay_finite(self):
        # symmetrizing 1.5e308 with itself must not overflow to inf
        f = AngularFunction.from_coefficients({0: 1.5e308, 1: 1e308 - 1e308j})
        assert np.all(np.isfinite(f.coefficients))
        assert f.coefficients[1] == 1.5e308 and f.coefficients[2] == 1e308 - 1e308j


def _random_profile(rng, n: int) -> AngularFunction:
    half = rng.normal(size=n) + 1j * rng.normal(size=n)
    return AngularFunction(np.concatenate([np.conj(half[::-1]), [rng.normal()], half]))


class TestOnGrid:
    @pytest.mark.parametrize("half_turns", [0, 1])
    @pytest.mark.parametrize("size", ["N", "2N+1", "2N+2", "256", "1024", "4096"])
    def test_matches_the_dense_sum(self, size, half_turns):
        # M = N aliases every frequency but 0 onto another; the folded
        # coefficients alias as the samples do. The dense sum reads
        # e^{ik(2 pi j / M + shift)} as e^{2 pi i (kj mod M) / M} (-1)^{k half_turns}
        # with its phases reduced exactly: f(theta) rounds k theta itself,
        # up to 1.3e-14 sum |c_k| off at degree 64 on these grids
        rng = np.random.default_rng(26)
        for n in range(65):
            f = _random_profile(rng, n)
            M = {"N": max(n, 1), "2N+1": 2 * n + 1, "2N+2": 2 * n + 2}.get(size) or int(size)
            ks = np.arange(-n, n + 1)
            turns = np.outer(np.arange(M), ks) % M
            signs = (-1.0) ** (ks * half_turns)
            dense = (np.exp(2j * np.pi * turns / M) @ (f.coefficients * signs)).real
            scale = np.sum(np.abs(f.coefficients))
            got = f.on_grid(M, half_turns * np.pi)
            assert np.max(np.abs(got - dense)) <= 1e-14 * scale, (n, M)


class TestCertifiedMaxAbs:
    @staticmethod
    def _peaked(kind, n, theta0, rng):
        """Degree-n profiles whose peak sits at theta0."""
        if kind == "cos":  # the extremal case of the bound: cos n(theta - theta0)
            return AngularFunction.from_coefficients({n: 0.5 * np.exp(-1j * n * theta0)})
        if kind == "dirichlet":  # sum_k e^{ik(theta - theta0)}
            return AngularFunction.from_coefficients(
                {k: np.exp(-1j * k * theta0) for k in range(-n, n + 1)})
        f = _random_profile(rng, n)  # random, rotated so that its peak lands on theta0
        samples = fine_profile_samples(f, 1 << 16)
        peak = 2 * np.pi * np.argmax(np.abs(samples)) / samples.size
        ks = np.arange(-n, n + 1)
        return AngularFunction(f.coefficients * np.exp(-1j * ks * (theta0 - peak)))

    @pytest.mark.parametrize("kind", ["cos", "dirichlet", "random"])
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64, 100])
    def test_bounds_the_sup_with_the_peak_between_nodes(self, n, kind):
        K = max(4096, 64 * n)
        theta0 = np.pi / K  # halfway between the nodes 0 and 2 pi / K
        f = self._peaked(kind, n, theta0, np.random.default_rng(n))
        true_sup = np.max(np.abs(fine_profile_samples(f, 1 << 22, shift=theta0)))
        sampled = np.max(np.abs(f(np.arange(K) * 2 * np.pi / K)))
        slack = 1e-14 * np.sum(np.abs(f.coefficients))
        bound = f.max_abs()
        assert sampled < true_sup  # the sampled maximum alone is not a sup
        assert true_sup <= bound + slack
        assert bound <= (sampled + slack) / np.cos(np.pi * n / K)

    def test_constant_is_exact(self):
        assert AngularFunction.constant(-0.7).max_abs() == 0.7


class TestZeroMeanAntiderivative:
    def test_cos_gives_sin(self):
        f = AngularFunction.harmonic(1, cos_amp=1.0)
        g = f.antiderivative()
        th = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        np.testing.assert_allclose(g(th), np.sin(th), atol=1e-14)

    def test_zero_gives_zero(self):
        g = AngularFunction.zero(4).antiderivative()
        assert g.max_abs() == 0.0

    def test_derivative_matches_by_finite_differences(self):
        f = AngularFunction.harmonic(1, cos_amp=1.0) + AngularFunction.harmonic(2, sin_amp=3.0)
        g = f.antiderivative()
        th = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        h = 1e-6
        fd = (g(th + h) - g(th - h)) / (2 * h)
        assert np.max(np.abs(fd - f(th))) < 1e-7  # fd floor; spectral identity below
        assert g.derivative().distance(f) < 1e-12

    def test_rejects_nonzero_mean(self):
        with pytest.raises(NonzeroMean):
            AngularFunction.constant(0.3).antiderivative()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_spectral_inverse_of_derivative(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = {int(k): complex(rng.normal(), rng.normal())
                  for k in rng.integers(1, 30, size=6)}
        f = AngularFunction.from_coefficients(coeffs)
        f = f - AngularFunction.constant(f.mean())
        g = f.antiderivative()
        assert g.derivative().distance(f) < 1e-12
        assert abs(g.mean()) < 1e-14

    def test_realness_preserved(self):
        rng = np.random.default_rng(7)
        f = AngularFunction.from_coefficients(
            {3: complex(rng.normal(), rng.normal())})
        g = f.antiderivative()
        th = rng.uniform(0, 2 * np.pi, 256)
        vals = np.exp(1j * np.outer(th, np.arange(-g.degree, g.degree + 1))) @ g.coefficients
        assert np.max(np.abs(vals.imag)) < 1e-12


class TestAntipodalDifference:
    """f(w) - f(-w) read through the profiles' own evaluation."""

    def test_even_profile_vanishes(self):
        f = AngularFunction.harmonic(2, cos_amp=1.0)
        for ang in (0.0, 0.7, 2.0):
            assert abs(f(ang) - f(ang + np.pi)) < 1e-14

    def test_sin_at_north(self):
        f = AngularFunction.harmonic(1, sin_amp=1.0)
        assert f(np.pi / 2) - f(-np.pi / 2) == pytest.approx(2.0, abs=1e-14)

    def test_sphere_triple_product(self):
        # exact at grid nodes: antipodal pairs are both vertices
        grid = sphere_grid(3)
        f = SphereFunction.from_callable(
            lambda w: w[..., 0] * w[..., 1] * w[..., 2], refinement=3)
        V = grid.vertices
        got = f.values - f.values[grid.antipode]
        assert np.max(np.abs(got - 2.0 * V[:, 0] * V[:, 1] * V[:, 2])) < 1e-12

    def test_antisymmetry_at_nodes(self):
        grid = sphere_grid(2)
        f = SphereFunction.from_callable(lambda w: w[..., 2] + w[..., 0] ** 2,
                                         refinement=2)
        diff = f.values - f.values[grid.antipode]
        assert np.array_equal(diff, -diff[grid.antipode])
        np.testing.assert_allclose(diff, 2.0 * grid.vertices[:, 2], rtol=0, atol=1e-13)


class TestSphereGrid:
    def test_antipodal_closure(self):
        grid = sphere_grid(2)
        assert grid.antipode.shape == (grid.size,)
        np.testing.assert_allclose(grid.vertices[grid.antipode], -grid.vertices,
                                   atol=1e-12)

    def test_unit_vertices(self):
        grid = sphere_grid(3)
        np.testing.assert_allclose(np.linalg.norm(grid.vertices, axis=1), 1.0,
                                   atol=1e-12)

    @pytest.mark.parametrize("refinement", [0, 1, 3])
    def test_edges_match_set_construction(self, refinement):
        grid = sphere_grid(refinement)
        pairs = set()
        for a, b, c in grid.faces:
            for p, q in ((a, b), (b, c), (a, c)):
                pairs.add((min(p, q), max(p, q)))
        want = np.array(sorted(pairs))
        got = grid.edges()
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert grid.edges() is got

    def test_from_callable_takes_arrays_only(self):
        shapes = []

        def f(w):
            shapes.append(w.shape)
            return w[..., 2]

        SphereFunction.from_callable(f, refinement=1)
        assert shapes == [(sphere_grid(1).size, 3)]
        with pytest.raises(ValueError):
            SphereFunction.from_callable(lambda w: w[2], refinement=1)
