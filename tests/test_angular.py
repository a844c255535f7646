"""Circle profiles, antiderivatives, sphere grids, antipodal differences."""
import hashlib

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


# hashlib.sha256(a.tobytes()).hexdigest() of vertices, faces, edges and
# antipode at refinements 0-5, computed at commit 2fdc614, whose subdivision
# deduplicated midpoints through dicts keyed by coordinates rounded to 9
# digits (numpy 2.4, x86-64, little-endian): the array subdivision builds
# the same bytes
_GRID_SHA256 = {
    0: ("eeaa950dc7cebcd5dbe2f3121f778ce7adbc12f35ed557aabcd6e415c9e0658a",
        "f0dd2224615ca9d1fab6afba29e95d83af8aeb8b5c9e03fdadb5da522313a829",
        "a7ffb948d8e4f919e2ac7e53152ad96eadf6dc270d5db889880ce4d17b8185e5",
        "26d91f6bacec87242072eec69d36310a66aa6e4955b122a626e3a1cc02bc34ab"),
    1: ("764275a5a99e172a0d9c1f5b8de279f30d5b810b3875fdb9215da9e4135b03aa",
        "e78c9734e058563b685e21d09c6f0a0847150b85c3b73228b7b2d90d6aa55ca0",
        "5f0979b1762cd7559a3ebff35e6ef579d7c4d2675299dc6e6f1f98ec0b862551",
        "8f795914c028c2ddcaf8d69131bd2a372226a0d091a4aa9a66e17455f2569950"),
    2: ("c1ee8f978b2c8af30c00d467332e4676d0d9b00ecf0295f9fb08faaf5c5083d8",
        "adde9094e2e1c7b81c0b079ee8b8e4c6d7d26a0d676f2dff1f53183e0538484e",
        "7d5610c0dae32de701a460d78b43c5561b4f96b2a8982c6123ae4ccab4a6c24f",
        "31e9f4d70da21c82bd27d8628ff41c999537d5b2c5bcc7617864e80051f525fc"),
    3: ("3ec3c8f6c19944e995a6109192284364ea8d6926ad30b1f1b0168bbf470f13ea",
        "13fbf32e7810e66f77372de64440ccbe28a37a52d8f86033cecad52e52e08cab",
        "fa88bdf9a1555aea4a981b1a60e740ebb042a9fd54df68ecb29a07fb224b8150",
        "7613627b7561d9d142eb18a70005538d1c541ba73985dae333867ab0381839ac"),
    4: ("0df6fb33a289fe02463fd824c949af7f6907d66351bb6bd283538e1df6d4b4bb",
        "7417e10cd50da8755d7e60e02409a0ef103fbcd243cc0756da3db16d6797066d",
        "e744c96dab62923c76684a1a0ba9e4a36bc5920e29a96df12275c340b4be7751",
        "0909e140f1677bc58d9462850f9743c6959c5be0372dbbdbd89fa3f107bf9986"),
    5: ("d22ebdce9cf7c16cb1ce5b97ffe22eb73c9c6a75f16f88bd17a28e1afafa56a5",
        "6f4264547f673e2f795f3e277558853d853f605d3c2e9be18f7cc1e5a36fdaff",
        "91de4ccf8e6b937d8d4f0ed1ad4a3a50c9853f2a7e6644e3a3496aa069b3116d",
        "74d7d85a4ae9bc660bc91fc986d17e3e0dbef39a9e23310166904b76e9c0dcff"),
}


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
        assert grid.edges.dtype == want.dtype
        assert np.array_equal(grid.edges, want)

    @pytest.mark.parametrize("refinement", sorted(_GRID_SHA256))
    def test_grids_are_pinned(self, refinement):
        grid = sphere_grid(refinement)
        arrays = (grid.vertices, grid.faces, grid.edges, grid.antipode)
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == \
            _GRID_SHA256[refinement]
        assert not any(a.flags.writeable for a in arrays)

    def test_one_grid_per_refinement(self):
        assert sphere_grid(3) is sphere_grid(refinement=3)
        assert sphere_grid() is sphere_grid(4)

    @pytest.mark.parametrize("refinement", [-1, 9, 2.0, True, "2", None])
    def test_refinement_outside_the_build_raises(self, refinement):
        with pytest.raises(ValueError, match="from 0 to 8"):
            sphere_grid(refinement)

    def test_from_callable_takes_arrays_only(self):
        shapes = []

        def f(w):
            shapes.append(w.shape)
            return w[..., 2]

        SphereFunction.from_callable(f, refinement=1)
        assert shapes == [(sphere_grid(1).size, 3)]
        with pytest.raises(ValueError):
            SphereFunction.from_callable(lambda w: w[2], refinement=1)
