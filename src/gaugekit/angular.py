"""Trigonometric profiles on the circle and sampled functions on the sphere.

Real 2*pi-periodic profiles are stored as finite Fourier series, read on a
uniform angle grid by one inverse FFT of the coefficients folded onto the
grid (on_grid), with a certified sup (max_abs). Functions on S^2 are
sampled on a subdivided-icosahedron grid whose nodes come in exact antipodal
pairs, so f(omega) - f(-omega) at a node reads two samples.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .errors import NonzeroMean

DEFAULT_DEGREE = 64
MEAN_TOL = 1e-10
_REALNESS_TOL = 1e-9
FAR_PAIR_ANGLE = 0.15  # radians; sphere kernel comparisons skip closer pairs
# passes over all direction pairs of a sphere grid, and over all angle pairs
# of a plane kernel grid, run over row blocks whose complex temporaries stay
# near this size (12 rows at refinement 4, 32 rows at M = 1024), so each
# block's temporaries stay in cache
ROW_BLOCK_BYTES = 1 << 19


@cache
def row_blocks(n: int) -> tuple:
    """Row slices covering an n x n array of complex pair values, about
    ROW_BLOCK_BYTES each, cached per n. No block has a single row: a one-row
    product V[i] @ V.T takes BLAS's matrix-vector path, whose sums may differ
    in the last bit from the matrix-matrix path of the others."""
    starts = list(range(0, n, max(2, ROW_BLOCK_BYTES // (16 * n))))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return tuple(slice(a, b) for a, b in zip(starts, starts[1:] + [n]))


@dataclass(frozen=True)
class AngularFunction:
    """Real trigonometric polynomial f(theta) = sum_k c_k e^{i k theta}.

    Coefficients are indexed k = -N..N and satisfy c_{-k} = conj(c_k), so
    evaluation is real. Degree N is part of the value; arithmetic pads to the
    larger degree.

    Parameters
    ----------
    coefficients : ndarray, complex, shape (2N+1,)
        Fourier coefficients in ascending k order.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.ndim != 1 or c.size % 2 != 1:
            raise ValueError("coefficient array must have odd length (k = -N..N)")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        mirrored = np.conj(c[::-1])
        scale = max(1.0, float(np.max(np.abs(c))))
        if np.max(np.abs(c - mirrored)) > _REALNESS_TOL * scale:
            raise ValueError("coefficients do not describe a real function")
        # enforce c_{-k} = conj(c_k) exactly; halving first keeps the sum of
        # two finite coefficients finite (the same bits as halving the sum)
        c = 0.5 * c + 0.5 * mirrored
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    # ---------------- constructors ----------------

    @classmethod
    def zero(cls, degree: int = 0) -> "AngularFunction":
        return cls(np.zeros(2 * degree + 1, dtype=complex))

    @classmethod
    def constant(cls, value: float) -> "AngularFunction":
        return cls(np.array([value], dtype=complex))

    @classmethod
    def from_coefficients(cls, coeffs: dict[int, complex]) -> "AngularFunction":
        """Build from a sparse {k: c_k} map; missing conjugates are filled in."""
        if not coeffs:
            return cls.zero()
        given = {int(k): complex(v) for k, v in coeffs.items()}
        n = max(abs(k) for k in given)
        c = np.zeros(2 * n + 1, dtype=complex)
        for k, v in given.items():
            c[n + k] = v
        for k in range(1, n + 1):
            if k in given and -k not in given:
                c[n - k] = np.conj(given[k])
            elif -k in given and k not in given:
                c[n + k] = np.conj(given[-k])
        return cls(c)

    @classmethod
    def from_samples(cls, values: Sequence[float]) -> "AngularFunction":
        """Interpolate 2N+1 equispaced samples v_j = f(2 pi j / (2N+1))."""
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size % 2 != 1:
            raise ValueError("need an odd number of equispaced samples")
        m = v.size
        n = (m - 1) // 2
        spec = np.fft.fft(v) / m  # order 0..N, -N..-1
        c = np.concatenate([spec[n + 1:], spec[:n + 1]])
        return cls(c)

    @classmethod
    def from_callable(cls, f: Callable, degree: int = DEFAULT_DEGREE) -> "AngularFunction":
        theta = np.arange(2 * degree + 1) * 2 * np.pi / (2 * degree + 1)
        return cls.from_samples(np.asarray(f(theta), dtype=float))

    @classmethod
    def harmonic(cls, k: int, cos_amp: float = 0.0, sin_amp: float = 0.0) -> "AngularFunction":
        """cos_amp * cos(k theta) + sin_amp * sin(k theta)."""
        if k == 0:
            return cls.constant(cos_amp)
        return cls.from_coefficients({k: (cos_amp - 1j * sin_amp) / 2,
                                      -k: (cos_amp + 1j * sin_amp) / 2})

    # ---------------- basic queries ----------------

    @property
    def degree(self) -> int:
        return (self.coefficients.size - 1) // 2

    def mean(self) -> float:
        return float(self.coefficients[self.degree].real)

    def __call__(self, theta):
        """Values at arbitrary angles, one e^{ik theta} per angle and
        coefficient; on a uniform grid use on_grid."""
        th = np.asarray(theta, dtype=float)
        n = self.degree
        ks = np.arange(-n, n + 1)
        vals = (np.exp(1j * np.outer(th, ks)) @ self.coefficients).real
        return float(vals[0]) if th.ndim == 0 else vals.reshape(th.shape)

    def on_grid(self, M: int, shift: float = 0.0) -> np.ndarray:
        """Values f(2 pi j / M + shift), j = 0..M-1, by one inverse FFT: c_k
        e^{ik shift} is folded onto bin k mod M, which aliases as the samples
        do, so any M >= 1 is exact (up to rounding)."""
        n = self.degree
        ks = np.arange(-n, n + 1)
        folded = np.zeros(M, dtype=complex)
        np.add.at(folded, ks % M, self.coefficients * np.exp(1j * ks * shift))
        return (np.fft.ifft(folded) * M).real

    def max_abs(self) -> float:
        """Certified upper bound on sup |f|: sec(pi N / K) max_j |f(theta_j)|
        over K = max(4096, 64 N) equally spaced angles. Since K > 2N, the
        Ehlich-Zeller bound gives sup |f| <= that (up to the rounding of the
        samples); the factor is 1.0012 at N = 64 and exactly 1 at N = 0."""
        n = self.degree
        K = max(4096, 64 * n)
        return float(np.max(np.abs(self.on_grid(K))) / np.cos(np.pi * n / K))

    # ---------------- calculus ----------------

    def derivative(self) -> "AngularFunction":
        n = self.degree
        ks = np.arange(-n, n + 1)
        return AngularFunction(self.coefficients * 1j * ks)

    def antiderivative(self, mean_tol: float = MEAN_TOL) -> "AngularFunction":
        """Zero-mean periodic antiderivative; requires a zero-mean profile."""
        if abs(self.mean()) > mean_tol:
            raise NonzeroMean(f"profile mean {self.mean():.3e} exceeds {mean_tol:.1e}")
        n = self.degree
        ks = np.arange(-n, n + 1)
        out = np.zeros_like(self.coefficients)
        nz = ks != 0
        out[nz] = self.coefficients[nz] / (1j * ks[nz])
        return AngularFunction(out)

    # ---------------- algebra ----------------

    def _padded(self, n: int) -> np.ndarray:
        pad = n - self.degree
        if pad == 0:
            return np.array(self.coefficients)
        return np.pad(self.coefficients, (pad, pad))

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = AngularFunction.constant(float(other))
        n = max(self.degree, other.degree)
        return AngularFunction(self._padded(n) + other._padded(n))

    __radd__ = __add__

    def __neg__(self):
        return AngularFunction(-self.coefficients)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = AngularFunction.constant(float(other))
        return self + (-other)

    def __mul__(self, scalar: float):
        return AngularFunction(self.coefficients * float(scalar))

    __rmul__ = __mul__

    def distance(self, other: "AngularFunction") -> float:
        n = max(self.degree, other.degree)
        return float(np.max(np.abs(self._padded(n) - other._padded(n))))

    # ---------------- serialization ----------------

    def to_triples(self) -> list[list[float]]:
        n = self.degree
        return [[int(k - n), float(self.coefficients[k].real), float(self.coefficients[k].imag)]
                for k in range(2 * n + 1)]

    @classmethod
    def from_triples(cls, triples) -> "AngularFunction":
        try:
            rows = [(int(k), k, re + 1j * im) for k, re, im in triples]
        except (TypeError, ValueError, OverflowError):
            raise ValueError("coefficients must be a list of [k, re, im] triples, "
                             f"got {triples!r}") from None
        if any(i != k for i, k, _ in rows):  # int() would truncate 1.5 to 1
            raise ValueError(f"coefficient indices must be integers, got {triples!r}")
        return cls.from_coefficients({i: c for i, _, c in rows})


# ===================================================================
# sphere grid and sampled sphere functions
# ===================================================================

_PHI = (1.0 + np.sqrt(5.0)) / 2.0


def _icosahedron():
    v = []
    for a in (-1.0, 1.0):
        for b in (-_PHI, _PHI):
            v += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    verts = np.array(v)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    # faces by nearest-neighbor triangles: edges are the shortest pairs
    d2 = np.sum((verts[:, None, :] - verts[None, :, :]) ** 2, axis=-1)
    edge_len = np.min(d2[d2 > 1e-9])
    adj = d2 < edge_len * 1.5
    faces = []
    n = verts.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if not adj[i, j]:
                continue
            for k in range(j + 1, n):
                if adj[i, k] and adj[j, k]:
                    faces.append((i, j, k))
    return verts, np.array(faces)


def _vertex_key(v: np.ndarray) -> tuple:
    return tuple(np.round(v + 0.0, 9))  # +0.0 folds -0.0 into 0.0


@dataclass(frozen=True)
class SphereGrid:
    """Subdivided icosahedral grid on S^2 with exact antipodal pairing."""

    vertices: np.ndarray
    faces: np.ndarray
    antipode: np.ndarray
    refinement: int
    _inv_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def size(self) -> int:
        return self.vertices.shape[0]

    def edges(self) -> np.ndarray:
        """Unique (i, j) vertex pairs with i < j, one per face edge, in
        lexicographic order; read-only and cached."""
        if "edges" not in self._inv_cache:
            f = self.faces
            pairs = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [0, 2]]]), axis=1)
            e = np.unique(pairs, axis=0)
            e.flags.writeable = False
            self._inv_cache["edges"] = e
        return self._inv_cache["edges"]

    def _gram_rows(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """The dot products w . w' of a block of nodes with every node,
        V[rows] @ V.T, against a contiguous copy of V.T cached on the grid
        (into out when given)."""
        if "vertices_t" not in self._inv_cache:
            vt = np.ascontiguousarray(self.vertices.T)
            vt.flags.writeable = False
            self._inv_cache["vertices_t"] = vt
        return np.matmul(self.vertices[rows], self._inv_cache["vertices_t"], out=out)

    def far_pairs(self) -> np.ndarray:
        """(size, size) mask of the vertex pairs more than FAR_PAIR_ANGLE
        apart (w . w' < cos(FAR_PAIR_ANGLE)), built by row blocks; read-only
        and cached."""
        if "far_pairs" not in self._inv_cache:
            mask = np.empty((self.size, self.size), dtype=bool)
            for rows in row_blocks(self.size):
                np.less(self._gram_rows(rows), np.cos(FAR_PAIR_ANGLE), out=mask[rows])
            mask.flags.writeable = False
            self._inv_cache["far_pairs"] = mask
        return self._inv_cache["far_pairs"]


_GRID_CACHE: dict[int, SphereGrid] = {}


def sphere_grid(refinement: int = 4) -> SphereGrid:
    """Icosphere with 10*4^r + 2 nodes, antipodally closed bit-for-bit."""
    if refinement in _GRID_CACHE:
        return _GRID_CACHE[refinement]
    verts, faces = _icosahedron()
    verts = [np.array(v) for v in verts]
    index = {_vertex_key(v): i for i, v in enumerate(verts)}
    faces = [tuple(f) for f in faces]
    for _ in range(refinement):
        midpoint_of = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key in midpoint_of:
                return midpoint_of[key]
            m = verts[i] + verts[j]
            m = m / np.linalg.norm(m)
            vk = _vertex_key(m)
            if vk in index:
                idx = index[vk]
            else:
                idx = len(verts)
                verts.append(m)
                index[vk] = idx
            midpoint_of[key] = idx
            return idx

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    v = np.array(verts)
    # canonical antipodal closure: overwrite each pair's second member with -first
    antipode = np.full(v.shape[0], -1, dtype=int)
    index = {_vertex_key(p): i for i, p in enumerate(v)}
    for i in range(v.shape[0]):
        if antipode[i] >= 0:
            continue
        j = index.get(_vertex_key(-v[i]))
        if j is None:
            raise RuntimeError("grid not antipodally closed")
        v[j] = -v[i]
        antipode[i], antipode[j] = j, i
    v.flags.writeable = False
    f = np.array(faces)
    f.flags.writeable = False
    antipode.flags.writeable = False
    grid = SphereGrid(vertices=v, faces=f, antipode=antipode, refinement=refinement)
    _GRID_CACHE[refinement] = grid
    return grid


@dataclass(frozen=True)
class SphereFunction:
    """Real function on S^2 sampled at icosphere nodes: values[i] is its
    value at grid.vertices[i], and values[grid.antipode[i]] its value at the
    antipode, exact by grid construction. It has no value off the nodes; a
    gradient needs the function itself (GaugeElement.phi_callable)."""

    grid: SphereGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.size,):
            raise ValueError("one value per grid node required")
        vals = np.array(vals)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, f: Callable, refinement: int = 4) -> "SphereFunction":
        """Sample f, which maps an (m, 3) array of unit vectors to the (m,)
        array of its values, at the grid nodes in one call."""
        grid = sphere_grid(refinement)
        return cls(grid=grid, values=f(grid.vertices))

    def __neg__(self) -> "SphereFunction":
        return SphereFunction(self.grid, -self.values)
