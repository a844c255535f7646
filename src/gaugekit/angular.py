"""Trigonometric profiles on the circle and sampled functions on the sphere.

Real 2*pi-periodic profiles are stored as finite Fourier series, read on a
uniform angle grid by one inverse FFT of the coefficients folded onto the
grid (on_grid), with a certified sup (max_abs). Functions on S^2 are
sampled on a subdivided-icosahedron grid whose nodes come in exact antipodal
pairs, so f(omega) - f(-omega) at a node reads two samples. One array
subdivision builds the grid's nodes, faces, edges and antipode map: each
level adds a node at the normalised midpoint of each edge, the edges found
by one unique over integer keys i n + j, and the antipodes pair the rows of
the node array sorted as v and as -v.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import NonzeroMean

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
    ijk = np.argwhere(adj[:, :, None] & adj[:, None, :] & adj[None, :, :])
    return verts, ijk[(ijk[:, 0] < ijk[:, 1]) & (ijk[:, 1] < ijk[:, 2])]


def _edge_keys(faces: np.ndarray, n: int) -> np.ndarray:
    """Keys i n + j, i < j, of the edges ab, bc, ca of each face (a, b, c) in turn."""
    ends = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    return np.min(ends, axis=1) * n + np.max(ends, axis=1)


@dataclass(frozen=True)
class SphereGrid:
    """Subdivided icosahedral grid on S^2 with exact antipodal pairing: node
    coordinates, faces, the (i, j) edges with i < j in lexicographic order
    and the antipode map, all read-only."""

    vertices: np.ndarray
    faces: np.ndarray
    edges: np.ndarray
    antipode: np.ndarray
    refinement: int

    @property
    def size(self) -> int:
        return self.vertices.shape[0]

    @cached_property
    def _vertices_t(self) -> np.ndarray:
        vt = np.ascontiguousarray(self.vertices.T)
        vt.flags.writeable = False
        return vt

    def _gram_rows(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """The dot products w . w' of a block of nodes with every node,
        V[rows] @ V.T, against a contiguous copy of V.T cached on the grid
        (into out when given)."""
        return np.matmul(self.vertices[rows], self._vertices_t, out=out)

    @cached_property
    def far_pairs(self) -> np.ndarray:
        """(size, size) mask of the vertex pairs more than FAR_PAIR_ANGLE
        apart (w . w' < cos(FAR_PAIR_ANGLE)), built by row blocks on the
        first read; read-only."""
        mask = np.empty((self.size, self.size), dtype=bool)
        for rows in row_blocks(self.size):
            np.less(self._gram_rows(rows), np.cos(FAR_PAIR_ANGLE), out=mask[rows])
        mask.flags.writeable = False
        return mask


def sphere_grid(refinement: int = 4) -> SphereGrid:
    """Icosphere with 10*4^r + 2 nodes, antipodally closed bit-for-bit, for
    an int refinement r from 0 to 8 (655,362 nodes; each level quadruples
    every array); one grid object per refinement."""
    if type(refinement) is not int or not 0 <= refinement <= 8:  # no bool
        raise ValueError(f"sphere refinement must be an integer from 0 to 8, got {refinement!r}")
    return _subdivided(refinement)


@cache
def _subdivided(refinement: int) -> SphereGrid:
    v, f = _icosahedron()
    for _ in range(refinement):
        # one node per edge at its normalised midpoint, numbered in the order
        # the face edges first reach it; the four faces of each face follow
        n = v.shape[0]
        keys, first_seen, inverse = np.unique(_edge_keys(f, n), return_index=True,
                                              return_inverse=True)
        order = np.argsort(first_seen)
        number = np.empty_like(order)
        number[order] = np.arange(n, n + order.size)
        i, j = np.divmod(keys[order], n)
        m = v[i] + v[j]
        m /= np.sqrt(np.matmul(m[:, None, :], m[:, :, None])[:, 0])  # as np.linalg.norm(m[k])
        v = np.concatenate([v, m])
        ab, bc, ca = number[inverse].reshape(-1, 3).T
        a, b, c = f.T
        f = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    n = v.shape[0]
    edges = np.stack(np.divmod(np.unique(_edge_keys(f, n)), n), axis=1)
    antipode = np.empty(n, dtype=int)
    antipode[np.lexsort((-v).T)] = np.lexsort(v.T)
    if not np.array_equal(v[antipode], -v):
        raise RuntimeError("grid not antipodally closed")
    # canonical signs of zeros: each pair's second member is -first
    first = np.flatnonzero(np.arange(n) < antipode)
    v[antipode[first]] = -v[first]
    for array in (v, f, edges, antipode):
        array.flags.writeable = False
    return SphereGrid(vertices=v, faces=f, edges=edges, antipode=antipode, refinement=refinement)


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
