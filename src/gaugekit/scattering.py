"""Vortex scattering kernels, the gauge action on them, and the
gauge-equivalence solver.

A plane kernel is stored structurally: flux parameters (alpha, step index),
integer prefactor winding, smooth in/out phase profiles, and a smooth
remainder grid with a declared diagonal bound C |theta - theta'|^{-delta}.
The delta distribution on the diagonal is never discretized; channel
arithmetic and off-diagonal closed forms carry the singular part exactly.

On the uniform cyclic angle grid a cell (i, j) is read by its offset
k = (i - j) mod M: the singular part, the angle gap and the diagonal-band mask
are length-M tables in k, and kernel values read the singular table through
a read-only circulant view, over a block of rows (rows) or on one band
theta' = theta - 2 pi p / M (band). Each kernel builds its tables once, on
the first read: the two prefactors on the M grid angles, whose phase
profiles are read by AngularFunction.on_grid (one inverse FFT each, the in
profile shifted by pi), and the singular part per offset. A block's values
are (singular + R) * prefactor in that operand order: complex
multiplication is not bitwise commutative, and this order keeps rows and
value_grid equal bit for bit at every M.

The remainder bound |R| <= C dist^{-delta} is certified once per grid: one
scan of the per-offset peaks of |R| (_offdiagonal_peaks: over the row
blocks, a skewed strided view of one reused column-doubled buffer whose
columns run along the offsets) both fits C and checks it, and refuses a
non-finite cell off the diagonal. A kernel without a remainder certifies
C = 0 with no scan. The gauge action changes only the winding and the
phases, so gauged kernels share the grid and its certificate; direct
construction and dataclasses.replace check again.

Off the grid, the remainder is trigonometric interpolation: the grid is
contracted with the Dirichlet weight rows of both angles (M values per
angle, no 2-D transform of the grid), first with the rows of the distinct
in-angles and then, pair by pair, with the out-angle's row, so pairs that
share an in-angle share one product with the grid. evaluate reads its two
angle arrays, broadcast together, pair by pair; a table of every pair is a
broadcast of a column against a row. Its prefactors read the phase
profiles at angles reduced into [0, 2 pi), the in profile at theta' with
its coefficients shifted by pi, as on_grid reads it.

Channel constants. Writing u = theta - theta' and [a] for the integer step
of the flux, the convolution part is

    S_a(u) = cos(a pi) delta(u) + (i sin(a pi) / pi) p.v. e^{i[a]u}/(1 - e^{iu}).

Its Fourier eigenvalues 2 pi c_k equal e^{+i a pi} for k >= [a] and
e^{-i a pi} for k < [a]; the jump channel k = [a] sits on the + side. The
closed form was fixed against a principal-value quadrature oracle
(ab_channel_pv_quadrature, kept with the test oracles in tests/oracles.py),
not assumed.

A sphere kernel is stored the same way: its ungauged base matrix and, once
gauged, the real out and in phase vectors phi(w) and -phi(-w'); its
prefactors e^{i phase} are built from them on the first read.

Both kinds store a grid (plane remainder, sphere base) in the dtype of its
data: float64 when the data is real, complex128 when it is complex. numpy
casts a real operand to complex before it meets complex data, so every value
read is the same bits as from the complex grid, and real data (a synthesized
sphere base, the pipeline's remainders) is stored and streamed in half the
bytes.

Both kinds are compared by one layer. A kind supplies rows(block), its
base before the prefactors (_base_rows: singular + R on the plane, the base
on the sphere), its real phase tables (_phases) and far_pairs(), the mask
of the pairs a comparison reads (off the diagonal band on the plane, more
than angular.FAR_PAIR_ANGLE apart on the sphere); one pair check, one
blocked distance over angular.row_blocks (about angular.ROW_BLOCK_BYTES
each) and one verification step serve kernel_distance and both solvers. No
pass over all pairs (maxima, distance, synthesis) forms a second n x n
matrix; value_grid remains for callers.

Every pair the package builds reads one base (the gauge action and
synthesize_kernels reuse kernel 1's grid): on the plane one remainder
object and an equal alpha, so one singular table; on the sphere one base
object. Such a pair differs only in its prefactors, each e^{i phase} of a
real phase, so |v1 - v2| = |base| |a_i - b_j| with a = e^{i(out1 - out2)}
and b = e^{i(in2 - in1)} (_relative_phases). The distance pass then reads
|base| once per row block; equal phases give a = b = 1 and a distance of
exactly 0. Pairs on two grids (two kernels loaded from files) build each
block of both kernels and take the difference. The verification step
skips the pass altogether for a pair on one grid object: _shared_grid_bound
bounds the distance in O(n) from the same a and b, the singular tables and
the certified (C, delta). A bound within verify_tol answers equivalent;
unshared grids, or a bound that fails, take the exact blocked distance, the
only path that answers not_equivalent.

The gauge e^{i(m theta + phi)} multiplies kernels by e^{i(m theta + phi(theta))}
on the left and e^{-i(m(theta' + pi) + phi(theta' + pi))} on the right; the
sign conventions are pinned by requiring the action to compose as a group and
the channel spectrum to obey the Fourier shift law
spectrum(gauged kernel) = spectrum of flux alpha + m.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from ._csvio import read_csv, write_grid_csv
from .angular import AngularFunction, SphereFunction, SphereGrid, row_blocks
from .catalog import _read_number
from .errors import (
    DimensionMismatch,
    GridMismatch,
    RemainderBoundViolated,
    NonConvergent,
    SingularPartMissing,
)
from .fields import GaugeElement

DIAG_MARGIN_CELLS = 5
INTEGER_FLUX_TOL = 1e-9
_CHANNEL_JUMP_TOL = 1e-6  # smallest channel jump 2|sin(pi f)| that anchors a flux f
_ROUND_OFF = 16 * np.finfo(float).eps  # relative rounding of a kernel value and its prefactors
_CG_TOL, _CG_MAX_ITER = 1e-14, 1000  # the sphere fit's relative residual and iteration cap


def flux_step(alpha: float) -> int:
    """Integer step [a] entering the singular kernel phase."""
    return int(np.floor(alpha + 1e-12))


def is_integer_flux(alpha: float) -> bool:
    return abs(alpha - np.round(alpha)) < INTEGER_FLUX_TOL


# ===================================================================
# channels
# ===================================================================

@dataclass(frozen=True)
class ChannelSpectrum:
    """Unimodular eigenvalues 2 pi c_k of a convolution kernel, k in [-N, N]."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        vals = np.asarray(self.values, dtype=complex)
        if idx.shape != vals.shape or idx.ndim != 1:
            raise ValueError("indices and values must be aligned vectors")
        if np.any(np.diff(idx) != 1):
            raise ValueError("channel indices must be consecutive")
        if np.max(np.abs(np.abs(vals) - 1.0)) > 1e-6:
            raise ValueError("channel eigenvalues must be unimodular within 1e-6")
        idx.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)

    def shifted(self, by: int) -> "ChannelSpectrum":
        return ChannelSpectrum(indices=self.indices + int(by), values=self.values)

    def distance(self, other: "ChannelSpectrum") -> float:
        lo = max(self.indices[0], other.indices[0])
        hi = min(self.indices[-1], other.indices[-1])
        if hi < lo:
            raise GridMismatch("channel windows do not overlap")
        a = self.values[lo - self.indices[0]: hi + 1 - self.indices[0]]
        b = other.values[lo - other.indices[0]: hi + 1 - other.indices[0]]
        return float(np.max(np.abs(a - b)))


def ab_kernel_channels(alpha: float, N: int) -> ChannelSpectrum:
    """Channel eigenvalues of the flux-alpha convolution kernel.

    Closed form validated against the test oracle ab_channel_pv_quadrature
    (tests/oracles.py, adaptive principal-value quadrature): e^{+i alpha pi}
    at and above the step [alpha], e^{-i alpha pi} below. Integer flux gives
    the exact constant (-1)^alpha in every channel.
    """
    if N < 1:
        raise ValueError("channel cutoff must be at least 1")
    ks = np.arange(-N, N + 1)
    if is_integer_flux(alpha):
        a = int(np.round(alpha))
        vals = np.full(ks.size, complex((-1.0) ** a))
        return ChannelSpectrum(indices=ks, values=vals)
    step = flux_step(alpha)
    vals = np.where(ks >= step, np.exp(1j * np.pi * alpha), np.exp(-1j * np.pi * alpha))
    return ChannelSpectrum(indices=ks, values=vals.astype(complex))


def singular_offdiagonal(alpha: float, u) -> np.ndarray:
    """Closed-form value of the convolution part away from the diagonal:
    (i sin(a pi)/pi) e^{i[a]u} (1/2 + (i/2) cot(u/2))."""
    u = np.asarray(u, dtype=float)
    core = 0.5 + 0.5j / np.tan(0.5 * u)
    out = (1j * np.sin(np.pi * alpha) / np.pi) * np.exp(1j * flux_step(alpha) * u) * core
    return out


# ===================================================================
# plane kernels
# ===================================================================

@dataclass(frozen=True)
class ScatteringKernel:
    """Plane scattering kernel in structural form.

    Evaluated value away from the diagonal:
    e^{i(w theta + p(theta))} (S_alpha(theta - theta') + R(theta, theta'))
    e^{-i(w(theta' + pi) + q(theta' + pi))}
    with winding w, out phase p, in phase q, and smooth remainder R given on
    a uniform grid (trigonometric interpolation off the nodes).
    """

    alpha: float
    winding: int
    phase_out: AngularFunction
    phase_in: AngularFunction
    remainder: np.ndarray
    bound_C: float
    bound_delta: float
    lam: float = 1.0

    def __post_init__(self):
        _require_finite(alpha=self.alpha, lam=self.lam)
        R = _frozen_remainder(self.remainder, self.bound_delta)
        object.__setattr__(self, "remainder", R)
        verify_remainder_bound(R, self.bound_C, self.bound_delta)

    @classmethod
    def _certified(cls, **values) -> "ScatteringKernel":
        """A kernel from field values whose remainder grid (read-only,
        square, in the dtype _grid_array gives it) and (bound_C,
        bound_delta) are certified already: the fields are set without
        __post_init__'s scan of the grid."""
        S = object.__new__(cls)
        for f in fields(cls):
            object.__setattr__(S, f.name, values[f.name] if f.name in values else f.default)
        return S

    def _rephased(self, alpha: float, winding: int, phase_out: AngularFunction,
                  phase_in: AngularFunction) -> "ScatteringKernel":
        """This kernel's remainder grid and its certified bound under a new
        flux, winding and phases. None of these enters |R| <= C dist^-delta,
        so the grid is shared and nothing is checked again."""
        return self._certified(**{**{f.name: getattr(self, f.name) for f in fields(self)},
                                  "alpha": float(alpha), "winding": int(winding),
                                  "phase_out": phase_out, "phase_in": phase_in})

    @property
    def n_grid(self) -> int:
        return self.remainder.shape[0]

    @property
    def thetas(self) -> np.ndarray:
        return np.arange(self.n_grid) * 2 * np.pi / self.n_grid

    def effective_flux(self) -> float:
        return self.alpha + self.winding

    def prefactor_out(self, theta) -> np.ndarray:
        """e^{i(w theta + p(theta))}, theta reduced into [0, 2 pi) first: the
        dense AngularFunction.__call__ rounds k theta, which grows with
        theta."""
        t = np.mod(np.asarray(theta, dtype=float), 2 * np.pi)
        return np.exp(1j * (self.winding * t + self.phase_out(t)))

    def prefactor_in(self, theta_prime) -> np.ndarray:
        """e^{-i(w (theta' + pi) + q(theta' + pi))}, theta' reduced into
        [0, 2 pi) first. q(theta' + pi) is read at theta' with the
        coefficients (-1)^k c_k, so the profile never meets the rounding of
        theta' + pi, which q' would magnify."""
        t = np.mod(np.asarray(theta_prime, dtype=float), 2 * np.pi)
        q = self.phase_in
        q_pi = AngularFunction(q.coefficients * (-1.0) ** np.arange(-q.degree, q.degree + 1))
        return np.exp(-1j * (self.winding * (t + np.pi) + q_pi(t)))

    def _dirichlet_rows(self, theta: np.ndarray) -> np.ndarray:
        """Trigonometric-interpolation weights of the grid angles at each angle:
        D[p, a] = (1/M) sum_j e^{i j theta[p]} e^{-2 pi i j a / M}, summed over
        the centred frequencies j; M values per angle."""
        M = self.n_grid
        js = np.fft.fftfreq(M, d=1.0 / M).astype(int)
        return np.fft.fft(np.exp(1j * np.outer(theta, js)), axis=1) / M

    def evaluate(self, theta, theta_prime) -> np.ndarray:
        """Kernel value away from the diagonal (the delta term is excluded) at
        the pairs of the two angle arrays broadcast together, in that shape (a
        number for two numbers): evaluate(theta[:, None], theta_prime) gives
        a table. The remainder at a pair contracts R with the Dirichlet rows
        of both angles, meaningful off the diagonal: R is contracted first
        with the rows of the distinct in-angles, X = R D_in^T, and pair p
        reads sum_a D_out[p, a] X[a, in-angle of p]. Pairs that share their
        in-angle, as near_diagonal_growth's do, share one column of X."""
        th, tp = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                     np.asarray(theta_prime, dtype=float))
        ins, inv = np.unique(tp.ravel(), return_inverse=True)
        d_out, d_in = self._dirichlet_rows(th.ravel()), self._dirichlet_rows(ins)
        R = self.remainder
        if np.iscomplexobj(R):
            X = R @ d_in.T
        else:  # two real products, where R @ d_in.T would cast the grid to complex
            X = R @ d_in.real.T + 1j * (R @ d_in.imag.T)
        rem = (d_out * X.T[inv]).sum(axis=1).reshape(th.shape)
        # (singular + R) * prefactor, in the operand order of rows(): numpy
        # would take that order only above its temporary-elision size, so a
        # value would depend on the size of its batch
        v = singular_offdiagonal(self.alpha, th - tp) + rem
        v *= self.prefactor_out(th) * self.prefactor_in(tp)
        return v

    @cached_property
    def _phases(self) -> tuple:
        """The real exponents of prefactor_out and prefactor_in on the stored
        angles, w theta + p(theta) and -(w (theta + pi) + q(theta + pi)),
        their phase profiles read by AngularFunction.on_grid: M values each,
        read-only, built on the first read of the grid."""
        M, w, th = self.n_grid, self.winding, self.thetas
        phases = (w * th + self.phase_out.on_grid(M),
                  -(w * (th + np.pi) + self.phase_in.on_grid(M, np.pi)))
        for t in phases:
            t.flags.writeable = False
        return phases

    @cached_property
    def _grid_tables(self) -> tuple:
        """prefactor_out and prefactor_in on the stored angles, e^{i phase}
        of _phases, and the singular part at each offset k (u = 2 pi k / M,
        0 at k = 0): M values each, read-only, built on the first read of
        the grid."""
        out, inc = self._phases
        M = self.n_grid
        # e^{-i x} of the in exponent x negated back, not e^{i (-x)}: the two
        # differ in the sign of a zero imaginary part
        tables = (np.exp(1j * out), np.exp(-1j * -inc),
                  np.r_[0, singular_offdiagonal(self.alpha, 2 * np.pi * np.arange(1, M) / M)])
        for t in tables:
            t.flags.writeable = False
        return tables

    def _base_rows(self, block: slice) -> np.ndarray:
        """singular + R over a block of rows, a new array: the kernel's
        values before its prefactors."""
        return _circulant(self._grid_tables[2])[block] + self.remainder[block]

    def rows(self, block: slice) -> np.ndarray:
        """Values of a block of rows of the grid, value_grid()[block] bit for
        bit: (singular + R) * prefactor, in that operand order (complex
        multiplication is not bitwise commutative)."""
        out, inc, _ = self._grid_tables
        v = self._base_rows(block)
        v *= np.multiply.outer(out[block], inc)
        return v

    def value_grid(self) -> np.ndarray:
        """Full off-diagonal value matrix on the stored grid (diagonal cells
        hold only prefactor * remainder; comparisons must mask the band).
        The library compares kernels by row blocks (rows) and never builds it."""
        return self.rows(slice(None))

    def band(self, p: int) -> np.ndarray:
        """Values on the band theta' = theta - 2 pi p / M, value_grid() bit for
        bit: the operand order of rows()."""
        out, inc, singular = self._grid_tables
        rows = np.arange(self.n_grid)
        cols = (rows - p) % self.n_grid
        v = singular[p % self.n_grid] + self.remainder[rows, cols]
        v *= out * inc[cols]
        return v

    def far_pairs(self) -> np.ndarray:
        """Read-only M x M mask of the cells off the diagonal band (cyclic
        offset more than DIAG_MARGIN_CELLS), a circulant view of one table."""
        k = np.arange(self.n_grid)
        return _circulant(np.minimum(k, self.n_grid - k) > DIAG_MARGIN_CELLS)

    def channel_spectrum(self) -> ChannelSpectrum:
        """Channels -32..32 of the convolution-plus-winding part: the winding
        prefactors shift the effective flux by the Fourier shift law."""
        return ab_kernel_channels(self.effective_flux(), 32)

    def header_dict(self) -> dict:
        return {
            "schema_version": 1,
            "dimension": 2,
            "lam": self.lam,
            "alpha": self.alpha,
            "winding": self.winding,
            "delta": self.bound_delta,
            "C": self.bound_C,
            "n_grid": self.n_grid,
            "phase_out": self.phase_out.to_triples(),
            "phase_in": self.phase_in.to_triples(),
        }

    @classmethod
    def from_header_and_grid(cls, header: dict, remainder: np.ndarray) -> "ScatteringKernel":
        M, winding, alpha, C, delta, lam = (
            _read_number(header, key, None, "kernel header", integer=key in ("n_grid", "winding"))
            for key in ("n_grid", "winding", "alpha", "C", "delta", "lam"))
        if header.get("dimension", 2) != 2:
            raise ValueError(f"kernel header 'dimension' must be 2, got {header['dimension']!r}")
        return cls(alpha=alpha, winding=winding,
                   phase_out=AngularFunction.from_triples(header["phase_out"]),
                   phase_in=AngularFunction.from_triples(header["phase_in"]),
                   remainder=np.asarray(remainder).reshape(M, M),
                   bound_C=C, bound_delta=delta, lam=lam)

    def remainder_to_csv(self, path) -> None:
        index = np.arange(self.n_grid)
        write_grid_csv(path, "i,j,re,im", index, index, [self.remainder.real, self.remainder.imag])

    @staticmethod
    def remainder_from_csv(path) -> np.ndarray:
        """The grid a remainder CSV holds, every cell's bits kept: real
        (float64) when every imaginary cell is +0.0, as remainder_to_csv
        writes a real grid, else complex, so a -0.0 cell survives and the
        file's bytes round-trip."""
        body = read_csv(path)
        M = int(np.sqrt(body.shape[0]))
        im = body[:, 3]
        if not (np.any(im) or np.any(np.signbit(im))):
            return np.ascontiguousarray(body[:, 2]).reshape(M, M)
        return np.ascontiguousarray(body[:, 2:4]).view(complex).reshape(M, M)


def _circulant(t: np.ndarray) -> np.ndarray:
    """Read-only M x M view whose cell (i, j) is t[(i - j) mod M], with no
    M x M array formed. The table reversed and wrapped once,
    w = t[M-1], ..., t[0], t[M-1], ..., t[1], has w[n] = t[(M - 1 - n) mod M],
    so its M-windows hold t[(M - 1 - a - j) mod M] at row a; reversing the
    rows (a = M - 1 - i) gives t[(i - j) mod M]."""
    r = t[::-1]
    return sliding_window_view(np.concatenate([r, r[:-1]]), t.size)[::-1]


def _offdiagonal_peaks(remainder: np.ndarray) -> np.ndarray:
    """Largest |R| per offset k = 1..M-1: the one scan of a remainder grid
    that certifies its bound. A nan cell off the diagonal gives a nan peak.

    The scan runs over angular.row_blocks(M). A block's |R| is written into
    one reused (rows, 2M) buffer, about ROW_BLOCK_BYTES, and again into its
    second half as far as a skewed strided view reaches. The view starts at
    column b.start, and its row r, column c is |R[i, (i + c) mod M]| for
    i = b.start + r, the cell on offset (-c) mod M. So the view's column
    maxima are the block's offset maxima, folded into one M-vector, with no
    gather of the M^2 cells and no M x M array of |R|."""
    M = remainder.shape[0]
    blocks = row_blocks(M)
    buf = np.empty((max(b.stop - b.start for b in blocks), 2 * M))
    s_row, s_col = buf.strides
    peak = np.zeros(M)  # below every |R|, and np.maximum keeps a nan
    for b in blocks:
        rows = b.stop - b.start
        np.abs(remainder[b], out=buf[:rows, :M])
        # the view's last row reads up to column M + b.start + rows - 2
        wrap = b.start + rows - 1
        buf[:rows, M:M + wrap] = buf[:rows, :wrap]
        skewed = as_strided(buf[:rows, b.start:], shape=(rows, M),
                            strides=(s_row + s_col, s_col), writeable=False)
        np.maximum(peak, skewed.max(axis=0), out=peak)
    return peak[:0:-1]  # offset k sits in column M - k


def _offset_gap(M: int) -> np.ndarray:
    """Angle gap 2 pi min(k, M - k) / M of each offset k = 0..M-1."""
    k = np.arange(M)
    return 2 * np.pi * np.minimum(k, M - k) / M


def _bound_constant(peak: np.ndarray, C: float | None, delta: float) -> float:
    """Certify |R| <= C dist^{-delta} off the diagonal from the per-offset
    peaks: C is fitted when None (the smallest certifying constant, padded 5
    percent), then checked. RemainderBoundViolated when a peak is not finite
    (a nan or inf cell off the diagonal) or the bound fails, a nan C
    included."""
    if not np.all(np.isfinite(peak)):
        raise RemainderBoundViolated("remainder has a non-finite value off the diagonal")
    gap = _offset_gap(peak.size + 1)[1:]
    if C is None:
        top = float(np.max(peak * gap ** delta))
        C = 1.05 * top if top > 0 else 0.0
    worst = np.max(peak - C * gap ** (-delta))
    if not worst <= 1e-12 * max(1.0, C):  # a nan C fails too
        raise RemainderBoundViolated(
            f"remainder exceeds C dist^-delta bound by {worst:.3e}")
    return C


def verify_remainder_bound(remainder: np.ndarray, C: float, delta: float) -> None:
    """Check |R(theta, theta')| <= C dist(theta, theta')^{-delta} off the diagonal."""
    _bound_constant(_offdiagonal_peaks(remainder), C, delta)


def _grid_array(data) -> np.ndarray:
    """A kernel grid in the dtype of its data: float64 when the data is real
    (bool, integer or float), else complex128. Every read casts a real grid
    to complex where it meets complex data, as numpy has no mixed real and
    complex loops, so values are the same bits as from the complex grid,
    and real data streams half the bytes. A float64 or complex128 array is
    kept, not copied."""
    a = np.asarray(data)
    return a.astype(float if a.dtype.kind in "biuf" else complex, copy=False)


def _require_finite(**values) -> None:
    """ValueError naming the first of the kernel's scalar fields that is not
    a finite number."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"kernel {name} must be finite, got {value!r}")


def _frozen_remainder(remainder, delta: float) -> np.ndarray:
    """The remainder grid as a read-only array in the dtype of its data
    (_grid_array), with its shape and the bound exponent checked."""
    R = _grid_array(remainder)
    if R.ndim != 2 or R.shape[0] != R.shape[1] or R.shape[0] < 16:
        raise ValueError("remainder grid must be square, at least 16 x 16")
    if not (0 <= delta < 1):
        raise ValueError("remainder bound exponent must lie in [0, 1)")
    R.flags.writeable = False
    return R


def sample_remainder(smooth, n_grid: int) -> np.ndarray:
    """A remainder callable R(theta, theta') on the uniform n_grid x n_grid
    angle grid, as assemble_kernel samples it."""
    thetas = np.arange(n_grid) * 2 * np.pi / n_grid
    tt, pp = np.meshgrid(thetas, thetas, indexing="ij")
    return _grid_array(smooth(tt, pp))


def assemble_kernel(alpha: float, a0_in: AngularFunction | None = None,
                    a0_out: AngularFunction | None = None,
                    smooth=None, lam: float = 1.0, n_grid: int = 256,
                    winding: int = 0, bound_C: float | None = None,
                    bound_delta: float = 0.5) -> ScatteringKernel:
    """Build a plane kernel from flux, in/out phase profiles, and a smooth
    remainder (an (M, M) array or a callable R(theta, theta')).

    The declared (C, delta) bound is verified on the grid; C is fitted when
    not given. RemainderBoundViolated when a declared bound fails.
    """
    _require_finite(alpha=alpha, lam=lam)
    zero = AngularFunction.zero()
    a0_in = zero if a0_in is None else a0_in
    a0_out = zero if a0_out is None else a0_out
    if smooth is None:
        R = np.zeros((n_grid, n_grid))
    elif callable(smooth):
        R = sample_remainder(smooth, n_grid)
    else:
        R = _grid_array(smooth)
        if R.shape != (n_grid, n_grid):
            raise ValueError("remainder grid shape must match n_grid")
    R = _frozen_remainder(R, bound_delta)
    # one scan fits and checks the bound; a zero grid's peaks are known
    peak = np.zeros(n_grid - 1) if smooth is None else _offdiagonal_peaks(R)
    C = _bound_constant(peak, None if bound_C is None else float(bound_C), bound_delta)
    return ScatteringKernel._certified(
        alpha=float(alpha), winding=int(winding), phase_out=a0_out, phase_in=a0_in,
        remainder=R, bound_C=C, bound_delta=float(bound_delta), lam=float(lam))


def apply_gauge_to_kernel(S, g: GaugeElement):
    """Gauge action on kernels: out phase gains m theta + phi(theta), in phase
    gains the same profile read at theta' + pi; the flux parameters, the
    remainder grid and its certified bound are shared, not checked again (the
    action is a pure prefactor). A sphere kernel keeps its base matrix, and
    its out and in phases gain phi(w) and -phi(-w'), O(n).
    Short-range scalar parts of g do not act on the kernel data model."""
    if isinstance(S, ScatteringKernel):
        if g.dimension != 2:
            raise DimensionMismatch("plane kernel requires a plane gauge")
        phi = g.phi if g.phi is not None else AngularFunction.zero()
        return S._rephased(S.alpha, S.winding + g.m, S.phase_out + phi, S.phase_in + phi)
    if isinstance(S, SphereScatteringKernel):
        if g.dimension != 3:
            raise DimensionMismatch("sphere kernel requires a 3-space gauge")
        phi = np.zeros(S.grid.size)
        if g.phi_sphere is not None:  # read on any grid of its refinement, as _check_pair
            if g.phi_sphere.grid.refinement != S.grid.refinement:
                raise GridMismatch("gauge phase and kernel live on different sphere grids")
            phi = g.phi_sphere.values
        elif g.phi_callable is not None:
            phi = np.asarray(g.phi_callable(S.grid.vertices), dtype=float)
        out, inc = phi, -phi[S.grid.antipode]
        if S.phase_out is not None:
            out, inc = S.phase_out + out, S.phase_in + inc
        return replace(S, phase_out=out, phase_in=inc)
    raise DimensionMismatch("unsupported kernel type")


def kernel_distance(S1, S2) -> float:
    """Off-diagonal sup distance plus channel-spectrum distance.

    The diagonal band (|i - j| <= DIAG_MARGIN_CELLS, cyclically) is excluded:
    remainders may blow up there and the delta term is not discretized. On
    the sphere, direction pairs within angular.FAR_PAIR_ANGLE of each other
    are. Both kinds of kernel are compared by row blocks.
    """
    _check_pair(S1, S2)
    return _distance(S1, S2)[0]


def _check_pair(S1, S2) -> None:
    """Two kernels of one kind on one grid at one energy, else
    DimensionMismatch (kinds) or GridMismatch (grids, energies)."""
    if isinstance(S1, ScatteringKernel) and isinstance(S2, ScatteringKernel):
        if S1.n_grid != S2.n_grid:
            raise GridMismatch("kernels on different angle grids")
    elif isinstance(S1, SphereScatteringKernel) and isinstance(S2, SphereScatteringKernel):
        if S1.grid is not S2.grid and S1.grid.refinement != S2.grid.refinement:
            raise GridMismatch("kernels on different sphere grids")
    else:
        raise DimensionMismatch("kernel types differ")
    if S1.lam != S2.lam:
        raise GridMismatch("kernels at different energies")


def _one_base(S1, S2) -> bool:
    """Do the two kernels of a checked pair read one base, so that they
    differ only in their prefactors? On the plane: one remainder object and
    an equal alpha, so one singular table; on the sphere: one base object."""
    if isinstance(S1, ScatteringKernel):
        return S1.remainder is S2.remainder and S1.alpha == S2.alpha
    return S1.base is S2.base


def _relative_phases(S1, S2) -> tuple:
    """a = e^{i(out1 - out2)} and b = e^{i(in2 - in1)} from the two kernels'
    real phase tables: a value of kernel k is base * e^{i out_k} e^{i in_k},
    so |v1 - v2| = |base| |a_i - b_j|. Equal phases give a = b = 1 exactly."""
    out1, in1 = S1._phases
    out2, in2 = S2._phases
    return np.exp(1j * (out1 - out2)), np.exp(1j * (in2 - in1))


def _distance(S1, S2) -> tuple:
    """kernel_distance of a checked pair, and S2's largest |value|: one pass
    over row blocks. The distance is the largest |S1 - S2| on
    S1.far_pairs(), plus the channel-spectrum distance for plane kernels;
    the largest |value| includes every pair. Both reduce with numpy, so a
    nan shows.

    Two kernels that read one base (_one_base), as every pair the package
    builds does, differ only in their unimodular prefactors: the pass reads
    |base| once per block and takes |base_ij| |a_i - b_j| (_relative_phases),
    and the largest |value| is the largest |base|, both within a few ulps
    of the values' own. Other pairs (two kernels loaded from files) build
    each block of both kernels and take their difference."""
    far = S1.far_pairs()
    dist, top = [], []
    if _one_base(S1, S2):
        a, b = _relative_phases(S1, S2)
        for blk in row_blocks(far.shape[0]):
            m = np.abs(S2._base_rows(blk))
            top.append(np.max(m))
            m *= np.abs(np.subtract.outer(a[blk], b))
            dist.append(np.max(m, where=far[blk], initial=0.0))
    else:
        for blk in row_blocks(far.shape[0]):
            v2 = S2.rows(blk)
            top.append(np.max(np.abs(v2)))
            v1 = S1.rows(blk)
            # a fresh block takes the difference in place: a new 512 KiB
            # array lies past malloc's mmap threshold and pays fresh page faults
            d = np.subtract(v1, v2, out=v1 if v1.flags.writeable else None)
            dist.append(np.max(np.abs(d), where=far[blk], initial=0.0))
            del v1, v2, d  # free this block before the next one is built
    off = float(np.max(dist))
    if isinstance(S1, ScatteringKernel):
        off += S1.channel_spectrum().distance(S2.channel_spectrum())
    return off, float(np.max(top))


def near_diagonal_growth(S: ScatteringKernel) -> tuple[float, float]:
    """Fitted (exponent, constant) of |S(theta0 + u, theta0)| ~ C u^{-p} at
    theta0 = 0.37, over 24 geometric u from 1e-3 to 1e-1.

    SingularPartMissing at integer base flux: sin(alpha pi) vanishes, so the
    kernel has no diagonal singularity to fit. NonConvergent when a probed
    value is zero or not finite."""
    if is_integer_flux(S.alpha):
        raise SingularPartMissing("integer flux: the kernel has no diagonal singularity")
    us = np.geomspace(1e-3, 1e-1, 24)
    theta0 = 0.37
    logs = np.log(np.abs(S.evaluate(theta0 + us, np.full(us.size, theta0))))
    if not np.all(np.isfinite(logs)):
        raise NonConvergent("the near-diagonal probe read a value that is zero or not finite")
    A = np.column_stack([np.log(us), np.ones(us.size)])
    slope, intercept = np.linalg.lstsq(A, logs, rcond=None)[0]
    return float(-slope), float(np.exp(intercept))


# ===================================================================
# sphere kernels (n >= 3)
# ===================================================================

@dataclass(frozen=True)
class SphereScatteringKernel:
    """Kernel values on sphere-grid direction pairs in structural form: an
    ungauged base matrix and, once gauged, the real phase vectors
    phase_out = phi(w) and phase_in = -phi(-w'), both or neither, one finite
    value per node: the value at (i, j) is (e^{i phase_out[i]} base[i, j])
    e^{i phase_in[j]}. A gauge adds to the phases and shares the base. The
    base is stored read-only in the dtype of its data (float64 when real, as
    synthesize_sphere_kernel gives it). The singular-support flag is declared
    (the diagonal principal-value structure cannot be inferred from grid
    data; it is an input hypothesis)."""

    grid: SphereGrid
    base: np.ndarray
    lam: float = 1.0
    singular_support: bool = True
    phase_out: np.ndarray | None = None
    phase_in: np.ndarray | None = None

    def __post_init__(self):
        _require_finite(lam=self.lam)
        n = self.grid.size
        v = _grid_array(self.base)
        if v.shape != (n, n):
            raise ValueError("base values must be square over the sphere grid")
        v.flags.writeable = False
        object.__setattr__(self, "base", v)
        if (self.phase_out is None) != (self.phase_in is None):
            raise ValueError("a gauged sphere kernel needs both phase vectors")
        for name in ("phase_out", "phase_in"):
            if getattr(self, name) is not None:
                p = np.array(getattr(self, name), dtype=float)
                if p.shape != (n,) or not np.all(np.isfinite(p)):
                    raise ValueError("phase vectors must hold one finite value per grid node")
                p.flags.writeable = False
                object.__setattr__(self, name, p)

    @cached_property
    def _prefactors(self) -> tuple:
        """The out and in prefactors e^{i phase_out} and e^{i phase_in},
        built on the first read; real ones when the kernel is ungauged."""
        if self.phase_out is None:
            return (np.ones(self.grid.size),) * 2
        return np.exp(1j * self.phase_out), np.exp(1j * self.phase_in)

    @property
    def _phases(self) -> tuple:
        """The real exponents of the out and in prefactors: the phase
        vectors, zeros when ungauged."""
        if self.phase_out is None:
            return (np.zeros(self.grid.size),) * 2
        return self.phase_out, self.phase_in

    def _base_rows(self, block: slice) -> np.ndarray:
        """The base over a block of rows, a read-only view: the kernel's
        values before its prefactors."""
        return self.base[block]

    def rows(self, block: slice) -> np.ndarray:
        """Values of a block of rows: a read-only view of the base when
        ungauged, else a new array."""
        b = self.base[block]
        if self.phase_out is None:
            return b
        out, inc = self._prefactors
        v = out[block, None] * b
        v *= inc
        return v

    @property
    def values(self) -> np.ndarray:
        """The full value matrix: the base itself when ungauged (8 n^2 bytes
        for a real base), else built as complex on each read (16 n^2
        bytes)."""
        return self.rows(slice(None))

    def entries(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Values at the pairs (i[k], j[k])."""
        e = self.base[i, j]
        out, inc = self._prefactors
        return e if self.phase_out is None else out[i] * e * inc[j]

    def far_pairs(self) -> np.ndarray:
        """The grid's mask of direction pairs more than FAR_PAIR_ANGLE apart."""
        return self.grid.far_pairs()

    def max_abs(self) -> float:
        """Largest |value|, by row blocks (nan if any value is nan)."""
        return float(np.max([np.max(np.abs(self.rows(b))) for b in row_blocks(self.grid.size)]))


def synthesize_sphere_kernel(grid: SphereGrid, lam: float = 1.0) -> SphereScatteringKernel:
    """Diagonal-concentrated smooth stand-in kernel exp(-|w - w'|^2 / width^2)
    with width 0.6, plus a fixed small offset so the ratio is anchored
    everywhere near the diagonal. Filled in place by row blocks into one
    float64 array, the real base."""
    V = grid.vertices
    vals = np.empty((grid.size, grid.size))
    for b in row_blocks(grid.size):
        # exp(-max(2 - 2c, 0) / 0.6^2) + 0.05 in place, bit for bit: halving both is exact
        x = np.matmul(V[b], V.T, out=vals[b])
        np.maximum(np.subtract(1.0, x, out=x), 0.0, out=x)
        np.add(np.exp(np.divide(x, -0.6**2 / 2, out=x), out=x), 0.05, out=x)
    return SphereScatteringKernel(grid=grid, base=vals, lam=lam)


# ===================================================================
# gauge-equivalence solver
# ===================================================================

@dataclass(frozen=True)
class SolverResult:
    verdict: str  # "equivalent" | "not_equivalent" | "ambiguous"
    gauge: GaugeElement | None = None
    witness: dict | None = None
    reason: str | None = None
    provenance: dict | None = None


def _anchored_flux(S: ScatteringKernel) -> float | None:
    """The kernel's effective flux f, or None when the jump 2|sin(pi f)| its
    channel spectrum shows at the step [f] is too small to anchor the phase
    (integer flux: the diagonal singularity vanishes)."""
    f = S.effective_flux()
    return f if 2 * abs(np.sin(np.pi * f)) > _CHANNEL_JUMP_TOL else None


def _fit_plane_gauge(S1: ScatteringKernel, S2: ScatteringKernel, m: int):
    """Fit the periodic phase phi from the off-diagonal value ratio.

    Along each band theta' = theta - u the ratio of a gauge pair equals
    e^{i m (u - pi)} e^{i (phi(theta) - phi(theta - u + pi))}; after removing
    the known constant, the Fourier transform over theta gives
    phi_hat[k] (1 - e^{i k (pi - u)}) per band, solved per harmonic in least
    squares over several bands. Harmonics above min(M/4, 64) are not fitted.
    """
    M = S1.n_grid
    k_max = min(M // 4, 64)
    strides = [p for p in (8, 9, 16, 24, 32, 48) if p < M // 2]
    strides = strides + [-p for p in strides]
    # S2/S1 along each band theta' = theta - 2 pi p / M, including the two
    # adjacent bands of the winding cross-check below
    ratio = {p: S2.band(p) / S1.band(p) for p in {*strides, 8, 9}}
    ks = np.fft.fftfreq(M, d=1.0 / M).astype(int)
    num = np.zeros(M, dtype=complex)
    den = np.zeros(M)
    for p in strides:
        u = 2 * np.pi * p / M
        core = ratio[p] * np.exp(-1j * m * (u - np.pi))
        xi = np.unwrap(np.angle(core))
        xi = xi - np.mean(xi)
        xi_hat = np.fft.fft(xi) / M
        A = 1.0 - np.exp(1j * ks * (np.pi - u))
        num += np.conj(A) * xi_hat
        den += np.abs(A) ** 2
    keep = (np.abs(ks) >= 1) & (np.abs(ks) <= k_max) & (den > 1e-9)
    phi_hat = np.zeros(M, dtype=complex)
    phi_hat[keep] = num[keep] / den[keep]
    coeffs = {int(k): complex(phi_hat[i]) for i, k in enumerate(ks)
              if keep[i] and abs(phi_hat[i]) > 1e-13}
    phi = AngularFunction.from_coefficients(coeffs) if coeffs else AngularFunction.zero()
    # cross-check of the winding from two adjacent bands: the constant phase
    # advances by m times the band spacing 2 pi / M
    incr = np.angle(ratio[9] * np.conj(ratio[8]))
    m_check = float(np.mean(incr) * M / (2 * np.pi))
    return phi, m_check


def gauge_equivalence_solver(S1, S2, verify_tol: float = 1e-6,
                             phase_tol: float = 1e-6) -> SolverResult:
    """Decide whether S2 is a gauge transform of S1 and produce the gauge.

    Plane: effective fluxes from the channel spectra must differ by an
    integer m (else NotEquivalent with a channel witness); integer base flux
    is Ambiguous (no diagonal singularity to anchor the phase); the periodic
    phase is fitted from the off-diagonal ratio and the verdict is confirmed
    by applying the fitted gauge and measuring the kernel distance.

    Sphere: requires declared singular support on S1; the diagonal ratio
    gives the odd part of the phase (it must vanish: gauge direction
    functions are antipodally even), near-diagonal pairs on the grid edges
    give even-part differences, fitted in least squares by conjugate
    gradients on the edge graph's Laplacian; anchored pairs that leave the
    grid disconnected, or a fit at its iteration cap, give Ambiguous.

    Both verify the fitted gauge g with _verify: from the O(n) certificate
    bound when S1 under g and S2 hold one grid object (provenance
    verified_by "certificate"), else from the exact kernel distance
    (verified_by "distance"); verify_distance holds the figure that decided.
    """
    _check_pair(S1, S2)
    solve = _solve_plane if isinstance(S1, ScatteringKernel) else _solve_sphere
    return solve(S1, S2, verify_tol, phase_tol)


def _prefactor_mismatch(a, b) -> float:
    """eps with |a_i - b_j| <= eps at every pair (i, j) for the relative
    phases a, b of two kernels (_relative_phases; nan if one holds nan).
    With unimodular prefactors o = e^{i out}, c = e^{i in},
    |o1_i c1_j - o2_i c2_j| = |a_i - b_j| <= |a_i - z| + |z - b_j|. z = a[0],
    not 1: a phase is fitted up to a constant, which a and b then both carry.
    A computed e^{i x} is unimodular to 1 ulp, and a phase difference d is
    rounded by |d| / 2 ulps, so while |d| <= 2 pi, a and b stand within a
    few ulps of o1 conj(o2) and c2 conj(c1); there the _ROUND_OFF (16 ulps)
    that callers add to eps covers this for eps <= 1, the only bounds a
    tolerance below 1 accepts, with the rounding of the values."""
    z = a[0]
    return float(np.max(np.abs(a - z)) + np.max(np.abs(b - z)))


def _shared_grid_bound(S1, S2, base_max: float | None) -> float:
    """An O(n) upper bound on kernel_distance(S1, S2) for two kernels that
    hold one grid object, from their prefactor mismatch eps; inf when the
    grids are not one object or a plane remainder's diagonal, which the
    certificate leaves out, is not finite; nan when the data is.

    Plane: a far cell at offset k reads (s_k + R) * prefactor, so
    |v1 - v2| <= |s1_k - s2_k| |o1 c1| + |s2_k + R| eps, and the certificate
    gives |R| <= C gap_k^-delta + 1e-12 max(1, C) (the slack _bound_constant
    allows). Sphere: |v1 - v2| <= |base| eps <= base_max eps, base_max being
    the largest |value| of kernel 1, whose unimodular prefactors make it the
    base's to 2 ulps. _ROUND_OFF covers the rounding of both values and of
    the prefactor tables (_prefactor_mismatch)."""
    if isinstance(S1, ScatteringKernel):
        R = S2.remainder
        if S1.remainder is not R or not np.all(np.isfinite(np.diagonal(R))):
            return np.inf
        eps = _prefactor_mismatch(*_relative_phases(S1, S2))
        M = S2.n_grid
        far = slice(DIAG_MARGIN_CELLS + 1, M - DIAG_MARGIN_CELLS)  # the offsets far_pairs() reads
        C = S2.bound_C
        r_top = C * _offset_gap(M)[far] ** (-S2.bound_delta) + 1e-12 * max(1.0, C)
        s1, s2 = S1._grid_tables[2][far], S2._grid_tables[2][far]
        off = np.max(np.abs(s1 - s2) * (1 + 4 * _ROUND_OFF) + (np.abs(s2) + r_top) * (eps + _ROUND_OFF))
        return float(off) + S1.channel_spectrum().distance(S2.channel_spectrum())
    if S1.base is not S2.base:
        return np.inf
    return base_max * (_prefactor_mismatch(*_relative_phases(S1, S2)) + _ROUND_OFF)


def _verify(S1, S2, g: GaugeElement, prov: dict, verify_tol: float, witness,
            base_max: float | None = None) -> SolverResult:
    """The last step of both solvers: is S1 under the fitted gauge g, S1g,
    within verify_tol max(1, top) of S2, top being S2's largest |value|?

    When S1g and S2 hold one grid object (plane remainder, sphere base;
    base_max is sphere kernel 1's largest |value|), _shared_grid_bound bounds
    their distance in O(n) from the prefactors and the certified remainder
    bound. A finite bound within verify_tol answers equivalent (max(1, top)
    >= 1, so top is not needed), verified_by "certificate". Otherwise the
    exact blocked distance decides, verified_by "distance": equivalent when
    the distance and top are finite (a nan or inf in the data would pass the
    comparison unseen) and within tolerance, else not_equivalent with the
    verification witness, whose further keys witness() gives. verify_distance
    holds the bound or the distance."""
    S1g = apply_gauge_to_kernel(S1, g)
    bound = _shared_grid_bound(S1g, S2, base_max)
    if np.isfinite(bound) and bound <= verify_tol:
        prov.update(verified_by="certificate", verify_distance=bound)
        return SolverResult(verdict="equivalent", gauge=g, provenance=prov)
    dist, top = _distance(S1g, S2)
    prov.update(verified_by="distance", verify_distance=dist)
    if np.isfinite(dist) and np.isfinite(top) and dist <= verify_tol * max(1.0, top):
        return SolverResult(verdict="equivalent", gauge=g, provenance=prov)
    return SolverResult(verdict="not_equivalent",
                        witness={"kind": "verification", "distance": dist, **witness()},
                        provenance=prov)


def _solve_plane(S1: ScatteringKernel, S2: ScatteringKernel,
                 verify_tol: float, phase_tol: float) -> SolverResult:
    spec1, spec2 = S1.channel_spectrum(), S2.channel_spectrum()
    f1, f2 = _anchored_flux(S1), _anchored_flux(S2)
    if f1 is None or f2 is None:
        return SolverResult(
            verdict="ambiguous",
            reason="integer flux: the diagonal singularity vanishes and the "
                   "phase cannot be anchored",
            provenance={"flux_1": f1, "flux_2": f2,
                        "channel_distance": spec1.distance(spec2)})
    dflux = f2 - f1
    m = int(np.round(dflux))
    frac_defect = abs(dflux - m)
    prov = {"flux_1": f1, "flux_2": f2, "m": m, "fractional_defect": frac_defect}
    if frac_defect > phase_tol:
        return SolverResult(
            verdict="not_equivalent",
            witness={"kind": "channel_spectrum",
                     "flux_difference_mod_1": dflux - m,
                     "channel_distance": spec1.distance(spec2)},
            provenance=prov)
    phi, m_check = _fit_plane_gauge(S1, S2, m)
    prov["m_ratio_check"] = m_check
    if abs(m_check - m) > 0.25:
        return SolverResult(
            verdict="not_equivalent",
            witness={"kind": "ratio_winding",
                     "m_from_spectra": m, "m_from_ratio": m_check},
            provenance=prov)
    return _verify(S1, S2, GaugeElement(dimension=2, m=m, phi=phi), prov, verify_tol,
                   lambda: {"fitted_m": m, "fitted_phase_max": phi.max_abs()})


def _component_count(i: np.ndarray, j: np.ndarray, n: int) -> int:
    """Connected components of the graph on n nodes with edges (i, j), by label
    propagation: each node takes its neighbours' least label until none changes."""
    labels, before = np.arange(n), None
    while not np.array_equal(labels, before):
        before = labels.copy()
        np.minimum.at(labels, i, labels[j])
        np.minimum.at(labels, j, labels[i])
    return int(np.count_nonzero(labels == np.arange(n)))


def _laplacian_fit(i: np.ndarray, j: np.ndarray, beta: np.ndarray, n: int) -> tuple:
    """(e, iterations, relative residual) of the least-squares fit e[i] - e[j]
    = beta on a connected graph: Jacobi-preconditioned conjugate gradients on
    L e = D^T beta in the mean-zero subspace, the Laplacian L = D^T D applied
    from the edge list, until |r| <= _CG_TOL |b|, _CG_MAX_ITER steps or a nan."""
    degree = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    r = np.bincount(i, beta, n) - np.bincount(j, beta, n)
    r -= np.mean(r)
    e, p, it, r_norm = np.zeros(n), r / degree, 0, np.linalg.norm(r)
    rz, b_norm = r @ p, r_norm
    while r_norm > _CG_TOL * b_norm and it < _CG_MAX_ITER:
        d = p[i] - p[j]
        q = np.bincount(i, d, n) - np.bincount(j, d, n)
        step = rz / (p @ q)
        e += step * p
        r -= step * q
        z = r / degree
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
        r_norm, it = np.linalg.norm(r), it + 1
    return e, it, float(r_norm / b_norm) if b_norm != 0 else 0.0


def _solve_sphere(S1: SphereScatteringKernel, S2: SphereScatteringKernel,
                  verify_tol: float, phase_tol: float) -> SolverResult:
    if not S1.singular_support:
        raise SingularPartMissing(
            "no declared diagonal singularity on the base kernel; "
            "the prefactor ratio cannot be anchored")
    grid = S1.grid
    top = S1.max_abs()
    floor = 1e-8 * top
    n = grid.size
    nodes = np.arange(n)
    diag1 = S1.entries(nodes, nodes)
    if np.min(np.abs(diag1)) < floor:
        raise SingularPartMissing("base kernel vanishes on the diagonal set")
    ratio_diag = S2.entries(nodes, nodes) / diag1
    odd = 0.5 * np.angle(ratio_diag)
    evenness_defect = float(np.max(np.abs(odd + odd[grid.antipode])))
    prov = {"odd_part_max": float(np.max(np.abs(odd))),
            "odd_antisymmetry_defect": evenness_defect}
    # even part differences on grid edges: for neighbors w_j ~ w_i the kernel
    # entry (i, j) carries phi(w_i) - phi(-w_j) = o_i + o_j + e_i - e_j
    i, j = grid.edges().T
    s1 = S1.entries(i, j)
    keep = np.abs(s1) >= floor
    i, j, s1 = i[keep], j[keep], s1[keep]
    beta = np.angle(S2.entries(i, j) / s1) - odd[i] - odd[j]
    beta = (beta + np.pi) % (2 * np.pi) - np.pi
    if i.size < n:
        return SolverResult(verdict="ambiguous",
                            reason="too few anchored near-diagonal pairs to fit the phase",
                            provenance=prov)
    if (n_parts := _component_count(i, j, n)) > 1:
        return SolverResult(verdict="ambiguous",
                            reason=f"anchored near-diagonal pairs split the grid into "
                                   f"{n_parts} components; the phase offsets between "
                                   f"them are undetermined",
                            provenance=prov)
    even, iterations, relative = _laplacian_fit(i, j, beta, n)
    prov.update(even_fit_iterations=iterations, even_fit_relative_residual=relative)
    even -= np.mean(even)  # the mean-zero shift: the solution of minimum norm
    prov["even_fit_residual"] = residual = float(np.max(np.abs(even[i] - even[j] - beta)))
    if relative > _CG_TOL:  # the fit reached its cap
        return SolverResult(verdict="ambiguous", provenance=prov, reason="the even-part fit "
                            f"did not converge in {_CG_MAX_ITER} conjugate-gradient iterations")
    phi_vals = even + odd
    phi = SphereFunction(grid=grid, values=phi_vals)
    if prov["odd_part_max"] > phase_tol:
        return SolverResult(
            verdict="not_equivalent",
            witness={"kind": "odd_phase",
                     "odd_part_max": prov["odd_part_max"],
                     "note": "gauge direction functions must be antipodally even"},
            provenance=prov)
    if not np.all(np.isfinite(phi_vals)) or np.isnan(residual):  # a nan or inf reached the fit
        return SolverResult(verdict="not_equivalent", provenance=prov,
                            witness={"kind": "verification", "distance": np.nan})
    return _verify(S1, S2, GaugeElement(dimension=3, phi_sphere=phi), prov, verify_tol, dict,
                   top)
