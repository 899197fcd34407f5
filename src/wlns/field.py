"""Fields on a periodic box and their spectral representation.

Everything lives on the uniform grid of a cube ``[0, length)^3`` with
periodic boundary conditions.  Real fields are transformed to the real-FFT
half spectrum: ``rfftn`` keeps the last-axis mode numbers ``0..n/2``, which
are exactly the first ``n/2 + 1`` entries of the full FFT layout, so a
scalar has ``(n, n, n//2+1)`` modes and a vector ``(3, n, n, n//2+1)``.
Transforms follow the convention that the mode array of a constant field
``c`` is ``c`` at wavevector zero, i.e. ``modes = fftn(values) / n**3``, so
the mean of ``|f|^2`` is the sum of ``|modes|^2`` with the last-axis modes
``1..n/2-1`` counted twice, once for their conjugates (discrete Parseval).

Every mode array this module and the solver take is a half spectrum.
The modes a dealias mask keeps form a box ``|m_j| <= K``, held as a dense
``(..., 2K+1, 2K+1, K+1)`` block with its symbols, viscous factors and
pruned transforms; the block of fraction 1 is the whole half spectrum, and
the package's spectral calculus runs on it.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

SNAPSHOT_MAGIC = b"WLNS"
SNAPSHOT_VERSION = 1

TWO_PI = 2.0 * np.pi


class SnapshotFormatError(ValueError):
    """Raised when a snapshot file does not follow the binary layout."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on ``[0, length)^3``.

    Parameters
    ----------
    n : int
        Points per axis.  Must be even and at least 8 so the spectral
        symbols pair up and the 2/3 dealiasing rule has room to act.
    length : float
        Box edge length, ``2*pi`` by default so integer wavevectors are
        the derivative symbols.
    """

    n: int
    length: float = TWO_PI

    def __post_init__(self) -> None:
        if self.n % 2 != 0 or self.n < 8:
            raise ValueError(f"grid size must be even and >= 8, got {self.n}")
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise ValueError(f"box length must be positive, got {self.length}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**3

    @property
    def volume(self) -> float:
        return self.length**3

    @cached_property
    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.n) * self.spacing

    @cached_property
    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Meshed ``(X, Y, Z)`` cell coordinates, ``ij`` indexed."""
        x = self.axis_coordinates
        return tuple(np.meshgrid(x, x, x, indexing="ij"))

    @cached_property
    def mode_numbers(self) -> np.ndarray:
        """Integer mode numbers along one axis in FFT layout."""
        return (np.arange(self.n) + self.n // 2) % self.n - self.n // 2

    def dealias_mask(self, fraction: float = 2.0 / 3.0) -> np.ndarray:
        """Full-layout keep-mask: True where every ``|m_j| <= fraction*n/2``."""
        return _band_mask(self.mode_numbers, fraction * self.n / 2.0)

    def index_of(self, point: Sequence[float]) -> tuple[int, int, int]:
        """Grid index of a point, erroring if it is not on the grid."""
        idx = []
        for c in point:
            j = c / self.spacing
            jr = int(round(j)) % self.n
            if abs(j - round(j)) > 1e-9:
                raise ValueError(f"coordinate {c} is not a grid point")
            idx.append(jr)
        return tuple(idx)


def _check_values(grid: Grid, values: np.ndarray, shape: tuple) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != shape:
        raise ValueError(f"expected shape {shape}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    return values


@dataclass(frozen=True)
class ScalarField:
    """Real scalar samples on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n
        v = _check_values(self.grid, self.values, (n, n, n))
        object.__setattr__(self, "values", v)

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


@dataclass(frozen=True)
class VectorField:
    """Velocity-style field: its components as one C-contiguous ``(3, n, n, n)`` array.

    Any other layout is copied into one, so every later sum runs in one order.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n
        v = np.ascontiguousarray(_check_values(self.grid, self.values, (3, n, n, n)))
        object.__setattr__(self, "values", v)

    @classmethod
    def from_arrays(cls, grid: Grid, u1, u2, u3) -> "VectorField":
        return cls(grid, np.stack((u1, u2, u3)))

    def as_array(self) -> np.ndarray:
        """The field's own ``(3, n, n, n)`` array, ``values`` itself: no copy."""
        return self.values

    def magnitude(self) -> ScalarField:
        return ScalarField(self.grid, np.sqrt(sum(v**2 for v in self.values)))

    def max_abs(self) -> float:
        return float(np.sqrt(sum(v**2 for v in self.values)).max())


def _band_mask(mode_numbers: np.ndarray, max_mode: float, width: int | None = None) -> np.ndarray:
    """Boolean keep-mask: True where every ``|m_j| <= max_mode``.

    ``mode_numbers`` is ``Grid.mode_numbers``.  The last axis is cut to its
    first ``width`` entries (``n//2 + 1`` for the half spectrum); ``None``
    keeps the full layout.
    """
    keep = np.abs(mode_numbers) <= max_mode
    return keep[:, None, None] & keep[None, :, None] & keep[None, None, :width]


# ---------------------------------------------------------------------------
# The transforms and the kept blocks of a grid
#
# Every transform is single-threaded ``numpy.fft`` with the bits of
# ``scipy.fft.rfftn``/``irfftn(norm="forward")``: x goes before y (unlike
# ``np.fft.rfftn``) and the forward scaling by ``1/n**3`` is one product of
# the real and imaginary parts after the first axis (not 1/n per axis).


def _forward(values: np.ndarray) -> np.ndarray:
    """Half-spectrum modes of real values, ``modes = fftn(values) / n**3``."""
    modes = np.fft.rfft(values, axis=-1)
    parts = modes.view(np.float64)
    parts *= 1.0 / values.shape[-1] ** 3
    np.fft.fft(modes, axis=-3, out=modes)
    return np.fft.fft(modes, axis=-2, out=modes)


class _Block:
    """The modes ``Grid.dealias_mask(fraction)`` keeps, as a dense ``(..., b, b, width)`` array.

    Along x and y the kept modes ``0..K`` and ``-K..-1`` are two runs of the
    FFT layout, put side by side; along z they are the first ``width``.  At
    fraction 1 the block is the whole half spectrum.

    ``symbols`` are the first-derivative symbols of the kept modes, with the
    unpaired Nyquist mode zeroed (the standard choice for odd-order spectral
    derivatives of real data), and ``k2`` is ``|k|^2`` built from them with
    zeros mapped to 1.  Using the same symbols as :func:`gradient_squares`
    keeps the projection/pressure algebra Hermitian and exactly consistent
    with it; the substituted 1 only appears where every symbol vanishes,
    and there the numerators vanish too.

    A zero field costs no transform.  :meth:`forward` gives values that are
    all ``+-0`` ``+0`` modes; its callers only add or subtract modes, so at
    most the signs of those zeros change.  :meth:`inverse` returns values,
    so it tests bits: a ``+0`` block gets ``+0`` values, the bits of its
    transform, and a block holding a ``-0.0`` is transformed.
    """

    def __init__(self, grid: Grid, fraction: float):
        n = self.n = grid.n
        self.half = n // 2 + 1
        self.mask = _band_mask(grid.mode_numbers, fraction * n / 2.0, self.half)
        # the mask is a product of one keep vector per axis, and mode 0 is kept
        keep, self.width = self.mask[:, 0, 0], int(self.mask[0, 0].sum())
        lead, size = int(keep[: n // 2].sum()), int(keep.sum())
        self.shape = (size, size, self.width)
        # (block, half spectrum) index ranges of the two runs along x and y
        self._runs = ((slice(0, lead),) * 2, (slice(lead, size), slice(n - size + lead, n)))
        self._cut = slice(lead, n - size + lead)  # the half spectrum's rows between the runs
        k = (TWO_PI / grid.length) * grid.mode_numbers.astype(np.float64)
        index = np.flatnonzero(keep)
        self._wavenumbers = k[index], k[: self.width].copy()  # the decay's, Nyquist kept
        k[n // 2] = 0.0
        kx, ky, kz = k[index][:, None, None], k[index][None, :, None], k[None, None, : self.width]
        k2 = kx**2 + ky**2 + kz**2
        self.symbols = kx, ky, kz, np.where(k2 > 0.0, k2, 1.0)
        self._decays: dict[tuple[float, float], tuple[np.ndarray, np.ndarray]] = {}

    def decay(self, viscosity: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Viscous factors ``exp(-nu |k|^2 dt/2)``, ``exp(-nu |k|^2 dt)`` on the block."""
        if (viscosity, dt) not in self._decays:
            k, kz = self._wavenumbers
            k_squared = k[:, None, None] ** 2 + k[None, :, None] ** 2 + kz[None, None, :] ** 2
            half = np.exp(-viscosity * k_squared * (dt / 2.0))
            self._decays[viscosity, dt] = half, half * half
        return self._decays[viscosity, dt]

    def gather(self, modes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The block of ``(..., n, n, m)`` modes, ``m >= width``, written to ``out`` if given."""
        if out is None:
            out = np.empty((*modes.shape[:-3], *self.shape), dtype=modes.dtype)
        for bx, fx in self._runs:
            for by, fy in self._runs:
                out[..., bx, by, :] = modes[..., fx, fy, : self.width]
        return out

    def scatter(self, block: np.ndarray) -> np.ndarray:
        """The half spectrum holding ``block``, zero outside it."""
        out = np.zeros((*block.shape[:-3], self.n, self.n, self.half), dtype=block.dtype)
        for bx, fx in self._runs:
            for by, fy in self._runs:
                out[..., fx, fy, : self.width] = block[..., bx, by, :]
        return out

    def forward(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``gather(_forward(values), out=out)`` for one real field, bit for bit but zero signs.

        Axes z, x, y: the kept z columns are scaled into a contiguous
        buffer of the call, the x pass covers only them and the y pass the
        kept x rows.
        """
        if not values[0].any() and not values.any():  # one plane settles most fields
            out[...] = 0.0
            return out
        columns = np.empty((self.n, self.n, self.width), dtype=complex)
        parts = np.fft.rfft(values, axis=-1).view(np.float64)[..., : 2 * self.width]
        np.multiply(parts, 1.0 / self.n**3, out=columns.view(np.float64))
        np.fft.fft(columns, axis=0, out=columns)
        for _, f in self._runs:
            np.fft.fft(columns[f], axis=1, out=columns[f])
        return self.gather(columns, out=out)

    def inverse(self, block: np.ndarray, box: tuple | None = None) -> np.ndarray:
        """Values on ``box`` (:func:`cell_box`; ``None``: the grid) of ``scatter(block)``.

        The inverse of :func:`_forward`, each cell with the whole grid's bits:
        unscaled ``ifft`` along x, then y over the box's x rows, then ``irfft``
        along z over its (x, y) lines, skipping lines that stay zero, one field
        of a batch at a time through line buffers that die with the call.
        """
        box = (np.arange(self.n),) * 3 if box is None else box
        (bx, by, bz), (ix, iy, iz) = map(len, box), map(_axis_index, box)
        x_lines = np.zeros((self.n, self.shape[1], self.width), dtype=complex)
        shared = x_lines.shape == (self.n, self.n, self.half) and isinstance(ix, slice)
        y_lines = x_lines[ix] if shared else np.zeros((bx, self.n, self.half), dtype=complex)
        y_kept = y_lines[..., : self.width]
        z_lines = None if bz == self.n else np.empty((bx, by, self.n))
        block = np.ascontiguousarray(block, dtype=np.complex128)
        out = np.empty((*block.shape[:-3], bx, by, bz))
        for field in np.ndindex(block.shape[:-3]):
            if not block[field].view(np.uint64).any():
                out[field] = 0.0
                continue
            # the last field's transforms filled the rows outside the block
            x_lines[self._cut] = 0.0
            y_kept[:, self._cut] = 0.0
            for b, f in self._runs:
                x_lines[f] = block[(*field, b)]
            np.fft.ifft(x_lines, axis=0, norm="forward", out=x_lines)
            if not shared:
                for b, f in self._runs:
                    y_kept[:, f] = x_lines[ix, b]
            np.fft.ifft(y_kept, axis=1, norm="forward", out=y_kept)
            z = out[field] if z_lines is None else z_lines
            np.fft.irfft(y_lines[:, iy], n=self.n, axis=2, norm="forward", out=z)
            if z_lines is not None:
                out[field] = z_lines[..., iz]
        return out


# every block built, keyed by value, so equal grids share one and no ``Grid``
# (with its cached coordinates) is kept alive
_BLOCKS: dict[tuple[int, float, float], _Block] = {}


def _block(grid: Grid, fraction: float) -> _Block:
    """The block of ``grid.dealias_mask(fraction)``, built once; fraction 1 is the half spectrum."""
    key = (grid.n, grid.length, fraction)
    if key not in _BLOCKS:
        _BLOCKS[key] = _Block(grid, fraction)
    return _BLOCKS[key]


@dataclass(frozen=True)
class SpectralField:
    """Half-spectrum modes of a scalar (``ndim == 3``) or vector (``ndim == 4``)."""

    grid: Grid
    modes: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n
        half = (n, n, n // 2 + 1)
        modes = np.asarray(self.modes, dtype=np.complex128)
        if modes.shape not in (half, (3, *half)):
            raise ValueError(f"bad mode array shape {modes.shape} for n={n}")
        if not np.all(np.isfinite(modes)):
            raise ValueError("spectral modes must be finite")
        object.__setattr__(self, "modes", modes)

    @property
    def is_vector(self) -> bool:
        return self.modes.ndim == 4


def forward_transform(field: ScalarField | VectorField) -> SpectralField:
    """Half-spectrum transform of a physical field; modes are normalised by ``n**3``."""
    return SpectralField(field.grid, _forward(field.values))


def inverse_transform(spec: SpectralField) -> ScalarField | VectorField:
    """Inverse transform back to physical samples.

    The round trip ``inverse_transform(forward_transform(f))`` reproduces
    ``f`` to machine precision.
    """
    values = _block(spec.grid, 1.0).inverse(spec.modes)
    return (VectorField if spec.is_vector else ScalarField)(spec.grid, values)


def gradient_squares(f: ScalarField | VectorField, box: tuple | None = None) -> np.ndarray:
    """Pointwise ``|grad f|^2`` on ``box`` (:func:`cell_box`; ``None``: the grid): every
    spectral first derivative squared and summed, component by component, then x, y, z.

    A vector field gives the nine-derivative ``|grad u|^2``; a component
    with no nonzero value adds only ``+0`` and is skipped.
    """
    total = np.zeros(f.grid.shape if box is None else tuple(map(len, box)))
    for component in f.values.reshape(-1, *f.grid.shape):
        if not component.any():
            continue
        # the transform before the block: a block built first lands elsewhere in the
        # heap, and tg32-pipeline's peak RSS reads 0.6 MiB higher (2-core x86-64 VM)
        modes, half = _forward(component), _block(f.grid, 1.0)
        for k in half.symbols[:3]:
            part = half.inverse(1j * k * modes, box)
            total += np.square(part, out=part)
    return total


def rescale(
    field: ScalarField | VectorField,
    eps: float,
    center: Sequence[float] = (0.0, 0.0, 0.0),
) -> ScalarField | VectorField:
    """Zoomed field ``x -> eps * f(center + eps * x)`` on the same grid.

    Grid samples can only be zoomed by integer factors (the stretched
    points must land back on the grid); anything else needs the closed
    form, see :func:`rescale_profile`.
    """
    if not -np.inf < eps < np.inf:
        raise ValueError(f"eps must be finite, got {eps}")
    if abs(eps - round(eps)) > 1e-12 or round(eps) < 1:
        raise ValueError(
            "grid fields rescale only by positive integer factors; "
            "use rescale_profile with the closed form otherwise"
        )
    factor = int(round(eps))
    grid = field.grid
    i0 = grid.index_of(center)
    idx = [(i0[a] + factor % grid.n * np.arange(grid.n)) % grid.n for a in range(3)]
    return type(field)(grid, float(factor) * field.values[(..., *np.ix_(*idx))])


def rescale_profile(
    func: Callable, eps: float, center: Sequence[float] = (0.0, 0.0, 0.0)
) -> Callable:
    """Closed-form version of :func:`rescale` for arbitrary ``eps > 0``."""
    if not eps > 0:
        raise ValueError("scaling factor must be positive")
    cx, cy, cz = center

    def zoomed(X, Y, Z):
        out = func(cx + eps * X, cy + eps * Y, cz + eps * Z)
        if isinstance(out, tuple):
            return tuple(eps * np.asarray(c) for c in out)
        return eps * np.asarray(out)

    return zoomed


def _min_image(grid: Grid, center: Sequence[float]) -> tuple[np.ndarray, ...]:
    """Displacements from ``center`` folded to ``[-L/2, L/2)``, one per axis.

    Each is folded along its axis' ``n`` coordinates only, shaped ``(n, 1, 1)``,
    ``(1, n, 1)`` and ``(1, 1, n)`` to broadcast to the grid.
    """
    half = grid.length / 2.0
    x = grid.axis_coordinates
    folded = [(x - c + half) % grid.length - half for c in center]
    return np.meshgrid(*folded, indexing="ij", sparse=True)


def cell_box(grid: Grid, center: Sequence[float], radius: float) -> tuple[np.ndarray, ...]:
    """Cells whose folded displacement from ``center`` is at most ``radius`` along each axis.

    Three ascending index arrays, so a box that wraps still lists its cells
    in the grid's row-major order; it holds ``ball_mask(grid, center, radius)``.
    """
    return tuple(np.flatnonzero(d**2 <= radius**2) for d in _min_image(grid, center))


def _axis_index(index: np.ndarray) -> slice | np.ndarray:
    """A slice where the ascending ``index`` is contiguous, so that it takes no copy."""
    contiguous = index.size and index[-1] - index[0] == index.size - 1
    return slice(int(index[0]), int(index[-1]) + 1) if contiguous else index


def _cells(box: tuple) -> tuple:
    """The index of the last three axes that selects ``box``: slices where every axis allows."""
    axes = tuple(map(_axis_index, box))
    return (..., *(axes if all(isinstance(a, slice) for a in axes) else np.ix_(*box)))


def ball_mask(grid: Grid, center: Sequence[float], radius: float) -> np.ndarray:
    """Cells whose centers lie in the ball of given radius, wrapped around the box."""
    dx, dy, dz = _min_image(grid, center)
    return dx**2 + dy**2 + dz**2 <= radius**2


def ball_boundary_cells(grid: Grid, center: Sequence[float], radius: float) -> int:
    """Count of cells straddling the sphere, for volume error brackets."""
    dx, dy, dz = _min_image(grid, center)
    dist = np.sqrt(dx**2 + dy**2 + dz**2)
    half_diag = 0.5 * np.sqrt(3.0) * grid.spacing
    return int(np.count_nonzero(np.abs(dist - radius) <= half_diag))


# ---------------------------------------------------------------------------
# Binary snapshots
#
# Little-endian layout: magic "WLNS", version u32, n u32, length f64,
# time f64, field count u32 (always 3), then the three velocity components
# as n^3 float64 values each, with the x index varying fastest.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sII d d I")


def write_snapshot(path, time: float, u: VectorField) -> None:
    """Write ``u`` at ``path`` through a temporary file, so ``path`` is
    either absent or complete, even if the write is interrupted."""
    partial = Path(f"{path}.partial")
    try:
        with open(partial, "wb") as fh:
            head = (SNAPSHOT_MAGIC, SNAPSHOT_VERSION, u.grid.n, u.grid.length, float(time), 3)
            fh.write(_HEADER.pack(*head))
            for values in u.values:
                payload = np.ascontiguousarray(values.ravel(order="F"), dtype="<f8")
                fh.write(payload.tobytes())
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def read_snapshot_header(path) -> tuple[float, Grid]:
    """``(time, grid)`` of a velocity snapshot, checking its field count and exact size."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise SnapshotFormatError("truncated snapshot header")
    magic, version, n, length, time, count = _HEADER.unpack(head)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"unsupported snapshot version {version}")
    if count != 3:
        raise SnapshotFormatError(f"expected 3 fields, found {count}")
    grid = Grid(n=n, length=length)
    excess = os.path.getsize(path) - _HEADER.size - 3 * 8 * n**3
    if excess:
        raise SnapshotFormatError(
            "truncated snapshot payload" if excess < 0 else "trailing bytes after snapshot payload"
        )
    return time, grid


def read_vector_snapshot(path) -> tuple[float, VectorField]:
    time, grid = read_snapshot_header(path)
    n = grid.n
    values = np.empty((3, n, n, n))
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        for component in values:
            component[...] = np.frombuffer(fh.read(8 * n**3), "<f8").reshape((n, n, n), order="F")
    return time, VectorField(grid, values)


@dataclass(frozen=True)
class Trajectory:
    """Velocity snapshots on one grid at increasing ``times``.

    ``snapshots`` may be a one-shot iterator, read once and in order, so a
    long trajectory can stream from disk one snapshot at a time.
    """

    grid: Grid
    times: np.ndarray
    snapshots: Iterable[VectorField]


# ---------------------------------------------------------------------------
# CSV tables
#
# One header line of column names, then one line per row: the index column
# as ``str(int)`` and every other column as ``repr(float)``, so floats
# round-trip exactly.
# ---------------------------------------------------------------------------


def write_table(path, columns: dict, index: str | None = None) -> None:
    """Write equal-length named columns as a CSV table."""
    if len({len(col) for col in columns.values()}) > 1:
        raise ValueError("table columns must have equal lengths")
    cells = [
        map(str, np.asarray(col).astype(np.int64).tolist())
        if name == index
        else map(repr, np.asarray(col, dtype=np.float64).tolist())
        for name, col in columns.items()
    ]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))
