"""Z-order (Morton) space-filling curve.

Section IV-C of the paper linearizes the multi-dimensional grid over
each transformed plan space onto ``[0, 1]`` by z-ordering the grid
cells, so that per-plan point distributions can be stored in
unidimensional database histograms.  The z-order curve preserves
locality: points in the same grid cell share a z-value, and nearby
cells usually map to nearby z-values (with the occasional long jump
that the paper's *noise elimination* check compensates for).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.exceptions import ConfigurationError

#: Bits of a value each table lookup handles.
_BYTE = 8


def _spread_tables(
    targets: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Byte lookup tables that move bits, one per ``targets`` row.

    Table ``i`` maps byte ``k`` of a value: entry ``[i, k, v]`` places
    bit ``b`` of byte value ``v`` — bit ``8k + b`` of the value — at
    bit ``targets[i][8k + b]``; a negative target drops the bit.  The
    targets of one value are distinct, so summing its bytes' entries is
    the same as OR-ing them.  Returns the tables flattened, the flat
    offset of each ``(i, k)`` table row, and the shift of each byte.
    """
    chunks = -(-len(targets[0]) // _BYTE)
    padded = np.full((len(targets), chunks * _BYTE), -1, dtype=np.int64)
    padded[:, : len(targets[0])] = targets
    weights = np.where(padded >= 0, np.left_shift(1, np.maximum(padded, 0)), 0)
    byte_bits = (np.arange(256)[:, None] >> np.arange(_BYTE)) & 1
    tables = weights.reshape(len(targets), chunks, _BYTE) @ byte_bits.T
    offsets = np.arange(len(targets) * chunks).reshape(-1, chunks) * 256
    return tables.ravel(), offsets, _BYTE * np.arange(chunks)


def _gather(
    table: np.ndarray,
    offsets: np.ndarray,
    shifts: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """Look up every byte of ``values (n, ...)`` in the flat ``table``
    at the per-row ``offsets``: an ``(n, ..., chunks)`` int64 array
    (``values``' trailing axis broadcast against the table rows)."""
    return table.take(((values[..., None] >> shifts) & 0xFF) + offsets)


class ZOrderCurve:
    """Morton encoder/decoder for ``dims`` dimensions at ``bits`` per axis.

    Cell coordinates are integers in ``[0, 2**bits)``; codes are integers
    in ``[0, 2**(dims*bits))``.  :meth:`linearize` additionally maps
    continuous points in the unit cube directly to normalized z-values
    in ``[0, 1)``.

    Bit ``b`` of axis ``a`` lands at bit ``b * dims + (dims - 1 - a)`` of
    the code.  Interleaving runs by table lookup, not bit by bit: the
    curve precomputes a ``(dims, ceil(bits / 8), 256)`` table whose
    entry ``[a, k, v]`` is byte ``k`` of an axis-``a`` coordinate with
    value ``v``, already spread to its code bits, so a code is the sum
    of one gathered entry per (axis, byte) — a few numpy calls for any
    ``dims`` and ``bits``, and a few KiB per curve.
    """

    def __init__(self, dims: int, bits: int) -> None:
        if dims < 1:
            raise ConfigurationError("ZOrderCurve needs dims >= 1")
        if bits < 1 or dims * bits > 62:
            raise ConfigurationError(
                f"dims*bits must lie in [1, 62], got {dims * bits}"
            )
        self.dims = dims
        self.bits = bits
        self.cells_per_axis = 1 << bits
        self.total_codes = 1 << (dims * bits)
        self._spread = _spread_tables([
            np.arange(bits) * dims + (dims - 1 - axis) for axis in range(dims)
        ])

    # ------------------------------------------------------------------
    # Integer cell coordinates <-> Morton codes
    # ------------------------------------------------------------------
    def encode(self, coords: np.ndarray) -> np.ndarray:
        """Interleave integer cell coordinates ``(n, dims)`` into codes."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim == 1:
            coords = coords[None, :]
        if coords.shape[1] != self.dims:
            raise ConfigurationError(
                f"expected {self.dims} coordinates, got {coords.shape[1]}"
            )
        if (coords < 0).any() or (coords >= self.cells_per_axis).any():
            raise ConfigurationError("cell coordinate outside grid range")
        return self._interleave(coords)

    def _interleave(self, coords: np.ndarray) -> np.ndarray:
        """Codes of in-range coordinates ``(n, dims)``."""
        parts = _gather(*self._spread, coords)
        return np.add.reduce(parts.reshape(coords.shape[0], -1), axis=1)

    @cached_property
    def _compact(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The inverse table, built on first :meth:`decode`: entry
        ``[a, k, v]`` holds the axis-``a`` coordinate bits carried by
        code byte ``k`` with value ``v``."""
        positions = np.arange(self.dims * self.bits)
        owner = self.dims - 1 - positions % self.dims
        return _spread_tables([
            np.where(owner == axis, positions // self.dims, -1)
            for axis in range(self.dims)
        ])

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Invert :meth:`encode`: codes ``(n,)`` to coordinates ``(n, dims)``."""
        codes = np.asarray(codes, dtype=np.int64)
        scalar = codes.ndim == 0
        codes = np.atleast_1d(codes)
        if (codes < 0).any() or (codes >= self.total_codes).any():
            raise ConfigurationError("z-order code outside curve range")
        coords = _gather(*self._compact, codes[:, None]).sum(axis=2)
        if scalar:
            return coords[0]
        return coords

    # ------------------------------------------------------------------
    # Continuous points <-> normalized z-values
    # ------------------------------------------------------------------
    def linearize(self, points: np.ndarray) -> np.ndarray:
        """Map unit-cube points ``(n, dims)`` to z-values in ``[0, 1)``.

        Points are snapped to grid cells first, so two points in the
        same cell receive identical z-values — exactly the granularity
        the database histograms see.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        cells = (points * self.cells_per_axis).astype(np.int64)
        np.maximum(cells, 0, out=cells)
        np.minimum(cells, self.cells_per_axis - 1, out=cells)
        return self._interleave(cells) / self.total_codes

    def cell_extent(self) -> float:
        """Width of one cell on the normalized z-axis."""
        return 1.0 / self.total_codes
