"""Struct-of-arrays fast path over a transform ensemble.

The predictors of Section IV evaluate the same point under ``t``
independently randomized transforms.  Looping Python over the ensemble
costs ``t`` interpreter round-trips per prediction; this module
flattens the per-transform direction matrices, translations and grid
bounds into contiguous arrays so one numpy pass answers *all* ``t``
transforms for a whole point batch at once — the layout behind
``predict_batch`` being the primitive.

Numerical contract: every reduction runs along the trailing axis of a
contiguous array, so each output element is computed from its own data
strip regardless of how many points (or transforms) ride in the batch.
That makes a batch of one bitwise identical to any row of a larger
batch, so seeded experiment results do not depend on how points are
batched.

The z pass has a second rendering for one point.  Ten numpy calls over
a one-row batch cost more in dispatch than in arithmetic, so
:meth:`StackedEnsemble.z_values` hands a one-row batch to a compiled
program (:func:`compile_point`): straight-line Python over the point's
``r`` floats, every direction, translation and grid bound inlined as a
literal, each operation in the stacked pass's IEEE order.  The order of
a sum is part of that: ``np.add.reduce`` over a short contiguous axis
is numpy's pairwise sum, and the program writes each dot product and
the norm out in exactly that order (:func:`_pairwise_source`).  A block
keeps the stacked pass.  The two renderings agree bit for bit
(``tests/lsh/test_point_program.py``; ``repro bench run write_path``
checks it too).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError

#: Largest float below 1: the top of the unit interval z_values clips to.
_BELOW_ONE = float(np.nextafter(1.0, 0.0))

#: numpy's pairwise-summation block: ``np.add.reduce`` over a
#: contiguous axis of at most this many terms sums them in the order
#: :func:`_pairwise_source` writes out.  A longer axis is split
#: recursively, so the one-point program declines more input dimensions.
_PAIRWISE_BLOCK = 128

#: One point's program: the point's ``r`` coordinates as Python floats
#: in, one float per transform out (see :func:`compile_point`).
PointProgram = Callable[..., list[float]]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lsh.grid import Grid
    from repro.lsh.transforms import TransformEnsemble
    from repro.lsh.zorder import ZOrderCurve


class StackedEnsemble:
    """Columnar view of a :class:`TransformEnsemble` plus its grids.

    Holds the ``t`` direction matrices stacked into one ``(t*s, r)``
    block and the grid bounds/cell widths as ``(t, s)`` arrays.  The
    view is derived state: rebuild it (predictors do, via their
    ``_rebuild_stacked`` hook) whenever the underlying transforms or
    grids are replaced wholesale, e.g. by persistence restore.  So is
    the one-point program, which inlines these arrays: it is compiled on
    the first one-point :meth:`z_values`, never at construction, and a
    pickle or deep copy drops it and compiles its own.
    """

    def __init__(
        self,
        ensemble: "TransformEnsemble",
        grids: "list[Grid]",
        curve: "ZOrderCurve | None" = None,
    ) -> None:
        transforms = list(ensemble)
        if len(transforms) != len(grids):
            raise ConfigurationError(
                "stacked ensemble needs one grid per transform"
            )
        first = transforms[0]
        self.count = len(transforms)
        self.input_dims = first.input_dims
        self.output_dims = first.output_dims
        self.radius = first.radius
        self.cube_half_width = first.cube_half_width
        for transform in transforms:
            if (
                transform.input_dims != self.input_dims
                or transform.output_dims != self.output_dims
            ):
                raise ConfigurationError(
                    "ensemble members must share input/output dimensions"
                )
        self.directions = np.concatenate(
            [transform.directions for transform in transforms], axis=0
        )
        self.translations = np.concatenate(
            [transform.translations for transform in transforms]
        )
        self.grid_lo = np.stack([grid.lo for grid in grids])
        self.grid_span = np.stack([grid.hi - grid.lo for grid in grids])
        self.cell_widths = np.stack([grid.cell_widths for grid in grids])
        self.resolution = grids[0].resolution
        self.curve = curve
        #: The batch shape :meth:`z_values` hands to the one-point
        #: program (none past numpy's pairwise block), and the program.
        self._point_shape = (
            (1, self.input_dims)
            if self.input_dims <= _PAIRWISE_BLOCK else None
        )
        self._program: "PointProgram | None" = None

    def __getstate__(self) -> dict:
        """Pickle (and deep copy) without the compiled program: a
        function made by ``exec`` does not pickle, and the copy compiles
        its own on first use."""
        return {**self.__dict__, "_program": None}

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Unit-cube points ``(m, r)`` to ``(t, m, s)`` coordinates.

        Stages 1-3 (center, scale, radial stretch) depend only on the
        input dimensionality, so they run once and feed all ``t``
        projections; stages 4-5 run as one stacked multiply-sum.
        """
        points = np.asarray(points, dtype=float)
        centered = (points - 0.5) * (2.0 * self.cube_half_width)
        # np.linalg.norm(centered, axis=1), bit for bit, without its
        # per-call dispatch.
        norms = np.sqrt(np.add.reduce(centered * centered, axis=1))
        max_components = np.maximum.reduce(np.abs(centered), axis=1)
        factors = np.divide(
            self.radius * max_components,
            self.cube_half_width * norms,
            out=np.ones_like(norms),
            where=norms > 0.0,
        )
        stretched = centered * factors[:, None]
        # Explicit multiply + trailing-axis sum instead of BLAS `@`:
        # gemv/gemm may round dot products differently across batch
        # shapes, and the parity contract forbids that.
        projected = np.add.reduce(
            stretched[:, None, :] * self.directions[None, :, :], axis=2
        )
        projected += self.translations
        return projected.reshape(
            points.shape[0], self.count, self.output_dims
        ).transpose(1, 0, 2)

    def cell_ids(self, points: np.ndarray) -> np.ndarray:
        """Flat (row-major) grid cell ids ``(t, m)`` of each point."""
        transformed = self.transform(points)
        relative = (
            transformed - self.grid_lo[:, None, :]
        ) / self.cell_widths[:, None, :]
        coords = np.clip(
            relative.astype(np.int64), 0, self.resolution - 1
        )
        ids = np.zeros(coords.shape[:2], dtype=np.int64)
        for axis in range(self.output_dims):
            ids = ids * self.resolution + coords[..., axis]
        return ids

    def z_values(self, points: np.ndarray) -> np.ndarray:
        """Normalized z-order values ``(t, m)`` of each (finite) point.

        A one-row batch runs the compiled one-point program
        (:func:`compile_point`), any other the stacked pass: the same
        bits either way.
        """
        if self.curve is None:
            raise ConfigurationError(
                "stacked ensemble was built without a z-order curve"
            )
        points = np.asarray(points, dtype=float)
        if points.shape == self._point_shape:
            if self._program is None:
                self._program = compile_point(self)
            return np.array(self._program(*points[0].tolist()))[:, None]
        unit = self.transform(points) - self.grid_lo[:, None, :]
        unit /= self.grid_span[:, None, :]
        # np.clip's wrapper costs more than the clip on a small batch.
        np.maximum(unit, 0.0, out=unit)
        np.minimum(unit, _BELOW_ONE, out=unit)
        flat = unit.reshape(-1, self.output_dims)
        return self.curve.linearize(flat).reshape(self.count, -1)


# ----------------------------------------------------------------------
# The one-point program
# ----------------------------------------------------------------------


def _literal(value: "int | float") -> str:
    """A constant as program source: only a finite ``int`` or ``float``
    is ever emitted, so ``repr`` is an exact literal.  Transforms can
    come from a snapshot, so anything else raises."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ConfigurationError(
            f"z program constant must be a finite number, got {value!r}"
        )
    return repr(value)


def _pairwise_source(terms: list[str]) -> str:
    """The sum of ``terms`` as one expression, in numpy's order.

    ``np.add.reduce`` over a contiguous axis of ``n`` terms is numpy's
    pairwise sum.  Below eight terms it adds left to right from
    ``0.0``.  From eight to :data:`_PAIRWISE_BLOCK` it runs eight
    strided accumulators, combines them as ``((r0 + r1) + (r2 + r3)) +
    ((r4 + r5) + (r6 + r7))`` and then adds the remainder left to
    right.  Floating-point addition does not associate, so any other
    order rounds some sums differently.
    """
    if len(terms) < 8:
        return " + ".join(["0.0", *terms])
    stop = len(terms) - len(terms) % 8
    acc = terms[:8]
    for start in range(8, stop, 8):
        acc = [
            f"({total} + {term})"
            for total, term in zip(acc, terms[start:start + 8], strict=True)
        ]
    head = (
        f"(({acc[0]} + {acc[1]}) + ({acc[2]} + {acc[3]}))"
        f" + (({acc[4]} + {acc[5]}) + ({acc[6]} + {acc[7]}))"
    )
    return " + ".join([f"({head})", *terms[stop:]])


def _point_source(stacked: StackedEnsemble) -> tuple[list[str], dict]:
    """The one-point program's body lines and its namespace.

    The lines follow :meth:`StackedEnsemble.transform` and
    :meth:`StackedEnsemble.z_values` step for step: centre, scale and
    stretch the point ``x0 .. x{r-1}`` (``c*``, ``s*``); each of the
    ``t*s`` projections ``p*``; each grid-normalized, clipped coordinate
    ``u*``; and each transform's z-value ``z*``, its cells interleaved
    through per-(axis, byte) lists of the curve's spread table, which
    the stacked view must have.
    """
    dims = stacked.input_dims
    half = stacked.cube_half_width
    lines = [
        f"c{i} = (x{i} - 0.5) * {_literal(2.0 * half)}" for i in range(dims)
    ]
    squares = [f"c{i} * c{i}" for i in range(dims)]
    lines.append(f"norm = _sqrt({_pairwise_source(squares)})")
    signed = ", ".join(f"c{i}, -c{i}" for i in range(dims))
    lines.append(f"top = max({signed})")
    lines.append(
        f"factor = {_literal(stacked.radius)} * top"
        f" / ({_literal(half)} * norm) if norm > 0.0 else 1.0"
    )
    lines += [f"s{i} = c{i} * factor" for i in range(dims)]
    translations = stacked.translations.tolist()
    for j, direction in enumerate(stacked.directions.tolist()):
        products = [f"s{i} * {_literal(d)}" for i, d in enumerate(direction)]
        lines.append(
            f"p{j} = ({_pairwise_source(products)})"
            f" + {_literal(translations[j])}"
        )
    namespace: dict = {"_sqrt": math.sqrt}
    curve = stacked.curve
    table, offsets, shifts = curve._spread
    entries = min(256, curve.cells_per_axis)
    for axis, row in enumerate(offsets.tolist()):
        for byte, offset in enumerate(row):
            namespace[f"_spread{axis}_{byte}"] = table[
                offset:offset + entries
            ].tolist()
    cells = _literal(float(curve.cells_per_axis))
    top = _literal(_BELOW_ONE)
    codes = _literal(float(curve.total_codes))
    grid_lo, grid_span = stacked.grid_lo.tolist(), stacked.grid_span.tolist()
    width = stacked.output_dims
    for k in range(stacked.count):
        parts = []
        for axis in range(width):
            j = k * width + axis
            lines += [
                f"u{j} = (p{j} - {_literal(grid_lo[k][axis])})"
                f" / {_literal(grid_span[k][axis])}",
                f"u{j} = 0.0 if u{j} < 0.0 else {top} if u{j} > {top} else u{j}",
                f"cell{j} = int(u{j} * {cells})",
            ]
            if len(shifts) == 1:
                parts.append(f"_spread{axis}_0[cell{j}]")
                continue
            parts += [
                f"_spread{axis}_{byte}[(cell{j} >> {shift}) & 255]"
                for byte, shift in enumerate(shifts.tolist())
            ]
        lines.append(f"z{k} = ({' + '.join(parts)}) / {codes}")
    return lines, namespace


def compile_point(
    stacked: StackedEnsemble, projections: bool = False
) -> PointProgram:
    """One straight-line function for one point's z pass.

    It takes the point's ``r`` coordinates as Python floats and returns
    the ``t`` z-values of :meth:`StackedEnsemble.z_values`, bit for bit
    — or, with ``projections``, the ``t*s`` projections of
    :meth:`StackedEnsemble.transform` in its ``(t, s)`` row-major order,
    which the parity tests compare.  The point must be finite.
    """
    lines, namespace = _point_source(stacked)
    if projections:
        returned = [f"p{j}" for j in range(len(stacked.translations))]
    else:
        returned = [f"z{k}" for k in range(stacked.count)]
    lines.append(f"return [{', '.join(returned)}]")
    params = ", ".join(f"x{i}" for i in range(stacked.input_dims))
    body = "".join(f"    {line}\n" for line in lines)
    exec(
        compile(f"def program({params}):\n{body}", "<z program>", "exec"),
        namespace,
    )
    # Popped, so its globals do not hold it: no cycle outlives a predictor.
    return namespace.pop("program")
