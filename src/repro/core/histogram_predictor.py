"""APPROXIMATE-LSH-HISTOGRAMS: z-ordered synopses in database histograms.

Section IV-C replaces the per-grid cell arrays of APPROXIMATE-LSH with
database histograms: the cells of each transformed grid are linearized
onto ``[0, 1]`` by a z-order curve, and for every (transform, plan)
pair a histogram summarizes the distribution of that plan's points
along the z-axis, together with their average execution cost.  Density
around a test point becomes a histogram range query over
``[T(x) - delta, T(x) + delta]``, where ``2 * delta`` equals the volume
of the radius-``d`` hypersphere.

Two sanity checks keep the lossy summarization honest:

* **confidence** (Section IV-A) — the majority plan must dominate the
  z-range by enough margin; this suppresses the false positives a
  histogram bucket spanning non-contiguous z-intervals would cause;
* **noise elimination** — the majority plan's density must exceed a
  fixed fraction of the total sample count, suppressing z-order
  artifacts that place a few far-away points into the queried range.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.confidence import ConfidenceModel
from repro.core.point import SamplePool
from repro.core.predictor import (
    PlanPredictor,
    Prediction,
    median_over_transforms,
    median_supported,
)
from repro.core.relevance import apply_axis_weights
from repro.exceptions import ConfigurationError, HistogramError, PredictionError
from repro.histograms import (
    EquiDepthHistogram,
    EquiWidthHistogram,
    Histogram,
    MaxDiffHistogram,
    VOptimalHistogram,
)
from repro.histograms.packed import PackedHistograms, bucket_rows
from repro.lsh.grid import Grid
from repro.lsh.stacked import StackedEnsemble
from repro.lsh.transforms import TransformEnsemble
from repro.lsh.zorder import ZOrderCurve
from repro.obs.tracing import untraced

from repro.geometry import ball_volume

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import _TemplateEmitter
    from repro.obs.tracing import DecisionTrace

_STATIC_BUILDERS = {
    "maxdiff": MaxDiffHistogram,
    "equidepth": EquiDepthHistogram,
    "equiwidth": EquiWidthHistogram,
    "voptimal": VOptimalHistogram,
}


class HistogramPredictor(PlanPredictor):
    """The paper's flagship structure: LSH + z-order + histograms."""

    def __init__(
        self,
        pool: SamplePool,
        plan_count: "int | None" = None,
        transforms: int = 5,
        resolution: int = 16,
        max_buckets: int = 40,
        radius: float = 0.05,
        confidence_threshold: float = 0.7,
        noise_fraction: "float | None" = None,
        histogram_kind: str = "maxdiff",
        output_dims: "int | None" = None,
        aggregation: str = "median",
        axis_weights: "np.ndarray | None" = None,
        seed: "int | np.random.Generator | None" = 0,
        confidence_model: "ConfidenceModel | None" = None,
    ) -> None:
        if resolution < 2 or resolution & (resolution - 1):
            raise ConfigurationError("resolution must be a power of two >= 2")
        if histogram_kind not in (*_STATIC_BUILDERS, "incremental"):
            raise ConfigurationError(
                f"unknown histogram kind {histogram_kind!r}"
            )
        if radius <= 0.0:
            raise PredictionError("radius must be > 0")
        if max_buckets < 1:
            raise HistogramError("max_buckets must be >= 1")
        if aggregation not in ("median", "mean"):
            raise ConfigurationError(f"unknown aggregation {aggregation!r}")
        self.dimensions = pool.dimensions
        self.radius = radius
        self.confidence_threshold = confidence_threshold
        self.noise_fraction = noise_fraction
        self.max_buckets = max_buckets
        self.histogram_kind = histogram_kind
        self.aggregation = aggregation
        self.axis_weights = (
            None if axis_weights is None
            else np.asarray(axis_weights, dtype=float)
        )
        self.model = confidence_model or ConfidenceModel()

        # Default s = r; pass output_dims < r explicitly for
        # dimensionality reduction (useful only on redundant axes).
        self.ensemble = TransformEnsemble(
            transforms,
            self.dimensions,
            output_dims=output_dims,
            resolution=resolution,
            seed=seed,
        )
        self.grids = [
            Grid(*transform.output_bounds, resolution)
            for transform in self.ensemble
        ]
        output_dims = self.ensemble.transforms[0].output_dims
        bits = int(math.log2(resolution))
        if output_dims * bits > 62:
            bits = max(1, 62 // output_dims)
        self.curve = ZOrderCurve(output_dims, bits)
        self._rebuild_stacked()

        # 2*delta = volume of the radius-d hypersphere (Section IV-C),
        # floored at one z-order cell so tiny radii still see the
        # containing cell.
        self.delta = max(
            ball_volume(radius, self.dimensions) / 2.0,
            self.curve.cell_extent(),
        )

        if plan_count is None:
            if len(pool) == 0:
                raise PredictionError(
                    "APPROXIMATE-LSH-HISTOGRAMS needs samples "
                    "or an explicit plan count"
                )
            plan_count = int(pool.plan_ids.max()) + 1
        self.plan_count = plan_count
        #: ``_packed`` is the synopsis store for the predictor's whole
        #: life: every (transform, plan) histogram's buckets in one
        #: block, which the density lookup reads and every write changes
        #: in place.  The block keeps the books (version, totals,
        #: journal); no emitter is bound yet, so building it
        #: journals nothing.
        self._packed = PackedHistograms.from_buckets(
            [[[]] * plan_count for __ in self.ensemble]
        )
        if histogram_kind == "incremental" or len(pool) == 0:
            for point in pool.points():
                self.insert(point.coords, point.plan_id, point.cost)
        else:
            self.load_histograms(
                bucket_rows(self._static_histograms(pool)),
                len(pool),
                float(len(pool)),
            )

    def _rebuild_stacked(self) -> None:
        """(Re)build the struct-of-arrays transform/grid view.

        Derived state: must be called again after ``ensemble`` or
        ``grids`` are replaced wholesale (persistence restore does).
        """
        self._stacked = StackedEnsemble(
            self.ensemble, self.grids, curve=self.curve
        )

    @property
    def mutation_count(self) -> int:
        """Number of synopsis writes so far (the block's version): each
        of the block's writers adds one, so two equal reads bracket no
        change to what a lookup answers."""
        return self._packed.version

    @property
    def total_points(self) -> int:
        """Number of points inserted (integer, weight-independent)."""
        return self._packed.total_points

    @property
    def total_mass(self) -> float:
        """Total inserted mass: verified points carry weight 1, positive
        feedback inserts discounted weights.  Noise elimination compares
        against this, matching the weighted bucket counts."""
        return self._packed.total_mass

    def bind_events(self, emitter: "_TemplateEmitter") -> None:
        """Attach a lifecycle event emitter (``repro.obs.events``): the
        block journals every later write through it.

        Late binding: the constructor's pool replay runs before any
        emitter exists, so the journal records the synopsis *going
        live* (one ``histogram_built`` event) and every write after
        that, not the seed replay.  Going live is not a write: it
        journals without bumping ``mutation_count``.
        """
        self._packed.bind(emitter)
        emitter("histogram_built", **self._built_fields())

    def _built_fields(self) -> dict:
        """Fields of the ``histogram_built`` event."""
        return {
            "histogram_kind": self.histogram_kind,
            "transforms": len(self.ensemble),
            "plans": self.plan_count,
            "points": self.total_points,
        }

    # ------------------------------------------------------------------
    # Construction / population
    # ------------------------------------------------------------------
    def _static_histograms(self, pool: SamplePool) -> list[list[Histogram]]:
        """One row of static ``histogram_kind`` histograms per
        transform, built over the whole pool at once."""
        builder = _STATIC_BUILDERS[self.histogram_kind]
        plan_ids = pool.plan_ids
        costs = pool.costs
        masks = [plan_ids == plan for plan in range(self.plan_count)]
        return [
            [
                builder.build(
                    z_values[mask], costs[mask], bucket_count=self.max_buckets
                )
                for mask in masks
            ]
            for z_values in self._z_values_batch(pool.coords)
        ]

    def _z_values_batch(self, points: np.ndarray) -> np.ndarray:
        """z-values ``(t, m)`` of each point under every transform,
        unchecked: the points must be finite ``(m, r)`` rows."""
        return self._stacked.z_values(
            apply_axis_weights(points, self.axis_weights)
        )

    def insert(
        self,
        x: np.ndarray,
        plan_id: int,
        cost: float = 0.0,
        weight: float = 1.0,
        provenance: str = "direct",
        z: "np.ndarray | None" = None,
    ) -> None:
        """Add one labeled point (incremental predictors only).

        ``weight < 1`` inserts a discounted point — used by the
        positive-feedback extension for unverified predictions.

        ``provenance`` names the decision-flow origin of the point
        (``cache_miss`` / ``exploration`` / ``negative_feedback`` /
        ``positive_feedback`` / ``direct``) and is journaled with the
        ``point_inserted`` lifecycle event; it never affects the insert.

        ``z`` hands over the point's ``(t,)`` z-values from a z pass
        the caller already made (a decision inserts the point its
        predict has just transformed: :meth:`z_values`); ``x`` is then
        not transformed again.  Without it the insert makes its own
        pass over the checked ``x``.

        The insert is atomic across transforms: the kind, the weight,
        and every z-value are validated up front, so a rejected insert
        leaves no row partially mutated.
        """
        if z is None:
            z = self._z_values_batch(self._check_point(x)[None, :])[:, 0]
        if weight <= 0.0:
            raise PredictionError("insertion weight must be > 0")
        if self.histogram_kind != "incremental":
            raise PredictionError(
                "histogram kind "
                f"{self.histogram_kind!r} does not support insertion; "
                "use histogram_kind='incremental'"
            )
        self._packed.insert(
            plan_id, z, cost, weight, self.max_buckets, provenance
        )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def z_values(
        self, points: np.ndarray, trace: "DecisionTrace | None" = None
    ) -> np.ndarray:
        """The validated z pass: z-values ``(t, m)`` of each point of a
        batch under every transform (span ``z_values``): one stacked
        pass for a block, the compiled one-point program for one point
        (:meth:`StackedEnsemble.z_values`), the same bits either way.

        The batch is checked first (:meth:`_check_batch`: shape errors
        and non-finite rows raise, exactly like the scalar guard).  The
        result feeds :meth:`predict_z` (a block: :meth:`lookup` and
        :meth:`decide`) and :meth:`insert`, so a caller that predicts a
        point and then inserts it transforms it once.
        """
        points = self._check_batch(points)
        if not points.shape[0]:
            return np.empty((len(self.ensemble), 0))
        if trace is None:
            trace = untraced()
        with trace.span("z_values"):
            return self._z_values_batch(points)

    def lookup(self, z_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Density lookup: ``(counts, avg_costs)``, each ``(t, plans,
        m)``, of every (transform, plan) range query
        ``[z - delta, z + delta]``, in one vectorized pass over the
        packed block.  The block form, untraced: one point's lookup is
        :meth:`predict_z`'s, which gives the same bits and opens the
        ``density_lookup`` span.
        """
        return self._packed.query(
            z_values - self.delta, z_values + self.delta
        )

    def _aggregate(self, estimates: np.ndarray) -> np.ndarray:
        """Median (or mean, under the ablation) over the transform axis."""
        if self.aggregation == "mean":
            return estimates.mean(axis=0)
        return median_over_transforms(estimates)

    def _winner_costs(
        self,
        counts: np.ndarray,
        avg_costs: np.ndarray,
        winners: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized cost estimate for each point's winning plan.

        Selects the winner's per-transform (count, avg cost) columns
        from the ``(t, plans, m)`` estimate arrays and medians the
        averages over the transforms holding mass.  NULL rows
        (``winners < 0``) are gathered against plan 0 merely to keep
        the gather in bounds; callers never read them.
        """
        columns = np.arange(winners.shape[0])
        safe = np.maximum(winners, 0)
        return median_supported(
            avg_costs[:, safe, columns],
            counts[:, safe, columns] > 0.0,
        )

    def predict(
        self, x: np.ndarray, trace: "DecisionTrace | None" = None
    ) -> "Prediction | None":
        """A thin wrapper over a batch of one: ``predict_batch(x[None,
        :])[0]``, whose check of that one-row batch is the only
        validation.  An active ``trace`` goes through
        :meth:`_predict_traced`: the same check and z pass, then the
        one-point step :meth:`predict_z`, which decides the same bits
        and fills the trace's payloads."""
        if trace is not None and trace.active:
            return self._predict_traced(x, trace)
        return self.predict_batch(np.asarray(x, dtype=float).reshape(1, -1))[0]

    def _predict_traced(
        self, x: np.ndarray, trace: "DecisionTrace"
    ) -> "Prediction | None":
        """:meth:`predict` on an active trace: the validated z pass of
        the one-row batch, then the one-point step :meth:`predict_z`,
        which annotates the spans.

        A separate method so that layer timing
        (``benchmarks/e2e/layers.py``) can tell traced predicts from
        untraced ones.
        """
        z_values = self.z_values(
            np.asarray(x, dtype=float).reshape(1, -1), trace
        )
        return self.predict_z(z_values[:, 0], trace)

    def predict_batch(self, points: np.ndarray) -> "list[Prediction | None]":
        """Vectorized prediction for a whole point batch: the validated
        z pass (:meth:`z_values`), the density lookup (:meth:`lookup`)
        and :meth:`decide` — the operation the runtime simulation
        charges as "prediction overhead".  An empty ``(0, r)`` batch
        returns ``[]``.  It takes no trace: a traced decision is one
        point's, through :meth:`predict_z`."""
        z_values = self.z_values(points)
        if z_values.shape[1] == 0:
            return []
        return self.decide(z_values, *self.lookup(z_values))

    def decide(
        self,
        z_values: np.ndarray,
        counts_tpm: np.ndarray,
        avg_costs: np.ndarray,
    ) -> "list[Prediction | None]":
        """The block decision: a prediction (or ``None``) per column of
        the ``(t, plans, m)`` estimates of :meth:`lookup` at the ``(t,
        m)`` ``z_values``.

        Aggregation, noise elimination, the confidence decision and the
        winner cost estimates are fully vectorized, and every step is
        elementwise per column, so a column's decision does not depend
        on the batch around it.  Noise elimination reads the current
        ``total_mass``.  The block form, untraced: one point is decided
        by :meth:`predict_z`, bit for bit as its column is here, in the
        spans a traced decision shows.
        """
        m = z_values.shape[1]
        counts = self._aggregate(counts_tpm)  # (plans, m)
        noisy = (
            counts.max(axis=0) < self.noise_fraction * self.total_mass
            if self.noise_fraction is not None and self.total_mass > 0
            else None
        )
        winners, confidences = self.model.decide_batch(
            counts.T, self.confidence_threshold
        )
        if noisy is not None:
            winners = np.where(noisy, -1, winners)
        plans = winners.tolist()
        # A vote with no winner reads no cost: skip the median.
        estimates = [None] * m
        if max(plans, default=-1) >= 0:
            medians, any_support = self._winner_costs(
                counts_tpm, avg_costs, winners
            )
            estimates = [
                median if plan >= 0 and supported else None
                for plan, median, supported in zip(
                    plans, medians.tolist(), any_support.tolist()
                )
            ]
        return [
            None if plan < 0 else Prediction(plan, confidence, estimate)
            for plan, confidence, estimate in zip(
                plans, confidences.tolist(), estimates
            )
        ]

    def predict_z(
        self, z: np.ndarray, trace: "DecisionTrace | None" = None
    ) -> "Prediction | None":
        """The one-point predict step: the density lookup and the
        decision at one point's ``(t,)`` z-values, with the plan,
        confidence and cost-estimate bits of ``decide(z[:, None],
        *lookup(z[:, None]))[0]``, in the spans those two open.

        The lookup is the block's one-point query
        (:meth:`PackedHistograms.query_point`) over bounds formed in
        Python floats; the decision aggregates with :meth:`_aggregate`
        and then runs in floats: the first maximum of the aggregated
        row, its confidence from ``model.confidence`` (the one-row
        arithmetic of :meth:`ConfidenceModel.decide_batch`, with
        numpy's sum of the row), and the median average cost of the
        winner over the transforms holding its mass, as
        :func:`median_supported` takes it.

        On an active ``trace`` the spans also carry the stage's inputs
        and verdict: per-transform ``transform`` spans (z-value and
        range, per-plan counts and average costs, the transform's
        vote), then the ``aggregate``, ``noise_elimination``,
        ``confidence`` (γ, the ``c_max``/``sum(others)`` counts, their
        ratio, ``pure``/``mixed`` model, ``sin_theta``, pass/fail) and
        ``cost_estimate`` payloads.  The decision is the same either
        way.
        """
        if trace is None:
            trace = untraced()
        values = z.tolist()
        lo = [value - self.delta for value in values]
        hi = [value + self.delta for value in values]
        with trace.span("density_lookup"):
            mass, cost = self._packed.query_point(lo, hi)
        traced = trace.active
        if traced:
            self._trace_transforms(trace, values, lo, hi, mass, cost)
        with trace.span("aggregate") as span:
            counts = self._aggregate(mass)
            aggregated = counts.tolist()
            c_max = max(aggregated)
            if traced:
                span.set(method=self.aggregation, counts=aggregated)
        with trace.span("noise_elimination") as span:
            total_mass = self.total_mass
            threshold = (
                None
                if self.noise_fraction is None
                else self.noise_fraction * total_mass
            )
            noisy = (
                threshold is not None and total_mass > 0 and c_max < threshold
            )
            if traced:
                span.set(
                    max_count=c_max,
                    total_mass=total_mass,
                    noise_fraction=self.noise_fraction,
                    threshold=threshold,
                    eliminated=noisy,
                )
        with trace.span("confidence") as span:
            others = float(counts.sum()) - c_max
            confidence = self.model.confidence(c_max, others)
            passed = confidence > self.confidence_threshold and c_max > 0.0
            winner = aggregated.index(c_max)
            if traced:
                span.set(
                    gamma=float(self.confidence_threshold),
                    winner=winner if c_max > 0.0 else None,
                    max_count=c_max,
                    other_count=others,
                    ratio=(
                        c_max / others
                        if c_max > 0.0 and others > 0.0
                        else None
                    ),
                    model=(
                        "null" if c_max <= 0.0
                        else "mixed" if others > 0.0
                        else "pure"
                    ),
                    sin_theta=confidence,
                    passed=passed,
                )
        plan = winner if passed and not noisy else None
        with trace.span("cost_estimate") as span:
            estimate = None
            if plan is not None:
                # The winner's average cost where it holds mass, sorted;
                # the middle pair averaged, as ``median_supported`` does.
                kept = sorted(
                    total / max(weight, 1e-300)
                    for weight, total in zip(
                        mass[:, plan].tolist(), cost[:, plan].tolist(), strict=True
                    )
                    if weight > 0.0
                )
                if kept:
                    k = len(kept)
                    estimate = (kept[(k - 1) // 2] + kept[k // 2]) / 2.0
            if traced:
                span.set(plan=plan, estimated_cost=estimate)
        return None if plan is None else Prediction(plan, confidence, estimate)

    def _trace_transforms(
        self,
        trace: "DecisionTrace",
        values: list[float],
        lo: list[float],
        hi: list[float],
        mass: np.ndarray,
        cost: np.ndarray,
    ) -> None:
        """One ``transform`` span per transform of a traced
        :meth:`predict_z`: its z-value and range, per-plan counts and
        average costs (``None`` without mass, else :meth:`lookup`'s
        bits) and its vote."""
        rows = zip(values, lo, hi, mass.tolist(), cost.tolist(), strict=True)
        for index, (z, low, high, row, sums) in enumerate(rows):
            with trace.span("transform") as span:
                top = max(row)
                span.set(
                    index=index,
                    z=z,
                    z_range=[low, high],
                    counts=row,
                    avg_costs=[
                        total / max(count, 1e-300) if count > 0 else None
                        for total, count in zip(sums, row, strict=True)
                    ],
                    vote=row.index(top) if top > 0.0 else None,
                )

    def cell_densities(self, probes: int = 64) -> np.ndarray:
        """Density mass per (transform, plan, z-cell): shape
        ``(t, plan_count, probes)``.

        Tiles the z-axis ``[0, 1]`` into ``probes`` equal cells and
        answers every (transform, plan) range count through the packed
        block's tiled query — the read-only synopsis view the quality
        scorecard aggregates into coverage/purity/entropy.  Never
        mutates predictor state.
        """
        if probes < 1:
            raise ConfigurationError("probes must be >= 1")
        return self._packed.tiles(np.linspace(0.0, 1.0, probes + 1))

    def drop(self) -> None:
        """Drop every histogram and restart from scratch, learning
        incrementally from then on (Section IV-E: the reaction to a
        detected plan-space change)."""
        self.histogram_kind = "incremental"
        self._packed.clear()

    def shrink(self, max_buckets: int) -> None:
        """Cut the bucket budget to ``max_buckets``: an incremental
        predictor merges every row down to it (the memory governor's
        recall-for-space dial); static histograms keep theirs, so their
        rows, version and journal do not move."""
        if max_buckets < 1:
            raise HistogramError("max_buckets must be >= 1")
        if self.histogram_kind == "incremental":
            self._packed.shrink(max_buckets)
        self.max_buckets = max_buckets

    def load_histograms(
        self,
        rows: "Sequence[Sequence[Sequence[Sequence[float]]]]",
        total_points: int,
        total_mass: float,
    ) -> None:
        """Replace every row with ``rows`` (one ``(lo, hi, count,
        cost_sum)`` bucket list per (transform, plan)) and the totals
        with those given, in place — the persistence restore path and
        the static build."""
        self._packed.load(rows, total_points, total_mass)

    def space_bytes(self) -> int:
        """``t * n_plans * b_h * 12`` bytes; actual bucket counts may be
        below the ``b_h`` cap."""
        return self._packed.space_bytes()
