"""The benchmark's workloads and the seeded generators that feed them.

Inputs are made here from ``--seed`` alone, with
``numpy.random.default_rng``, and never through ``repro.workload``: a
change under test cannot alter what the benchmark sends.  Points are
plan-space coordinates; ``run.py`` turns them into query instances with
``service.instance_at`` once, before any timing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Instances a trajectory workload is split across (the paper's
#: random-trajectory workload uses several independent cursors).
TRAJECTORIES = 10
#: Standard deviation of one cursor step, and the momentum that carries
#: the previous velocity into the next step.
STEP_SCALE = 0.03
MOMENTUM = 0.8


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the service configuration that serves it."""

    name: str
    why: str
    #: Templates registered at set-up, in order; mixed by Zipf(1)
    #: popularity in this order when there is more than one.
    templates: tuple[str, ...]
    #: Gaussian offset ``r_d`` of each instance around its cursor.
    spread: float
    #: Untimed instances executed before the timed ones.
    warmup: int
    #: Timed instances.
    timed: int
    #: Instances per ``execute_batch`` call; 1 means scalar ``execute``.
    batch: int = 1
    #: Every observability channel on (journal, profiler, telemetry on
    #: a virtual clock advanced per instance).
    observed: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="q1_hot",
            why=(
                "Q1 (2-d) at spread 0.01 after warm-up: mostly cache hits, "
                "so the density lookup and fixed per-decision overhead "
                "dominate"
            ),
            templates=("Q1",),
            spread=0.01,
            warmup=500,
            timed=2000,
        ),
        Workload(
            name="q5_wide",
            why=(
                "Q5 (4-d) at spread 0.15 from cold: nearly every instance "
                "calls the optimizer and inserts, the write-heavy twin of "
                "q1_hot"
            ),
            templates=("Q5",),
            spread=0.15,
            warmup=0,
            timed=800,
        ),
        Workload(
            name="batch_prepared",
            why=(
                "16-instance same-template blocks over Q0-Q3 and Q8 through "
                "execute_batch: the only workload on the vectorized "
                "predict_batch path"
            ),
            templates=("Q0", "Q1", "Q2", "Q3", "Q8"),
            spread=0.02,
            warmup=0,
            timed=3200,
            batch=16,
        ),
        Workload(
            name="mixture_observed",
            why=(
                "seven templates interleaved by Zipf with journal, profiler "
                "and telemetry on: the production-shaped mix and the largest "
                "set-up"
            ),
            templates=("Q0", "Q1", "Q2", "Q3", "Q4", "Q5", "Q8"),
            spread=0.02,
            warmup=0,
            timed=1500,
            observed=True,
        ),
    )
}


def trajectory(
    rng: np.random.Generator, dimensions: int, count: int, spread: float
) -> np.ndarray:
    """``count`` points along :data:`TRAJECTORIES` momentum random walks.

    Each cursor starts uniformly in ``[0, 1]^d``, reflects off the
    walls, and emits one instance per step at a Gaussian offset of
    standard deviation ``spread``, clipped into the unit cube.  Points
    come out cursor by cursor, preserving temporal locality.
    """
    sizes = [
        count // TRAJECTORIES + (1 if i < count % TRAJECTORIES else 0)
        for i in range(TRAJECTORIES)
    ]
    points = np.empty((count, dimensions))
    row = 0
    for size in sizes:
        cursor = rng.uniform(0.0, 1.0, size=dimensions)
        velocity = rng.normal(0.0, STEP_SCALE, size=dimensions)
        for __ in range(size):
            offset = rng.normal(0.0, spread, size=dimensions)
            points[row] = np.clip(cursor + offset, 0.0, 1.0)
            row += 1
            velocity = MOMENTUM * velocity + rng.normal(
                0.0, STEP_SCALE, size=dimensions
            )
            cursor = cursor + velocity
            low, high = cursor < 0.0, cursor > 1.0
            cursor[low] = -cursor[low]
            cursor[high] = 2.0 - cursor[high]
            velocity[low | high] = -velocity[low | high]
            cursor = np.clip(cursor, 0.0, 1.0)
    return points


def zipf_choices(
    rng: np.random.Generator, options: int, count: int
) -> np.ndarray:
    """``count`` indices into ``options`` in seeded random order, index
    ``i`` appearing in proportion to ``1 / (i + 1)`` (Zipf(1)).

    The counts are exact (largest-remainder rounding), not drawn: the
    template mix is the same for every seed, so seeds vary the order
    and the trajectories but not how much of each template a run has.
    """
    weights = 1.0 / np.arange(1, options + 1)
    share = weights / weights.sum() * count
    quotas = np.floor(share).astype(int)
    remainder = count - int(quotas.sum())
    quotas[np.argsort(quotas - share, kind="stable")[:remainder]] += 1
    return rng.permutation(np.repeat(np.arange(options), quotas))


def generate(
    workload: Workload,
    dimensions: dict[str, int],
    seed: int,
    count: int,
) -> list[tuple[str, np.ndarray]]:
    """The workload's ``count`` ``(template, point)`` pairs for ``seed``.

    One template: a single trajectory stream.  Several: each template
    walks its own trajectory stream, and the stream is interleaved by
    Zipf(1) popularity — per instance, or per block of ``batch``
    same-template instances (prepared-statement batches).
    """
    rng = np.random.default_rng(seed)
    names = workload.templates
    if len(names) == 1:
        points = trajectory(rng, dimensions[names[0]], count, workload.spread)
        return [(names[0], point) for point in points]
    unit = workload.batch
    blocks = -(-count // unit)
    picks = np.repeat(zipf_choices(rng, len(names), blocks), unit)[:count]
    per_template = np.bincount(picks, minlength=len(names))
    streams = {
        name: iter(
            trajectory(rng, dimensions[name], int(n), workload.spread)
        )
        for name, n in zip(names, per_template)
        if n > 0
    }
    return [(names[i], next(streams[names[i]])) for i in picks]
