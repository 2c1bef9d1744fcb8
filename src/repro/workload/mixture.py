"""Multi-template workload mixture.

The paper evaluates templates in isolation; a real server interleaves
them with a skewed popularity distribution (a handful of templates
dominate, a long tail runs occasionally).  :class:`MixtureWorkload`
produces that shape: template popularity follows a Zipf law, each
template's instances follow their own random trajectory (temporal
locality within a template survives interleaving), and the emitted
stream is the interleaved sequence of ``(template_name, point)`` pairs.

Popularity can also be pinned with explicit ``weights`` — the flash
crowd scenario swaps a uniform mixture for one where a single template
suddenly dominates, and validated weights keep that knob from silently
producing a degenerate distribution.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError, WorkloadError
from repro.rng import as_generator
from repro.workload.trajectories import RandomTrajectoryWorkload


class MixtureWorkload:
    """Interleaved multi-template workload with Zipfian popularity."""

    def __init__(
        self,
        dimensions: dict[str, int],
        spread: float = 0.02,
        zipf_exponent: float = 1.0,
        seed: "int | np.random.Generator | None" = None,
        weights: "dict[str, float] | None" = None,
    ) -> None:
        if not dimensions:
            raise WorkloadError("mixture needs at least one template")
        if not math.isfinite(zipf_exponent):
            raise ConfigurationError(
                f"zipf exponent must be finite, got {zipf_exponent!r}"
            )
        if zipf_exponent < 0.0:
            raise WorkloadError("zipf exponent must be >= 0")
        self._rng = as_generator(seed)
        self.templates = list(dimensions)
        if weights is None:
            ranks = np.arange(1, len(self.templates) + 1, dtype=float)
            raw = ranks**-zipf_exponent
        else:
            unknown = sorted(set(weights) - set(dimensions))
            if unknown:
                raise ConfigurationError(
                    f"weights name unknown templates {unknown}; "
                    f"known templates are {sorted(dimensions)}"
                )
            if set(weights) != set(dimensions):
                missing = sorted(set(dimensions) - set(weights))
                raise ConfigurationError(
                    f"weights must cover every template; missing {missing}"
                )
            for name, weight in weights.items():
                if not isinstance(weight, (int, float)) or isinstance(
                    weight, bool
                ):
                    raise ConfigurationError(
                        f"weight for {name!r} must be a number, "
                        f"got {type(weight).__name__}"
                    )
                if not math.isfinite(weight) or weight <= 0.0:
                    raise ConfigurationError(
                        f"weight for {name!r} must be a positive finite "
                        f"number, got {weight!r}"
                    )
            raw = np.array(
                [weights[name] for name in self.templates], dtype=float
            )
        self.popularity = raw / raw.sum()
        self._generators = {
            name: RandomTrajectoryWorkload(
                dims, spread=spread, seed=self._rng
            )
            for name, dims in dimensions.items()
        }

    def generate(self, count: int) -> list[tuple[str, np.ndarray]]:
        """``count`` interleaved ``(template_name, point)`` pairs."""
        if count < 1:
            raise WorkloadError("workload size must be >= 1")
        # Draw the interleaving first, then pull each template's points
        # from its own trajectory stream so intra-template locality is
        # preserved regardless of the interleaving.
        choices = self._rng.choice(
            len(self.templates), size=count, p=self.popularity
        )
        per_template = np.bincount(choices, minlength=len(self.templates))
        streams = {
            name: iter(self._generators[name].generate(int(n)))
            for name, n in zip(self.templates, per_template, strict=True)
            if n > 0
        }
        workload = []
        for choice in choices:
            name = self.templates[int(choice)]
            workload.append((name, next(streams[name])))
        return workload
