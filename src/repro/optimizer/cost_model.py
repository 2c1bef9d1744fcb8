"""Cost-model constants for the synthetic optimizer.

The constants follow the textbook (and PostgreSQL-flavoured) convention
of charging sequential page reads 1.0 unit and scaling everything else
relative to that.  Their absolute values are unimportant for the
reproduction; what matters is that they induce the classic plan-choice
crossovers — sequential scan vs. index scan as selectivity grows, hash
join vs. index nested-loop join as outer cardinality grows, merge join
once inputs are (or can cheaply be made) sorted — because those
crossovers are what give plan spaces their structure (Figure 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class CostModel:
    """Unit costs used by every physical operator."""

    seq_page_cost: float = 1.0
    random_page_cost: float = 2.0
    cpu_tuple_cost: float = 0.01
    cpu_compare_cost: float = 0.0025
    index_probe_cost: float = 3.0
    hash_build_cost: float = 0.02
    hash_probe_cost: float = 0.01
    sort_cost_factor: float = 0.011
    merge_cost_factor: float = 0.008
    #: Rows a hash build side can hold before spilling to disk.
    hash_memory_rows: float = 50_000.0
    #: Extra per-row penalty factor applied to spilled hash joins
    #: (approximates the two extra partition passes of Grace hash).
    hash_spill_factor: float = 2.0

    def __post_init__(self) -> None:
        for name in (
            "seq_page_cost",
            "random_page_cost",
            "cpu_tuple_cost",
            "cpu_compare_cost",
            "index_probe_cost",
            "hash_build_cost",
            "hash_probe_cost",
            "sort_cost_factor",
            "merge_cost_factor",
            "hash_memory_rows",
            "hash_spill_factor",
        ):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigurationError(
                    f"cost constant {name} must be finite and > 0, "
                    f"got {value!r}"
                )
