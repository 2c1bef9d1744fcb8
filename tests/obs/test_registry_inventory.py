"""The registry's series inventory, pinned in creation order.

Snapshots and Prometheus text list series in the order the registry
created them, so a change to how sessions fetch their metric handles
must leave ``registry.handles()`` — kind, name and labels, in order —
equal to ``registry_inventory.json``.  A change that adds or removes a
series on purpose re-pins the fixture in one step, and says so::

    PYTHONPATH=src python -m tests.obs.test_registry_inventory
"""

import json
import pathlib

import numpy as np

from repro.config import EventsConfig, PPCConfig
from repro.core.framework import PPCFramework
from repro.tpch import plan_space_for

FIXTURE = pathlib.Path(__file__).parent / "registry_inventory.json"


def inventory() -> list:
    """``(kind, name, labels)`` of every series of a seeded two-template
    run with events on: scalar decisions, a batch, an explained
    decision and each session's ``stats()``.  The build gauge's commit
    label names the checkout, so it is masked."""
    config = PPCConfig(events=EventsConfig(enabled=True, capacity=256))
    framework = PPCFramework(config, seed=7)
    rng = np.random.default_rng(11)
    for name in ("Q1", "Q5"):
        session = framework.register(plan_space_for(name))
        points = rng.uniform(0.0, 1.0, (72, session.plan_space.dimensions))
        for x in points[:40]:
            framework.execute(name, x)
        framework.execute_batch(name, points[40:56])
        framework.explain(name, points[56])
    for session in framework.sessions.values():
        session.stats()
    framework.metrics.snapshot()
    return [
        [kind, name, [[k, "*" if k == "commit" else v] for k, v in labels.items()]]
        for kind, name, __, labels, __ in framework.metrics.handles()
    ]


def test_series_inventory_is_pinned_in_creation_order():
    assert inventory() == json.loads(FIXTURE.read_text())


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(row) for row in inventory())
    FIXTURE.write_text(f"[\n{rows}\n]\n")
    print(f"re-pinned {FIXTURE}")
