"""Deterministic workload traces: record once, re-run bit-identically.

A **trace** is a ``replay-trace`` artifact of the framed-JSONL codec in
:mod:`repro.core.persistence`, holding everything one scenario run
needs to be reproduced from scratch:

* the header line — scenario name, seed, instance count, batch size,
  the *ordered* template list (the framework spawns per-template RNG
  streams by registration order), the per-template manipulation specs,
  and the full :class:`~repro.config.PPCConfig` as nested dicts;
* one ``query`` / ``drift`` / ``fault`` line per scenario event, in
  stream order (clock ticks travel on the query events' ``advance``);
* one ``decision`` line per executed instance — the
  :func:`~repro.workload.runner.decision_digest` the original run
  produced.

Because JSON serializes floats via ``repr`` (round-trip exact for
IEEE-754 doubles) and every source of nondeterminism is pinned in the
header (seeds, registration order, batch grouping, fault schedule,
virtual-clock discipline), re-driving the recorded events through a
fresh :class:`~repro.workload.runner.WorkloadExecutor` must reproduce
the recorded decisions **exactly** — same plan choices, same
confidences, same fallback events, bit for bit.  :func:`verify_trace`
asserts that, making a committed trace a cross-version determinism
regression test: any change that silently perturbs the decision flow
breaks verification loudly.
"""

from __future__ import annotations

import pathlib
from dataclasses import MISSING, asdict, fields
from typing import Any

from repro.config import PPCConfig
from repro.core.persistence import (
    atomic_write_text,
    encode_artifact,
    read_artifact,
)
from repro.exceptions import ConfigurationError, PersistenceError
from repro.resilience.faults import FaultSpec
from repro.workload.runner import RunResult, ScenarioRunner, WorkloadExecutor
from repro.workload.scenarios import (
    DriftShift,
    FaultPhase,
    ManipulationSpec,
    QueryEvent,
    Scenario,
)

#: Artifact kind and schema version, bumped on any incompatible change
#: (v2: per-line CRCs through the artifact codec; v3: the config
#: holds only the settings that remain).
TRACE_KIND = "replay-trace"
TRACE_VERSION = 3


# ----------------------------------------------------------------------
# Config round-trip
# ----------------------------------------------------------------------
def config_to_dict(config: PPCConfig) -> "dict[str, Any]":
    """Nested-dict form of a config (``dataclasses.asdict``)."""
    return asdict(config)


def config_from_dict(payload: "dict[str, Any]") -> PPCConfig:
    """Rebuild a :class:`PPCConfig` from its nested-dict form: every
    field whose default is a config class is rebuilt as that class.

    A key no config declares, or a missing nested block, raises
    :class:`PersistenceError` naming it."""
    data = dict(payload)
    _check_keys("config", data, PPCConfig)
    for spec in fields(PPCConfig):
        if spec.default_factory is MISSING:
            continue
        block = data.get(spec.name)
        if not isinstance(block, dict):
            raise PersistenceError(
                f"config block {spec.name!r} is missing or not an object"
            )
        _check_keys(f"config.{spec.name}", block, spec.default_factory)
        data[spec.name] = spec.default_factory(**block)
    return PPCConfig(**data)


def _check_keys(where: str, block: "dict[str, Any]", cls: type) -> None:
    known = {spec.name for spec in fields(cls)}
    for key in block:
        if key not in known:
            raise PersistenceError(f"unknown {where} key {key!r}")


# ----------------------------------------------------------------------
# Event round-trip
# ----------------------------------------------------------------------
def event_to_dict(event: Any) -> "dict[str, Any]":
    if isinstance(event, QueryEvent):
        return {
            "kind": "query",
            "template": event.template,
            "point": list(event.point),
            "advance": event.advance,
        }
    if isinstance(event, DriftShift):
        return {
            "kind": "drift",
            "template": event.template,
            "intensity": event.intensity,
        }
    if isinstance(event, FaultPhase):
        return {
            "kind": "fault",
            "component": event.component,
            "spec": None if event.spec is None else asdict(event.spec),
        }
    raise ConfigurationError(
        f"unknown scenario event {type(event).__name__}"
    )


def event_from_dict(payload: "dict[str, Any]") -> Any:
    kind = payload.get("kind")
    if kind == "query":
        return QueryEvent(
            template=payload["template"],
            point=tuple(float(v) for v in payload["point"]),
            advance=float(payload["advance"]),
        )
    if kind == "drift":
        return DriftShift(
            template=payload["template"],
            intensity=float(payload["intensity"]),
        )
    if kind == "fault":
        spec = payload["spec"]
        return FaultPhase(
            component=payload["component"],
            spec=None if spec is None else FaultSpec(**spec),
        )
    raise ConfigurationError(f"unknown trace event kind {kind!r}")


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def _executor_events_digest(executor: WorkloadExecutor) -> "str | None":
    """Digest of the run's lifecycle journal (None when disabled)."""
    journal = executor.framework.events
    return None if journal is None else journal.digest()


def record_trace(
    scenario: Scenario,
    path: "str | pathlib.Path",
    fast: bool = False,
    batch_size: int = 1,
) -> RunResult:
    """Run ``scenario`` and write the self-contained trace to ``path``.

    Returns the live :class:`RunResult` (contracts evaluated) so one
    run can feed both the bench matrix and the trace artifact.
    """
    runner = ScenarioRunner(fast=fast, batch_size=batch_size)
    count = runner.instance_count(scenario)
    executor = runner.build_executor(scenario)
    dims = {
        name: executor.framework.session(name).plan_space.dimensions
        for name in scenario.templates
    }
    events = scenario.events(count, dims)
    decisions = executor.drive(events)
    result = RunResult(
        scenario=scenario.name,
        seed=scenario.seed,
        count=count,
        batch_size=batch_size,
        decisions=decisions,
        executor=executor,
    )
    result.verdicts = [
        contract.evaluate(result)
        for contract in scenario.contracts(count)
    ]
    header = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "instances": count,
        "batch_size": batch_size,
        "templates": list(scenario.templates),
        "manipulation": {
            name: asdict(spec) for name, spec in scenario.manipulation
        },
        "config": config_to_dict(scenario.config),
        # Running sha256 over the canonical lifecycle event stream
        # (None when the journal is disabled): a replay must reproduce
        # not just the decisions but the whole synopsis lifecycle.
        "events_digest": _executor_events_digest(executor),
    }
    records = [event_to_dict(event) for event in events]
    records.extend({"kind": "decision", **digest} for digest in decisions)
    atomic_write_text(
        path, encode_artifact(TRACE_KIND, TRACE_VERSION, records, header)
    )
    return result


# ----------------------------------------------------------------------
# Loading and re-running
# ----------------------------------------------------------------------
def load_trace(
    path: "str | pathlib.Path",
) -> "tuple[dict[str, Any], list[Any], list[dict[str, Any]]]":
    """Parse a trace file into ``(header, events, decisions)``.

    A trace is written atomically, so a torn tail is damage."""
    header, records, torn = read_artifact(path, TRACE_KIND, TRACE_VERSION)
    if torn:
        raise PersistenceError(f"{path}: truncated trace")
    events: "list[Any]" = []
    decisions: "list[dict[str, Any]]" = []
    for record in records:
        if record.get("kind") == "decision":
            del record["kind"]
            decisions.append(record)
        else:
            events.append(event_from_dict(record))
    return header, events, decisions


def executor_from_header(header: "dict[str, Any]") -> WorkloadExecutor:
    """Rebuild the deterministic run environment a trace describes."""
    from repro.tpch import plan_space_for

    templates = tuple(header["templates"])
    manipulation = tuple(
        (name, ManipulationSpec(**spec))
        for name, spec in header.get("manipulation", {}).items()
    )
    return WorkloadExecutor(
        templates=templates,
        plan_spaces={name: plan_space_for(name) for name in templates},
        config=config_from_dict(header["config"]),
        seed=int(header["seed"]),
        batch_size=int(header["batch_size"]),
        manipulation=manipulation,
    )


def replay_trace(
    path: "str | pathlib.Path",
) -> "tuple[dict[str, Any], list[dict[str, Any]]]":
    """Re-run a recorded trace; ``(header, replayed decisions)``."""
    header, events, __ = load_trace(path)
    executor = executor_from_header(header)
    return header, executor.drive(events)


def verify_trace(path: "str | pathlib.Path") -> "dict[str, Any]":
    """Re-run a trace and compare against its recorded decisions.

    The comparison is exact dict equality per instance — floats
    round-trip losslessly through JSON, so any numeric deviation is a
    real decision-flow divergence, not serialization noise.  When the
    trace header carries an ``events_digest``, the replayed lifecycle
    journal must hash to the same value: the synopsis event stream is
    part of the determinism contract, not just the decisions.
    """
    header, events, recorded = load_trace(path)
    executor = executor_from_header(header)
    replayed = executor.drive(events)
    recorded_digest = header.get("events_digest")
    replayed_digest = _executor_events_digest(executor)
    digest_match = recorded_digest == replayed_digest
    mismatches: "list[dict[str, Any]]" = []
    for index in range(max(len(recorded), len(replayed))):
        old = recorded[index] if index < len(recorded) else None
        new = replayed[index] if index < len(replayed) else None
        if old == new:
            continue
        diff: "dict[str, Any]" = {"i": index}
        if old is None or new is None:
            diff["recorded"] = old
            diff["replayed"] = new
        else:
            for key in sorted(set(old) | set(new)):
                if old.get(key) != new.get(key):
                    diff.setdefault("fields", {})[key] = {
                        "recorded": old.get(key),
                        "replayed": new.get(key),
                    }
        mismatches.append(diff)
        if len(mismatches) >= 8:
            break
    return {
        "scenario": header["scenario"],
        "instances": len(recorded),
        "replayed": len(replayed),
        "identical": not mismatches and digest_match,
        "mismatches": mismatches,
        "events_digest": {
            "recorded": recorded_digest,
            "replayed": replayed_digest,
            "match": digest_match,
        },
    }


__all__ = [
    "TRACE_KIND",
    "TRACE_VERSION",
    "config_from_dict",
    "config_to_dict",
    "event_from_dict",
    "event_to_dict",
    "executor_from_header",
    "load_trace",
    "record_trace",
    "replay_trace",
    "verify_trace",
]
