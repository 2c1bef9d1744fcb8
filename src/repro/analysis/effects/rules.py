"""The whole-program rules RPR101–RPR104.

Each rule is a query over an analyzed :class:`~repro.analysis.effects
.engine.Project` and yields :class:`~repro.analysis.core.Finding`
records.  The closure rules (RPR101, RPR102, RPR104) carry a
*witness*: the exact call chain from the rule's root to the offending
site, so a violation three helpers deep reads as a path, not a
location; RPR103 is a per-function check.  Findings respect ``# repro:
noqa[RPR10x]`` on any physical line of the offending statement — the
explicit stub-annotation escape hatch for behavior that is deliberate
(e.g. the documented ``ValueError`` shape contract of the batch
validators).

DESIGN.md §6.2 maps each rule to the design invariant it proves.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.analysis.core import Finding
from repro.analysis.effects.engine import (
    FunctionInfo,
    Project,
    build_project,
    build_project_from_sources,
)

#: The observability modules DESIGN §9 declares strictly read-only.
PURE_OBS_MODULES = (
    "repro.obs.quality",
    "repro.obs.timeseries",
    "repro.obs.audit",
    "repro.obs.slo",
)

#: Effects that break the read-only/deterministic claim of RPR101.
_IMPURE = ("rng", "clock", "fs", "net", "mutates_shared")

#: Hot-path roots of RPR102: the session execute paths plus every
#: batch-predict primitive in the core package.
_HOT_ROOT_METHODS = (
    "repro.core.framework.TemplateSession.execute",
    "repro.core.framework.TemplateSession.execute_batch",
)

#: Modules whose *clock* use is injected by construction (mirrors the
#: per-file RPR002 exemption: the clock sources and the simulator).
_CLOCK_EXEMPT = ("repro.resilience", "repro.simulation")

#: Synopsis state of the batch-invalidation and journal contract:
#: mutating any of these must go through ``self._commit``.
SYNOPSIS_MODULES = (
    "repro.core.histogram_predictor",
    "repro.core.lsh_predictor",
)
SYNOPSIS_ATTRS = frozenset(
    {
        "_histograms",
        "_packed",
        "_counts",
        "_cost_sums",
        "total_points",
        "total_mass",
    }
)
_MUTATION_COUNTER = "_mutations"
#: The one mutation seam (``PlanPredictor._commit``), as a raw call.
_COMMIT_CALL = "self._commit"

#: Public-API packages whose escaping exceptions must be documented
#: ``repro.exceptions`` types (RPR104).
PUBLIC_API_MODULES = ("repro.service", "repro.core", "repro.resilience")

#: Non-repro exceptions allowed to escape: programmer-contract
#: signals, not runtime failures.
_ALLOWED_ESCAPES = frozenset({"NotImplementedError"})


class EffectRule:
    """Base class for one whole-program check."""

    code = "RPR100"
    title = ""
    severity = "error"
    rationale = ""
    scope = ""

    def check(self, project: Project) -> "Iterator[Finding]":
        raise NotImplementedError


def _module_in(module: str, prefixes: "tuple[str, ...]") -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


def _make_finding(
    project: Project,
    rule: "EffectRule",
    info: FunctionInfo,
    lineno: int,
    end_lineno: int,
    message: str,
) -> "Finding | None":
    if project.suppressed(info, rule.code, lineno, end_lineno):
        return None
    ctx = project.modules[info.module].ctx
    return Finding(
        rule=rule.code,
        severity=rule.severity,
        path=info.path,
        line=lineno,
        col=1,
        message=message,
        snippet=ctx.line_text(lineno),
    )


def _effect_findings(
    project: Project,
    rule: "EffectRule",
    roots: "list[str]",
    effects: "tuple[str, ...]",
    describe: str,
    exempt_sink: "tuple[str, ...]" = (),
) -> "Iterator[Finding]":
    """Shared shape of RPR101/RPR102: walk the closure of ``roots``,
    anchor one finding per (sink function, effect) at the local effect
    site, witness the chain back to the root."""
    parents = project.reachable(roots)
    seen: set = set()
    for qualname in parents:
        info = project.functions[qualname]
        for site in info.effect_sites:
            if site.effect not in effects:
                continue
            if site.effect == "clock" and _module_in(
                info.module, exempt_sink
            ):
                continue
            key = (qualname, site.effect, site.lineno)
            if key in seen:
                continue
            seen.add(key)
            chain = project.witness(parents, qualname)
            finding = _make_finding(
                project,
                rule,
                info,
                site.lineno,
                site.end_lineno,
                f"{describe}: {site.detail} has effect "
                f"'{site.effect}'; call chain: {chain}",
            )
            if finding is not None:
                yield finding


class ObsLayerPurity(EffectRule):
    """RPR101: the telemetry read path is transitively pure.

    DESIGN §9 sells ``repro.obs.quality``/``timeseries``/``audit``/
    ``slo`` as strictly read-only, RNG-free and clock-free — the
    scorecard may be computed mid-run without perturbing a single
    decision.  This proves it interprocedurally: no function in those
    modules may reach unseeded RNG, a raw clock, I/O, or a write to
    state it does not own, no matter how many helpers deep.
    """

    code = "RPR101"
    title = "observability read path reaches an impure effect"
    rationale = (
        "keep the quality/timeseries/audit/slo modules free of RNG, "
        "raw clocks, I/O and shared-state writes; inject what varies"
    )
    scope = ", ".join(PURE_OBS_MODULES)

    def check(self, project: Project) -> "Iterator[Finding]":
        roots = [
            info.qualname
            for info in project.functions_in(*PURE_OBS_MODULES)
        ]
        yield from _effect_findings(
            project,
            self,
            roots,
            _IMPURE,
            "impure effect reachable from the observability layer",
        )


class PredictPathDeterminism(EffectRule):
    """RPR102: the interprocedural closure of RPR001/RPR002.

    No path from ``TemplateSession.execute``/``execute_batch`` or any
    core ``predict_batch`` primitive may reach unseeded RNG or the raw
    wall clock.  The injected aliases (``system_clock``/
    ``system_sleep``) are effect-free by stub, and the clock half
    exempts ``repro.resilience``/``repro.simulation`` sinks exactly as
    the per-file rule does.
    """

    code = "RPR102"
    title = "predict path reaches unseeded RNG or the raw wall clock"
    rationale = (
        "thread seeded Generators and the injected clock through every "
        "helper the predict path calls"
    )
    scope = "closure of TemplateSession.execute/execute_batch, predict_batch"

    def check(self, project: Project) -> "Iterator[Finding]":
        roots = [
            qualname
            for qualname in _HOT_ROOT_METHODS
            if qualname in project.functions
        ]
        roots += [
            info.qualname
            for info in project.functions_in("repro.core")
            if info.name == "predict_batch"
        ]
        yield from _effect_findings(
            project,
            self,
            roots,
            ("rng", "clock"),
            "non-deterministic effect on the predict path",
            exempt_sink=_CLOCK_EXEMPT,
        )


class MutationDiscipline(EffectRule):
    """RPR103: every synopsis mutation goes through ``self._commit``.

    ``TemplateSession.execute_batch`` prefetches predictions and
    invalidates the prefetched tail by comparing
    ``online.mutation_count`` across instances, and the lineage engine
    reconstructs cache state from the lifecycle journal.  Both hold by
    construction as long as ``PlanPredictor._commit`` — which bumps
    ``_mutations`` and journals, exactly once — is the only way
    synopsis state changes.  The check is local to each function body:
    (a) no function writes ``_mutations``; (b) every method other than
    ``__init__`` that writes or mutates synopsis state calls
    ``self._commit(...)`` itself.  Before ``bind_events`` a commit
    journals nothing, so construction-time builders need no exemption.
    """

    code = "RPR103"
    title = "synopsis mutation outside the _commit seam"
    rationale = (
        "call self._commit(kind, ...) in every method that mutates the "
        "synopsis, and never write _mutations directly"
    )
    scope = ", ".join(SYNOPSIS_MODULES)

    def check(self, project: Project) -> "Iterator[Finding]":
        for info in project.functions_in(*SYNOPSIS_MODULES):
            if _MUTATION_COUNTER in info.self_writes:
                message = (
                    f"{info.display} writes {_MUTATION_COUNTER} directly; "
                    f"only {_COMMIT_CALL} may bump it"
                )
            else:
                attrs = (info.self_writes | info.self_mutated) & SYNOPSIS_ATTRS
                if (
                    info.cls is None
                    or info.name == "__init__"
                    or not attrs
                    or any(site.raw == _COMMIT_CALL for site in info.calls)
                ):
                    continue
                message = (
                    f"{info.display} mutates synopsis state "
                    f"({', '.join(sorted(attrs))}) without calling "
                    f"{_COMMIT_CALL}"
                )
            finding = _make_finding(
                project, self, info, info.lineno, info.lineno, message
            )
            if finding is not None:
                yield finding


class DocumentedPublicExceptions(EffectRule):
    """RPR104: the public API raises documented ``repro.exceptions``.

    README promises adopters one ``except ReproError`` catches every
    deliberate library failure.  This walks the closure of every
    public function in ``repro.service``/``core``/``resilience`` and
    flags any exception that can escape it without being a project
    exception type — accounting for the ``try``/``except`` masks on
    each call path.  ``NotImplementedError`` (abstract contracts) is
    allowed; dynamic re-raises are out of scope.
    """

    code = "RPR104"
    title = "undocumented exception escapes the public API"
    rationale = (
        "raise a repro.exceptions type (or catch-and-wrap) on every "
        "path reachable from the public surface"
    )
    scope = ", ".join(PUBLIC_API_MODULES)

    def check(self, project: Project) -> "Iterator[Finding]":
        roots = [
            info.qualname
            for info in project.functions_in(*PUBLIC_API_MODULES)
            if info.is_public
        ]
        seen: set = set()
        for root in sorted(roots):
            summary = project.functions[root].raises
            bad = {
                name
                for name in summary
                if name not in project.repro_exceptions
                and name not in _ALLOWED_ESCAPES
            }
            for name in sorted(bad):
                parents = project.raise_reachable([root], name)
                for qualname in parents:
                    info = project.functions[qualname]
                    for site in info.raise_sites:
                        if site.name != name or site.catches_all:
                            continue
                        if name in project.expand_caught(site.caught):
                            continue
                        key = (qualname, name, site.lineno)
                        if key in seen:
                            continue
                        seen.add(key)
                        chain = project.witness(parents, qualname)
                        finding = _make_finding(
                            project,
                            self,
                            info,
                            site.lineno,
                            site.end_lineno,
                            f"'{name}' escapes public API root "
                            f"{project.functions[root].display}; raise "
                            "a repro.exceptions type instead; call "
                            f"chain: {chain}",
                        )
                        if finding is not None:
                            yield finding


def effect_rules() -> "list[EffectRule]":
    """Fresh instances of the whole-program rules, code order."""
    return [
        ObsLayerPurity(),
        PredictPathDeterminism(),
        MutationDiscipline(),
        DocumentedPublicExceptions(),
    ]


def run_effect_rules(
    project: Project, rules: "Iterable[EffectRule] | None" = None
) -> "list[Finding]":
    active = list(rules) if rules is not None else effect_rules()
    findings: "list[Finding]" = []
    for rule in active:
        findings.extend(rule.check(project))
    # One finding per fingerprintable site even when several roots
    # reach it (execute and execute_batch share most of the closure).
    unique: "dict[tuple, Finding]" = {}
    for finding in findings:
        key = (finding.rule, finding.path, finding.line, finding.message)
        unique.setdefault(key, finding)
    result = list(unique.values())
    result.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result


def analyze_paths(paths: "Iterable") -> "tuple[list[Finding], Project]":
    """Whole-program analysis of files/directories: ``(findings,
    project)`` — the project is kept for ``--graph-out``."""
    project = build_project(paths)
    return run_effect_rules(project), project


def analyze_sources(
    sources: "dict[str, str]",
) -> "tuple[list[Finding], Project]":
    """In-memory twin of :func:`analyze_paths` for tests/selftests."""
    project = build_project_from_sources(sources)
    return run_effect_rules(project), project


__all__ = [
    "EffectRule",
    "PUBLIC_API_MODULES",
    "PURE_OBS_MODULES",
    "SYNOPSIS_ATTRS",
    "SYNOPSIS_MODULES",
    "analyze_paths",
    "analyze_sources",
    "effect_rules",
    "run_effect_rules",
]
