"""The project rules: RPR001–RPR009, RPR101 and RPR104.

Each rule guards one convention the pipeline's correctness story leans
on (DESIGN.md §6.1 maps them to the design decisions they protect).
Rules are pure AST checks over one module at a time: no imports of the
code under analysis are performed, so the linter runs on broken or
partial trees and never executes repository code.
"""

from __future__ import annotations

import ast
import builtins
from collections.abc import Iterator

from repro.analysis.core import ModuleContext, Rule, register_rule

#: Legacy module-level numpy RNG entry points (the shared global
#: ``RandomState``).  ``default_rng``/``Generator``/``SeedSequence``
#: are the sanctioned replacements and are deliberately absent.
_NUMPY_LEGACY_RNG = frozenset(
    {
        "beta",
        "binomial",
        "choice",
        "exponential",
        "gamma",
        "get_state",
        "normal",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_integers",
        "random_sample",
        "ranf",
        "sample",
        "seed",
        "set_state",
        "shuffle",
        "standard_normal",
        "uniform",
    }
)

#: Stdlib ``random`` calls that touch the shared global RNG.
_STDLIB_RNG = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)


@register_rule
class UnseededRandomness(Rule):
    """RPR001: all randomness flows through seeded ``Generator`` objects.

    The paper's evaluation depends on run-to-run reproducibility of the
    clustering/LSH pipeline; global RNG state (stdlib ``random``, the
    legacy ``np.random.*`` functions, or an argument-less
    ``default_rng()``) breaks that silently as soon as two call sites
    interleave differently.
    """

    code = "RPR001"
    title = "unseeded or global random number generation"
    rationale = (
        "thread numpy Generator objects spawned from SeedSequence "
        "(see repro.rng) instead of global RNG state"
    )

    def check(self, ctx: ModuleContext) -> "Iterator[tuple[ast.AST, str]]":
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve(node.func)
            if dotted is None:
                continue
            if dotted.startswith("numpy.random."):
                leaf = dotted.rsplit(".", 1)[1]
                if leaf in _NUMPY_LEGACY_RNG:
                    yield (
                        node,
                        f"legacy global numpy RNG call {dotted!r}; use a "
                        "seeded numpy.random.Generator (repro.rng."
                        "as_generator / SeedSequence.spawn)",
                    )
                elif leaf == "default_rng" and not node.args:
                    yield (
                        node,
                        "default_rng() without a seed draws OS entropy; "
                        "pass a seed, SeedSequence, or spawned child",
                    )
            elif dotted.startswith("random."):
                leaf = dotted.rsplit(".", 1)[1]
                if leaf in _STDLIB_RNG:
                    yield (
                        node,
                        f"stdlib global RNG call {dotted!r}; use a seeded "
                        "numpy.random.Generator instead",
                    )


#: ``time`` functions that read or spend wall-clock time.  The
#: latency-profiling pair ``perf_counter``/``perf_counter_ns`` stays
#: allowed: metric timings measure durations, they never drive logic.
_BANNED_TIME = frozenset(
    {"monotonic", "monotonic_ns", "sleep", "time", "time_ns"}
)


@register_rule
class WallClockDiscipline(Rule):
    """RPR002: retry/breaker logic runs on the injected clock.

    Direct ``time.time``/``time.monotonic``/``time.sleep`` calls make
    fault storms slow and non-deterministic; every component takes an
    injectable clock whose defaults live in ``repro.resilience.clocks``
    (a ``VirtualClock`` replaces them in tests and storms).
    """

    code = "RPR002"
    title = "direct wall-clock access outside the clock modules"
    rationale = (
        "use the injected clock/sleep (defaults: "
        "repro.resilience.clocks.system_clock / system_sleep)"
    )
    exempt_modules = ("repro.resilience", "repro.simulation")

    def check(self, ctx: ModuleContext) -> "Iterator[tuple[ast.AST, str]]":
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _BANNED_TIME:
                        yield (
                            node,
                            f"'from time import {alias.name}' bypasses the "
                            "injectable clock; import the default from "
                            "repro.resilience.clocks",
                        )
            elif isinstance(node, (ast.Attribute, ast.Name)):
                dotted = ctx.resolve(node)
                if (
                    dotted is not None
                    and dotted.startswith("time.")
                    and dotted.rsplit(".", 1)[1] in _BANNED_TIME
                ):
                    yield (
                        node,
                        f"direct {dotted!r} use; thread the injected "
                        "clock/sleep instead",
                    )


#: :class:`~repro.obs.registry.MetricsRegistry` entry points whose
#: first argument is a metric name.
_REGISTRY_METHODS = frozenset(
    {
        "counter",
        "counter_series",
        "counter_value",
        "family",
        "gauge",
        "gauge_value",
        "histogram",
        "histogram_summary",
    }
)


def _declared_metric_names() -> frozenset:
    """String constants declared in :mod:`repro.obs.names`."""
    import repro.obs.names as names

    return frozenset(
        attr
        for attr, value in vars(names).items()
        if isinstance(value, str) and not attr.startswith("_")
    )


@register_rule
class RegisteredMetricNames(Rule):
    """RPR003: metric names are constants from ``repro.obs.names``.

    The names module is the single inventory of what the pipeline
    emits (README documents it for adopters); a literal string at a
    call site creates an undocumented series that dashboards and the
    Prometheus exporter tests never see.  Plain variables are allowed —
    the rule checks what it can prove, not what it cannot.
    """

    code = "RPR003"
    title = "metric name not declared in repro.obs.names"
    rationale = (
        "declare the name as a constant in repro/obs/names.py and pass "
        "that constant"
    )
    exempt_modules = ("repro.obs",)

    def __init__(self) -> None:
        self._declared = _declared_metric_names()

    def check(self, ctx: ModuleContext) -> "Iterator[tuple[ast.AST, str]]":
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _REGISTRY_METHODS
                and node.args
            ):
                continue
            name_arg = node.args[0]
            if isinstance(name_arg, ast.Constant) and isinstance(
                name_arg.value, str
            ):
                yield (
                    name_arg,
                    f"literal metric name {name_arg.value!r}; declare it "
                    "in repro.obs.names and pass the constant",
                )
            elif isinstance(name_arg, ast.JoinedStr):
                yield (
                    name_arg,
                    "computed (f-string) metric name; metric names must "
                    "be constants from repro.obs.names — put variability "
                    "into labels",
                )
            elif isinstance(name_arg, (ast.Attribute, ast.Name)):
                dotted = ctx.resolve(name_arg)
                if dotted is None:
                    continue
                prefix, __, leaf = dotted.rpartition(".")
                from_names = prefix == "repro.obs.names" or (
                    isinstance(name_arg, ast.Name)
                    and ctx.imported_names.get(name_arg.id, "").startswith(
                        "repro.obs.names."
                    )
                )
                if from_names and leaf not in self._declared:
                    yield (
                        name_arg,
                        f"{leaf!r} is not a metric-name constant declared "
                        "in repro/obs/names.py",
                    )


@register_rule
class NoSwallowedExceptions(Rule):
    """RPR004: no bare ``except:``; no silently swallowed ``Exception``.

    The guarded decision flow is allowed to absorb component failures —
    but only while *counting* them (``ppc_degraded_total``).  A bare
    except or an ``except Exception: pass`` hides real faults from the
    resilience accounting and from operators.
    """

    code = "RPR004"
    title = "bare except or silently swallowed broad exception"
    rationale = (
        "catch the specific repro.exceptions type, or at minimum record "
        "the degradation before continuing"
    )

    def check(self, ctx: ModuleContext) -> "Iterator[tuple[ast.AST, str]]":
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield (
                    node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt "
                    "too; name the exception type",
                )
                continue
            if self._catches_broad(node.type) and _body_is_silent(node.body):
                yield (
                    node,
                    "'except Exception' with a silent body swallows "
                    "failures; narrow the type or record the degradation",
                )

    @staticmethod
    def _catches_broad(type_node: ast.AST) -> bool:
        candidates = (
            type_node.elts
            if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        return any(
            isinstance(item, ast.Name)
            and item.id in ("Exception", "BaseException")
            for item in candidates
        )


def _body_is_silent(body: "list[ast.stmt]") -> bool:
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # docstring or ellipsis
        if isinstance(statement, (ast.Continue, ast.Break)):
            continue
        return False
    return True


#: ``open``-family mode strings that create or truncate files.
def _is_write_mode(mode: str) -> bool:
    return any(flag in mode for flag in "wax+")


@register_rule
class AtomicPersistenceWrites(Rule):
    """RPR005: state files go through the persistence writers.

    ``repro.core.persistence`` guarantees a crash leaves either the old
    or the new complete file (or, for the append-mode bench history, at
    most a torn last line); a direct ``open(path, "w")`` or
    ``Path.write_text`` reintroduces exactly the torn-write window the
    artifact codec was built to close.
    """

    code = "RPR005"
    title = "direct file write outside the atomic persistence helper"
    rationale = (
        "write through repro.core.persistence.atomic_write_text (temp "
        "file + fsync + rename) — for an artifact, the text of "
        "encode_artifact, the framed-JSONL codec — or append_artifact"
    )
    exempt_modules = ("repro.core.persistence",)

    def check(self, ctx: ModuleContext) -> "Iterator[tuple[ast.AST, str]]":
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "write_text",
                "write_bytes",
            ):
                yield (
                    node,
                    f"direct '.{func.attr}()' truncates in place; use the "
                    "atomic persistence helper",
                )
                continue
            dotted = ctx.resolve(func)
            is_open = dotted == "open" or dotted == "os.fdopen"
            is_method_open = (
                isinstance(func, ast.Attribute) and func.attr == "open"
            )
            if not (is_open or is_method_open):
                continue
            mode = self._mode_argument(node, position=0 if is_method_open else 1)
            if mode is not None and _is_write_mode(mode):
                yield (
                    node,
                    f"direct open(..., {mode!r}) can tear on crash; use "
                    "the atomic persistence helper",
                )

    @staticmethod
    def _mode_argument(node: ast.Call, position: int) -> "str | None":
        for keyword in node.keywords:
            if (
                keyword.arg == "mode"
                and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, str)
            ):
                return keyword.value.value
        if len(node.args) > position:
            candidate = node.args[position]
            if isinstance(candidate, ast.Constant) and isinstance(
                candidate.value, str
            ):
                return candidate.value
        return None


@register_rule
class NoExactFloatComparison(Rule):
    """RPR006: no ``==``/``!=`` against float literals in the geometry
    pipeline.

    Grid snapping, LSH transforms, and density clustering all run on
    accumulated floating-point arithmetic; exact comparison against a
    float literal encodes an equality that one rounding step breaks.
    """

    code = "RPR006"
    title = "exact float equality comparison"
    rationale = (
        "compare with math.isclose / numpy.isclose or an explicit "
        "epsilon threshold"
    )
    only_modules = ("repro.geometry", "repro.lsh", "repro.clustering")

    def check(self, ctx: ModuleContext) -> "Iterator[tuple[ast.AST, str]]":
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                pair = (operands[index], operands[index + 1])
                if any(_is_float_literal(item) for item in pair):
                    yield (
                        node,
                        "exact ==/!= against a float literal; use a "
                        "tolerance (math.isclose / numpy.isclose)",
                    )
                    break


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


@register_rule
class PublicApiAnnotations(Rule):
    """RPR007: the load-bearing public surface is fully typed.

    ``repro.core``, ``repro.service``, and ``repro.resilience`` are what
    adopters and the resilience harness call into; injectable hooks
    (clock, sleep, fault surfaces) only stay swappable if their
    signatures say what they accept.
    """

    code = "RPR007"
    title = "public function missing parameter or return annotations"
    rationale = "annotate every parameter and the return type"
    only_modules = ("repro.core", "repro.service", "repro.resilience")

    def check(self, ctx: ModuleContext) -> "Iterator[tuple[ast.AST, str]]":
        for parent, node in _public_functions(ctx.tree):
            missing = []
            arguments = node.args
            positional = arguments.posonlyargs + arguments.args
            skip_first = parent is not None and not _is_staticmethod(node)
            for index, arg in enumerate(positional):
                if skip_first and index == 0:
                    continue  # self / cls
                if arg.annotation is None:
                    missing.append(arg.arg)
            missing.extend(
                arg.arg
                for arg in arguments.kwonlyargs
                if arg.annotation is None
            )
            if node.returns is None:
                missing.append("return")
            if missing:
                scope = f"{parent}." if parent else ""
                yield (
                    node,
                    f"public function {scope}{node.name} missing "
                    f"annotations: {', '.join(missing)}",
                )


def _functions(tree: ast.Module):
    """Yield ``(class_name | None, function_node)`` for module-level
    functions and the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item


def _public_functions(tree: ast.Module):
    """The public API subset of :func:`_functions`: methods of public
    classes only, skipping private names and dunders other than
    ``__init__``."""
    for cls, node in _functions(tree):
        if cls is not None and cls.startswith("_"):
            continue
        if node.name == "__init__" or not node.name.startswith("_"):
            yield cls, node


def _is_staticmethod(node: ast.AST) -> bool:
    return any(
        isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
        for decorator in node.decorator_list
    )


#: Attributes that make up the mutable session/service state guarded by
#: RPR008.  Assigning them through anything but ``self`` mutates shared
#: state from outside the owning object's methods.
_PROTECTED_STATE = frozenset(
    {
        # TemplateSession
        "breaker",
        "cache",
        "drift_events",
        "monitor",
        "optimizer_invocations",
        "records",
        "retry_policy",
        "_last_plan_id",
        # PPCFramework
        "governor",
        "sessions",
        # PlanCachingService
        "_binders",
    }
)


@register_rule
class SessionStateOwnership(Rule):
    """RPR008: shared session/service state mutates only via its owner.

    ``TemplateSession``/``PPCFramework``/``PlanCachingService`` state is
    read concurrently by the governor, the metrics snapshot, and the
    fallback chain; external writes bypass the owner's invariants (and
    any lock-guarded method the owner provides).
    """

    code = "RPR008"
    title = "session/service state mutated outside its owning object"
    rationale = (
        "call a method on the owning session/framework/service instead "
        "of assigning its state from outside"
    )

    def check(self, ctx: ModuleContext) -> "Iterator[tuple[ast.AST, str]]":
        for node in ast.walk(ctx.tree):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                attribute = _protected_attribute(target)
                if attribute is None:
                    continue
                root = _chain_root(attribute)
                if root in ("self", "cls"):
                    continue
                yield (
                    target,
                    f"external write to protected state "
                    f"'.{attribute.attr}' (owned by the session/"
                    "service); go through the owner's methods",
                )


def _protected_attribute(target: ast.AST) -> "ast.Attribute | None":
    while isinstance(target, (ast.Subscript, ast.Starred)):
        target = target.value
    if isinstance(target, ast.Attribute) and target.attr in _PROTECTED_STATE:
        return target
    return None


def _chain_root(node: ast.Attribute) -> "str | None":
    value: ast.AST = node
    while isinstance(value, (ast.Attribute, ast.Subscript, ast.Call)):
        value = (
            value.func
            if isinstance(value, ast.Call)
            else value.value
        )
    return value.id if isinstance(value, ast.Name) else None


#: The tracer-internal span lifecycle primitives RPR009 confines to
#: ``repro.obs.tracing`` (where the context manager is implemented).
_SPAN_LIFECYCLE = frozenset({"open_span", "close_span"})


@register_rule
class SpanContextDiscipline(Rule):
    """RPR009: spans open only via the tracer's context manager.

    ``DecisionTrace.span(...)`` guarantees the close and records error
    status on every exit path; a manual ``open_span``/``close_span``
    pair leaks the span stack on the first exception between them, and
    a hand-built ``Span`` never enters the trace tree at all.  Only the
    tracing module itself (which implements the context manager) may
    touch the primitives.
    """

    code = "RPR009"
    title = "manual span lifecycle call outside the tracer"
    rationale = (
        "use `with trace.span(name, ...)` — the context manager closes "
        "the span and records error status on every exit path"
    )
    exempt_modules = ("repro.obs.tracing",)

    def check(self, ctx: ModuleContext) -> "Iterator[tuple[ast.AST, str]]":
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SPAN_LIFECYCLE
            ):
                yield (
                    node,
                    f"manual .{node.func.attr}() call; open spans with "
                    "the `with trace.span(...)` context manager",
                )
                continue
            dotted = ctx.resolve(node.func)
            if dotted == "repro.obs.tracing.Span":
                yield (
                    node,
                    "direct Span(...) construction; spans are created "
                    "by the tracer's context manager",
                )


#: The observability modules DESIGN §9 declares read-only, plus the
#: registry and tracer they call into: none of them may touch the
#: filesystem or the network.
_IO_FREE_MODULES = (
    "repro.obs.quality",
    "repro.obs.timeseries",
    "repro.obs.audit",
    "repro.obs.slo",
    "repro.obs.registry",
    "repro.obs.tracing",
)

#: Filesystem access by exact dotted name.
_FS_CALLS = frozenset(
    {
        "open",
        "os.fdopen",
        "os.replace",
        "os.rename",
        "os.remove",
        "os.unlink",
        "os.mkdir",
        "os.makedirs",
        "os.rmdir",
        "os.fsync",
        "os.link",
        "os.symlink",
        "shutil.copy",
        "shutil.copy2",
        "shutil.copyfile",
        "shutil.move",
        "shutil.rmtree",
        "tempfile.mkstemp",
        "tempfile.mkdtemp",
        "tempfile.NamedTemporaryFile",
        "tempfile.TemporaryFile",
        "tempfile.TemporaryDirectory",
    }
)

#: Filesystem access by method name on any receiver — pathlib's I/O
#: surface, specific enough not to collide with project methods.
_FS_METHODS = frozenset(
    {
        "write_text",
        "write_bytes",
        "read_text",
        "read_bytes",
        "unlink",
        "touch",
        "mkdir",
        "rmdir",
        "hardlink_to",
        "symlink_to",
    }
)

#: Network access (none expected in this codebase).
_NET_CALLS = frozenset(
    {
        "socket.socket",
        "socket.create_connection",
        "urllib.request.urlopen",
        "http.client.HTTPConnection",
        "http.client.HTTPSConnection",
    }
)


@register_rule
class ObsLayerIO(Rule):
    """RPR101: the observability read path does no I/O.

    DESIGN §9 sells the scorecard, time series, audit and SLO modules
    (and the registry and tracer they feed) as in-memory and
    read-only: computable mid-run without a disk or socket in the
    loop.  Exporters that persist a report live elsewhere and write
    through the atomic helper (RPR005).  Their RNG and clock use is
    RPR001/RPR002's job.
    """

    code = "RPR101"
    title = "filesystem or network call in the observability read path"
    rationale = (
        "keep quality/timeseries/audit/slo/registry/tracing in memory; "
        "hand results to a caller that persists them"
    )
    only_modules = _IO_FREE_MODULES

    def check(self, ctx: ModuleContext) -> "Iterator[tuple[ast.AST, str]]":
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve(node.func)
            if dotted in _FS_CALLS or dotted in _NET_CALLS:
                yield node, f"I/O call {dotted}() in the observability layer"
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _FS_METHODS
            ):
                yield (
                    node,
                    f"filesystem call .{node.func.attr}() in the "
                    "observability layer",
                )


#: Builtin exceptions that may be raised anywhere: abstract-method
#: contracts and process exit codes are signals, not library failures.
_ALLOWED_BUILTIN_RAISES = frozenset({"NotImplementedError", "SystemExit"})

#: The one module allowed to derive from builtin exceptions.
_EXCEPTIONS_MODULE = "repro.exceptions"


def _builtin_exception(name: str) -> bool:
    candidate = getattr(builtins, name, None)
    return isinstance(candidate, type) and issubclass(
        candidate, BaseException
    )


def _foreign_exception(
    ctx: ModuleContext, node: ast.AST, local_classes: set, raised: bool
) -> "str | None":
    """Dotted name of a builtin or third-party exception class that
    ``node`` refers to, or ``None`` for project classes, variables and
    anything not statically resolvable.  A raised third-party name is
    an exception by construction; a base class counts only when it is
    named like one (``...Error``/``...Exception``)."""
    dotted = ctx.resolve(node)
    if dotted is None or not dotted.rsplit(".", 1)[-1][:1].isupper():
        return None  # `raise err` re-raises a variable: dynamic
    if dotted.startswith("repro.") or dotted in local_classes:
        return None
    if "." not in dotted:
        return dotted if _builtin_exception(dotted) else None
    if dotted.startswith("builtins."):
        leaf = dotted.split(".", 1)[1]
        return leaf if _builtin_exception(leaf) else None
    root = node
    while isinstance(root, ast.Attribute):
        root = root.value
    imported = isinstance(root, ast.Name) and (
        root.id in ctx.module_aliases or root.id in ctx.imported_names
    )
    if not raised and not dotted.endswith(("Error", "Exception")):
        return None
    return dotted if imported else None


def _project_class(
    ctx: ModuleContext, node: ast.AST, local_classes: set
) -> bool:
    dotted = ctx.resolve(node)
    return dotted is not None and (
        dotted.startswith("repro.") or dotted in local_classes
    )


@register_rule
class DocumentedExceptions(Rule):
    """RPR104: the library raises documented ``repro.exceptions`` types.

    README promises adopters one ``except ReproError`` catches every
    deliberate library failure.  Checked one statement at a time: any
    ``raise`` of a builtin or third-party exception class is flagged
    (``NotImplementedError`` and ``SystemExit`` are allowed), whether
    or not an enclosing ``try`` catches it, and so is any exception
    class defined outside ``repro.exceptions`` that does not derive
    from a project exception.  A deliberate, test-pinned builtin
    contract carries ``# repro: noqa[RPR104] - <reason>``.
    """

    code = "RPR104"
    title = "builtin or third-party exception raised by the library"
    rationale = (
        "raise a repro.exceptions type (add one if none fits), or "
        "annotate a documented builtin contract with a noqa reason"
    )

    def check(self, ctx: ModuleContext) -> "Iterator[tuple[ast.AST, str]]":
        local_classes = {
            node.name
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                name = _foreign_exception(ctx, exc, local_classes, True)
                if name is not None and name not in _ALLOWED_BUILTIN_RAISES:
                    yield (
                        node,
                        f"raises {name}; raise a repro.exceptions type "
                        "so `except ReproError` catches it",
                    )
            elif (
                isinstance(node, ast.ClassDef)
                and ctx.module != _EXCEPTIONS_MODULE
            ):
                foreign = [
                    name
                    for base in node.bases
                    if (name := _foreign_exception(ctx, base, local_classes, False))
                ]
                if foreign and not any(
                    _project_class(ctx, base, local_classes)
                    for base in node.bases
                ):
                    yield (
                        node,
                        f"exception class {node.name} derives from "
                        f"{', '.join(foreign)}, not a repro.exceptions "
                        "type",
                    )
