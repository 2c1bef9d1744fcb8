"""Whole-program effect analysis: call graph + transitive signatures.

The per-file rules (RPR001–RPR009) prove properties of single modules;
this engine proves properties of *paths*.  It parses every project
file once (reusing :class:`~repro.analysis.core.ModuleContext` for
import-alias resolution), builds the project call graph, infers a
local effect signature per function from AST facts plus the
numpy/stdlib stub table (:mod:`repro.analysis.effects.stubs`), and
propagates signatures transitively to a fixpoint.  The RPR1xx rules
(:mod:`repro.analysis.effects.rules`) are queries over the result,
each carrying a *witness* — the exact call chain from a root to the
offending site.

The effect lattice (a powerset; join is set union):

``rng``
    unseeded / global-state randomness (RPR001's set, plus OS entropy)
``clock``
    raw wall-clock reads or sleeps (RPR002's set; ``perf_counter``
    and the injected ``system_clock``/``system_sleep`` aliases are
    effect-free by design)
``fs`` / ``net``
    filesystem and network I/O
``alloc``
    fresh-array allocation (report-only; surfaced in ``--graph-out``)
``mutates_shared``
    attribute stores rooted at a parameter or module global — writes
    to state the function does not own

Self-mutation (``self.x = ...``) and the raised-exception set are
tracked separately: self-mutation is recorded per function body and
checked locally (RPR103), and raises propagate per call site *minus* the
exceptions the enclosing ``try`` provably catches (RPR104).

Everything here is static and optimistic: dynamic dispatch through
containers, ``getattr``, and unknown externals contribute no effect.
The per-file rules remain the backstop for what a call graph cannot
see.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.analysis.core import ModuleContext, _module_name
from repro.analysis.effects import stubs

#: Effects a function summary can carry (stable display order).
EFFECT_ORDER = ("rng", "clock", "fs", "net", "alloc", "mutates_shared")

#: Catching one of these catches everything.
_CATCH_ALL = frozenset({"Exception", "BaseException"})

#: Upper bound on re-export chase depth (cycle backstop).
_MAX_CHASE = 16


@dataclass
class EffectSite:
    """One local effect with its anchor (for witnesses and findings)."""

    effect: str
    lineno: int
    end_lineno: int
    detail: str


@dataclass
class RaiseSite:
    """One ``raise <Name>(...)`` statement, with the exceptions the
    enclosing ``try`` blocks would catch before it escapes."""

    name: str
    lineno: int
    end_lineno: int
    caught: frozenset = frozenset()
    catches_all: bool = False


@dataclass
class CallSite:
    """One call expression and its enclosing-``try`` catch mask."""

    raw: "str | None"
    lineno: int
    end_lineno: int
    caught: frozenset = frozenset()
    catches_all: bool = False
    argless: bool = False
    #: Project qualname after global resolution (None = external or
    #: dynamic).
    resolved: "str | None" = None


@dataclass
class FunctionInfo:
    """Per-function facts plus the propagated summaries."""

    qualname: str
    module: str
    cls: "str | None"
    name: str
    path: str
    lineno: int
    is_public: bool
    effect_sites: "list[EffectSite]" = field(default_factory=list)
    raise_sites: "list[RaiseSite]" = field(default_factory=list)
    calls: "list[CallSite]" = field(default_factory=list)
    #: ``self.<attr>`` roots written by assignment/augassign/delete.
    self_writes: set = field(default_factory=set)
    #: ``self.<attr>`` roots mutated via in-place methods/functions
    #: (directly or through a local alias).
    self_mutated: set = field(default_factory=set)
    #: Transitive effect summary (fixpoint output).
    effects: set = field(default_factory=set)
    #: Transitive escaping-exception summary (fixpoint output).
    raises: set = field(default_factory=set)

    @property
    def display(self) -> str:
        """Short human name: ``Class.method`` or ``function``."""
        return f"{self.cls}.{self.name}" if self.cls else self.name


@dataclass
class ClassInfo:
    name: str
    module: str
    qualname: str
    #: Raw dotted base names (per-module resolution; chased globally).
    bases: "list[str]" = field(default_factory=list)
    methods: set = field(default_factory=set)
    is_public: bool = True


@dataclass
class ModuleInfo:
    name: str
    path: str
    ctx: ModuleContext


class Project:
    """The parsed project: modules, functions, classes, hierarchies."""

    def __init__(self) -> None:
        self.modules: "dict[str, ModuleInfo]" = {}
        self.functions: "dict[str, FunctionInfo]" = {}
        self.classes: "dict[str, ClassInfo]" = {}
        #: Leaf names of exception classes descending from ReproError.
        self.repro_exceptions: set = set()
        #: leaf exception name -> descendant leaf names (project-known).
        self._exception_children: "dict[str, set]" = {}
        self.errors: "list[str]" = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def expand_caught(self, names: Iterable[str]) -> set:
        """A catch set closed over the project exception hierarchy:
        catching ``ReproError`` catches every project exception."""
        expanded: set = set()
        for name in names:
            expanded.add(name)
            expanded |= self._exception_children.get(name, set())
        return expanded

    def functions_in(self, *prefixes: str) -> "list[FunctionInfo]":
        return [
            info
            for info in self.functions.values()
            if any(
                info.module == p or info.module.startswith(p + ".")
                for p in prefixes
            )
        ]

    def suppressed(self, info: FunctionInfo, rule: str, lineno: int,
                   end_lineno: int) -> bool:
        """Range-aware ``# repro: noqa[...]`` check at a finding site."""
        ctx = self.modules[info.module].ctx
        return any(
            ctx.suppressed(line, rule)
            for line in range(lineno, max(lineno, end_lineno) + 1)
        )

    def reachable(
        self, roots: Iterable[str]
    ) -> "dict[str, tuple[str | None, CallSite | None]]":
        """BFS over resolved call edges; returns parent pointers
        (``qualname -> (caller qualname, call site)``) for witness
        reconstruction.  Roots map to ``(None, None)``."""
        parents: dict = {}
        queue: list = []
        for root in roots:
            if root in self.functions and root not in parents:
                parents[root] = (None, None)
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for site in self.functions[current].calls:
                callee = site.resolved
                if callee in self.functions and callee not in parents:
                    parents[callee] = (current, site)
                    queue.append(callee)
        return parents

    def witness(
        self,
        parents: "dict[str, tuple[str | None, CallSite | None]]",
        sink: str,
    ) -> str:
        """Render ``root -> ... -> sink`` with per-hop call lines."""
        hops: "list[str]" = []
        current: "str | None" = sink
        while current is not None:
            info = self.functions[current]
            parent, site = parents[current]
            label = info.display
            if site is not None and parent is not None:
                caller = self.functions[parent]
                label += f" ({caller.path}:{site.lineno})"
            hops.append(label)
            current = parent
        return " -> ".join(reversed(hops))

    def raise_reachable(
        self, roots: Iterable[str], exc_name: str
    ) -> "dict[str, tuple[str | None, CallSite | None]]":
        """Like :meth:`reachable`, but only along edges where
        ``exc_name`` escapes the call site's catch mask."""
        parents: dict = {}
        queue: list = []
        for root in roots:
            if root in self.functions and root not in parents:
                parents[root] = (None, None)
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for site in self.functions[current].calls:
                callee = site.resolved
                if callee not in self.functions or callee in parents:
                    continue
                if site.catches_all:
                    continue
                if exc_name in self.expand_caught(site.caught):
                    continue
                parents[callee] = (current, site)
                queue.append(callee)
        return parents

    # ------------------------------------------------------------------
    # Graph export
    # ------------------------------------------------------------------
    def graph_as_dict(self) -> dict:
        """JSON-ready call graph with per-function effect signatures."""
        nodes = []
        edges = []
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            nodes.append(
                {
                    "qualname": qualname,
                    "module": info.module,
                    "path": info.path,
                    "line": info.lineno,
                    "public": info.is_public,
                    "effects": sorted(info.effects),
                    "raises": sorted(info.raises),
                    "local_effects": sorted(
                        {site.effect for site in info.effect_sites}
                    ),
                    "mutates_self": sorted(
                        info.self_writes | info.self_mutated
                    ),
                }
            )
            for site in info.calls:
                if site.resolved is not None:
                    edges.append(
                        {
                            "caller": qualname,
                            "callee": site.resolved,
                            "line": site.lineno,
                        }
                    )
        return {
            "functions": nodes,
            "calls": edges,
            "modules": sorted(self.modules),
            "errors": list(self.errors),
        }

    def graph_as_dot(self) -> str:
        """Graphviz form of the resolved call graph; effectful nodes
        carry their summary in the label."""
        lines = ["digraph effects {", "  rankdir=LR;", "  node [shape=box];"]
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            label = qualname
            if info.effects:
                label += "\\n[" + ",".join(sorted(info.effects)) + "]"
            lines.append(f'  "{qualname}" [label="{label}"];')
        for qualname in sorted(self.functions):
            for site in self.functions[qualname].calls:
                if site.resolved is not None:
                    lines.append(f'  "{qualname}" -> "{site.resolved}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Local extraction
# ----------------------------------------------------------------------
def _attr_root(node: ast.AST) -> "tuple[str, str] | None":
    """``(base name, first attribute)`` of a chain like
    ``self._counts[i]`` / ``self.a.b`` — the owner-rooted attribute an
    assignment or mutator call touches."""
    attrs: "list[str]" = []
    while True:
        if isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value
        elif isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        else:
            break
    if isinstance(node, ast.Name) and attrs:
        return node.id, attrs[-1]
    return None


def _self_attr_reads(node: ast.AST) -> set:
    """Attribute names read as ``self.<attr>`` anywhere in a subtree."""
    reads: set = set()
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            reads.add(sub.attr)
    return reads


def _names_in(node: ast.AST) -> set:
    return {
        sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)
    }


def _bound_names(target: ast.AST) -> set:
    """Plain local names bound by an assignment/loop target."""
    names: set = set()
    for sub in ast.walk(target):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
    return names


class _FunctionExtractor(ast.NodeVisitor):
    """Collects local facts for one function body.

    Nested ``def``/``lambda`` bodies are folded into the enclosing
    function (conservative: a defined-but-unused closure still charges
    its effects; precise closure tracking buys nothing here).
    """

    def __init__(self, ctx: ModuleContext, info: FunctionInfo) -> None:
        self.ctx = ctx
        self.info = info
        #: Stack of (caught frozenset, catches_all) for enclosing
        #: try-bodies.
        self._try_stack: "list[tuple[frozenset, bool]]" = []

    # -- catch-mask plumbing -------------------------------------------
    def _mask(self) -> "tuple[frozenset, bool]":
        caught: set = set()
        catches_all = False
        for names, all_ in self._try_stack:
            caught |= names
            catches_all = catches_all or all_
        return frozenset(caught), catches_all

    def visit_Try(self, node: ast.Try) -> None:
        caught: set = set()
        catches_all = False
        for handler in node.handlers:
            if handler.type is None:
                catches_all = True
                continue
            types = (
                handler.type.elts
                if isinstance(handler.type, ast.Tuple)
                else [handler.type]
            )
            for item in types:
                dotted = self.ctx.resolve(item)
                if dotted is None:
                    continue
                leaf = dotted.rsplit(".", 1)[-1]
                if leaf in _CATCH_ALL:
                    catches_all = True
                else:
                    caught.add(leaf)
        self._try_stack.append((frozenset(caught), catches_all))
        for statement in node.body:
            self.visit(statement)
        self._try_stack.pop()
        # Handlers, else and finally run outside this try's protection.
        for handler in node.handlers:
            for statement in handler.body:
                self.visit(statement)
        for statement in node.orelse + node.finalbody:
            self.visit(statement)

    visit_TryStar = visit_Try

    # -- raises --------------------------------------------------------
    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        is_call = isinstance(exc, ast.Call)
        if is_call:
            exc = exc.func
        if exc is not None:
            dotted = self.ctx.resolve(exc)
            if dotted is not None:
                leaf = dotted.rsplit(".", 1)[-1]
                # `raise SomeError(...)` and `raise SomeError` name a
                # class; `raise primary_error` re-raises a local holding
                # an instance — dynamic, not modeled (like bare `raise`).
                # Exception classes are CapWords by convention (PEP 8),
                # so a lowercase leaf on a non-call raise is a variable.
                if is_call or leaf[:1].isupper():
                    caught, catches_all = self._mask()
                    self.info.raise_sites.append(
                        RaiseSite(
                            name=leaf,
                            lineno=node.lineno,
                            end_lineno=node.end_lineno or node.lineno,
                            caught=caught,
                            catches_all=catches_all,
                        )
                    )
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        raw = self.ctx.resolve(node.func)
        if raw is None and isinstance(node.func, ast.Attribute):
            # Unresolved receiver: keep the method name so the stub
            # table's pathlib-style heuristics can still classify it.
            raw = f"?.{node.func.attr}"
        caught, catches_all = self._mask()
        self.info.calls.append(
            CallSite(
                raw=raw,
                lineno=node.lineno,
                end_lineno=node.end_lineno or node.lineno,
                caught=caught,
                catches_all=catches_all,
                argless=not node.args and not node.keywords,
            )
        )
        # In-place mutators taking the target as first argument
        # (np.add.at(self._counts[i], ...)).
        if raw in stubs.INPLACE_FUNCTIONS and node.args:
            reads = _self_attr_reads(node.args[0])
            self.info.self_mutated |= reads
        # Receiver-mutating method calls on self-rooted chains
        # (self._histograms.append(...)); alias-tainted locals are
        # handled in the post-pass.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in stubs.MUTATOR_METHODS
        ):
            root = _attr_root(node.func.value)
            if root is not None and root[0] == "self":
                self.info.self_mutated.add(root[1])
        self.generic_visit(node)

    # -- state writes --------------------------------------------------
    def _record_write_targets(self, targets: "list[ast.AST]") -> None:
        for target in targets:
            root = _attr_root(target)
            if root is None:
                continue
            base, attr = root
            if base == "self":
                self.info.self_writes.add(attr)
            elif base not in ("cls",):
                site_detail = f"write to {base}.{attr}"
                # Writes rooted at locals are ownership-neutral; only
                # parameter/global roots count as shared mutation.
                if base in self._owned_locals:
                    continue
                self.info.effect_sites.append(
                    EffectSite(
                        effect="mutates_shared",
                        lineno=target.lineno,
                        end_lineno=target.end_lineno or target.lineno,
                        detail=site_detail,
                    )
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_write_targets(list(node.targets))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_write_targets([node.target])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_write_targets([node.target])
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._record_write_targets(list(node.targets))
        self.generic_visit(node)

    # Populated before the walk: names the function owns (locals).
    _owned_locals: set = frozenset()


def _collect_locals(body: "list[ast.stmt]") -> set:
    """Names bound inside the function body (assignments, loops,
    withs, comprehension-free approximation)."""
    owned: set = set()
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    owned |= _bound_names(target)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                owned |= _bound_names(node.target)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                owned |= _bound_names(node.target)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        owned |= _bound_names(item.optional_vars)
            elif isinstance(node, ast.comprehension):
                owned |= _bound_names(node.target)
    return owned


def _alias_taint(node_body: "list[ast.stmt]", info: FunctionInfo) -> None:
    """Track locals aliasing ``self.<attr>`` state and fold mutator
    calls on them back into ``self_mutated``.

    This is what proves ``HistogramPredictor.insert`` mutates the
    synopsis: the histograms are pulled into a local list before
    ``histogram.insert(...)`` runs on loop variables.
    """
    taint: "dict[str, set]" = {}
    for _ in range(8):  # fixpoint over chained aliases, small bound
        changed = False
        for statement in node_body:
            for node in ast.walk(statement):
                value = None
                targets: "list[ast.AST]" = []
                if isinstance(node, ast.Assign):
                    value, targets = node.value, list(node.targets)
                elif isinstance(node, ast.AnnAssign) and node.value:
                    value, targets = node.value, [node.target]
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    value, targets = node.iter, [node.target]
                if value is None:
                    continue
                attrs = _self_attr_reads(value)
                for name in _names_in(value) & set(taint):
                    attrs = attrs | taint[name]
                if not attrs:
                    continue
                for target in targets:
                    for name in _bound_names(target):
                        if attrs - taint.get(name, set()):
                            taint[name] = taint.get(name, set()) | attrs
                            changed = True
        if not changed:
            break
    if not taint:
        return
    for statement in node_body:
        for node in ast.walk(statement):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in stubs.MUTATOR_METHODS
            ):
                continue
            root = _attr_root(node.func.value)
            if root is not None and root[0] in taint:
                info.self_mutated |= taint[root[0]]


# ----------------------------------------------------------------------
# Project construction
# ----------------------------------------------------------------------
def _extract_module(project: Project, ctx: ModuleContext) -> None:
    module = ModuleInfo(name=ctx.module, path=ctx.path, ctx=ctx)
    project.modules[ctx.module] = module

    def register(node, cls_name, cls_public=True):
        public = node.name == "__init__" or not node.name.startswith("_")
        qualname = (
            f"{ctx.module}.{cls_name}.{node.name}"
            if cls_name
            else f"{ctx.module}.{node.name}"
        )
        info = FunctionInfo(
            qualname=qualname,
            module=ctx.module,
            cls=cls_name,
            name=node.name,
            path=ctx.path,
            lineno=node.lineno,
            is_public=public and cls_public,
        )
        extractor = _FunctionExtractor(ctx, info)
        extractor._owned_locals = _collect_locals(node.body)
        for statement in node.body:
            extractor.visit(statement)
        _alias_taint(node.body, info)
        project.functions[qualname] = info
        return info

    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            register(node, None)
        elif isinstance(node, ast.ClassDef):
            qualname = f"{ctx.module}.{node.name}"
            cls = ClassInfo(
                name=node.name,
                module=ctx.module,
                qualname=qualname,
                bases=[
                    dotted
                    for base in node.bases
                    if (dotted := ctx.resolve(base)) is not None
                ],
                is_public=not node.name.startswith("_"),
            )
            project.classes[qualname] = cls
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    register(item, node.name, cls.is_public)
                    cls.methods.add(item.name)


def _chase_export(project: Project, dotted: str) -> str:
    """Follow ``from m import x as y`` re-export chains across project
    modules until the name lands on a real definition (or leaves the
    project)."""
    seen: set = set()
    for _ in range(_MAX_CHASE):
        if dotted in project.functions or dotted in project.classes:
            return dotted
        if dotted in seen:
            return dotted
        seen.add(dotted)
        parts = dotted.split(".")
        stepped = False
        # Longest project-module prefix owning the next attribute.
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            module = project.modules.get(prefix)
            if module is None:
                continue
            leaf = parts[cut]
            rest = parts[cut + 1 :]
            target = module.ctx.imported_names.get(
                leaf, module.ctx.module_aliases.get(leaf)
            )
            if target is None:
                return dotted
            dotted = ".".join([target, *rest])
            stepped = True
            break
        if not stepped:
            return dotted
    return dotted


def _resolve_class(project: Project, module: str, dotted: str) -> "str | None":
    """Class qualname for a raw dotted/bare base-class reference."""
    for candidate in (dotted, f"{module}.{dotted}"):
        chased = _chase_export(project, candidate)
        if chased in project.classes:
            return chased
    return None


def _method_lookup(
    project: Project, cls_qualname: str, method: str
) -> "str | None":
    """Find ``method`` on a class or its (project-visible) bases."""
    seen: set = set()
    stack = [cls_qualname]
    while stack:
        current = stack.pop(0)
        if current in seen or current not in project.classes:
            continue
        seen.add(current)
        cls = project.classes[current]
        if method in cls.methods:
            return f"{current}.{method}"
        for base in cls.bases:
            resolved = _resolve_class(project, cls.module, base)
            if resolved is not None:
                stack.append(resolved)
    return None


def _resolve_calls(project: Project) -> None:
    for info in project.functions.values():
        module = project.modules[info.module]
        for site in info.calls:
            raw = site.raw
            if raw is None:
                continue
            if raw.startswith("?."):
                method = raw[2:]
                if method in stubs.FS_METHODS:
                    info.effect_sites.append(
                        EffectSite(
                            effect="fs",
                            lineno=site.lineno,
                            end_lineno=site.end_lineno,
                            detail=f".{method}() (pathlib-style I/O)",
                        )
                    )
                continue
            root = raw.split(".", 1)
            if root[0] in ("self", "cls") and info.cls is not None:
                if len(root) == 2 and "." not in root[1]:
                    resolved = _method_lookup(
                        project, f"{info.module}.{info.cls}", root[1]
                    )
                    site.resolved = resolved
                continue
            dotted = _chase_export(project, raw)
            if "." not in dotted:
                # Bare name: a function defined in the same module?
                local = f"{info.module}.{dotted}"
                if local in project.functions:
                    site.resolved = local
                    continue
            if dotted in project.functions:
                site.resolved = dotted
                continue
            if dotted in project.classes:
                init = _method_lookup(project, dotted, "__init__")
                site.resolved = init
                continue
            effect = stubs.classify_call(dotted, site.argless)
            if effect is not None:
                info.effect_sites.append(
                    EffectSite(
                        effect=effect,
                        lineno=site.lineno,
                        end_lineno=site.end_lineno,
                        detail=f"{dotted}()",
                    )
                )


def _build_exception_hierarchy(project: Project) -> None:
    """Leaf-name hierarchy of project exception classes, rooted at
    ``repro.exceptions.ReproError`` (plus stdlib bases by name)."""
    parent_of: "dict[str, set]" = {}
    for cls in project.classes.values():
        parents: set = set()
        for base in cls.bases:
            resolved = _resolve_class(project, cls.module, base)
            leaf = (resolved or base).rsplit(".", 1)[-1]
            parents.add(leaf)
        parent_of[cls.name] = parents

    def ancestors(name: str, seen: set) -> set:
        if name in seen:
            return set()
        seen.add(name)
        result = set()
        for parent in parent_of.get(name, set()):
            result.add(parent)
            result |= ancestors(parent, seen)
        return result

    children: "dict[str, set]" = {}
    for name in parent_of:
        chain = ancestors(name, set())
        if "ReproError" in chain or name == "ReproError":
            project.repro_exceptions.add(name)
        for ancestor in chain:
            children.setdefault(ancestor, set()).add(name)
    project._exception_children = children


def _propagate(project: Project) -> None:
    """Transitive closure of effects and escaping raises (fixpoint)."""
    for info in project.functions.values():
        info.effects = {site.effect for site in info.effect_sites}
        info.raises = {
            site.name
            for site in info.raise_sites
            if not site.catches_all
            and site.name not in project.expand_caught(site.caught)
        }
    changed = True
    passes = 0
    while changed and passes < 1000:
        changed = False
        passes += 1
        for info in project.functions.values():
            effects = set(info.effects)
            raises = set(info.raises)
            for site in info.calls:
                callee = project.functions.get(site.resolved)
                if callee is None:
                    continue
                effects |= callee.effects
                if not site.catches_all:
                    raises |= callee.raises - project.expand_caught(
                        site.caught
                    )
            if effects != info.effects or raises != info.raises:
                info.effects = effects
                info.raises = raises
                changed = True


def build_project_from_contexts(
    contexts: "Iterable[ModuleContext]",
    errors: "Iterable[str]" = (),
) -> Project:
    project = Project()
    project.errors = list(errors)
    for ctx in contexts:
        _extract_module(project, ctx)
    _build_exception_hierarchy(project)
    _resolve_calls(project)
    _propagate(project)
    return project


def build_project(paths: "Iterable") -> Project:
    """Parse files/directories into an analyzed :class:`Project`."""
    from repro.analysis.core import iter_python_files

    contexts = []
    errors = []
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            errors.append(f"{path}: unreadable ({exc})")
            continue
        try:
            contexts.append(
                ModuleContext(
                    source,
                    path=path.as_posix(),
                    module=_module_name(path.as_posix()),
                )
            )
        except SyntaxError as exc:
            errors.append(
                f"{path}: syntax error ({exc.msg}, line {exc.lineno})"
            )
    return build_project_from_contexts(contexts, errors)


def build_project_from_sources(sources: "dict[str, str]") -> Project:
    """In-memory construction (selftests, unit tests): ``module name ->
    source``."""
    contexts = [
        ModuleContext(source, path=f"<{module}>", module=module)
        for module, source in sources.items()
    ]
    return build_project_from_contexts(contexts)


def write_graph(project: Project, path: str) -> None:
    """Write the call-graph artifact: Graphviz for ``.dot`` targets,
    JSON otherwise — through the atomic persistence helper, as RPR005
    demands of every writer in the tree."""
    from repro.core.persistence import atomic_write_text

    if str(path).endswith(".dot"):
        atomic_write_text(path, project.graph_as_dot())
    else:
        atomic_write_text(
            path,
            json.dumps(project.graph_as_dict(), indent=2, sort_keys=True)
            + "\n",
        )
