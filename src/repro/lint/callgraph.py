"""Whole-program import graph and name-resolved call graph.

The per-file rules in :mod:`repro.lint.rules` see one module at a time,
which is exactly the wrong granularity for the bug classes that now
threaten the engine: the two move cores must mutate shared state in
lockstep, and the planned speculative-parallel moves are only safe once
"what state does this call tree touch?" has a static answer.  This
module provides the substrate for those answers:

* :class:`Program` — parse every module under a package root once,
  collect imports, classes (with attribute-type heuristics), and
  functions, then resolve every call site to a concrete target where
  the types allow it;
* :class:`CallSite` — one resolved (or classified-unresolvable) call,
  carrying the *origin* of its receiver and arguments so the effect
  analysis (:mod:`repro.lint.effects`) can map callee effects onto
  caller state;
* :func:`Program.to_dot` — Graphviz export of the call graph (or a
  reachable subtree) for docs and debugging.

Resolution is deliberately best-effort and sound-for-rules: anything
the heuristics cannot prove is classified ``unresolved`` and the deep
rules treat it as effect-free-but-suspicious (imprecision costs recall,
never precision).  The resolution *rate* over ``src/repro`` is pinned
by a test — the analyzer is only trustworthy while it actually sees
the engine's call tree.

Type heuristics, in priority order: parameter / variable / dataclass
annotations (including quoted forward references and ``Optional[...]``
unwrapping), ``self.attr = <constructible>`` assignments, constructor
calls, internal-method return annotations, and one level of container
element types (``list[NetRoute]`` subscripts, iteration targets).
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

# ----------------------------------------------------------------------
# Origins: where a value a function manipulates ultimately comes from.
# Mutating a value only matters to callers when its origin escapes the
# function — a parameter, ``self``, or a module-level global.
# ----------------------------------------------------------------------
ORIGIN_SELF = ("self",)
ORIGIN_NEW = ("new",)
ORIGIN_UNKNOWN = ("unknown",)
ORIGIN_GLOBAL = ("global",)


def origin_param(name: str) -> tuple:
    """Origin token for a caller-visible parameter."""
    return ("param", name)


#: Builtin container / scalar "types" the lightweight inference tracks.
BUILTIN_KINDS = frozenset(
    {"str", "list", "dict", "set", "frozenset", "tuple", "int", "float",
     "bool", "bytes", "bytearray", "object", "type", "complex"}
)

#: Annotation names that imply a list-like container (element type kept).
_SEQ_ANNOTATIONS = frozenset(
    {"list", "List", "tuple", "Tuple", "Sequence", "MutableSequence",
     "Iterable", "Iterator", "Collection", "frozenset", "set", "Set",
     "FrozenSet"}
)
_MAP_ANNOTATIONS = frozenset(
    {"dict", "Dict", "Mapping", "MutableMapping", "DefaultDict",
     "defaultdict", "OrderedDict"}
)

_BUILTIN_NAMES = frozenset(dir(builtins))


@dataclass
class FunctionInfo:
    """One module-level function or class method."""

    module: str
    qualname: str  # "func" or "Class.method"
    node: ast.AST
    path: str
    klass: Optional[str] = None  # enclosing class simple name
    is_method: bool = False
    is_classmethod: bool = False
    is_staticmethod: bool = False
    params: list = field(default_factory=list)  # names, in order
    param_types: dict = field(default_factory=dict)  # name -> type id
    return_type: Optional[str] = None
    # Filled by the scanning pass:
    call_sites: list = field(default_factory=list)
    effect_sites: list = field(default_factory=list)  # EffectSite records
    write_sites: list = field(default_factory=list)  # WriteSite records

    @property
    def id(self) -> str:
        """Globally unique id: ``module.qualname``."""
        return f"{self.module}.{self.qualname}"

    @property
    def name(self) -> str:
        """Bare function/method name."""
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def bound_params(self) -> list:
        """Parameters a caller binds (``self``/``cls`` stripped)."""
        if self.is_method and not self.is_staticmethod and self.params:
            return self.params[1:]
        return self.params


@dataclass
class ClassInfo:
    """One class: methods, attribute types, resolved bases."""

    module: str
    name: str
    node: ast.ClassDef
    path: str
    bases: list = field(default_factory=list)  # resolved class ids
    methods: dict = field(default_factory=dict)  # name -> function id
    attr_types: dict = field(default_factory=dict)  # attr -> type id
    #: True when a base class lives outside the program (stdlib /
    #: third-party): a method lookup miss then means "inherited".
    external_bases: bool = False

    @property
    def id(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class CallSite:
    """One call expression, resolved as far as the heuristics allow.

    ``kind`` is one of ``internal`` (edge to a program function),
    ``class`` (constructor of a program class), ``builtin``,
    ``external`` (stdlib / third-party), ``local`` (nested def or
    callable alias of one), or ``unresolved``.
    """

    caller: str
    lineno: int
    col: int
    kind: str
    target: str  # display name; function id when kind == "internal"
    callee: Optional[str] = None  # function id for internal edges
    receiver_origin: Optional[tuple] = None
    #: callee parameter name -> argument origin, for effect mapping.
    arg_origins: dict = field(default_factory=dict)
    #: origins of arguments we could not bind to a parameter.
    loose_origins: list = field(default_factory=list)


@dataclass
class EffectSite:
    """One syntactic effect source inside a function body."""

    kind: str  # "mutates" | "entropy" | "wallclock" | "filesystem" | "stdout"
    target: str  # mutation target token, or source description
    lineno: int
    col: int


@dataclass
class WriteSite:
    """A direct field write (store / del / container mutator) through an
    expression whose static type is a program class."""

    class_id: str
    attr: str
    via_self: bool  # base chain is rooted at the enclosing instance
    lineno: int
    col: int


class ModuleInfo:
    """Parsed module plus its symbol tables."""

    def __init__(self, name: str, path: str, source: str) -> None:
        self.name = name
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.imports: dict[str, str] = {}  # local alias -> dotted target
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}

    def package(self, level: int = 1) -> str:
        """Enclosing package name, ``level`` steps up (for relative imports)."""
        parts = self.name.split(".")
        return ".".join(parts[:-level]) if len(parts) >= level else ""


def module_name_for(path: Path) -> str:
    """Dotted module name inferred from package ``__init__.py`` nesting."""
    path = Path(path)
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _annotation_type(node: Optional[ast.expr], resolve) -> Optional[str]:
    """Type id implied by an annotation node.

    ``resolve`` maps a raw dotted name to a type id (class id, external
    dotted name, or builtin kind).  Returns e.g. ``"pkg.mod.Class"``,
    ``"list[pkg.mod.Class]"``, ``"dict[*,pkg.mod.Class]"`` or None.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # Quoted forward reference: parse the string as an expression.
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, (ast.Name, ast.Attribute)):
        dotted = _dotted_name(node)
        return resolve(dotted) if dotted else None
    if isinstance(node, ast.Subscript):
        base = _dotted_name(node.value)
        if base is None:
            return None
        simple = base.rsplit(".", 1)[-1]
        inner = node.slice
        parts = list(inner.elts) if isinstance(inner, ast.Tuple) else [inner]
        if simple == "Optional" and parts:
            return _annotation_type(parts[0], resolve)
        if simple == "Union":
            kinds = {_annotation_type(p, resolve) for p in parts}
            kinds.discard(None)
            return kinds.pop() if len(kinds) == 1 else None
        if simple in _SEQ_ANNOTATIONS and parts:
            elem = _annotation_type(parts[0], resolve)
            return f"list[{elem}]" if elem else "list"
        if simple in _MAP_ANNOTATIONS and parts:
            value = _annotation_type(parts[-1], resolve)
            return f"dict[*,{value}]" if value else "dict"
        resolved = resolve(base)
        return resolved
    return None


def _dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` attribute chain as a dotted string, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _decorator_names(node) -> set[str]:
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        dotted = _dotted_name(target)
        if dotted:
            names.add(dotted.rsplit(".", 1)[-1])
    return names


def element_type(container: Optional[str]) -> Optional[str]:
    """Element (or mapping value) type of a container type id."""
    if container is None:
        return None
    if container.startswith("list[") and container.endswith("]"):
        return container[5:-1]
    if container.startswith("dict[*,") and container.endswith("]"):
        return container[7:-1]
    return None


class Program:
    """All modules under one (or more) package roots, cross-resolved."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._class_by_simple: dict[str, list[str]] = {}
        self.parse_errors: list[tuple[str, str]] = []
        # Resolution statistics, filled by the scanning pass.
        self.total_calls = 0
        self.unresolved_calls = 0
        self.unresolved_samples: list[tuple[str, int, str]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_paths(
        cls,
        paths: Iterable,
        overrides: Optional[dict] = None,
    ) -> "Program":
        """Build from files/directories.

        ``overrides`` maps a path suffix (or exact module name) to
        replacement source text — the test hook that injects synthetic
        violations without touching the tree on disk.
        """
        from .engine import iter_python_files

        program = cls()
        overrides = overrides or {}
        for file_path in iter_python_files([Path(p) for p in paths]):
            name = module_name_for(file_path)
            key = str(file_path).replace("\\", "/")
            source = None
            for pattern, text in overrides.items():
                if key.endswith(str(pattern)) or pattern == name:
                    source = text
                    break
            if source is None:
                source = Path(file_path).read_text(encoding="utf-8")
            program._add_module(name, key, source)
        program._finish()
        return program

    @classmethod
    def from_sources(cls, sources: dict) -> "Program":
        """Build from an in-memory ``{module_name: source}`` mapping."""
        program = cls()
        for name in sorted(sources):
            path = name.replace(".", "/") + ".py"
            program._add_module(name, path, sources[name])
        program._finish()
        return program

    def _add_module(self, name: str, path: str, source: str) -> None:
        try:
            module = ModuleInfo(name, path, source)
        except SyntaxError as exc:
            self.parse_errors.append((path, str(exc)))
            return
        self.modules[name] = module

    def _finish(self) -> None:
        for module in self.modules.values():
            self._collect_imports(module)
            self._collect_defs(module)
        for class_info in self.classes.values():
            self._class_by_simple.setdefault(class_info.name, []).append(
                class_info.id
            )
        for module in self.modules.values():
            self._collect_annotations(module)
        for module in self.modules.values():
            self._collect_attr_assignments(module)
        for module in self.modules.values():
            self._resolve_bases(module)
        scanner_cls = _FunctionScanner  # late import cycle avoidance
        for module_name in sorted(self.modules):
            module = self.modules[module_name]
            for qualname in sorted(module.functions):
                scanner_cls(self, module, module.functions[qualname]).scan()

    # -- symbol collection ---------------------------------------------
    def _collect_imports(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    module.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = module.package(node.level)
                    target_mod = (
                        f"{base}.{node.module}" if node.module else base
                    )
                else:
                    target_mod = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.imports[local] = f"{target_mod}.{alias.name}"

    def _register_function(
        self, module: ModuleInfo, node, klass: Optional[ClassInfo]
    ) -> None:
        qualname = f"{klass.name}.{node.name}" if klass else node.name
        decorators = _decorator_names(node)
        info = FunctionInfo(
            module=module.name,
            qualname=qualname,
            node=node,
            path=module.path,
            klass=klass.name if klass else None,
            is_method=klass is not None,
            is_classmethod="classmethod" in decorators,
            is_staticmethod="staticmethod" in decorators,
        )
        args = node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            info.params.append(arg.arg)
        module.functions[qualname] = info
        self.functions[info.id] = info
        if klass is not None:
            klass.methods.setdefault(node.name, info.id)

    def _collect_defs(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(module, node, None)
            elif isinstance(node, ast.ClassDef):
                klass = ClassInfo(
                    module=module.name, name=node.name, node=node,
                    path=module.path,
                )
                module.classes[node.name] = klass
                self.classes[klass.id] = klass
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._register_function(module, item, klass)

    # -- type resolution ------------------------------------------------
    def resolve_type_name(self, dotted: str, module: ModuleInfo) -> Optional[str]:
        """Raw (possibly dotted) type name -> type id, in module context."""
        if dotted in BUILTIN_KINDS:
            return dotted
        head, _, rest = dotted.partition(".")
        if head in module.classes:
            return module.classes[head].id
        imported = module.imports.get(head)
        if imported is not None:
            full = f"{imported}.{rest}" if rest else imported
            if full in self.classes:
                return full
            # ``from x import Class`` -> imports[Class] = "x.Class"
            if imported in self.classes and not rest:
                return imported
            return full  # external dotted name (e.g. random.Random)
        # Unique simple name anywhere in the program (common for
        # TYPE_CHECKING-only imports).
        candidates = self._class_by_simple.get(dotted)
        if candidates is not None and len(candidates) == 1:
            return candidates[0]
        return None

    def _collect_annotations(self, module: ModuleInfo) -> None:
        """Parameter/return annotations and class-level field annotations."""

        def resolve(name: str) -> Optional[str]:
            return self.resolve_type_name(name, module)

        for info in module.functions.values():
            node = info.node
            args = node.args
            for arg in (
                list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)
            ):
                kind = _annotation_type(arg.annotation, resolve)
                if kind is not None:
                    info.param_types[arg.arg] = kind
            info.return_type = _annotation_type(node.returns, resolve)
        for klass in module.classes.values():
            for item in klass.node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    kind = _annotation_type(item.annotation, resolve)
                    if kind is not None:
                        klass.attr_types[item.target.id] = kind

    def _collect_attr_assignments(self, module: ModuleInfo) -> None:
        """Instance-attribute types from ``self.x = ...`` in methods."""
        for info in module.functions.values():
            if not info.is_method or info.is_staticmethod:
                continue
            klass = module.classes.get(info.klass)
            if klass is None or not info.params:
                continue
            self_name = info.params[0]
            for node in ast.walk(info.node):
                value = None
                target = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == self_name
                ):
                    continue
                if isinstance(node, ast.AnnAssign):
                    kind = _annotation_type(
                        node.annotation,
                        lambda n: self.resolve_type_name(n, module),
                    )
                else:
                    kind = self._shallow_value_type(value, module, info)
                if kind is not None and target.attr not in klass.attr_types:
                    klass.attr_types[target.attr] = kind

    def _shallow_value_type(
        self, value: Optional[ast.expr], module: ModuleInfo, info: FunctionInfo
    ) -> Optional[str]:
        """Constructor-call / annotated-param type of an ``__init__`` value."""
        if value is None:
            return None
        if isinstance(value, ast.Call):
            dotted = _dotted_name(value.func)
            if dotted is not None:
                resolved = self.resolve_type_name(dotted, module)
                if resolved in self.classes or (
                    resolved is not None and resolved not in BUILTIN_KINDS
                    and "." in resolved
                ):
                    return resolved
                if resolved in BUILTIN_KINDS:
                    return resolved
            return None
        if isinstance(value, ast.Name):
            return info.param_types.get(value.id)
        if isinstance(value, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(value, ast.Constant):
            kind = type(value.value).__name__
            return kind if kind in BUILTIN_KINDS else None
        return None

    def _resolve_bases(self, module: ModuleInfo) -> None:
        for klass in module.classes.values():
            for base in klass.node.bases:
                dotted = _dotted_name(base)
                if dotted is None:
                    klass.external_bases = True
                    continue
                resolved = self.resolve_type_name(dotted, module)
                if resolved in self.classes:
                    klass.bases.append(resolved)
                else:
                    klass.external_bases = True

    # -- class queries ---------------------------------------------------
    def lookup_method(self, class_id: str, name: str) -> Optional[str]:
        """Method resolution over the internal-base MRO (best effort)."""
        seen = set()
        stack = [class_id]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            klass = self.classes.get(current)
            if klass is None:
                continue
            if name in klass.methods:
                return klass.methods[name]
            stack.extend(klass.bases)
        return None

    def lookup_attr_type(self, class_id: str, attr: str) -> Optional[str]:
        """Attribute type over the internal-base MRO (best effort)."""
        seen = set()
        stack = [class_id]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            klass = self.classes.get(current)
            if klass is None:
                continue
            if attr in klass.attr_types:
                return klass.attr_types[attr]
            stack.extend(klass.bases)
        return None

    def inherits_external(self, class_id: str) -> bool:
        """Whether the class has a base outside the program (any depth)."""
        seen = set()
        stack = [class_id]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            klass = self.classes.get(current)
            if klass is None:
                continue
            if klass.external_bases:
                return True
            stack.extend(klass.bases)
        return False

    def is_subclass(self, class_id: str, ancestor_id: str) -> bool:
        """Whether ``class_id`` is ``ancestor_id`` or derives from it."""
        seen = set()
        stack = [class_id]
        while stack:
            current = stack.pop(0)
            if current == ancestor_id:
                return True
            if current in seen:
                continue
            seen.add(current)
            klass = self.classes.get(current)
            if klass is not None:
                stack.extend(klass.bases)
        return False

    def classes_named(self, simple_name: str) -> list[str]:
        """All class ids with the given simple name."""
        return sorted(self._class_by_simple.get(simple_name, []))

    # ------------------------------------------------------------------
    # Graph queries
    # ------------------------------------------------------------------
    def edges(self) -> dict:
        """Caller id -> sorted unique internal callee ids."""
        out: dict[str, list[str]] = {}
        for fn_id in sorted(self.functions):
            targets = {
                site.callee
                for site in self.functions[fn_id].call_sites
                if site.callee is not None
            }
            out[fn_id] = sorted(targets)
        return out

    def reachable_from(self, roots: Iterable[str]) -> dict:
        """BFS over internal edges; returns ``{fn_id: parent_or_None}``."""
        edges = self.edges()
        parents: dict[str, Optional[str]] = {}
        queue = []
        for root in roots:
            if root in self.functions and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for callee in edges.get(current, ()):
                if callee not in parents:
                    parents[callee] = current
                    queue.append(callee)
        return parents

    def call_chain(self, parents: dict, fn_id: str) -> list[str]:
        """Root -> ... -> fn path recovered from BFS parent pointers."""
        chain = [fn_id]
        while parents.get(chain[-1]) is not None:
            chain.append(parents[chain[-1]])
        return list(reversed(chain))

    def resolution_rate(self) -> float:
        """Fraction of call sites classified (1.0 when no calls at all)."""
        if not self.total_calls:
            return 1.0
        return 1.0 - self.unresolved_calls / self.total_calls

    def to_dot(
        self, root: Optional[str] = None, max_depth: Optional[int] = None
    ) -> str:
        """Graphviz DOT text for the call graph (or a subtree).

        ``root`` is a function id (or unique suffix); when given, only
        nodes reachable from it are emitted, optionally depth-bounded.
        """
        edges = self.edges()
        keep = None
        if root is not None:
            resolved_root = self._resolve_fn_ref(root)
            if resolved_root is None:
                raise KeyError(f"no function matches {root!r}")
            keep = {resolved_root: 0}
            queue = [resolved_root]
            while queue:
                current = queue.pop(0)
                depth = keep[current]
                if max_depth is not None and depth >= max_depth:
                    continue
                for callee in edges.get(current, ()):
                    if callee not in keep:
                        keep[callee] = depth + 1
                        queue.append(callee)
        lines = ["digraph callgraph {", "  rankdir=LR;", "  node [shape=box, fontsize=10];"]
        def label(fn_id: str) -> str:
            info = self.functions[fn_id]
            short = info.module.split(".", 1)[-1]
            return f"{short}:{info.qualname}"
        for caller in sorted(edges):
            if keep is not None and caller not in keep:
                continue
            for callee in edges[caller]:
                if keep is not None and callee not in keep:
                    continue
                lines.append(
                    f'  "{label(caller)}" -> "{label(callee)}";'
                )
        lines.append("}")
        return "\n".join(lines)

    def _resolve_fn_ref(self, ref: str) -> Optional[str]:
        if ref in self.functions:
            return ref
        matches = [
            fn_id for fn_id in sorted(self.functions)
            if fn_id.endswith("." + ref) or fn_id.endswith(ref)
        ]
        return matches[0] if matches else None


#: Container mutator methods (the stdlib vocabulary shared with the
#: per-file undocumented-mutation rule).
BUILTIN_MUTATORS = frozenset(
    {"add", "append", "extend", "insert", "update", "discard", "remove",
     "pop", "popitem", "clear", "setdefault", "sort", "reverse",
     "popleft", "appendleft", "extendleft"}
)

#: Read-only methods of the stdlib container / string / regex / hash /
#: file protocols.  A call spelled ``x.get(...)`` is classified by its
#: *name* even when the receiver's type is unknown: the vocabulary is
#: unambiguous enough that treating it as an effect-free builtin call
#: is sound for the deep rules (any same-named domain method that DID
#: mutate state would be caught by the per-file undocumented-mutation
#: vocabulary instead).
BUILTIN_PROTOCOL_PURE = frozenset(
    {
        # dict / list / set read API
        "get", "items", "keys", "values", "copy", "index", "count",
        "most_common", "union", "intersection", "difference",
        "symmetric_difference", "issubset", "issuperset", "isdisjoint",
        # str
        "split", "rsplit", "splitlines", "strip", "lstrip", "rstrip",
        "startswith", "endswith", "format", "join", "replace", "lower",
        "upper", "islower", "isupper", "isdigit", "isalpha", "title",
        "zfill", "ljust", "rjust", "casefold", "find", "rfind",
        "partition", "rpartition", "removeprefix", "removesuffix",
        "encode", "decode",
        # re match objects
        "group", "groups", "groupdict", "start", "end", "span",
        # hashlib
        "hexdigest", "digest",
        # file handles (the filesystem effect is charged at open())
        "write", "writelines", "read", "readline", "readlines", "flush",
        "close", "seek", "tell", "fileno",
    }
)

# External nondeterminism tables (dotted-call targets).
_ENTROPY_MODULE_PREFIXES = ("secrets.",)
_WALLCLOCK_TARGETS = frozenset(
    {"time.time", "time.time_ns", "time.localtime", "time.ctime",
     "time.gmtime", "datetime.datetime.now", "datetime.datetime.utcnow",
     "datetime.datetime.today", "datetime.date.today"}
)
_TELEMETRY_TARGETS = frozenset(
    {"time.perf_counter", "time.perf_counter_ns", "time.monotonic",
     "time.monotonic_ns", "time.process_time", "time.thread_time"}
)
_ENTROPY_TARGETS = frozenset(
    {"os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4"}
)
_FILESYSTEM_TARGETS = frozenset(
    {"os.remove", "os.unlink", "os.rename", "os.replace", "os.mkdir",
     "os.makedirs", "os.rmdir", "os.listdir", "os.scandir", "os.stat",
     "os.fsync", "os.open", "os.fdopen", "os.getcwd", "os.chdir"}
)
_FILESYSTEM_MODULE_PREFIXES = ("shutil.", "tempfile.")
_PATH_FILESYSTEM_METHODS = frozenset(
    {"open", "read_text", "write_text", "read_bytes", "write_bytes",
     "mkdir", "unlink", "rename", "replace", "exists", "glob", "rglob",
     "touch", "rmdir", "stat", "iterdir"}
)

#: str methods returning str (enough chain inference for resolution).
_STR_RETURNS_STR = frozenset(
    {"replace", "strip", "lstrip", "rstrip", "lower", "upper", "title",
     "format", "join", "ljust", "rjust", "zfill", "capitalize",
     "casefold", "expandtabs", "removeprefix", "removesuffix"}
)


def _entropy_target(target: str) -> bool:
    if target in _ENTROPY_TARGETS:
        return True
    if target.startswith(_ENTROPY_MODULE_PREFIXES):
        return True
    # Module-level random.* convenience wrappers (lowercase functions
    # backed by the hidden global RNG).  random.Random / SystemRandom
    # constructors are the approved escape hatch.
    if target.startswith("random."):
        tail = target.split(".", 1)[1]
        return "." not in tail and tail[:1].islower()
    return False


class _FunctionScanner:
    """Per-function pass: local types/origins, calls, effects, writes."""

    def __init__(
        self, program: Program, module: ModuleInfo, info: FunctionInfo
    ) -> None:
        self.program = program
        self.module = module
        self.info = info
        self.local_types: dict[str, str] = {}
        self.local_origins: dict[str, tuple] = {}
        #: local name -> ("alias", kind, target, callee, receiver_origin)
        self.callable_aliases: dict[str, tuple] = {}
        self.nested_defs: set[str] = set()
        self.enclosing_class_id = (
            f"{module.name}.{info.klass}" if info.klass else None
        )

    # -- entry ---------------------------------------------------------
    def scan(self) -> None:
        body = self.info.node.body
        self._collect_locals(self.info.node)
        for statement in body:
            self._scan_node(statement)

    # ------------------------------------------------------------------
    # Pass A: locals
    # ------------------------------------------------------------------
    def _collect_locals(self, root) -> None:
        for node in ast.walk(root):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not root:
                    self.nested_defs.add(node.name)
            elif isinstance(node, ast.Lambda):
                continue
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self._record_local(target.id, node.value)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                kind = _annotation_type(
                    node.annotation,
                    lambda n: self.program.resolve_type_name(n, self.module),
                )
                if kind is not None:
                    self.local_types.setdefault(node.target.id, kind)
                if node.value is not None:
                    self._record_local(
                        node.target.id, node.value, keep_type=kind is None
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
                node.target, ast.Name
            ):
                iter_type = self.type_of(node.iter)
                elem = element_type(iter_type)
                if elem is not None:
                    self.local_types.setdefault(node.target.id, elem)
                origin = self.origin_of(node.iter)
                if origin in (ORIGIN_SELF,) or origin[0] == "param":
                    self.local_origins.setdefault(node.target.id, origin)
            elif isinstance(node, ast.withitem) and isinstance(
                node.optional_vars, ast.Name
            ):
                self.local_origins.setdefault(node.optional_vars.id, ORIGIN_NEW)

    def _record_local(self, name: str, value, keep_type: bool = True) -> None:
        pick = value
        if isinstance(pick, ast.IfExp):
            # ``x = None if c else obj.method`` — alias through the
            # informative branch.
            for candidate in (pick.body, pick.orelse):
                if not (
                    isinstance(candidate, ast.Constant)
                    and candidate.value is None
                ):
                    pick = candidate
                    break
        if isinstance(pick, ast.Lambda):
            # ``make = lambda ...``: calls through the name are local;
            # the lambda body is already folded into this function.
            self.nested_defs.add(name)
            return
        alias = self._callable_alias_of(pick)
        if alias is not None:
            self.callable_aliases.setdefault(name, alias)
            return
        if keep_type:
            kind = self.type_of(pick)
            if kind is not None:
                self.local_types.setdefault(name, kind)
        origin = self.origin_of(pick)
        self.local_origins.setdefault(name, origin)

    def _callable_alias_of(self, value) -> Optional[tuple]:
        """Bound-method / module-function alias target, if recognizable."""
        if not isinstance(value, ast.Attribute):
            return None
        base = value.value
        # Module alias: heapq.heappush
        if isinstance(base, ast.Name):
            imported = self.module.imports.get(base.id)
            if imported is not None and imported not in self.program.modules:
                target = f"{imported}.{value.attr}"
                if f"{imported}" in {
                    m.split(".")[0] for m in self.program.modules
                }:
                    pass
                if target in self.program.functions:
                    return ("internal", target, target, None)
                return ("external", target, None, None)
            if imported is not None:
                target = f"{imported}.{value.attr}"
                if target in self.program.functions:
                    return ("internal", target, target, None)
        # Bound method: obj.method where type(obj) is a program class.
        base_type = self.type_of(base)
        if base_type is not None and base_type in self.program.classes:
            method = self.program.lookup_method(base_type, value.attr)
            if method is not None:
                return ("internal", method, method, self.origin_of(base))
        return None

    # ------------------------------------------------------------------
    # Types and origins
    # ------------------------------------------------------------------
    def type_of(self, node) -> Optional[str]:
        """Static type id of an expression, or None."""
        program = self.program
        if isinstance(node, ast.Name):
            name = node.id
            if self.info.is_method and not self.info.is_staticmethod and \
                    self.info.params and name == self.info.params[0]:
                if self.info.is_classmethod:
                    return None  # cls: a class object, handled in calls
                return self.enclosing_class_id
            if name in self.local_types:
                return self.local_types[name]
            if name in self.info.param_types:
                return self.info.param_types[name]
            return None
        if isinstance(node, ast.Attribute):
            base_type = self.type_of(node.value)
            if base_type is not None and base_type in program.classes:
                return program.lookup_attr_type(base_type, node.attr)
            return None
        if isinstance(node, ast.Subscript):
            return element_type(self.type_of(node.value))
        if isinstance(node, ast.Call):
            return self._call_return_type(node)
        if isinstance(node, ast.Constant):
            kind = type(node.value).__name__
            return kind if kind in BUILTIN_KINDS else None
        if isinstance(node, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(node, ast.Tuple):
            return "tuple"
        if isinstance(node, ast.JoinedStr):
            return "str"
        if isinstance(node, ast.IfExp):
            body = self.type_of(node.body)
            orelse = self.type_of(node.orelse)
            return body if body == orelse else (body or orelse)
        if isinstance(node, ast.BoolOp):
            kinds = {self.type_of(v) for v in node.values}
            kinds.discard(None)
            return kinds.pop() if len(kinds) == 1 else None
        return None

    def _call_return_type(self, node: ast.Call) -> Optional[str]:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and self.info.is_classmethod
            and self.info.params
            and func.id == self.info.params[0]
        ):
            return self.enclosing_class_id  # cls(...) in a classmethod
        dotted = _dotted_name(func)
        if dotted is not None:
            resolved = self.program.resolve_type_name(dotted, self.module)
            if resolved in self.program.classes:
                return resolved  # constructor
            head = dotted.split(".", 1)[0]
            if head in ("sorted",):
                inner = element_type(self.type_of(node.args[0])) if node.args else None
                return f"list[{inner}]" if inner else "list"
            if head in ("list", "tuple", "set", "frozenset", "dict", "str",
                        "int", "float", "bool", "bytes"):
                return "list" if head == "list" else (
                    head if head in BUILTIN_KINDS else None
                )
            if resolved is not None and resolved not in BUILTIN_KINDS and \
                    "." in resolved and resolved not in self.program.functions:
                # External constructor-ish call (random.Random(...),
                # Path(...)): keep the dotted name as the type.
                tail = resolved.rsplit(".", 1)[-1]
                if tail[:1].isupper():
                    return resolved
        # Internal function / method return annotations.
        site_target = self._resolve_callee_for_type(func)
        if site_target is not None:
            info = self.program.functions.get(site_target)
            if info is not None:
                return info.return_type
        # str method chains; external-instance method chains.
        if isinstance(func, ast.Attribute):
            base_type = self.type_of(func.value)
            if base_type == "str" or isinstance(func.value, ast.Constant):
                if func.attr in _STR_RETURNS_STR:
                    return "str"
                if func.attr in ("split", "rsplit", "splitlines"):
                    return "list[str]"
            if base_type is not None and base_type not in \
                    self.program.classes and base_type.split(
                        "[", 1
                    )[0] not in BUILTIN_KINDS:
                # A method call on an external object yields another
                # external object (argparse chains, Path chains, ...);
                # the marker type keeps further attribute calls on the
                # result classified as external instead of unresolved.
                return "external:instance"
        return None

    def _resolve_callee_for_type(self, func) -> Optional[str]:
        """Lightweight callee lookup used only for return-type chains."""
        if isinstance(func, ast.Name):
            alias = self.callable_aliases.get(func.id)
            if alias is not None and alias[0] == "internal":
                return alias[2]
            if func.id in self.module.functions:
                return self.module.functions[func.id].id
            imported = self.module.imports.get(func.id)
            if imported in self.program.functions:
                return imported
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                imported = self.module.imports.get(base.id)
                if imported is not None:
                    target = f"{imported}.{func.attr}"
                    if target in self.program.functions:
                        return target
            base_type = self.type_of(base)
            if base_type in self.program.classes:
                return self.program.lookup_method(base_type, func.attr)
        return None

    def origin_of(self, node) -> tuple:
        """Escape origin of an expression's *root* object."""
        while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
            node = node.value
        if isinstance(node, ast.Name):
            name = node.id
            if self.info.is_method and not self.info.is_staticmethod and \
                    self.info.params and name == self.info.params[0]:
                return ORIGIN_SELF
            if name in self.info.params:
                return origin_param(name)
            if name in self.local_origins:
                return self.local_origins[name]
            if name in self.callable_aliases:
                alias = self.callable_aliases[name]
                return alias[3] if alias[3] is not None else ORIGIN_UNKNOWN
            if name in self.nested_defs or name in _BUILTIN_NAMES:
                return ORIGIN_NEW
            if name in self.module.imports or name in self.module.functions \
                    or name in self.module.classes:
                return ORIGIN_GLOBAL
            return ORIGIN_UNKNOWN
        if isinstance(node, ast.Call):
            # A call result is a fresh object unless it is a known
            # accessor chain; treating it as new keeps local-object
            # mutations (journals built and returned) out of caller
            # effect sets.
            return ORIGIN_NEW
        if isinstance(node, (ast.Constant, ast.List, ast.Dict, ast.Set,
                             ast.Tuple, ast.ListComp, ast.DictComp,
                             ast.SetComp, ast.GeneratorExp, ast.JoinedStr,
                             ast.BinOp, ast.UnaryOp, ast.Compare)):
            return ORIGIN_NEW
        if isinstance(node, ast.IfExp):
            body = self.origin_of(node.body)
            orelse = self.origin_of(node.orelse)
            if body == orelse:
                return body
            for candidate in (body, orelse):
                if candidate != ORIGIN_NEW:
                    return candidate
            return ORIGIN_NEW
        return ORIGIN_UNKNOWN

    # ------------------------------------------------------------------
    # Pass B: statements -> calls / effects / writes
    # ------------------------------------------------------------------
    def _scan_node(self, node) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._scan_call(sub)
            elif isinstance(sub, ast.Assign):
                for target in sub.targets:
                    self._scan_store(sub, target)
            elif isinstance(sub, ast.AugAssign):
                self._scan_store(sub, sub.target)
            elif isinstance(sub, ast.AnnAssign):
                self._scan_store(sub, sub.target)
            elif isinstance(sub, ast.Delete):
                for target in sub.targets:
                    self._scan_store(sub, target)

    # -- stores ---------------------------------------------------------
    def _scan_store(self, stmt, target) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._scan_store(stmt, element)
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        origin = self.origin_of(target)
        if origin == ORIGIN_SELF or origin[0] == "param" or \
                origin == ORIGIN_GLOBAL:
            self._add_effect(
                stmt, "mutates", self._mutation_target(origin),
                lineno=target.lineno, col=target.col_offset,
            )
        self._record_guarded_writes(stmt, target)

    def _mutation_target(self, origin: tuple) -> str:
        if origin == ORIGIN_SELF:
            return "self"
        if origin == ORIGIN_GLOBAL:
            return "global"
        return f"param:{origin[1]}"

    def _record_guarded_writes(self, stmt, target) -> None:
        """Record every field write through a program-class-typed base."""
        node = target
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node, ast.Attribute):
                base_type = self.type_of(node.value)
                if base_type is not None and base_type in self.program.classes:
                    via_self = (
                        isinstance(node.value, ast.Name)
                        and self.origin_of(node.value) == ORIGIN_SELF
                    )
                    self.info.write_sites.append(
                        WriteSite(
                            class_id=base_type,
                            attr=node.attr, via_self=via_self,
                            lineno=node.lineno, col=node.col_offset,
                        )
                    )
            node = node.value

    # -- calls ----------------------------------------------------------
    def _scan_call(self, node: ast.Call) -> None:
        site = self._resolve_call(node)
        self.info.call_sites.append(site)
        self.program.total_calls += 1
        if site.kind == "unresolved":
            self.program.unresolved_calls += 1
            if len(self.program.unresolved_samples) < 200:
                self.program.unresolved_samples.append(
                    (self.info.id, node.lineno, site.target)
                )
        self._call_effects(node, site)

    def _resolve_call(self, node: ast.Call) -> CallSite:
        func = node.func
        make = lambda kind, target, callee=None, receiver=None: CallSite(
            caller=self.info.id, lineno=node.lineno,
            col=node.col_offset, kind=kind, target=target, callee=callee,
            receiver_origin=receiver,
        )
        program = self.program
        site: Optional[CallSite] = None
        if isinstance(func, ast.Name):
            name = func.id
            alias = self.callable_aliases.get(name)
            if alias is not None:
                kind, target, callee, receiver = alias
                site = make(kind, target, callee, receiver)
            elif name in self.nested_defs:
                site = make("local", f"<nested {name}>")
            elif name in self.module.functions:
                info = self.module.functions[name]
                site = make("internal", info.id, info.id)
            elif name in self.module.classes:
                site = self._constructor_site(node, self.module.classes[name].id)
            elif name in self.module.imports:
                imported = self.module.imports[name]
                if imported in program.functions:
                    site = make("internal", imported, imported)
                elif imported in program.classes:
                    site = self._constructor_site(node, imported)
                elif imported in program.modules:
                    site = make("unresolved", f"<module call {imported}>")
                else:
                    site = make("external", imported)
            elif self.info.is_classmethod and self.info.params and \
                    name == self.info.params[0]:
                if self.enclosing_class_id is not None:
                    site = self._constructor_site(node, self.enclosing_class_id)
            elif name in _BUILTIN_NAMES:
                site = make("builtin", name)
            elif name in self.local_origins or name in self.local_types:
                site = make("unresolved", f"<local callable {name}>")
            elif name in self.info.params:
                site = make("unresolved", f"<callable param {name}>")
            if site is None:
                site = make("unresolved", f"<name {name}>")
        elif isinstance(func, ast.Attribute):
            site = self._resolve_attribute_call(node, func, make)
        elif isinstance(func, ast.Lambda):
            site = make("local", "<lambda>")
        else:
            site = make("unresolved", "<dynamic>")
        if site.callee is not None:
            self._bind_arguments(node, site)
        else:
            self._collect_loose_origins(node, site)
        return site

    def _constructor_site(self, node: ast.Call, class_id: str) -> CallSite:
        init = self.program.lookup_method(class_id, "__init__")
        site = CallSite(
            caller=self.info.id, lineno=node.lineno,
            col=node.col_offset, kind="class", target=class_id, callee=init,
            receiver_origin=ORIGIN_NEW,
        )
        return site

    def _resolve_attribute_call(self, node, func, make) -> CallSite:
        base = func.value
        attr = func.attr
        program = self.program
        # super().method(...)
        if isinstance(base, ast.Call) and isinstance(base.func, ast.Name) \
                and base.func.id == "super":
            if self.enclosing_class_id is not None:
                klass = program.classes.get(self.enclosing_class_id)
                for base_id in (klass.bases if klass else []):
                    method = program.lookup_method(base_id, attr)
                    if method is not None:
                        return make("internal", method, method, ORIGIN_SELF)
            return make("external", f"super().{attr}")
        # Module alias: heapq.heappush, random.random, self-import use.
        dotted = _dotted_name(func)
        if dotted is not None:
            head = dotted.split(".", 1)[0]
            imported = self.module.imports.get(head)
            if imported is not None and not self._shadowed(head):
                target = imported + dotted[len(head):]
                if target in program.functions:
                    return make("internal", target, target)
                if target in program.classes:
                    return self._constructor_site(node, target)
                if imported in program.modules or target.rsplit(
                    ".", 1
                )[0] in program.modules:
                    return make("unresolved", f"<internal attr {target}>")
                return make("external", target)
            # ClassName.method(...) in the same module.
            if head in self.module.classes and "." in dotted:
                rest = dotted.split(".")[1:]
                if len(rest) == 1:
                    method = program.lookup_method(
                        self.module.classes[head].id, rest[0]
                    )
                    if method is not None:
                        return make("internal", method, method)
        # Typed receiver.
        base_type = self.type_of(base)
        if base_type is not None:
            if base_type in program.classes:
                method = program.lookup_method(base_type, attr)
                if method is not None:
                    return make(
                        "internal", method, method, self.origin_of(base)
                    )
                if program.inherits_external(base_type):
                    # Not found internally, but the class extends a
                    # stdlib/third-party base: inherited method.
                    return make(
                        "external", f"{base_type}.{attr} (inherited)",
                        None, self.origin_of(base),
                    )
                return make(
                    "unresolved", f"<{base_type}.{attr}>",
                    None, self.origin_of(base),
                )
            root_kind = base_type.split("[", 1)[0]
            if root_kind in BUILTIN_KINDS:
                return make("builtin", f"{root_kind}.{attr}",
                            None, self.origin_of(base))
            # External instance (random.Random, pathlib.Path, ...).
            return make("external", f"{base_type}.{attr}",
                        None, self.origin_of(base))
        if isinstance(base, ast.Constant) or isinstance(base, ast.JoinedStr):
            return make("builtin", f"literal.{attr}")
        if attr in BUILTIN_MUTATORS or attr in BUILTIN_PROTOCOL_PURE:
            # Unknown receiver, but the method name is stdlib container/
            # string/file vocabulary: classify by protocol.
            return make("builtin", f"?.{attr}", None, self.origin_of(base))
        return make(
            "unresolved", f"<attr {attr}>", None, self.origin_of(base)
        )

    def _shadowed(self, name: str) -> bool:
        return (
            name in self.local_types or name in self.local_origins
            or name in self.info.params or name in self.callable_aliases
        )

    def _bind_arguments(self, node: ast.Call, site: CallSite) -> None:
        callee = self.program.functions.get(site.callee)
        if callee is None:
            return
        params = list(callee.bound_params)
        if callee.is_classmethod and params:
            # ``cls`` already stripped by bound_params only for self;
            # strip cls here.
            if callee.params and callee.params[0] == params[0] and \
                    callee.params[0] in ("cls",):
                params = params[1:]
        positional = [a for a in node.args if not isinstance(a, ast.Starred)]
        for param_name, arg in zip(params, positional):
            site.arg_origins[param_name] = self.origin_of(arg)
        for keyword in node.keywords:
            if keyword.arg is not None and keyword.arg in callee.params:
                site.arg_origins[keyword.arg] = self.origin_of(keyword.value)
            elif keyword.arg is None:
                site.loose_origins.append(self.origin_of(keyword.value))
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                site.loose_origins.append(self.origin_of(arg.value))

    def _collect_loose_origins(self, node: ast.Call, site: CallSite) -> None:
        for arg in node.args:
            site.loose_origins.append(self.origin_of(arg))
        for keyword in node.keywords:
            site.loose_origins.append(self.origin_of(keyword.value))

    # -- effects --------------------------------------------------------
    def _add_effect(self, node, kind: str, target: str,
                    lineno=None, col=None) -> None:
        self.info.effect_sites.append(
            EffectSite(
                kind=kind, target=target,
                lineno=lineno if lineno is not None else node.lineno,
                col=col if col is not None else node.col_offset,
            )
        )

    def _call_effects(self, node: ast.Call, site: CallSite) -> None:
        target = site.target
        if site.kind == "external":
            if _entropy_target(target):
                self._add_effect(node, "entropy", target)
            elif target in _WALLCLOCK_TARGETS:
                self._add_effect(node, "wallclock", target)
            elif target in _TELEMETRY_TARGETS:
                pass  # measurement-only clocks: sanctioned telemetry
            elif target in _FILESYSTEM_TARGETS or target.startswith(
                _FILESYSTEM_MODULE_PREFIXES
            ):
                self._add_effect(node, "filesystem", target)
            elif target.startswith("pathlib.Path.") and target.rsplit(
                ".", 1
            )[-1] in _PATH_FILESYSTEM_METHODS:
                self._add_effect(node, "filesystem", target)
        elif site.kind == "builtin":
            name = target.rsplit(".", 1)[-1]
            if target == "print":
                self._add_effect(node, "stdout", "print")
            elif target == "open":
                self._add_effect(node, "filesystem", "open")
            elif name in BUILTIN_MUTATORS and site.receiver_origin is not None:
                origin = site.receiver_origin
                if origin == ORIGIN_SELF or origin[0] == "param" or \
                        origin == ORIGIN_GLOBAL:
                    self._add_effect(
                        node, "mutates", self._mutation_target(origin)
                    )
                self._record_mutator_write(node)
        elif site.kind == "unresolved":
            # Unknown callee: a container mutator name on an escaping
            # receiver is treated as a definite mutation (the per-file
            # rule's precision); anything else is only "maybe".
            func = node.func
            if isinstance(func, ast.Attribute):
                origin = site.receiver_origin or ORIGIN_UNKNOWN
                escaping = origin == ORIGIN_SELF or (
                    origin and origin[0] == "param"
                )
                if func.attr in BUILTIN_MUTATORS and escaping:
                    self._add_effect(
                        node, "mutates", self._mutation_target(origin)
                    )
                    self._record_mutator_write(node)
                elif escaping:
                    self._add_effect(
                        node, "maybe_mutates", self._mutation_target(origin)
                    )
            for origin in site.loose_origins:
                if origin and origin[0] == "param":
                    self._add_effect(
                        node, "maybe_mutates", f"param:{origin[1]}"
                    )
                elif origin == ORIGIN_SELF:
                    self._add_effect(node, "maybe_mutates", "self")

    def _record_mutator_write(self, node: ast.Call) -> None:
        """A ``x.field.add(...)`` style mutator is a field write too."""
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        chain = func.value
        while isinstance(chain, (ast.Attribute, ast.Subscript)):
            if isinstance(chain, ast.Attribute):
                base_type = self.type_of(chain.value)
                if base_type is not None and base_type in self.program.classes:
                    via_self = (
                        isinstance(chain.value, ast.Name)
                        and self.origin_of(chain.value) == ORIGIN_SELF
                    )
                    self.info.write_sites.append(
                        WriteSite(
                            class_id=base_type,
                            attr=chain.attr, via_self=via_self,
                            lineno=chain.lineno, col=chain.col_offset,
                        )
                    )
            chain = chain.value
