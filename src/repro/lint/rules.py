"""The determinism-contract rule catalog.

Every rule is a small :mod:`ast` analysis registered in :data:`RULES`;
``lint.toml`` scopes each one to the packages it protects.  The catalog:

========  ==============================================================
DET001    No wall-clock or entropy sources (``time.time``,
          ``datetime.now``, ``os.urandom``, unseeded module-level
          ``random.*``, ``secrets``, ``uuid.uuid1/4``) outside the
          allowlisted runtime layer — nondeterministic inputs fork the
          two backends and break golden traces.
DET002    No ordering derived from unsorted ``dict``/``set`` iteration
          (``.keys()``/``.values()``/``.items()`` loops, set literals)
          or from ``id()``/``hash()`` in protocol, oracle and
          hash-computation modules.  Iteration feeding a commutative
          reducer (``sum``, ``min``, ``max``, ``any``, ``all``, ...) is
          order-free and exempt.
SIO001    Sans-io purity: protocol packages may not import ``asyncio``,
          ``socket``, ``threading``, ``time`` or ``selectors`` — the
          same protocol instance must run under both runtimes.
HSH001    Every defaulted dataclass field on a class bearing
          ``_HASH_SUPPRESS_DEFAULTS`` must be registered — either in
          that mapping (hash-suppressed while defaulted) or in the
          config's grandfathered baseline (hash-significant since before
          the mechanism existed).  Catches the "new spec field breaks
          every golden" footgun at review time.
SLT001    Registered hot-path classes must declare ``__slots__``
          (explicitly or via ``@dataclass(slots=True)``) covering every
          attribute their methods assign.
WIR001    Wire/cache/corpus schema constants are defined exactly once,
          at their registered site, with the config-pinned value; stray
          ``version=``/``"schema":`` integer literals elsewhere are
          flagged.  Version bumps must touch ``lint.toml`` too, making
          them deliberate.
========  ==============================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.lint.config import ConfigError


@dataclass(frozen=True)
class Finding:
    """One rule violation (possibly pragma-suppressed) at a source line."""

    rule: str
    path: str
    line: int
    column: int
    message: str
    severity: str = "error"
    suppressed: bool = False
    justification: Optional[str] = None

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.rule)

    def with_severity(self, severity: str) -> "Finding":
        return replace(self, severity=severity)


@dataclass
class ModuleUnderLint:
    """One parsed source file handed to the rules."""

    rel: str  # repo-relative posix path, the unit of config scoping
    source: str
    tree: ast.Module
    pragmas: Mapping[int, Any] = field(default_factory=dict)


class Rule:
    """Base class: subclasses set the id metadata and implement check()."""

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    default_severity: str = "error"

    def check(
        self, module: ModuleUnderLint, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleUnderLint, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=module.rel,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            message=message,
        )


RULES: Dict[str, Rule] = {}


def register(cls: type) -> type:
    instance = cls()
    if not instance.rule_id:
        raise ValueError(f"{cls.__name__} must set rule_id")
    if instance.rule_id in RULES:
        raise ValueError(f"duplicate rule id {instance.rule_id}")
    RULES[instance.rule_id] = instance
    return cls


def all_rule_ids() -> Tuple[str, ...]:
    return tuple(sorted(RULES))


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` attribute chain as ``("a", "b", "c")``, if rooted in a name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


# ----------------------------------------------------------------------
# DET001 — wall-clock and entropy sources
# ----------------------------------------------------------------------

_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "localtime",
        "gmtime",
    }
)
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})
_SEEDED_RANDOM_OK = frozenset({"Random", "SystemRandom"})
_UUID_FUNCS = frozenset({"uuid1", "uuid4"})


@register
class NoWallClockOrEntropy(Rule):
    rule_id = "DET001"
    title = "no wall-clock or entropy sources outside the runtime layer"
    rationale = (
        "Nondeterministic inputs (wall-clock reads, OS entropy, the "
        "unseeded module-level RNG) fork the simulation and asyncio "
        "backends and break golden traces; randomness must flow from a "
        "seeded random.Random and time from the scheduler's virtual clock."
    )

    def _call_violation(self, dotted: Tuple[str, ...]) -> Optional[str]:
        if len(dotted) == 2 and dotted[0] == "time" and dotted[1] in _TIME_FUNCS:
            return f"wall-clock read time.{dotted[1]}()"
        if dotted == ("os", "urandom"):
            return "OS entropy os.urandom()"
        if dotted[0] == "secrets":
            return f"OS entropy secrets.{'.'.join(dotted[1:])}()"
        if len(dotted) == 2 and dotted[0] == "uuid" and dotted[1] in _UUID_FUNCS:
            return f"nondeterministic uuid.{dotted[1]}()"
        if (
            len(dotted) == 2
            and dotted[0] == "random"
            and dotted[1] not in _SEEDED_RANDOM_OK
        ):
            return f"unseeded module-level RNG random.{dotted[1]}()"
        if dotted[-1] in _DATETIME_FUNCS and dotted[0] in ("datetime", "date"):
            return f"wall-clock read {'.'.join(dotted)}()"
        return None

    def check(
        self, module: ModuleUnderLint, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted is None:
                    continue
                what = self._call_violation(dotted)
                if what is not None:
                    yield self.finding(
                        module,
                        node,
                        f"{what}: determinism-sensitive code must take time "
                        "from the runtime and randomness from a seeded "
                        "random.Random (runtime-layer modules are allowlisted "
                        "in lint.toml)",
                    )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                banned: Sequence[str] = ()
                if node.module == "time":
                    banned = [a.name for a in node.names if a.name in _TIME_FUNCS]
                elif node.module == "os":
                    banned = [a.name for a in node.names if a.name == "urandom"]
                elif node.module == "secrets":
                    banned = [a.name for a in node.names]
                elif node.module == "random":
                    banned = [
                        a.name
                        for a in node.names
                        if a.name not in _SEEDED_RANDOM_OK
                    ]
                elif node.module == "uuid":
                    banned = [a.name for a in node.names if a.name in _UUID_FUNCS]
                for name in banned:
                    yield self.finding(
                        module,
                        node,
                        f"from {node.module} import {name} aliases a "
                        "wall-clock/entropy source past the call-site check; "
                        "import the module and keep such reads in the "
                        "runtime layer",
                    )


# ----------------------------------------------------------------------
# DET002 — unsorted dict/set iteration, id()/hash() ordering
# ----------------------------------------------------------------------

_DICT_VIEWS = frozenset({"keys", "values", "items"})
#: Builtins whose result does not depend on argument order — a dict/set
#: iteration feeding one of these directly is order-free by construction.
_ORDER_FREE_REDUCERS = frozenset(
    {"sum", "min", "max", "all", "any", "len", "set", "frozenset", "sorted", "Counter"}
)
_SEQUENCE_BUILDERS = frozenset({"list", "tuple"})


@register
class NoUnsortedIteration(Rule):
    rule_id = "DET002"
    title = "no ordering from unsorted dict/set iteration or id()/hash()"
    rationale = (
        "Protocol, oracle and hash-computation code must never derive an "
        "ordering from dict/set iteration order or from per-process values "
        "like id() and salted hash(); one unsorted loop silently forks the "
        "two backends.  Wrap the iterable in sorted(...) or feed it to a "
        "commutative reducer."
    )

    def _iter_violation(self, it: ast.AST) -> Optional[str]:
        """Why iterating ``it`` is order-sensitive, or None if it is fine."""
        if isinstance(it, ast.Call):
            func = it.func
            if isinstance(func, ast.Attribute) and func.attr in _DICT_VIEWS:
                return (
                    f"iteration over unsorted .{func.attr}() — wrap in "
                    "sorted(...) or reduce commutatively"
                )
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return "iteration over an unordered set(...) — wrap in sorted(...)"
        if isinstance(it, ast.Set):
            return "iteration over a set literal — use a tuple or sorted(...)"
        if isinstance(it, ast.SetComp):
            return "iteration over a set comprehension — wrap in sorted(...)"
        return None

    def check(
        self, module: ModuleUnderLint, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        # Comprehensions whose iteration order provably cannot reach the
        # result: the sole argument of a commutative reducer call.
        order_free: Set[ast.AST] = set()
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_FREE_REDUCERS
                and len(node.args) >= 1
                and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp, ast.SetComp))
            ):
                order_free.add(node.args[0])

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                why = self._iter_violation(node.iter)
                if why is not None:
                    yield self.finding(module, node.iter, why)
            elif isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
                if node in order_free:
                    continue
                for comp in node.generators:
                    why = self._iter_violation(comp.iter)
                    if why is not None:
                        yield self.finding(module, comp.iter, why)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("id", "hash") and node.args:
                    yield self.finding(
                        module,
                        node,
                        f"builtin {node.func.id}() is interpreter/process-"
                        "dependent and must never order or key protocol "
                        "state; use an explicit stable key",
                    )
                elif (
                    node.func.id in _SEQUENCE_BUILDERS
                    and len(node.args) == 1
                    and self._iter_violation(node.args[0]) is not None
                ):
                    yield self.finding(
                        module,
                        node,
                        f"{node.func.id}(...) materializes an unsorted "
                        "dict/set iteration into an ordered sequence; "
                        "wrap the iterable in sorted(...)",
                    )


# ----------------------------------------------------------------------
# SIO001 — sans-io purity of protocol packages
# ----------------------------------------------------------------------

_IO_MODULES = frozenset({"asyncio", "socket", "threading", "time", "selectors"})


@register
class SansIoPurity(Rule):
    rule_id = "SIO001"
    title = "protocol packages stay sans-io"
    rationale = (
        "Protocol logic runs unchanged under the discrete-event simulator "
        "and the asyncio runtime; importing an event loop, sockets, threads "
        "or the wall clock couples it to one runtime and breaks the "
        "cross-backend conformance contract."
    )

    def check(
        self, module: ModuleUnderLint, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        banned = frozenset(options.get("modules", _IO_MODULES))
        for node in ast.walk(module.tree):
            roots: List[str] = []
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                roots = [node.module.split(".")[0]]
            for root in roots:
                if root in banned:
                    yield self.finding(
                        module,
                        node,
                        f"sans-io protocol package imports {root!r}; I/O, "
                        "threads and the wall clock belong to the hosting "
                        "runtime, not the protocol",
                    )


# ----------------------------------------------------------------------
# HSH001 — hash-suppression registration of defaulted spec fields
# ----------------------------------------------------------------------


def _suppress_mapping_keys(class_node: ast.ClassDef) -> Optional[Tuple[ast.stmt, Set[str]]]:
    """The ``_HASH_SUPPRESS_DEFAULTS`` assignment and its string keys."""
    for stmt in class_node.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "_HASH_SUPPRESS_DEFAULTS":
                keys: Set[str] = set()
                if isinstance(value, ast.Dict):
                    for key in value.keys:
                        if isinstance(key, ast.Constant) and isinstance(key.value, str):
                            keys.add(key.value)
                return stmt, keys
    return None


def _is_classvar(annotation: ast.expr) -> bool:
    dotted = _dotted(annotation)
    if dotted is not None:
        return dotted[-1] == "ClassVar"
    if isinstance(annotation, ast.Subscript):
        return _is_classvar(annotation.value)
    return False


def _dataclass_fields(class_node: ast.ClassDef) -> List[Tuple[str, ast.AnnAssign, bool]]:
    """``(name, node, has_default)`` for each annotated dataclass field."""
    fields: List[Tuple[str, ast.AnnAssign, bool]] = []
    for stmt in class_node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        name = stmt.target.id
        if name.startswith("_") or _is_classvar(stmt.annotation):
            continue
        has_default = stmt.value is not None
        if has_default and isinstance(stmt.value, ast.Call):
            func_dotted = _dotted(stmt.value.func)
            if func_dotted is not None and func_dotted[-1] == "field":
                has_default = any(
                    kw.arg in ("default", "default_factory")
                    for kw in stmt.value.keywords
                )
        fields.append((name, stmt, has_default))
    return fields


@register
class HashSuppressRegistration(Rule):
    rule_id = "HSH001"
    title = "defaulted spec fields must be hash-registered"
    rationale = (
        "On a _HASH_SUPPRESS_DEFAULTS-bearing spec class, a new defaulted "
        "field that is not suppressed changes every scenario hash — and "
        "with them every golden file and cache slot.  New fields register "
        "their default in the mapping; pre-mechanism fields are "
        "grandfathered in lint.toml's known_fields baseline."
    )

    def check(
        self, module: ModuleUnderLint, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        known: Mapping[str, Sequence[str]] = options.get("known_fields", {})
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            scan = _suppress_mapping_keys(node)
            if scan is None:
                continue
            _, suppressed = scan
            grandfathered = set(known.get(node.name, ()))
            for name, stmt, has_default in _dataclass_fields(node):
                if not has_default:
                    continue
                if name in suppressed or name in grandfathered:
                    continue
                yield self.finding(
                    module,
                    stmt,
                    f"defaulted field {node.name}.{name} is neither in "
                    "_HASH_SUPPRESS_DEFAULTS nor grandfathered in "
                    "lint.toml [rules.HSH001.known_fields]: an unregistered "
                    "default silently changes every scenario hash, golden "
                    "file and cache slot",
                )
            # Suppression keys must name real fields, or the mapping rots.
            field_names = {name for name, _, _ in _dataclass_fields(node)}
            for key in sorted(suppressed - field_names):
                yield self.finding(
                    module,
                    scan[0],
                    f"_HASH_SUPPRESS_DEFAULTS on {node.name} names "
                    f"{key!r}, which is not a field of the class",
                )


# ----------------------------------------------------------------------
# SLT001 — __slots__ coverage of registered hot-path classes
# ----------------------------------------------------------------------


def _declared_slots(class_node: ast.ClassDef) -> Optional[Set[str]]:
    """Slot names the class declares, or None when it declares none."""
    for stmt in class_node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    names: Set[str] = set()
                    value = stmt.value
                    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                        elements: Sequence[ast.expr] = value.elts
                    else:
                        elements = [value]
                    for element in elements:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            names.add(element.value)
                    return names
    for decorator in class_node.decorator_list:
        if isinstance(decorator, ast.Call):
            dotted = _dotted(decorator.func)
            if dotted is not None and dotted[-1] == "dataclass":
                for kw in decorator.keywords:
                    if (
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return {name for name, _, _ in _dataclass_fields(class_node)}
    return None


def _self_assigned_attrs(class_node: ast.ClassDef) -> Dict[str, ast.AST]:
    """Attribute names stored on ``self`` anywhere in the class body."""
    assigned: Dict[str, ast.AST] = {}
    for node in ast.walk(class_node):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            assigned.setdefault(node.attr, node)
    return assigned


@register
class SlotsCoverage(Rule):
    rule_id = "SLT001"
    title = "hot-path classes declare covering __slots__"
    rationale = (
        "The simulator's per-event path leans on __slots__; a class "
        "re-gaining a __dict__ (or assigning an attribute outside its "
        "slots) silently regresses memory and attribute-access time on "
        "that path."
    )

    def check(
        self, module: ModuleUnderLint, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        classes: Mapping[str, Sequence[str]] = options.get("classes", {})
        registered: Dict[str, Set[str]] = {}
        for key, inherited in classes.items():
            path, sep, class_name = key.partition("::")
            if not sep:
                raise ConfigError(
                    f"[rules.SLT001.classes] key {key!r} must look like "
                    "'path/to/module.py::ClassName'"
                )
            if path == module.rel:
                registered[class_name] = set(inherited)
        if not registered:
            return
        seen: Set[str] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or node.name not in registered:
                continue
            seen.add(node.name)
            declared = _declared_slots(node)
            if declared is None:
                yield self.finding(
                    module,
                    node,
                    f"hot-path class {node.name} is registered in "
                    "[rules.SLT001.classes] but declares no __slots__ "
                    "(explicitly or via @dataclass(slots=True))",
                )
                continue
            allowed = declared | registered[node.name]
            assigned = _self_assigned_attrs(node)
            for attr in sorted(set(assigned) - allowed):
                yield self.finding(
                    module,
                    assigned[attr],
                    f"{node.name} assigns self.{attr} but its __slots__ "
                    "(plus the inherited slots registered in lint.toml) "
                    "do not declare it",
                )
        for class_name in sorted(set(registered) - seen):
            yield Finding(
                rule=self.rule_id,
                path=module.rel,
                line=1,
                column=0,
                message=(
                    f"[rules.SLT001.classes] registers {class_name} in this "
                    "module, but no such class exists — update lint.toml"
                ),
            )


# ----------------------------------------------------------------------
# WIR001 — schema/version constants referenced consistently
# ----------------------------------------------------------------------

_VERSIONISH_KEYS = frozenset({"version", "schema", "wire_version", "cache_version"})


@register
class WireConstantConsistency(Rule):
    rule_id = "WIR001"
    title = "wire/cache/corpus schema constants stay single-sourced"
    rationale = (
        "CACHE_VERSION and the corpus/report schema numbers gate "
        "compatibility decisions between the writer and the reader of a "
        "file; a stray literal or a second definition site lets the two "
        "ends drift.  The lint.toml pin makes every bump a deliberate, "
        "reviewable change."
    )

    def check(
        self, module: ModuleUnderLint, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        constants: Mapping[str, Mapping[str, Any]] = options.get("constants", {})
        defined_here: Set[str] = set()
        for node in ast.walk(module.tree):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if not isinstance(target, ast.Name) or target.id not in constants:
                    continue
                name = target.id
                spec = constants[name]
                if module.rel != spec.get("module"):
                    yield self.finding(
                        module,
                        node,
                        f"{name} is redefined outside its registered home "
                        f"{spec.get('module')!r}; import it instead",
                    )
                    continue
                defined_here.add(name)
                pinned = spec.get("value")
                if not (
                    isinstance(value, ast.Constant) and value.value == pinned
                ):
                    got = (
                        value.value
                        if isinstance(value, ast.Constant)
                        else ast.dump(value) if value is not None else None
                    )
                    yield self.finding(
                        module,
                        node,
                        f"{name} is {got!r} but lint.toml pins {pinned!r}: "
                        "bump the [rules.WIR001.constants] pin in the same "
                        "change, so version bumps stay deliberate",
                    )
            # Stray literal detection: {"schema": 3} / encode(version=3).
            if isinstance(node, ast.Dict):
                for key, val in zip(node.keys, node.values):
                    if (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and key.value.lower() in _VERSIONISH_KEYS
                        and isinstance(val, ast.Constant)
                        and isinstance(val.value, int)
                        and not isinstance(val.value, bool)
                    ):
                        yield self.finding(
                            module,
                            val,
                            f"dict key {key.value!r} carries the integer "
                            f"literal {val.value}; reference the registered "
                            "schema constant instead of a stray literal",
                        )
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if (
                        kw.arg is not None
                        and kw.arg.lower() in _VERSIONISH_KEYS
                        and isinstance(kw.value, ast.Constant)
                        and isinstance(kw.value.value, int)
                        and not isinstance(kw.value.value, bool)
                    ):
                        yield self.finding(
                            module,
                            kw.value,
                            f"keyword {kw.arg}={kw.value.value} passes a "
                            "stray schema literal; reference the registered "
                            "constant instead",
                        )
        for name, spec in constants.items():
            if module.rel == spec.get("module") and name not in defined_here:
                yield Finding(
                    rule=self.rule_id,
                    path=module.rel,
                    line=1,
                    column=0,
                    message=(
                        f"lint.toml registers {name} as defined in this "
                        "module, but no literal assignment was found — "
                        "update the [rules.WIR001.constants] entry"
                    ),
                )


__all__ = [
    "Finding",
    "ModuleUnderLint",
    "Rule",
    "RULES",
    "register",
    "all_rule_ids",
]
