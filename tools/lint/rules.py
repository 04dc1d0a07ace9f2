"""Repo-specific determinism and invariant rules.

Rule catalog (IDs are stable; ``# lint: allow``/``allow-file`` reference
them):

=========  =============================================================
DET101     unseeded randomness in the deterministic core (sim/mem/cpu/
           prefetch/core): module-level ``random.*`` calls share hidden
           global state, so two runs of the same config can diverge
DET102     wall-clock reads in the deterministic core: ``time.*`` /
           ``datetime.now`` leak host timing into simulated results
DET103     iteration over a set without ``sorted()``: set order varies
           with hash seeding, so derived output is not reproducible
DET104     analysis transfer function iterating a set-annotated
           parameter: DET103 only sees locally-assigned sets, but the
           dataflow/taint passes take ``frozenset`` inputs whose visit
           order must be pinned too (``src/repro/analysis/`` only)
SLOT201    hot-path class without ``__slots__`` in ``mem/`` or
           ``isa/decode.py``: per-instance dicts bloat the simulator's
           innermost structures
CFG301     config-tree dataclass field that cannot survive a JSON round
           trip: result-store keys fingerprint these configs
POOL401    lambda or nested function submitted to the worker pool: it
           does not pickle into worker processes
SNAP501    mutable field of a snapshot-capable class not covered by its
           snapshot/restore key set: warm replay would silently resume
           from stale state when someone adds a field and forgets the
           snapshot dict
PURE601    code mutating its program/decode input: everything under
           ``src/repro/`` except ``isa/`` (which builds programs) is a
           pure reader of finalized programs, so an attribute store or
           in-place mutator call on a ``program``/``programs``/``decoded``
           parameter (or any ``Program``-annotated one) would let one
           consumer corrupt the input of every job sharing the program
=========  =============================================================
"""

from __future__ import annotations

import ast
from typing import Iterator

#: Modules whose behaviour must be a pure function of the configuration.
DETERMINISTIC_SCOPE = (
    "src/repro/sim/",
    "src/repro/mem/",
    "src/repro/cpu/",
    "src/repro/prefetch/",
    "src/repro/core/",
)

#: Files holding the ``SystemConfig`` dataclass tree.
CONFIG_TREE_FILES = (
    "src/repro/sim/config.py",
    "src/repro/mem/hierarchy.py",
    "src/repro/cpu/core.py",
    "src/repro/core/config.py",
)

_WALL_CLOCK_FNS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an expression (``''`` when not a name)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        prefix = _dotted(node.value)
        return f"{prefix}.{node.attr}" if prefix else node.attr
    return ""


class _PrefixScopedRule:
    """Base: rule active for files under any of ``self.scope`` prefixes."""

    scope: tuple[str, ...] = ()

    def applies(self, relpath: str) -> bool:
        return any(
            relpath.startswith(prefix) or relpath == prefix.rstrip("/")
            for prefix in self.scope
        )


class UnseededRandomRule(_PrefixScopedRule):
    """DET101: the deterministic core must not consume global randomness."""

    rule_id = "DET101"
    description = "unseeded randomness in the deterministic core"
    fixit = "thread an explicit `random.Random(seed)` through the config"
    scope = DETERMINISTIC_SCOPE

    def check(self, tree: ast.Module, relpath: str) -> Iterator[tuple[int, str]]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [a.name for a in node.names if a.name != "Random"]
                if bad:
                    yield (
                        node.lineno,
                        f"`from random import {', '.join(bad)}` pulls in "
                        "globally-seeded functions",
                    )
            elif isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name.startswith("random.") and name != "random.Random":
                    yield (
                        node.lineno,
                        f"`{name}()` uses the global (unseeded) RNG",
                    )
                elif name == "random.Random" and not (
                    node.args or node.keywords
                ):
                    yield (
                        node.lineno,
                        "`random.Random()` with no seed is nondeterministic",
                    )
                # numpy.random.*, np.random.* — but not random.Random(seed),
                # which the branches above already classified as fine.
                elif not name.startswith("random.") and ".random." in f".{name}":
                    yield (
                        node.lineno,
                        f"`{name}()` draws from a global RNG namespace",
                    )


class WallClockRule(_PrefixScopedRule):
    """DET102: simulated time must come from the simulator, not the host."""

    rule_id = "DET102"
    description = "wall-clock read in the deterministic core"
    fixit = "use the simulated cycle counter (or move timing out of the core)"
    scope = DETERMINISTIC_SCOPE

    def check(self, tree: ast.Module, relpath: str) -> Iterator[tuple[int, str]]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = [a.name for a in node.names if a.name in _WALL_CLOCK_FNS]
                if bad:
                    yield (
                        node.lineno,
                        f"`from time import {', '.join(bad)}` imports a "
                        "wall-clock source",
                    )
            elif isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name.startswith("time.") and name[5:] in _WALL_CLOCK_FNS:
                    yield (node.lineno, f"`{name}()` reads the wall clock")
                elif (
                    "." in name
                    and name.rsplit(".", 1)[1] in _DATETIME_FNS
                    and "datetime" in name
                ):
                    yield (node.lineno, f"`{name}()` reads the wall clock")


def _is_setish(node: ast.AST, set_names: frozenset[str]) -> bool:
    """Whether an expression statically evaluates to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and _dotted(node.func) in (
        "set",
        "frozenset",
    ):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub)
    ):
        return _is_setish(node.left, set_names) or _is_setish(
            node.right, set_names
        )
    return False


class SetIterationRule:
    """DET103: never iterate a set directly — order depends on hash seeds.

    Tracks names assigned set-valued expressions within each function body
    (and at module level), then flags ``for``/comprehension iteration over
    any set-valued expression that is not wrapped in ``sorted()``.
    """

    rule_id = "DET103"
    description = "iteration over a set without sorted()"
    fixit = "wrap the iterable in sorted(...) to fix the visit order"

    def applies(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    def _scope_check(
        self, body: list[ast.stmt]
    ) -> Iterator[tuple[int, str]]:
        set_names: set[str] = set()
        nested: list[list[ast.stmt]] = []

        def scan(statements: list[ast.stmt]) -> Iterator[tuple[int, str]]:
            for stmt in statements:
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    nested.append(stmt.body)
                    continue
                if isinstance(stmt, ast.ClassDef):
                    nested.append(stmt.body)
                    continue
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Assign) and isinstance(
                        node.value, ast.AST
                    ):
                        if _is_setish(node.value, frozenset(set_names)):
                            for target in node.targets:
                                if isinstance(target, ast.Name):
                                    set_names.add(target.id)
                    elif isinstance(node, ast.AnnAssign) and node.value:
                        if _is_setish(
                            node.value, frozenset(set_names)
                        ) and isinstance(node.target, ast.Name):
                            set_names.add(node.target.id)
                for node in ast.walk(stmt):
                    iters: list[ast.expr] = []
                    if isinstance(node, (ast.For, ast.AsyncFor)):
                        iters.append(node.iter)
                    elif isinstance(
                        node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
                    ):
                        iters.extend(gen.iter for gen in node.generators)
                    for candidate in iters:
                        if _is_setish(candidate, frozenset(set_names)):
                            yield (
                                candidate.lineno,
                                "set iteration order varies across runs",
                            )

        yield from scan(body)
        while nested:
            yield from self._scope_check(nested.pop(0))

    def check(self, tree: ast.Module, relpath: str) -> Iterator[tuple[int, str]]:
        yield from self._scope_check(list(tree.body))


_SET_ANNOTATIONS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)


def _is_set_annotation(annotation: ast.expr | None) -> bool:
    """Whether a parameter annotation names a set type."""
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):  # quoted annotation
        try:
            parsed = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return False
        return _is_set_annotation(parsed)
    if isinstance(annotation, ast.Subscript):
        return _is_set_annotation(annotation.value)
    return _dotted(annotation).rsplit(".", 1)[-1] in _SET_ANNOTATIONS


class SetParameterIterationRule(_PrefixScopedRule):
    """DET104: analysis passes must not iterate set-typed parameters raw.

    Complements DET103, which only tracks names *assigned* set-valued
    expressions inside a scope: the dataflow and taint transfer functions
    receive ``frozenset`` arguments from their callers, so a bare
    ``for r in tainted:`` would still order output by hash seed.
    Membership tests and ``sorted(param)`` are fine — only direct
    iteration is flagged.
    """

    rule_id = "DET104"
    description = "iteration over a set-annotated parameter without sorted()"
    fixit = "iterate sorted(param) so the visit order is deterministic"
    scope = ("src/repro/analysis/",)

    def check(self, tree: ast.Module, relpath: str) -> Iterator[tuple[int, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            arguments = node.args
            set_params = {
                arg.arg
                for arg in (
                    arguments.posonlyargs
                    + arguments.args
                    + arguments.kwonlyargs
                )
                if _is_set_annotation(arg.annotation)
            }
            if not set_params:
                continue
            for child in ast.walk(node):
                iters: list[ast.expr] = []
                if isinstance(child, (ast.For, ast.AsyncFor)):
                    iters.append(child.iter)
                elif isinstance(
                    child,
                    (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp),
                ):
                    iters.extend(gen.iter for gen in child.generators)
                for candidate in iters:
                    if (
                        isinstance(candidate, ast.Name)
                        and candidate.id in set_params
                    ):
                        yield (
                            candidate.lineno,
                            f"parameter `{candidate.id}` is set-typed; its "
                            "iteration order varies across runs",
                        )


def _has_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__"
            for t in stmt.targets
        ):
            return True
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "__slots__"
        ):
            return True
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call) and _dotted(
            decorator.func
        ).endswith("dataclass"):
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "slots"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
    return False


_SLOT_EXEMPT_BASES = ("Error", "Exception", "Enum", "Protocol", "NamedTuple")


class SlotsRequiredRule(_PrefixScopedRule):
    """SLOT201: hot-path classes carry no per-instance ``__dict__``."""

    rule_id = "SLOT201"
    description = "hot-path class without __slots__"
    fixit = "add __slots__ (or @dataclass(slots=True))"
    scope = ("src/repro/mem/", "src/repro/isa/decode.py")

    def check(self, tree: ast.Module, relpath: str) -> Iterator[tuple[int, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if any(
                _dotted(base).rsplit(".", 1)[-1].endswith(_SLOT_EXEMPT_BASES)
                for base in node.bases
            ):
                continue
            if not _has_slots(node):
                yield (
                    node.lineno,
                    f"class {node.name} allocates a per-instance __dict__",
                )


_JSON_LEAVES = frozenset({"int", "float", "str", "bool", "None"})


def _json_roundtrippable(annotation: ast.expr) -> bool:
    """Conservative check that a field annotation survives JSON encoding."""
    if isinstance(annotation, ast.Constant):
        if annotation.value is None:
            return True
        if isinstance(annotation.value, str):  # quoted annotation
            try:
                parsed = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return False
            return _json_roundtrippable(parsed)
        return False
    if isinstance(annotation, ast.Name):
        name = annotation.id
        return (
            name in _JSON_LEAVES
            or name.endswith("Config")
            or name.endswith("Spec")
        )
    if isinstance(annotation, ast.Attribute):
        name = annotation.attr
        return name.endswith("Config") or name.endswith("Spec")
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _json_roundtrippable(annotation.left) and _json_roundtrippable(
            annotation.right
        )
    if isinstance(annotation, ast.Subscript):
        container = _dotted(annotation.value).rsplit(".", 1)[-1]
        inner = annotation.slice
        parts = list(inner.elts) if isinstance(inner, ast.Tuple) else [inner]
        if container in ("tuple", "Tuple", "list", "List", "Sequence"):
            return all(
                _json_roundtrippable(p)
                for p in parts
                if not (isinstance(p, ast.Constant) and p.value is Ellipsis)
            )
        if container in ("dict", "Dict", "Mapping"):
            if len(parts) != 2:
                return False
            key = parts[0]
            return (
                isinstance(key, ast.Name)
                and key.id == "str"
                and _json_roundtrippable(parts[1])
            )
        if container in ("Optional",):
            return all(_json_roundtrippable(p) for p in parts)
        return False
    return False


class ConfigJsonRule:
    """CFG301: every field in the SystemConfig tree must round-trip as JSON."""

    rule_id = "CFG301"
    description = "config-tree dataclass field not JSON-round-trippable"
    fixit = "use int/float/str/bool, tuples of those, or a nested *Config"

    def applies(self, relpath: str) -> bool:
        return relpath in CONFIG_TREE_FILES

    def check(self, tree: ast.Module, relpath: str) -> Iterator[tuple[int, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith(("Config", "Spec")):
                continue
            if not any(
                _dotted(d.func if isinstance(d, ast.Call) else d).endswith(
                    "dataclass"
                )
                for d in node.decorator_list
            ):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                if not isinstance(stmt.target, ast.Name):
                    continue
                if stmt.target.id.startswith("_"):
                    continue
                if not _json_roundtrippable(stmt.annotation):
                    yield (
                        stmt.lineno,
                        f"field {node.name}.{stmt.target.id} cannot round-trip "
                        "through JSON",
                    )


class PoolPicklableRule:
    """POOL401: work submitted to the pool must pickle into worker processes."""

    rule_id = "POOL401"
    description = "lambda or nested function handed to the worker pool"
    fixit = "submit a module-level callable or a job object with a run() method"

    def applies(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    @staticmethod
    def _is_pool_call(node: ast.Call) -> bool:
        name = _dotted(node.func)
        short = name.rsplit(".", 1)[-1]
        if short == "submit":
            return True
        if short == "run_batch":
            return True
        if short == "run" and isinstance(node.func, ast.Attribute):
            receiver = _dotted(node.func.value).rsplit(".", 1)[-1]
            return "pool" in receiver.lower()
        return False

    def check(self, tree: ast.Module, relpath: str) -> Iterator[tuple[int, str]]:
        # Names of functions defined inside an enclosing function (won't
        # pickle: pickle serialises functions by qualified name).
        nested_defs: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    if child is node:
                        continue
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        nested_defs.add(child.name)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and self._is_pool_call(node)):
                continue
            operands = list(node.args) + [kw.value for kw in node.keywords]
            for arg in operands:
                if isinstance(arg, ast.Lambda):
                    yield (
                        arg.lineno,
                        "lambdas do not pickle into pool workers",
                    )
                elif isinstance(arg, ast.Name) and arg.id in nested_defs:
                    yield (
                        arg.lineno,
                        f"nested function `{arg.id}` does not pickle into "
                        "pool workers",
                    )


#: Method calls that mutate the receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "push",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "touch",
        "update",
    }
)

#: Methods where writing a field does not require snapshot coverage.
_SNAP_CONSTRUCTORS = frozenset({"__init__", "__post_init__"})


def _declared_fields(node: ast.ClassDef) -> set[str]:
    """Field universe of a ``__slots__`` or dataclass class (else empty)."""
    fields: set[str] = set()
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__"
            for t in stmt.targets
        ):
            if isinstance(stmt.value, (ast.Tuple, ast.List)):
                fields.update(
                    elt.value
                    for elt in stmt.value.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)
                )
    if any(
        _dotted(d.func if isinstance(d, ast.Call) else d).endswith("dataclass")
        for d in node.decorator_list
    ):
        fields.update(
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id != "__slots__"
        )
    return fields


def _self_field_of(node: ast.expr) -> str | None:
    """``self.X``, ``self.X[...]`` or ``self.X.y`` (any depth) -> ``X``."""
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Call)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        node = (
            node.func
            if isinstance(node, ast.Call)
            else node.value  # type: ignore[assignment]
        )
    return None


def _snapshot_keys(snapshot: ast.FunctionDef) -> set[str] | None:
    """Coverage set of ``snapshot``: its dict-literal string keys plus any
    field it reads (a field serialised inside an aggregate entry — the
    cache's per-set ``(lines, stamps, tags)`` tuples — has no key of its
    own but is clearly covered).  ``None`` when the snapshot is not
    dict-shaped (list/tuple protocols are out of scope)."""
    keys: set[str] = set()
    saw_dict = False
    for node in ast.walk(snapshot):
        if isinstance(node, ast.Dict):
            saw_dict = True
            keys.update(
                key.value
                for key in node.keys
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str)
            )
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            keys.add(node.attr)
            keys.add(node.attr.lstrip("_"))
    return keys if saw_dict else None


def _restore_keys(restore: ast.FunctionDef | None) -> set[str]:
    """String constants used as keys in ``restore`` (require_keys tuples
    and ``data["..."]`` subscripts)."""
    if restore is None:
        return set()
    keys: set[str] = set()
    for node in ast.walk(restore):
        if isinstance(node, (ast.Tuple, ast.List)):
            keys.update(
                elt.value
                for elt in node.elts
                if isinstance(elt, ast.Constant)
                and isinstance(elt.value, str)
            )
        elif isinstance(node, ast.Subscript) and isinstance(
            node.slice, ast.Constant
        ):
            if isinstance(node.slice.value, str):
                keys.add(node.slice.value)
    return keys


class SnapshotCoverageRule:
    """SNAP501: snapshot/restore must cover every mutated declared field.

    For each ``__slots__``/dataclass class defining a dict-shaped
    ``snapshot()``: a declared field written outside ``__init__`` /
    ``__post_init__`` (direct assignment, augmented assignment, item or
    nested-attribute store, or an in-place mutator call) is live
    simulator state — warm replay resumes from it — so its name (modulo
    a leading-underscore prefix) must appear in the snapshot dict keys
    or the restore key set.  A write through a local bound from a field
    in the same method (``counts = self._counts[i]`` then
    ``counts[k] += 1``) counts as a write of that field.  Fields only
    ever assigned at construction are configuration and need no coverage.
    """

    rule_id = "SNAP501"
    description = "mutable field missing from the snapshot/restore key set"
    fixit = "add the field to snapshot()/restore() (or make it config-only)"

    def applies(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    @staticmethod
    def _mutated_fields(
        node: ast.ClassDef,
    ) -> dict[str, int]:
        """Field -> first line mutating it outside a constructor."""
        mutated: dict[str, int] = {}

        def note(name: str | None, lineno: int) -> None:
            if name is not None and name not in mutated:
                mutated[name] = lineno

        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name in _SNAP_CONSTRUCTORS:
                continue
            # Locals bound from a field: ``name = self.<field>...``.
            aliases: dict[str, str] = {}
            for child in ast.walk(stmt):
                if (
                    isinstance(child, ast.Assign)
                    and len(child.targets) == 1
                    and isinstance(child.targets[0], ast.Name)
                ):
                    field = _self_field_of(child.value)
                    if field is not None:
                        aliases[child.targets[0].id] = field

            def field_of(node: ast.expr) -> str | None:
                return _self_field_of(node) or aliases.get(_root_name(node) or "")

            for child in ast.walk(stmt):
                targets: list[ast.expr] = []
                if isinstance(child, ast.Assign):
                    targets = list(child.targets)
                elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                    targets = [child.target]
                elif isinstance(child, ast.Call):
                    func = child.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in _MUTATOR_METHODS
                    ):
                        note(field_of(func.value), child.lineno)
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        continue  # rebinding a local writes no field
                    note(field_of(target), child.lineno)
        return mutated

    def check(self, tree: ast.Module, relpath: str) -> Iterator[tuple[int, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                stmt.name: stmt
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef)
            }
            snapshot = methods.get("snapshot")
            if snapshot is None:
                continue
            fields = _declared_fields(node)
            if not fields:
                continue  # plain classes are out of this rule's scope
            keys = _snapshot_keys(snapshot)
            if keys is None:
                continue  # list/tuple snapshot protocol
            keys |= _restore_keys(methods.get("restore"))
            for name, lineno in sorted(
                self._mutated_fields(node).items(), key=lambda kv: kv[1]
            ):
                if name not in fields:
                    continue
                if name in keys or name.lstrip("_") in keys:
                    continue
                yield (
                    lineno,
                    f"{node.name}.{name} is mutated after construction but "
                    "missing from the snapshot/restore key set",
                )


#: Parameter names the purity rule always treats as program inputs.
_ANALYSIS_INPUT_NAMES = frozenset({"program", "programs", "decoded"})

#: Annotation suffixes marking a parameter as a program input.
_ANALYSIS_INPUT_ANNOTATIONS = ("Program", "DecodedProgram")


def _root_name(node: ast.expr) -> str | None:
    """Base ``ast.Name`` id of an attribute/subscript/call chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def _annotation_suffix(annotation: ast.expr | None) -> str:
    if annotation is None:
        return ""
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        return annotation.value.rsplit(".", 1)[-1]
    return _dotted(annotation).rsplit(".", 1)[-1]


class AnalysisPurityRule(_PrefixScopedRule):
    """PURE601: program readers must not mutate their program inputs.

    For every function under ``src/repro/`` outside ``isa/``: a parameter
    named ``program``/``programs``/``decoded``, or annotated with a
    ``Program`` type, is an *input* shared with every other consumer
    (``Program.finalize`` caches analyses, ``Workload.program`` hands one
    build to every job of a grid row, and the CLI and the certifier walk
    the same decode tuples).  An attribute/subscript store rooted at such
    a parameter, or an in-place mutator-method call on it, breaks that
    read-only contract — flagged here instead of in review.  ``isa/`` is
    exempt: it builds programs, and ``Program`` refuses edits once
    finalized.
    """

    rule_id = "PURE601"
    description = "code mutates its program/decode input"
    fixit = "copy the input first (`state.copy()`, `dict(...)`); readers read"
    scope = ("src/repro/",)

    def applies(self, relpath: str) -> bool:
        return super().applies(relpath) and not relpath.startswith(
            "src/repro/isa/"
        )

    @staticmethod
    def _input_params(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> set[str]:
        names: set[str] = set()
        args = func.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            if arg.arg in _ANALYSIS_INPUT_NAMES or _annotation_suffix(
                arg.annotation
            ).endswith(_ANALYSIS_INPUT_ANNOTATIONS):
                names.add(arg.arg)
        return names

    def check(self, tree: ast.Module, relpath: str) -> Iterator[tuple[int, str]]:
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            inputs = self._input_params(func)
            if not inputs:
                continue
            # Parameters rebound to a fresh local stop being inputs; keep
            # the check simple and sound by only tracking the names
            # themselves (a rebind would shadow, so a flagged line always
            # names the original object or an honest alias of it).
            for child in ast.walk(func):
                targets: list[ast.expr] = []
                if isinstance(child, ast.Assign):
                    targets = list(child.targets)
                elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                    targets = [child.target]
                elif isinstance(child, ast.Call):
                    callee = child.func
                    if (
                        isinstance(callee, ast.Attribute)
                        and callee.attr in _MUTATOR_METHODS
                        and _root_name(callee.value) in inputs
                    ):
                        yield (
                            child.lineno,
                            f"`.{callee.attr}()` mutates program input "
                            f"`{_root_name(callee.value)}` in "
                            f"`{func.name}`",
                        )
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        continue  # rebinding a local, not a store into it
                    root = _root_name(target)
                    if root in inputs:
                        yield (
                            child.lineno,
                            f"store into program input `{root}` in "
                            f"`{func.name}`",
                        )


LINT_RULES = (
    UnseededRandomRule(),
    WallClockRule(),
    SetIterationRule(),
    SetParameterIterationRule(),
    SlotsRequiredRule(),
    ConfigJsonRule(),
    PoolPicklableRule(),
    SnapshotCoverageRule(),
    AnalysisPurityRule(),
)
