"""Static scope and type checking for MiniLang.

MiniLang stands in for a compiled language, so the checks here play the
role a compiler plays for repair: candidate program variants that do not
scope-check or type-check are rejected before any test is run.

Rules in brief: parameters and `let` bindings are block-scoped; names may
shadow outer scopes but not be redeclared in the same block; arithmetic on
mixed int/float promotes to float; `%` is int-only; `+` also concatenates
strings; comparisons order numbers and strings; `==`/`!=` require matching
types (numeric types compare across int/float); conditions must be bool;
assignments and calls require exact types, except that the empty array
literal `[]` matches any array type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from minirepair.lang.ast import (
    BOOL,
    EMPTY_ARRAY,
    FLOAT,
    INT,
    STRING,
    Node,
    SourceProject,
    Type,
    array_of,
)

VOID = Type("void")

BUILTINS = {"len": ((("value", None),), INT)}


class TypeCheckError(Exception):
    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: type error: {message}")
        self.path = path
        self.line = line
        self.message = message


@dataclass
class ProjectTypes:
    """Static types resolved for a checked project."""

    node_types: dict[int, Type] = field(default_factory=dict)
    signatures: dict[str, tuple[tuple[Type, ...], Type | None]] = field(default_factory=dict)

    def type_of(self, node_id: int) -> Type | None:
        return self.node_types.get(node_id)


def _is_numeric(t: Type) -> bool:
    return t in (INT, FLOAT)


def _assignable(target: Type, value: Type) -> bool:
    if target == value:
        return True
    return value == EMPTY_ARRAY and target.base == "array"


def _comparable_eq(a: Type, b: Type) -> bool:
    if _is_numeric(a) and _is_numeric(b):
        return True
    if a == b and a.base in ("string", "bool"):
        return True
    if a.base == "array" or b.base == "array" or EMPTY_ARRAY in (a, b):
        return _assignable(a, b) or _assignable(b, a)
    return False


class _Checker:
    def __init__(self, project: SourceProject):
        self.project = project
        self.types = ProjectTypes()
        self.path = ""
        self.ret: Type | None = None

    def fail(self, node: Node, message: str):
        raise TypeCheckError(self.path, node.line, message)

    def run(self, functions: frozenset[str] | None, signatures=None) -> ProjectTypes:
        if signatures is not None:
            self.types.signatures = signatures
        else:
            for sf in self.project.files:
                for fn in sf.functions:
                    if fn.name in BUILTINS:
                        self.path = sf.path
                        self.fail(fn, f"'{fn.name}' is a built-in function name")
                    self.types.signatures[fn.name] = (
                        tuple(ty for _, ty in fn.params),
                        fn.ret,
                    )
        for sf in self.project.files:
            self.path = sf.path
            for fn in sf.functions:
                if functions is None or fn.name in functions:
                    self.check_function(fn)
        return self.types

    def check_function(self, fn: Node) -> None:
        scopes: list[dict[str, Type]] = [{}]
        seen = set()
        for name, ty in fn.params:
            if name in seen:
                self.fail(fn, f"duplicate parameter '{name}'")
            seen.add(name)
            scopes[0][name] = ty
        self.ret = fn.ret
        self.check_block(fn.children[0], scopes)

    def check_block(self, block: Node, scopes: list[dict[str, Type]]) -> None:
        scopes.append({})
        for stmt in block.children:
            self.check_stmt(stmt, scopes)
        scopes.pop()

    def lookup(self, scopes, name: str) -> Type | None:
        for scope in reversed(scopes):
            if name in scope:
                return scope[name]
        return None

    def check_stmt(self, stmt: Node, scopes) -> None:
        kind = stmt.kind
        if kind == "block":
            self.check_block(stmt, scopes)
        elif kind == "var-decl":
            init_t = self.infer(stmt.children[0], scopes)
            if stmt.name in scopes[-1]:
                self.fail(stmt, f"'{stmt.name}' already declared in this block")
            if stmt.type_ann is not None:
                if not _assignable(stmt.type_ann, init_t):
                    self.fail(stmt, f"cannot initialize {stmt.type_ann} from {init_t}")
                declared = stmt.type_ann
            else:
                if init_t in (EMPTY_ARRAY, VOID):
                    self.fail(stmt, "cannot infer variable type; add an annotation")
                declared = init_t
            scopes[-1][stmt.name] = declared
            self.types.node_types[stmt.node_id] = declared
        elif kind == "assign":
            target, value = stmt.children
            value_t = self.infer(value, scopes)
            target_t = self.infer_lvalue(target, scopes)
            if not _assignable(target_t, value_t):
                self.fail(stmt, f"cannot assign {value_t} to {target_t}")
        elif kind == "expr-stmt":
            self.infer(stmt.children[0], scopes)
        elif kind == "return":
            if self.ret is None:
                if stmt.children:
                    self.fail(stmt, "void function cannot return a value")
            else:
                if not stmt.children:
                    self.fail(stmt, f"function must return {self.ret}")
                got = self.infer(stmt.children[0], scopes)
                if not _assignable(self.ret, got):
                    self.fail(stmt, f"cannot return {got} from function returning {self.ret}")
        elif kind == "if":
            cond_t = self.infer(stmt.children[0], scopes)
            if cond_t != BOOL:
                self.fail(stmt, f"if condition must be bool, got {cond_t}")
            self.check_block(stmt.children[1], scopes)
            if len(stmt.children) == 3:
                alt = stmt.children[2]
                if alt.kind == "if":
                    self.check_stmt(alt, scopes)
                else:
                    self.check_block(alt, scopes)
        elif kind == "while":
            cond_t = self.infer(stmt.children[0], scopes)
            if cond_t != BOOL:
                self.fail(stmt, f"while condition must be bool, got {cond_t}")
            self.check_block(stmt.children[1], scopes)
        else:
            self.fail(stmt, f"unexpected statement kind {kind}")

    def infer_lvalue(self, target: Node, scopes) -> Type:
        base = target
        while base.kind == "index":
            base = base.children[0]
        if base.kind != "var-ref":
            self.fail(target, "invalid assignment target")
        if target.kind == "var-ref":
            ty = self.lookup(scopes, target.name)
            if ty is None:
                self.fail(target, f"undefined variable '{target.name}'")
            self.types.node_types[target.node_id] = ty
            return ty
        container_t = self.infer(target.children[0], scopes)
        sub_t = self.infer(target.children[1], scopes)
        if sub_t != INT:
            self.fail(target, f"index must be int, got {sub_t}")
        if container_t.base != "array":
            self.fail(target, f"cannot assign into {container_t}")
        self.types.node_types[target.node_id] = container_t.elem
        return container_t.elem

    def infer(self, node: Node, scopes) -> Type:
        t = self._infer(node, scopes)
        self.types.node_types[node.node_id] = t
        return t

    def _infer(self, node: Node, scopes) -> Type:
        kind = node.kind
        if kind == "literal":
            if node.op == "array":
                elem_types = [self.infer(c, scopes) for c in node.children]
                concrete = [t for t in elem_types if t != EMPTY_ARRAY]
                if not elem_types:
                    return EMPTY_ARRAY
                if not concrete:
                    self.fail(node, "cannot infer element type of nested empty arrays")
                elem = concrete[0]
                for t in elem_types:
                    if t != elem and not (t == EMPTY_ARRAY and elem.base == "array"):
                        self.fail(node, f"mixed array element types {elem} and {t}")
                return array_of(elem)
            if isinstance(node.value, bool):
                return BOOL
            if isinstance(node.value, int):
                return INT
            if isinstance(node.value, float):
                return FLOAT
            if isinstance(node.value, str):
                return STRING
            self.fail(node, f"bad literal {node.value!r}")
        if kind == "var-ref":
            ty = self.lookup(scopes, node.name)
            if ty is None:
                self.fail(node, f"undefined variable '{node.name}'")
            return ty
        if kind == "unary-op":
            operand = self.infer(node.children[0], scopes)
            if node.op == "-":
                if not _is_numeric(operand):
                    self.fail(node, f"unary '-' needs a number, got {operand}")
                return operand
            if operand != BOOL:
                self.fail(node, f"'!' needs bool, got {operand}")
            return BOOL
        if kind == "binary-op":
            return self._infer_binary(node, scopes)
        if kind == "index":
            base = self.infer(node.children[0], scopes)
            sub = self.infer(node.children[1], scopes)
            if sub != INT:
                self.fail(node, f"index must be int, got {sub}")
            if base.base == "array":
                return base.elem
            if base == STRING:
                return STRING
            self.fail(node, f"cannot index into {base}")
        if kind == "call":
            return self._infer_call(node, scopes)
        self.fail(node, f"unexpected expression kind {kind}")

    def _infer_binary(self, node: Node, scopes) -> Type:
        op = node.op
        left = self.infer(node.children[0], scopes)
        right = self.infer(node.children[1], scopes)
        if op in ("&&", "||"):
            if left != BOOL or right != BOOL:
                self.fail(node, f"'{op}' needs bool operands, got {left} and {right}")
            return BOOL
        if op in ("==", "!="):
            if not _comparable_eq(left, right):
                self.fail(node, f"cannot compare {left} with {right}")
            return BOOL
        if op in ("<", "<=", ">", ">="):
            if _is_numeric(left) and _is_numeric(right):
                return BOOL
            if left == STRING and right == STRING:
                return BOOL
            self.fail(node, f"cannot order {left} and {right}")
        if op == "+":
            if left == STRING and right == STRING:
                return STRING
        if op == "%":
            if left == INT and right == INT:
                return INT
            self.fail(node, f"'%' needs int operands, got {left} and {right}")
        if op in ("+", "-", "*", "/"):
            if _is_numeric(left) and _is_numeric(right):
                return FLOAT if FLOAT in (left, right) else INT
            self.fail(node, f"cannot apply '{op}' to {left} and {right}")
        self.fail(node, f"unknown operator {op}")

    def _infer_call(self, node: Node, scopes) -> Type:
        arg_types = [self.infer(a, scopes) for a in node.children]
        if node.name == "len":
            if len(arg_types) != 1:
                self.fail(node, "len() takes exactly one argument")
            t = arg_types[0]
            if t != STRING and t.base != "array" and t != EMPTY_ARRAY:
                self.fail(node, f"len() needs a string or array, got {t}")
            return INT
        sig = self.types.signatures.get(node.name)
        if sig is None:
            self.fail(node, f"call to undefined function '{node.name}'")
        params, ret = sig
        if len(params) != len(arg_types):
            self.fail(node, f"'{node.name}' takes {len(params)} arguments, got {len(arg_types)}")
        for i, (want, got) in enumerate(zip(params, arg_types)):
            if not _assignable(want, got):
                self.fail(node, f"argument {i + 1} of '{node.name}': expected {want}, got {got}")
        return ret if ret is not None else VOID


def check_project(
    project: SourceProject,
    functions: Iterable[str] | None = None,
    signatures: dict[str, tuple[tuple[Type, ...], Type | None]] | None = None,
) -> ProjectTypes:
    """Type- and scope-check the project; raises TypeCheckError.

    `functions` limits the body checks to the named functions (None: all
    of them), each against the signatures of the whole project; node types
    are recorded for those bodies only.  A repair variant passes exactly
    when its edited functions pass, because operators never change a
    signature or move a node into another function and the unedited
    functions are those of a checked project; so a variant may pass that
    project's checked `signatures`, which are then neither rebuilt nor
    checked again.  `RepairSession.materialize` checks every variant this
    way, whatever its number of edits."""
    return _Checker(project).run(
        None if functions is None else frozenset(functions), signatures
    )


def scope_stack(project: SourceProject, node_id: int) -> list[dict[str, Type]]:
    """The checker's scope stack just before the statement that contains
    node_id: the parameters, then one scope per enclosing block with the
    declarations that come before the statement in that block (an else-if
    shares the stack of its `if`).  For a var-decl, its own binding is
    excluded.  The checker resumes along the path from the function root:
    each earlier `let` of an enclosing block is checked into the stack."""
    fn = project.enclosing_function(node_id)
    path = []
    cur = node_id
    while cur != fn.node_id:
        path.append(cur)
        cur = project.parents[cur]
    path.reverse()  # children along the way from fn body down to node_id

    checker = _Checker(project)
    checker.types.signatures = cached_types(project).signatures
    scopes: list[dict[str, Type]] = [dict(fn.params)]
    node: Node = fn
    for child_id in path:
        if node.kind == "block":
            scopes.append({})
            for stmt in node.children:
                if stmt.node_id == child_id:
                    break
                if stmt.kind == "var-decl":
                    checker.check_stmt(stmt, scopes)
        node = project.nodes[child_id]
    return scopes


def flatten_scopes(scopes: Iterable[dict[str, Type]]) -> dict[str, Type]:
    """Name -> type of every variable visible in a scope stack."""
    env: dict[str, Type] = {}
    for scope in scopes:
        env.update(scope)
    return env


def env_at(project: SourceProject, node_id: int) -> dict[str, Type]:
    """Variables (name -> type) visible just before executing the statement
    that contains node_id.  For a var-decl, its own binding is excluded."""
    return flatten_scopes(scope_stack(project, node_id))


def cached_types(project: SourceProject) -> ProjectTypes:
    """check_project, memoized in the project's analysis memo."""
    return project.memo("types", lambda: check_project(project))


def free_refs(node: Node) -> list[Node]:
    """The var-refs of the subtree, in pre-order, that no `let` inside the
    subtree binds.  As in the checker, a `let` binds its name for the
    statements after it in its own block; its initializer does not see it."""
    refs: list[Node] = []

    def walk(n: Node, bound: frozenset[str]) -> None:
        if n.kind == "var-ref":
            if n.name not in bound:
                refs.append(n)
        elif n.kind == "block":
            for stmt in n.children:
                walk(stmt, bound)
                if stmt.kind == "var-decl":
                    bound = bound | {stmt.name}
        else:
            for child in n.children:
                walk(child, bound)

    walk(node, frozenset())
    return refs


def free_variables(node: Node, types: ProjectTypes) -> frozenset[tuple[str, Type]]:
    """(name, type) pairs of the subtree's `free_refs`.

    Must be called on nodes still attached to their checked project (the
    types map is keyed by node id)."""
    found = ((ref.name, types.type_of(ref.node_id)) for ref in free_refs(node))
    return frozenset(pair for pair in found if pair[1] is not None)
