"""AST node model and multi-file project container for MiniLang.

Node kinds:
    statements:  assign, if, while, return, expr-stmt, block, var-decl
    expressions: binary-op, unary-op, call, var-ref, literal, index
    structural:  function (tree root, one per declared function)

Node ids are assigned by pre-order traversal per file, with files taken in
lexicographic path order, so the numbering of a parsed project is a pure
function of its file contents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Iterable, Iterator, Optional, Sequence

STATEMENT_KINDS = frozenset(
    {"assign", "if", "while", "return", "expr-stmt", "block", "var-decl"}
)
EXPRESSION_KINDS = frozenset(
    {"binary-op", "unary-op", "call", "var-ref", "literal", "index"}
)

RELATIONAL_OPS = ("<", "<=", ">", ">=", "==", "!=")
LOGICAL_OPS = ("&&", "||")
ARITHMETIC_OPS = ("+", "-", "*", "/", "%")


class ProjectError(Exception):
    """Base class for project construction failures."""


class EmptyProjectError(ProjectError):
    pass


class MiniSyntaxError(ProjectError):
    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: syntax error: {message}")
        self.path = path
        self.line = line
        self.message = message


class DuplicateFunctionError(ProjectError):
    def __init__(self, name: str, first: str, second: str):
        super().__init__(f"function '{name}' defined in both {first} and {second}")
        self.name = name


class UnknownNodeError(ProjectError):
    pass


@dataclass(frozen=True)
class Type:
    """Static MiniLang type.  base is one of int/float/bool/string/array;
    'empty-array' is the internal type of the [] literal and unifies with
    any array type."""

    base: str
    elem: Optional["Type"] = None

    def __str__(self) -> str:
        if self.base == "array":
            return f"[{self.elem}]"
        return self.base


INT = Type("int")
FLOAT = Type("float")
BOOL = Type("bool")
STRING = Type("string")
EMPTY_ARRAY = Type("empty-array")


def array_of(elem: Type) -> Type:
    return Type("array", elem)


@dataclass
class Node:
    """One AST node.  Field usage by kind:

    binary-op/unary-op : op; children = operands
    literal            : value for scalars, op == "array" with element
                         children for array literals
    var-ref            : name
    call               : name = callee, children = arguments
    index              : children = [base, subscript]
    var-decl           : name, type_ann (optional), children = [initializer]
    assign             : children = [target expr, value expr]
    if                 : children = [cond, then-block] or [cond, then, else]
    while              : children = [cond, body-block]
    return             : children = [] or [expr]
    expr-stmt/block    : children
    function           : name, params, ret, children = [body-block]
    """

    kind: str
    children: list["Node"] = field(default_factory=list)
    op: Optional[str] = None
    value: object = None
    name: Optional[str] = None
    type_ann: Optional[Type] = None
    params: Optional[list[tuple[str, Type]]] = None
    ret: Optional[Type] = None
    node_id: int = -1
    line: int = 0
    col: int = 0

    def is_statement(self) -> bool:
        return self.kind in STATEMENT_KINDS

    def is_expression(self) -> bool:
        return self.kind in EXPRESSION_KINDS

    def clone(self, *, keep_ids: bool = False) -> "Node":
        """Deep copy.  With keep_ids=False all copies get node_id -1 and are
        renumbered when spliced into a project."""
        dup = self.copy_node([c.clone(keep_ids=keep_ids) for c in self.children])
        if keep_ids:
            dup.node_id = self.node_id
        return dup

    def copy_node(self, children: list["Node"]) -> "Node":
        """This node alone, with `children` as its children and node_id -1
        (a clone() that does not copy the subtree)."""
        dup = object.__new__(Node)
        dup.kind = self.kind
        dup.children = children
        dup.op = self.op
        dup.value = self.value
        dup.name = self.name
        dup.type_ann = self.type_ann
        dup.params = None if self.params is None else list(self.params)
        dup.ret = self.ret
        dup.node_id = -1
        dup.line = self.line
        dup.col = self.col
        return dup


def pre_order(node: Node) -> Iterator[Node]:
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children))


def nodes_equal(a: Node, b: Node) -> bool:
    """Structural equality; ignores node ids and source locations."""
    if a.kind != b.kind or a.op != b.op or a.name != b.name:
        return False
    if a.type_ann != b.type_ann or a.ret != b.ret or a.params != b.params:
        return False
    if (a.value is None) != (b.value is None):
        return False
    if a.value is not None:
        if type(a.value) is not type(b.value) or a.value != b.value:
            return False
    if len(a.children) != len(b.children):
        return False
    return all(nodes_equal(x, y) for x, y in zip(a.children, b.children))


def module_of(path: str) -> str:
    """Module name of a file: its directory path ('.' for the root)."""
    return str(PurePosixPath(path).parent)


@dataclass
class SourceFile:
    path: str
    module: str
    functions: list[Node]


class SourceProject:
    """Parsed multi-file program with indexed, stably numbered nodes.

    A clone may share function trees and `SourceFile`s with the project it
    was cloned from (see `clone`): mutate only the functions a clone copied,
    and reindex them after each edit."""

    def __init__(self, files: list[SourceFile]):
        self.files = files
        self.nodes: dict[int, Node] = {}
        self.parents: dict[int, Optional[int]] = {}
        self.file_of: dict[int, str] = {}
        self.functions: dict[str, tuple[SourceFile, Node]] = {}
        # ids in each function tree, so a partial reindex can drop removed ones
        self.function_ids: dict[str, list[int]] = {}
        self.max_id = 0
        self._assign_ids()
        self.reindex()

    def _assign_ids(self) -> None:
        counter = 1
        for sf in self.files:
            for fn in sf.functions:
                for node in _pre_order_ordered(fn):
                    node.node_id = counter
                    counter += 1
        self.max_id = counter - 1

    def reindex(self, functions: Optional[Iterable[str]] = None) -> None:
        """Rebuild node/parent/file indexes; assigns fresh ids to any node
        with node_id == -1 (subtrees spliced in by repair operators).

        `functions` names the function trees to walk (None: all of them).
        Ids a named function no longer contains are dropped; the entries
        of every other function are kept as they are.  Fresh ids are given
        in project order, so when only the named functions hold -1 nodes
        the numbering equals that of a full reindex."""
        if functions is None:
            self.nodes.clear()
            self.parents.clear()
            self.file_of.clear()
            self.functions.clear()
            self.function_ids.clear()
        else:
            functions = set(functions)
        nodes, parents, file_of = self.nodes, self.parents, self.file_of
        next_id = self.max_id + 1
        for sf in self.files:
            path = sf.path
            for fn in sf.functions:
                if functions is not None and fn.name not in functions:
                    continue
                ids = []
                stack: list[tuple[Node, Optional[int]]] = [(fn, None)]
                while stack:
                    node, parent_id = stack.pop()
                    if node.node_id == -1:
                        node.node_id = next_id
                        next_id += 1
                    nid = node.node_id
                    ids.append(nid)
                    nodes[nid] = node
                    parents[nid] = parent_id
                    file_of[nid] = path
                    for child in reversed(node.children):
                        stack.append((child, nid))
                if functions is not None:
                    for gone in set(self.function_ids[fn.name]).difference(ids):
                        del nodes[gone], parents[gone], file_of[gone]
                self.functions[fn.name] = (sf, fn)
                self.function_ids[fn.name] = ids
        self.max_id = max(next_id - 1, self.max_id)

    def node(self, node_id: int) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node id {node_id}") from None

    def parent(self, node_id: int) -> Optional[Node]:
        pid = self.parents.get(node_id)
        return None if pid is None else self.nodes[pid]

    def enclosing_function(self, node_id: int) -> Node:
        node = self.node(node_id)
        while node.kind != "function":
            pid = self.parents[node.node_id]
            if pid is None:
                raise UnknownNodeError(f"node {node_id} has no enclosing function")
            node = self.nodes[pid]
        return node

    def enclosing_statement(self, node_id: int) -> Optional[Node]:
        """Nearest statement node at or above node_id (None for functions)."""
        node = self.node(node_id)
        while node is not None and not node.is_statement():
            pid = self.parents.get(node.node_id)
            node = self.nodes[pid] if pid is not None else None
        return node

    def statement_ids(self) -> list[int]:
        return sorted(nid for nid, n in self.nodes.items() if n.is_statement())

    def clone(self, functions: Optional[Iterable[str]] = None) -> "SourceProject":
        """Copy-on-write copy of the project.

        The named function trees (None: all of them) are deep-copied with
        their node ids; every other function tree, and every `SourceFile`
        that holds none of the named functions, is shared with this
        project.  The indexes are copied as dicts and then pointed at the
        copied nodes, so nothing is renumbered."""
        if functions is not None:
            functions = set(functions)
        dup = SourceProject.__new__(SourceProject)
        dup.nodes = dict(self.nodes)
        dup.parents = dict(self.parents)
        dup.file_of = dict(self.file_of)
        dup.functions = dict(self.functions)
        dup.function_ids = dict(self.function_ids)
        dup.max_id = self.max_id
        dup.files = []
        for sf in self.files:
            if functions is not None and functions.isdisjoint(fn.name for fn in sf.functions):
                dup.files.append(sf)
                continue
            own = SourceFile(sf.path, sf.module, [])
            for fn in sf.functions:
                if functions is None or fn.name in functions:
                    fn = fn.clone(keep_ids=True)
                    for node in pre_order(fn):
                        dup.nodes[node.node_id] = node
                own.functions.append(fn)
                dup.functions[fn.name] = (own, fn)
            dup.files.append(own)
        return dup


def _pre_order_ordered(node: Node) -> Iterator[Node]:
    yield node
    for child in node.children:
        yield from _pre_order_ordered(child)


def parse_project(files: Sequence[tuple[str, str]]) -> SourceProject:
    """Parse (path, text) pairs into a project.

    Rejects empty input, duplicate paths, syntax errors in any file, and
    function names defined more than once across the whole project.
    """
    from minirepair.lang.parser import parse_file_source

    if not files:
        raise EmptyProjectError("project has no source files")
    seen_paths = set()
    for path, _ in files:
        if path in seen_paths:
            raise ProjectError(f"duplicate file path: {path}")
        seen_paths.add(path)

    source_files = []
    for path, text in sorted(files, key=lambda item: item[0]):
        functions = parse_file_source(path, text)
        source_files.append(SourceFile(path, module_of(path), functions))

    seen_functions: dict[str, str] = {}
    for sf in source_files:
        for fn in sf.functions:
            if fn.name in seen_functions:
                raise DuplicateFunctionError(fn.name, seen_functions[fn.name], sf.path)
            seen_functions[fn.name] = sf.path
    return SourceProject(source_files)
