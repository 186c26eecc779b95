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
from operator import is_
from pathlib import PurePosixPath
from typing import Iterator, Optional, Sequence

STATEMENT_KINDS = frozenset(
    {"assign", "if", "while", "return", "expr-stmt", "block", "var-decl"}
)
EXPRESSION_KINDS = frozenset(
    {"binary-op", "unary-op", "call", "var-ref", "literal", "index"}
)

RELATIONAL_OPS = ("<", "<=", ">", ">=", "==", "!=")
LOGICAL_OPS = ("&&", "||")

# how tightly each binary operator binds, loosest first; every binary
# operator is left-associative.  The parser climbs this table and the
# printer parenthesizes by it.
BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
}

# the range of MiniLang's 64-bit signed int
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


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

# the scalar type keywords and the types they name
SCALAR_TYPES = {"int": INT, "float": FLOAT, "bool": BOOL, "string": STRING}


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

    A variant made by `derive` shares its trees with the project it came
    from: it may edit only the nodes it owns (see `own_path`), and it
    keeps its indexes up to date with `relink` after each edit.

    `analysis` memoizes what is computed from the unedited project (its
    type table, ingredient pools, similarity index, name model, printed
    sources and candidate plans, and the baseline of each suite, which
    keeps what running that suite on the project and its variants gave),
    so every repair session on one project object shares it.
    Nothing may edit a project once it has entries; a variant starts with
    an empty memo of its own."""

    def __init__(self, files: list[SourceFile]):
        self.files = files
        self.analysis: dict = {}
        self.nodes: dict[int, Node] = {}
        self.parents: dict[int, Optional[int]] = {}
        self.functions: dict[str, tuple[SourceFile, Node]] = {}
        self.max_id = 0
        self.reindex()

    def reindex(self) -> None:
        """Rebuild the node, parent and function indexes; assigns fresh ids,
        in project pre-order, to any node with node_id == -1.  A parsed
        project's nodes all start at -1, so it is numbered from 1."""
        self.nodes.clear()
        self.parents.clear()
        self.functions.clear()
        nodes, parents = self.nodes, self.parents
        next_id = self.max_id + 1
        for sf in self.files:
            for fn in sf.functions:
                stack: list[tuple[Node, Optional[int]]] = [(fn, None)]
                while stack:
                    node, parent_id = stack.pop()
                    if node.node_id == -1:
                        node.node_id = next_id
                        next_id += 1
                    nid = node.node_id
                    nodes[nid] = node
                    parents[nid] = parent_id
                    for child in reversed(node.children):
                        stack.append((child, nid))
                self.functions[fn.name] = (sf, fn)
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

    def clone(self) -> "SourceProject":
        """Deep copy of every tree, with the node ids and the indexes."""
        dup = self.derive()
        dup.files = []
        for sf in self.files:
            own = SourceFile(sf.path, sf.module, [])
            for fn in sf.functions:
                fn = fn.clone(keep_ids=True)
                for node in pre_order(fn):
                    dup.nodes[node.node_id] = node
                own.functions.append(fn)
                dup.functions[fn.name] = (own, fn)
            dup.files.append(own)
        return dup

    def derive(self) -> "SourceProject":
        """Variant shell: shares every tree and `SourceFile` with this
        project, which its edits never modify, and copies only the indexes
        (the two node dicts are copied at C speed)."""
        dup = SourceProject.__new__(SourceProject)
        dup.files = list(self.files)
        dup.nodes = dict(self.nodes)
        dup.parents = dict(self.parents)
        dup.functions = dict(self.functions)
        dup.max_id = self.max_id
        dup.analysis = {}
        return dup

    def own_path(self, node_id: int, owned: set[int]) -> Node:
        """Path copying: make every node from node_id's function root down
        to node_id this project's own; returns its own node at node_id.

        `owned` holds the ids of the nodes this project already owns; it
        is closed under parents, so the walk up stops at the first owned
        node.  Each node on the path that is not owned is copied once,
        keeping its id and sharing its children, and put in its (owned)
        parent's place; a copied function root gets its own `SourceFile`."""
        path = []
        nid: Optional[int] = node_id
        while nid is not None and nid not in owned:
            path.append(nid)
            nid = self.parents[nid]
        parent = None if nid is None else self.nodes[nid]
        for nid in reversed(path):
            node = self.nodes[nid]
            dup = node.copy_node(list(node.children))
            dup.node_id = nid
            if parent is None:
                self._own_root(node, dup)
            else:
                siblings = parent.children
                siblings[index_of(siblings, node)] = dup
            self.nodes[nid] = dup
            owned.add(nid)
            parent = dup
        return self.nodes[node_id]

    def _own_root(self, old: Node, new: Node) -> None:
        sf = self.functions[old.name][0]
        own = SourceFile(sf.path, sf.module, [new if fn is old else fn for fn in sf.functions])
        self.files[index_of(self.files, sf)] = own
        for fn in own.functions:
            self.functions[fn.name] = (own, fn)

    def relink(self, parent: Node, before: list[Node], owned: set[int]) -> None:
        """Update the indexes after the children of `parent`, an owned
        node, changed from `before` to their current list.

        Each new node (node_id -1) under a new child gets the next id in
        pre-order, the id a full reindex gives it, and joins `owned`; a
        new child that has an id, or a node with an id under a new node,
        is pointed at its new parent and keeps its subtree; an old child
        that was not reattached loses the ids of its whole subtree."""
        children = parent.children
        if len(children) == len(before) and all(map(is_, children, before)):
            return
        old = {id(child) for child in before}
        current = {id(child) for child in children}
        nodes, parents = self.nodes, self.parents
        moved = set()
        next_id = self.max_id + 1
        stack = [(child, parent.node_id) for child in reversed(children) if id(child) not in old]
        while stack:
            node, parent_id = stack.pop()
            if node.node_id != -1:
                parents[node.node_id] = parent_id
                moved.add(node.node_id)
                continue
            node.node_id = nid = next_id
            next_id += 1
            nodes[nid] = node
            parents[nid] = parent_id
            owned.add(nid)
            for child in reversed(node.children):
                stack.append((child, nid))
        self.max_id = next_id - 1
        detached = [child for child in before if id(child) not in current]
        while detached:
            node = detached.pop()
            if node.node_id not in moved:
                del nodes[node.node_id], parents[node.node_id]
                detached.extend(node.children)


def index_of(items: list, item) -> int:
    """Position of `item` by identity (list.index compares by value)."""
    for i, other in enumerate(items):
        if other is item:
            return i
    raise ValueError("item is not in the list")


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
