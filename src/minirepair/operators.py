"""Repair operator spaces.

Four spaces are provided:

  irr-statements      insert-before / replace / remove of statements
                      (insert and replace consume an ingredient)
  suppression         remove statement, insert a default-valued return
                      before a statement, force an if condition to
                      true or false
  relational-logical  rewrite each relational operator to every other one,
                      swap && with ||, insert or drop a boolean negation
  r-expression        replace any expression (except an assignment's
                      target) with an ingredient expression

Operators never mutate the project they are asked about.  `apply_edits`
is the one way to apply them: it builds a variant that shares every node
with the project except the path from the function root down to each
edited node, which it copies, and it updates the variant's indexes after
each edit only where the edit changed them.  The engine's `materialize`
applies a variant's transformation list through it.  An operator's
`mutate` changes only its target and the children of its target or of
the target's parent, leaves the subtrees it moves intact, gives new
nodes node_id -1, and never touches a signature; the path copy, the
local index update and the check of only a variant's edited functions
rely on that.  An operator's `applicable` covers its structural
preconditions; whole-variant scope/type checking happens separately at
generation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from minirepair.lang.ast import (
    LOGICAL_OPS,
    RELATIONAL_OPS,
    Node,
    SourceProject,
    Type,
    index_of,
)
from minirepair.lang.types import free_refs


class RepairOperator:
    name: str = ""
    needs_ingredient: bool = False

    def applicable(self, project: SourceProject, node: Node) -> bool:
        raise NotImplementedError

    def mutate(self, project: SourceProject, target: Node, ingredient: Node | None) -> None:
        """Apply the transformation in place on a cloned project."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<op {self.name}>"


@dataclass(frozen=True)
class OperatorSpace:
    name: str
    operators: tuple[RepairOperator, ...]


def _parent_block(project: SourceProject, node: Node) -> Node | None:
    parent = project.parent(node.node_id)
    if parent is not None and parent.kind == "block":
        return parent
    return None


def _replace_child(parent: Node, target: Node, replacement: Node) -> None:
    parent.children[index_of(parent.children, target)] = replacement


def _decl_used_later(block: Node, decl: Node) -> bool:
    """True when a var-decl binds a name that a later statement of its
    block reads: the checker's binding rule (`types.free_refs`)."""
    later = block.children[index_of(block.children, decl) + 1:]
    return any(ref.name == decl.name for stmt in later for ref in free_refs(stmt))


def default_return_node(ret: Type | None) -> Node:
    if ret is None:
        return Node("return")
    if ret.base == "int":
        value = Node("literal", value=0)
    elif ret.base == "float":
        value = Node("literal", value=0.0)
    elif ret.base == "bool":
        value = Node("literal", value=False)
    elif ret.base == "string":
        value = Node("literal", value="")
    elif ret.base == "array":
        value = Node("literal", op="array")
    else:
        raise ValueError(f"no default value for return type {ret}")
    return Node("return", [value])


def is_assignment_target_base(project: SourceProject, node: Node) -> bool:
    """True for the lvalue spine of an assignment (the part left of '='
    that names the written location, excluding subscript expressions)."""
    cur = node
    while True:
        parent = project.parent(cur.node_id)
        if parent is None:
            return False
        if parent.kind == "index" and parent.children[0] is cur:
            cur = parent
            continue
        return parent.kind == "assign" and parent.children[0] is cur


class RemoveStatement(RepairOperator):
    name = "remove"

    def applicable(self, project, node):
        block = _parent_block(project, node)
        if not node.is_statement() or block is None:
            return False
        return node.kind != "var-decl" or not _decl_used_later(block, node)

    def mutate(self, project, target, ingredient):
        siblings = _parent_block(project, target).children
        del siblings[index_of(siblings, target)]


class InsertBefore(RepairOperator):
    name = "insert-before"
    needs_ingredient = True

    def applicable(self, project, node):
        return node.is_statement() and _parent_block(project, node) is not None

    def mutate(self, project, target, ingredient):
        block = _parent_block(project, target)
        _replace_child(block, target, Node("block", [ingredient, target]))


class ReplaceStatement(RepairOperator):
    name = "replace"
    needs_ingredient = True

    def applicable(self, project, node):
        return node.is_statement() and _parent_block(project, node) is not None

    def mutate(self, project, target, ingredient):
        block = _parent_block(project, target)
        _replace_child(block, target, ingredient)


class InsertReturnBefore(RepairOperator):
    name = "insert-return-before"

    def applicable(self, project, node):
        if not node.is_statement() or _parent_block(project, node) is None:
            return False
        ret = project.enclosing_function(node.node_id).ret
        try:
            default_return_node(ret)
        except ValueError:
            return False
        return True

    def mutate(self, project, target, ingredient):
        ret = project.enclosing_function(target.node_id).ret
        block = _parent_block(project, target)
        _replace_child(block, target, Node("block", [default_return_node(ret), target]))


class IfCondition(RepairOperator):
    def __init__(self, value: bool):
        self.value = value
        self.name = "if-true" if value else "if-false"

    def applicable(self, project, node):
        return node.kind == "if"

    def mutate(self, project, target, ingredient):
        target.children[0] = Node("literal", value=self.value)


class RelationalTo(RepairOperator):
    def __init__(self, to_op: str):
        self.to_op = to_op
        self.name = f"relational-to-{to_op}"

    def applicable(self, project, node):
        return node.kind == "binary-op" and node.op in RELATIONAL_OPS and node.op != self.to_op

    def mutate(self, project, target, ingredient):
        target.op = self.to_op


class LogicalSwap(RepairOperator):
    name = "logical-swap"

    def applicable(self, project, node):
        return node.kind == "binary-op" and node.op in LOGICAL_OPS

    def mutate(self, project, target, ingredient):
        target.op = "||" if target.op == "&&" else "&&"


class NegateInsert(RepairOperator):
    """Wrap a logical binary expression in `!(...)`."""

    name = "negate-insert"

    def applicable(self, project, node):
        return node.kind == "binary-op" and node.op in LOGICAL_OPS

    def mutate(self, project, target, ingredient):
        parent = project.parent(target.node_id)
        _replace_child(parent, target, Node("unary-op", [target], op="!"))


class NegateRemove(RepairOperator):
    name = "negate-remove"

    def applicable(self, project, node):
        return node.kind == "unary-op" and node.op == "!"

    def mutate(self, project, target, ingredient):
        parent = project.parent(target.node_id)
        _replace_child(parent, target, target.children[0])


class ReplaceExpression(RepairOperator):
    name = "replace-expression"
    needs_ingredient = True

    def applicable(self, project, node):
        return node.is_expression() and not is_assignment_target_base(project, node)

    def mutate(self, project, target, ingredient):
        parent = project.parent(target.node_id)
        _replace_child(parent, target, ingredient)


def space_irr_statements() -> OperatorSpace:
    return OperatorSpace(
        "irr-statements", (InsertBefore(), ReplaceStatement(), RemoveStatement())
    )


def space_suppression() -> OperatorSpace:
    return OperatorSpace(
        "suppression",
        (RemoveStatement(), InsertReturnBefore(), IfCondition(True), IfCondition(False)),
    )


def space_relational_logical() -> OperatorSpace:
    ops: list[RepairOperator] = [RelationalTo(op) for op in RELATIONAL_OPS]
    ops.extend([LogicalSwap(), NegateInsert(), NegateRemove()])
    return OperatorSpace("relational-logical", tuple(ops))


def space_r_expression() -> OperatorSpace:
    return OperatorSpace("r-expression", (ReplaceExpression(),))


# the operator-space extension point: config lists its keys
SPACES = {
    "irr-statements": space_irr_statements,
    "suppression": space_suppression,
    "relational-logical": space_relational_logical,
    "r-expression": space_r_expression,
}


def operator_space(name: str) -> OperatorSpace:
    try:
        return SPACES[name]()
    except KeyError:
        raise ValueError(f"unknown operator space {name!r}") from None


def apply_edits(
    project: SourceProject, edits: Iterable[tuple[RepairOperator, int, Node | None]]
) -> tuple[SourceProject, frozenset[str]]:
    """Apply (operator, node id, ingredient) edits in order to a variant.

    The variant (`SourceProject.derive`) shares every node with `project`,
    which is never modified, except the nodes on the path from the
    function root to each edited node: those are copied, with their ids,
    at most once per variant (`own_path`).  After each edit the indexes
    are updated where the edit changed them (`relink`).  An edit whose node
    an earlier edit removed, or whose operator no longer applies there, is
    skipped.  Each ingredient is spliced in as given, so it must be a tree
    that nothing else holds.  Returns the variant and the names of the
    functions it edited.
    """
    variant = project.derive()
    owned: set[int] = set()  # ids of the nodes the variant copied or created
    edited: set[str] = set()
    for op, node_id, ingredient in edits:
        target = variant.nodes.get(node_id)
        if target is None or not op.applicable(variant, target):
            continue
        edited.add(variant.enclosing_function(node_id).name)
        target = variant.own_path(node_id, owned)
        parent = variant.parent(node_id)
        siblings, children = list(parent.children), list(target.children)
        op.mutate(variant, target, ingredient)
        variant.relink(parent, siblings, owned)
        variant.relink(target, children, owned)
    return variant, frozenset(edited)
