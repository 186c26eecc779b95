"""Deterministic pretty-printer for MiniLang ASTs.

The printed form is canonical: 4-space indents, one statement per line,
minimal parentheses by operator precedence, `} else if` chains flattened.
parse(print(ast)) is structurally identical to ast for every well-formed
tree, which is what lets unified diffs of printed sources serve as patches.
"""

from __future__ import annotations

from minirepair.lang.ast import (
    BINARY_PRECEDENCE,
    Node,
    SourceFile,
    SourceProject,
    UnknownNodeError,
)
from minirepair.lang.lexer import ESCAPES

_INDENT = "    "

# prefix and postfix operators bind tighter than every binary operator
_UNARY_PREC = 6
_POSTFIX_PREC = 7

# a character of a string value -> its escape sequence (lexer.ESCAPES inverted)
_ENCODE = {ch: "\\" + letter for letter, ch in ESCAPES.items()}


def format_value(value) -> str:
    """MiniLang literal syntax for a scalar Python value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return '"' + "".join(_ENCODE.get(ch, ch) for ch in value) + '"'
    raise ValueError(f"not a printable literal: {value!r}")


def expr_str(node: Node, min_prec: int = 0) -> str:
    kind = node.kind
    if kind == "literal":
        if node.op == "array":
            return "[" + ", ".join(expr_str(c) for c in node.children) + "]"
        return format_value(node.value)
    if kind == "var-ref":
        return node.name
    if kind == "call":
        args = ", ".join(expr_str(c) for c in node.children)
        return f"{node.name}({args})"
    if kind == "index":
        base = expr_str(node.children[0], _POSTFIX_PREC)
        return f"{base}[{expr_str(node.children[1])}]"
    if kind == "unary-op":
        inner = expr_str(node.children[0], _UNARY_PREC)
        text = node.op + inner
        return f"({text})" if _UNARY_PREC < min_prec else text
    if kind == "binary-op":
        prec = BINARY_PRECEDENCE[node.op]
        left = expr_str(node.children[0], prec)
        right = expr_str(node.children[1], prec + 1)
        text = f"{left} {node.op} {right}"
        return f"({text})" if prec < min_prec else text
    raise ValueError(f"not an expression node: {kind}")


def _block_inner_lines(block: Node, depth: int) -> list[str]:
    lines: list[str] = []
    for stmt in block.children:
        lines.extend(stmt_lines(stmt, depth))
    return lines


def _if_lines(node: Node, depth: int, prefix: str) -> list[str]:
    pad = _INDENT * depth
    cond, then = node.children[0], node.children[1]
    lines = [f"{pad}{prefix}if ({expr_str(cond)}) {{"]
    lines.extend(_block_inner_lines(then, depth + 1))
    if len(node.children) == 3:
        alt = node.children[2]
        if alt.kind == "if":
            lines.extend(_if_lines(alt, depth, prefix="} else "))
        else:
            lines.append(f"{pad}}} else {{")
            lines.extend(_block_inner_lines(alt, depth + 1))
            lines.append(f"{pad}}}")
    else:
        lines.append(f"{pad}}}")
    return lines


def stmt_lines(node: Node, depth: int) -> list[str]:
    pad = _INDENT * depth
    kind = node.kind
    if kind == "block":
        return [f"{pad}{{"] + _block_inner_lines(node, depth + 1) + [f"{pad}}}"]
    if kind == "var-decl":
        ann = f": {node.type_ann}" if node.type_ann is not None else ""
        return [f"{pad}let {node.name}{ann} = {expr_str(node.children[0])};"]
    if kind == "assign":
        target, value = node.children
        return [f"{pad}{expr_str(target)} = {expr_str(value)};"]
    if kind == "expr-stmt":
        return [f"{pad}{expr_str(node.children[0])};"]
    if kind == "return":
        if node.children:
            return [f"{pad}return {expr_str(node.children[0])};"]
        return [f"{pad}return;"]
    if kind == "if":
        return _if_lines(node, depth, prefix="")
    if kind == "while":
        cond, body = node.children
        lines = [f"{pad}while ({expr_str(cond)}) {{"]
        lines.extend(_block_inner_lines(body, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    raise ValueError(f"not a statement node: {kind}")


def function_lines(node: Node) -> list[str]:
    params = ", ".join(f"{name}: {ty}" for name, ty in node.params)
    ret = f" -> {node.ret}" if node.ret is not None else ""
    lines = [f"fn {node.name}({params}){ret} {{"]
    lines.extend(_block_inner_lines(node.children[0], 1))
    lines.append("}")
    return lines


def print_file(sf: SourceFile) -> str:
    chunks = ["\n".join(function_lines(fn)) for fn in sf.functions]
    return "\n\n".join(chunks) + "\n"


def print_sources(project: SourceProject) -> dict[str, str]:
    """Canonical printed text of every file, keyed by path."""
    return {sf.path: print_file(sf) for sf in project.files}


def print_tree(node: Node) -> str:
    if node.kind == "function":
        return "\n".join(function_lines(node))
    if node.is_statement():
        return "\n".join(stmt_lines(node, 0))
    if node.is_expression():
        return expr_str(node)
    raise UnknownNodeError(f"cannot print node kind {node.kind}")
