"""Recursive-descent parser for MiniLang.

Implements exactly the grammar documented in docs/minilang.md.
"""

from __future__ import annotations

import math

from minirepair.lang.ast import (
    BINARY_PRECEDENCE,
    INT64_MAX,
    SCALAR_TYPES,
    MiniSyntaxError,
    Node,
    Type,
    array_of,
)
from minirepair.lang.lexer import Token, tokenize

# What one function may nest, so that the parser and every recursive walk
# over a parsed tree (type checker, printer, interpreter) stay far below
# Python's recursion limit.  Nesting counts the constructs open at a token:
# blocks, expressions (each parenthesis, call argument, array element and
# index opens one), prefix operators, `else if`s and array types; one
# parenthesis level costs the parser 5 Python frames, one call or array
# level 6 (`parse_list`), and each one more when it is a binary operator's
# operand, as in `x + (`.  The height also bounds trees that nest without
# it, such as a long `a + b + ...`.
MAX_NESTING = 32
MAX_TREE_HEIGHT = 64  # nodes on the longest path from a function down


class _Parser:
    def __init__(self, path: str, tokens: list[Token]):
        self.path = path
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # constructs open at the current token

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def check(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text if tok.text else tok.kind
            self.error(tok, f"expected {want!r}, found {got!r}")
        return self.advance()

    def error(self, tok: Token, msg: str):
        raise MiniSyntaxError(self.path, tok.line, msg)

    def enter(self, tok: Token) -> None:
        """Open a nested construct at `tok`; the caller closes it with
        `self.depth -= 1`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(tok, f"nesting deeper than {MAX_NESTING} levels")

    def check_height(self, root: Node) -> None:
        level = [root]
        for _ in range(MAX_TREE_HEIGHT):
            level = [child for node in level for child in node.children]
            if not level:
                return
        raise MiniSyntaxError(
            self.path, level[0].line, f"syntax tree deeper than {MAX_TREE_HEIGHT} levels"
        )

    # -- grammar -----------------------------------------------------------

    def parse_program(self) -> list[Node]:
        functions = []
        while not self.check("eof"):
            functions.append(self.parse_function())
        return functions

    def parse_function(self) -> Node:
        start = self.expect("keyword", "fn")
        name = self.expect("ident").text
        self.expect("op", "(")
        params = self.parse_list(")", self.parse_param)
        ret = None
        if self.accept("op", "->"):
            ret = self.parse_type()
        body = self.parse_block()
        function = Node("function", [body], name=name, params=params, ret=ret, line=start.line)
        self.check_height(function)
        return function

    def parse_param(self) -> tuple[str, Type]:
        name = self.expect("ident").text
        self.expect("op", ":")
        return name, self.parse_type()

    def parse_list(self, close: str, item) -> list:
        """The items that `item` parses, separated by commas, up to the
        operator `close`, which it consumes."""
        items = []
        if not self.check("op", close):
            items.append(item())
            while self.accept("op", ","):
                items.append(item())
        self.expect("op", close)
        return items

    def parse_type(self) -> Type:
        tok = self.accept("op", "[")
        if tok is not None:
            self.enter(tok)
            inner = self.parse_type()
            self.expect("op", "]")
            self.depth -= 1
            return array_of(inner)
        tok = self.expect("keyword")
        if tok.text not in SCALAR_TYPES:
            self.error(tok, f"expected a type, found {tok.text!r}")
        return SCALAR_TYPES[tok.text]

    def parse_block(self) -> Node:
        start = self.expect("op", "{")
        self.enter(start)
        statements = []
        while not self.check("op", "}"):
            statements.append(self.parse_statement())
        self.expect("op", "}")
        self.depth -= 1
        return Node("block", statements, line=start.line)

    def parse_statement(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "{":
            return self.parse_block()
        if tok.kind == "keyword":
            if tok.text == "let":
                return self.parse_var_decl()
            if tok.text == "if":
                return self.parse_if()
            if tok.text == "while":
                return self.parse_while()
            if tok.text == "return":
                return self.parse_return()
        return self.parse_assign_or_expr()

    def parse_var_decl(self) -> Node:
        start = self.expect("keyword", "let")
        name = self.expect("ident").text
        ann = None
        if self.accept("op", ":"):
            ann = self.parse_type()
        self.expect("op", "=")
        init = self.parse_expr()
        self.expect("op", ";")
        return Node("var-decl", [init], name=name, type_ann=ann, line=start.line)

    def parse_if(self) -> Node:
        start = self.expect("keyword", "if")
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        then = self.parse_block()
        children = [cond, then]
        if self.accept("keyword", "else"):
            if self.check("keyword", "if"):
                self.enter(self.peek())
                children.append(self.parse_if())
                self.depth -= 1
            else:
                children.append(self.parse_block())
        return Node("if", children, line=start.line)

    def parse_while(self) -> Node:
        start = self.expect("keyword", "while")
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        body = self.parse_block()
        return Node("while", [cond, body], line=start.line)

    def parse_return(self) -> Node:
        start = self.expect("keyword", "return")
        children = []
        if not self.check("op", ";"):
            children.append(self.parse_expr())
        self.expect("op", ";")
        return Node("return", children, line=start.line)

    def parse_assign_or_expr(self) -> Node:
        start = self.peek()
        expr = self.parse_expr()
        if self.accept("op", "="):
            if not self._valid_lvalue(expr):
                self.error(start, "invalid assignment target")
            value = self.parse_expr()
            self.expect("op", ";")
            return Node("assign", [expr, value], line=start.line)
        self.expect("op", ";")
        return Node("expr-stmt", [expr], line=start.line)

    def _valid_lvalue(self, node: Node) -> bool:
        while node.kind == "index":
            node = node.children[0]
        return node.kind == "var-ref"

    # -- expressions (precedence climbing over BINARY_PRECEDENCE) -----------

    def parse_expr(self) -> Node:
        self.enter(self.peek())
        expr = self.parse_binary(1)
        self.depth -= 1
        return expr

    def parse_binary(self, min_prec: int) -> Node:
        """The longest chain of unary operands joined by binary operators
        that bind at least as tightly as `min_prec`, grouped to the left."""
        left = self.parse_unary()
        while True:
            tok = self.peek()
            prec = BINARY_PRECEDENCE.get(tok.text, 0) if tok.kind == "op" else 0
            if prec < min_prec:
                return left
            self.advance()
            right = self.parse_binary(prec + 1)
            left = Node("binary-op", [left, right], op=tok.text, line=tok.line)

    def parse_unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("-", "!"):
            self.advance()
            self.enter(tok)
            operand = self.parse_unary()
            self.depth -= 1
            return Node("unary-op", [operand], op=tok.text, line=tok.line)
        return self.parse_postfix()

    def parse_postfix(self) -> Node:
        node = self.parse_primary()
        while self.check("op", "["):
            tok = self.advance()
            sub = self.parse_expr()
            self.expect("op", "]")
            node = Node("index", [node, sub], line=tok.line)
        return node

    def parse_primary(self) -> Node:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            digits = tok.text.lstrip("0") or "0"
            # a literal is never negative, so INT64_MIN is written
            # `-9223372036854775807 - 1`; the length test first: int()
            # refuses strings of over 4,300 digits
            if len(digits) > len(str(INT64_MAX)) or int(digits) > INT64_MAX:
                self.error(tok, f"int literal {tok.text} is out of the 64-bit range")
            return Node("literal", value=int(digits), line=tok.line)
        if tok.kind == "float":
            self.advance()
            value = float(tok.text)
            # an infinity would print as `inf`, which reparses as a variable
            if not math.isfinite(value):
                self.error(tok, f"float literal {tok.text} is out of the float range")
            return Node("literal", value=value, line=tok.line)
        if tok.kind == "string":
            self.advance()
            return Node("literal", value=tok.text, line=tok.line)
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            self.advance()
            return Node("literal", value=(tok.text == "true"), line=tok.line)
        if tok.kind == "op" and tok.text == "[":
            self.advance()
            return Node("literal", self.parse_list("]", self.parse_expr), op="array",
                        line=tok.line)
        if tok.kind == "ident":
            self.advance()
            if self.accept("op", "("):
                return Node("call", self.parse_list(")", self.parse_expr), name=tok.text,
                            line=tok.line)
            return Node("var-ref", name=tok.text, line=tok.line)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect("op", ")")
            return inner
        self.error(tok, f"unexpected token {tok.text or tok.kind!r}")


def parse_file_source(path: str, source: str) -> list[Node]:
    """Parse one file's text into its list of function nodes."""
    return _Parser(path, tokenize(path, source)).parse_program()
