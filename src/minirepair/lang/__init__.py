"""MiniLang: grammar, AST, static checks, and a tracing interpreter."""

from minirepair.lang.ast import (
    EXPRESSION_KINDS,
    STATEMENT_KINDS,
    DuplicateFunctionError,
    EmptyProjectError,
    MiniSyntaxError,
    Node,
    ProjectError,
    SourceFile,
    SourceProject,
    Type,
    UnknownNodeError,
    nodes_equal,
    parse_project,
    pre_order,
)
from minirepair.lang.interp import ExecutionTrace, Outcome, UNIT, execute
from minirepair.lang.parser import parse_file_source
from minirepair.lang.printer import print_file
from minirepair.lang.types import ProjectTypes, TypeCheckError, check_project, env_at, free_variables

__all__ = [
    "EXPRESSION_KINDS",
    "STATEMENT_KINDS",
    "DuplicateFunctionError",
    "EmptyProjectError",
    "ExecutionTrace",
    "MiniSyntaxError",
    "Node",
    "Outcome",
    "ProjectError",
    "ProjectTypes",
    "SourceFile",
    "SourceProject",
    "Type",
    "TypeCheckError",
    "UNIT",
    "UnknownNodeError",
    "check_project",
    "env_at",
    "execute",
    "free_variables",
    "nodes_equal",
    "parse_file_source",
    "parse_project",
    "pre_order",
    "print_file",
]
