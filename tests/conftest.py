import json
from pathlib import Path

import pytest

from minirepair.cli import load_project_dir
from minirepair.ingredients import Ingredient
from minirepair.lang.printer import print_tree
from minirepair.operators import apply_edits

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"


def corpus_bug_names():
    return sorted(p.name for p in CORPUS.iterdir() if (p / "tests.json").is_file())


def load_bug(name: str):
    """(project, suite, meta) for one corpus bug."""
    return load_project_dir(CORPUS / name)


def by_name(space, name: str):
    """The operator of `space` called `name`."""
    for op in space.operators:
        if op.name == name:
            return op
    raise KeyError(name)


def apply_operator(project, op, node_id: int, ingredient=None):
    """One edit with `apply_edits`: the transformed project, or None when
    the operator is not applicable at the node.  Neither the project nor
    the ingredient is modified: a clone of the ingredient is spliced."""
    if not op.applicable(project, project.node(node_id)):
        return None
    if op.needs_ingredient and ingredient is None:
        raise ValueError(f"operator {op.name} needs an ingredient")
    if ingredient is not None:
        ingredient = ingredient.clone()
    return apply_edits(project, [(op, node_id, ingredient)])[0]


def nested(frames: int, fn):
    """fn() called under `frames` extra Python frames."""
    return fn() if frames == 0 else nested(frames - 1, fn)


def bug_meta(name: str) -> dict:
    return json.loads((CORPUS / name / "bug.json").read_text())


@pytest.fixture(scope="session")
def corpus_names():
    names = corpus_bug_names()
    assert len(names) >= 20
    return names


def one_tree_plan(tree):
    """The plan of one candidate, `tree` itself: a Transformation of plan
    and index 0 splices a copy of it."""
    return Ingredient(print_tree(tree), tree, tree.node_id, "", frozenset()).as_is
