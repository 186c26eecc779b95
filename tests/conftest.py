import json
from pathlib import Path

import pytest

from minirepair.cli import load_project_dir
from minirepair.ingredients import Ingredient
from minirepair.lang.printer import print_tree

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"


def corpus_bug_names():
    return sorted(p.name for p in CORPUS.iterdir() if (p / "tests.json").is_file())


def load_bug(name: str):
    """(project, suite, meta) for one corpus bug."""
    return load_project_dir(CORPUS / name)


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
    return Ingredient(print_tree(tree), tree, "statement", tree.node_id, "", frozenset()).as_is
