"""Workload definitions and set-up for the repair benchmark.

A workload is a list of repair runs, one per (preset, corpus bug, repair
seed), over REPAIR_SEEDS repair seeds.  The workload seed fixes an endless
sequence of repair seeds and the filler; seed 0 starts with 1, 2, 3, so its
first REPAIR_SEEDS repair seeds are the paper's experiment.  A measured run
goes through the sequence one repair seed (a *slice* of the workload) at a
time for as long as its time allows.
"""

from __future__ import annotations

import importlib
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

from filler import FILLER_PATH, filler_source

REPAIR_SEEDS = 3
# repair seeds per workload seed before they would repeat across workload seeds
SEED_STRIDE = 1000

ALL_PRESETS = ("jgenprog", "jkali", "jmutrepair", "deeprepair-lite", "cardumen", "tibra")
# cardumen mines expression templates from the whole project, filler
# included, so padding would change its search; the others stay inside the
# bug's own module
MODULE_SCOPED = ("jgenprog", "jkali", "jmutrepair", "deeprepair-lite", "tibra")


@dataclass(frozen=True)
class Workload:
    name: str
    presets: tuple[str, ...]
    budget_factor: int  # multiplies every bug.json step budget
    padded: bool  # add the filler module to every bug


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's experiment; mixes every layer
        Workload("corpus", ALL_PRESETS, 1, False),
        # same search on a larger project: per-variant clone, reindex and
        # type-check cost dominates, the interpreter does not
        Workload("scale", MODULE_SCOPED, 1, True),
        # same search, but each timed-out test execution costs 4x the steps:
        # the interpreter dominates
        Workload("deep-budget", ALL_PRESETS, 4, False),
    )
}


def repair_seed(seed: int, k: int) -> int:
    """The k-th repair seed of a workload seed (seed 0 -> 1, 2, 3, ...)."""
    if seed < 0 or not 0 <= k < SEED_STRIDE:
        raise ValueError("workload seed must be >= 0 and k in range")
    return seed * SEED_STRIDE + k + 1


def pass_seeds(seed: int) -> list[int]:
    """The repair seeds of one full workload pass (seed 0 -> 1, 2, 3)."""
    return [repair_seed(seed, k) for k in range(REPAIR_SEEDS)]


@dataclass
class Bug:
    name: str
    project: object
    suite: list
    step_budget: int
    sources: dict[str, str]  # src-relative path -> file text, as loaded


@dataclass
class Setup:
    api: object  # namespace of the minirepair modules the benchmark calls
    bugs: list[Bug]


class Api:
    """The public entry points, taken from one fresh import of the package."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "minirepair" or m.startswith("minirepair.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("minirepair.cli")
        self.presets = importlib.import_module("minirepair.presets")
        self.engine = importlib.import_module("minirepair.engine")
        self.validate = importlib.import_module("minirepair.validate")
        self.diffs = importlib.import_module("minirepair.diffs")
        self.faultloc = importlib.import_module("minirepair.faultloc")
        self.ingredients = importlib.import_module("minirepair.ingredients")
        self.operators = importlib.import_module("minirepair.operators")
        self.ast = importlib.import_module("minirepair.lang.ast")
        self.types = importlib.import_module("minirepair.lang.types")
        self.printer = importlib.import_module("minirepair.lang.printer")


def _read_sources(project_dir: Path) -> dict[str, str]:
    src = project_dir / "src"
    return {
        p.relative_to(src).as_posix(): p.read_text(encoding="utf-8")
        for p in sorted(src.rglob("*.mini"))
    }


def set_up(root: Path, workload: Workload, seed: int, work_dir: Path) -> Setup:
    """Import the package, load every corpus bug (padded copies for the
    `scale` workload, written under work_dir) and fix the step budgets."""
    api = Api()
    corpus = root / "corpus"
    filler = filler_source(seed) if workload.padded else None
    bugs = []
    for name in api.cli.discover_bugs(corpus):
        bug_dir = corpus / name
        if filler is not None:
            padded = work_dir / name
            if padded.exists():
                shutil.rmtree(padded)
            shutil.copytree(bug_dir, padded)
            target = padded / "src" / FILLER_PATH
            target.parent.mkdir(parents=True, exist_ok=False)
            target.write_text(filler, encoding="utf-8")
            bug_dir = padded
        project, suite, meta = api.cli.load_project_dir(bug_dir)
        budget = int(meta["step_budget"]) * workload.budget_factor
        bugs.append(Bug(name, project, suite, budget, _read_sources(bug_dir)))
    return Setup(api, bugs)


def plan(setup: Setup, workload: Workload, repair_seeds) -> list[tuple]:
    """(preset, bug, repair seed) for every run over the given repair seeds."""
    return [
        (preset, bug, repair_seed)
        for preset in workload.presets
        for bug in setup.bugs
        for repair_seed in repair_seeds
    ]
