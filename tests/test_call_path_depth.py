"""Tripwire: the Python frames between `engine.navigate` and the interpreter.

Where a deep MiniLang recursion ends in RecursionError depends on how deep
in Python's stack `interp.execute` is called (ROADMAP item 1), so the
seed-0 digests of `perfbench/reference` depend on the frame counts below.
A change that adds or removes a frame on one of these paths moves those
digests, and this test names the path first.  Delete it when the call
depth cap stops depending on the caller's stack (ROADMAP item 1).
"""

import sys

import pytest

from minirepair import engine, faultloc
from minirepair.presets import config_from_preset

from conftest import load_bug

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="from CPython 3.12 a comprehension has no frame of its own (PEP 709); "
           "the reference digests are recorded on 3.11",
)

# each path from the frame below `navigate` down to the caller of `execute`
VALIDATION = ("validate_variant", "_run_tests", "<listcomp>", "run_test")
BASELINE = ("__init__", "run_suite", "<listcomp>", "run_test")
EXHAUSTIVE = ("run", "_run_exhaustive", "_validate", *VALIDATION)
SELECTIVE = ("run", "_run_selective", "_validate", *VALIDATION)
EVOLUTIONARY = ("run", "_run_evolutionary", "_validate", *VALIDATION)
REFINE_FINAL = ("run", "refine_patches", *VALIDATION)
REFINE_MINIMIZING = ("run", "refine_patches", "minimize_transformations", "revalidate",
                     *VALIDATION)


def test_frames_from_navigate_to_the_interpreter(monkeypatch):
    paths = set()
    real_execute = faultloc.execute

    def execute(*args, **kwargs):
        names = []
        frame = sys._getframe(1)
        while frame.f_code is not engine.navigate.__code__:
            names.append(frame.f_code.co_name)
            frame = frame.f_back
        paths.add(tuple(reversed(names)))
        return real_execute(*args, **kwargs)

    monkeypatch.setattr(faultloc, "execute", execute)
    # neg-guard's jgenprog solution has two edits, so refinement minimizes it
    for bug, mode in (("abs-sign", "jmutrepair"), ("abs-sign", "cardumen"),
                      ("neg-guard", "jgenprog")):
        project, suite, meta = load_bug(bug)
        config = config_from_preset(mode, seed=1, step_budget=int(meta["step_budget"]))
        engine.navigate(project, suite, config)
    assert {path: len(path) for path in paths} == {
        BASELINE: 4,
        EXHAUSTIVE: 7,
        SELECTIVE: 7,
        EVOLUTIONARY: 7,
        REFINE_FINAL: 6,
        REFINE_MINIMIZING: 8,
    }
