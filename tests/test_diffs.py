"""Unified diff generation and application round-trips."""

import string

from hypothesis import given, settings, strategies as st

from minirepair.diffs import PatchApplyError, apply_unified_diff, make_file_diff

import pytest


def make_project_diff(before: dict[str, str], after: dict[str, str]) -> str:
    """The per-file diffs of two {path: text} maps, in path order."""
    return "".join(make_file_diff(path, before.get(path, ""), after.get(path, ""))
                   for path in sorted(set(before) | set(after)))


def test_identical_texts_make_empty_diff():
    assert make_file_diff("a.mini", "x\ny\n", "x\ny\n") == ""


def test_simple_diff_applies():
    before = {"m.mini": "a\nb\nc\n"}
    after = {"m.mini": "a\nB\nc\n"}
    diff = make_project_diff(before, after)
    assert "-b\n" in diff and "+B\n" in diff
    assert apply_unified_diff(diff, before) == after


def test_multi_file_diff():
    before = {"a.mini": "1\n2\n", "b.mini": "x\n"}
    after = {"a.mini": "1\n3\n", "b.mini": "x\ny\n"}
    diff = make_project_diff(before, after)
    assert apply_unified_diff(diff, before) == after


def test_context_mismatch_raises():
    before = {"m.mini": "a\nb\nc\n"}
    diff = make_project_diff(before, {"m.mini": "a\nB\nc\n"})
    with pytest.raises(PatchApplyError):
        apply_unified_diff(diff, {"m.mini": "totally\ndifferent\n"})


def test_unknown_file_raises():
    diff = make_project_diff({"m.mini": "a\n"}, {"m.mini": "b\n"})
    with pytest.raises(PatchApplyError):
        apply_unified_diff(diff, {"other.mini": "a\n"})


lines = st.lists(
    st.text(alphabet=string.ascii_lowercase + " ", min_size=0, max_size=8),
    min_size=0,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(before_lines=lines, after_lines=lines)
def test_make_apply_roundtrip(before_lines, after_lines):
    before = "".join(line + "\n" for line in before_lines)
    after = "".join(line + "\n" for line in after_lines)
    diff = make_file_diff("f.mini", before, after)
    if not diff:
        assert before == after
        return
    patched = apply_unified_diff(diff, {"f.mini": before})
    assert patched["f.mini"] == after
