"""Unified diffs over printed sources: generation and application.

Patches are rendered with difflib (3 context lines) against the canonical
pretty-printed form of each file.  `apply_unified_diff` re-applies such a
patch and is used to verify, for every emitted patch, that buggy + diff
reproduces the variant sources byte-exactly.
"""

from __future__ import annotations

import difflib
import re

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


class PatchApplyError(Exception):
    pass


def make_file_diff(path: str, before: str, after: str) -> str:
    """Unified diff for one file ('' when the texts are identical)."""
    if before == after:
        return ""
    lines = difflib.unified_diff(
        before.splitlines(keepends=True),
        after.splitlines(keepends=True),
        fromfile=f"a/{path}",
        tofile=f"b/{path}",
        n=3,
    )
    return "".join(lines)


def _split_file_sections(diff_text: str) -> list[tuple[str, list[str]]]:
    sections: list[tuple[str, list[str]]] = []
    current: list[str] | None = None
    lines = diff_text.splitlines(keepends=True)
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("--- "):
            if i + 1 >= len(lines) or not lines[i + 1].startswith("+++ "):
                raise PatchApplyError("malformed file header")
            target = lines[i + 1][4:].split("\t")[0].strip()
            if target.startswith("b/"):
                target = target[2:]
            current = []
            sections.append((target, current))
            i += 2
            continue
        if current is None:
            raise PatchApplyError(f"content before file header: {line!r}")
        current.append(line)
        i += 1
    return sections


def apply_file_diff(body_lines: list[str], text: str) -> str:
    source = text.splitlines(keepends=True)
    out: list[str] = []
    cursor = 0  # index into source
    i = 0
    while i < len(body_lines):
        header = _HUNK_RE.match(body_lines[i])
        if header is None:
            raise PatchApplyError(f"expected hunk header, found {body_lines[i]!r}")
        old_start = int(header.group(1))
        old_len = int(header.group(2) or "1")
        hunk_begin = old_start - 1 if old_len > 0 else old_start
        if hunk_begin < cursor:
            raise PatchApplyError("overlapping hunks")
        out.extend(source[cursor:hunk_begin])
        cursor = hunk_begin
        i += 1
        consumed = 0
        while i < len(body_lines) and not body_lines[i].startswith("@@"):
            line = body_lines[i]
            if consumed >= old_len and not (line.startswith("+") or line.startswith("\\")):
                break
            tag, payload = line[0], line[1:]
            if tag == " " or tag == "-":
                if cursor >= len(source) or source[cursor] != payload:
                    raise PatchApplyError(
                        f"context mismatch at line {cursor + 1}: {payload!r}"
                    )
                if tag == " ":
                    out.append(payload)
                cursor += 1
                consumed += 1
            elif tag == "+":
                out.append(payload)
            elif line.startswith("\\"):
                pass  # "\ No newline at end of file"
            else:
                raise PatchApplyError(f"bad hunk line {line!r}")
            i += 1
    out.extend(source[cursor:])
    return "".join(out)


def apply_unified_diff(diff_text: str, sources: dict[str, str]) -> dict[str, str]:
    """Apply a diff of concatenated `make_file_diff`s to a {path: text} map."""
    patched = dict(sources)
    for path, body in _split_file_sections(diff_text):
        if path not in patched:
            raise PatchApplyError(f"patch targets unknown file {path}")
        patched[path] = apply_file_diff(body, patched[path])
    return patched
