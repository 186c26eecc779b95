"""repair on corrupted input ends in an exit code, never a traceback.

Each example corrupts a copy of corpus/abs-sign: `tests.json` replaced by
another JSON value or one of its tests with a field replaced, dropped or
added, `bug.json` replaced or given another `step_budget`, or one byte of
the source flipped.  Other examples keep the project and corrupt the
`--config` file instead: lines that give a known key a value of the wrong
type or range, that name an unknown or empty key, or that lack `=`, and
bytes that are not UTF-8.  `cli.main` must then return 0 (patches found),
2 (none found) or 1, and 1 only with an `error:` line on stderr.  An input
that loads (exit 0 or 2) is repaired a second time into another directory,
which must receive the same exit code, stderr and bytes: `report.json`
and every patch.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from minirepair import cli
from minirepair.config import CHOICES, FIELD_NAMES

from conftest import CORPUS

BUG = CORPUS / "abs-sign"
SUITE = json.loads((BUG / "tests.json").read_text())
SOURCE = (BUG / "src" / "main.mini").read_bytes()
FIELDS = ("name", "entry", "args", "expect", "expect_error")

# small JSON values of every shape; numbers stay small, so that no step
# budget makes a run slow
scalars = (st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats(-1e3, 1e3)
           | st.sampled_from([float("nan"), float("inf"), 2**63, -2**63 - 1])
           | st.text(max_size=6) | st.sampled_from(["sign", "one", "div-by-zero"]))
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def replace_suite(value):
    return "tests.json", json.dumps(value).encode()


def replace_field(index, field, value, drop):
    suite = [dict(test) for test in SUITE]
    test = suite[index % len(suite)]
    if drop:
        test.pop(field, None)
    else:
        test[field] = value
    return "tests.json", json.dumps(suite).encode()


def replace_bug_json(value, budget_only):
    doc = {"step_budget": value} if budget_only else value
    return "bug.json", json.dumps(doc).encode()


def flip_byte(position, mask):
    data = bytearray(SOURCE)
    data[position % len(data)] ^= mask
    return "src/main.mini", bytes(data)


corruptions = st.one_of(
    st.builds(replace_suite, values),
    st.builds(replace_field, st.integers(0, len(SUITE) - 1), st.sampled_from(FIELDS + ("extra",)),
              values, st.booleans()),
    st.builds(replace_bug_json, values, st.booleans()),
    st.builds(flip_byte, st.integers(0, len(SOURCE) - 1), st.integers(1, 255)),
)


def repair(project, out, *options):
    """`cli.main` on `project` with `options`, by default jmutrepair, which
    repairs abs-sign within five iterations, writing to `out`: (exit code,
    stderr)."""
    options = options or ("--mode", "jmutrepair", "--max-iterations", "5")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["repair", str(project), *options, "--out", str(out)])
    return code, stderr.getvalue()


def written(out):
    """The bytes of every file under `out`, by relative path."""
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def exits_cleanly(project, tmp, *options):
    """Repair `project` into `tmp`/out: a clean exit, and for an input that
    loads, a second run into `tmp`/again that writes the same bytes."""
    code, err = repair(project, tmp / "out", *options)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error:"), err
    else:  # the input loads: a second run writes the same bytes
        first = written(tmp / "out")
        assert "report.json" in {str(p) for p in first}
        assert repair(project, tmp / "again", *options) == (code, err)
        assert written(tmp / "again") == first


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(corruption=corruptions)
def test_corrupted_project_exits_cleanly(corruption):
    path, data = corruption
    with tempfile.TemporaryDirectory() as tmp:
        project = Path(tmp) / "abs-sign"
        shutil.copytree(BUG, project)
        (project / path).write_bytes(data)
        exits_cleanly(project, Path(tmp))


# -- the --config file -----------------------------------------------------------

# a valid config that bounds the search; the corrupt lines follow it, so
# they override it.  Numbers stay small, so that every run ends within
# milliseconds, before any positive wall-clock limit drawn here, and
# repeats.
BASE_CONFIG = b"mode = jmutrepair\nmax_iterations = 5\n"
config_values = (
    st.integers(-3, 8).map(str)
    | st.sampled_from(["0.0", "-1.5", "1e300", "nan", "inf", "-inf", "true", "false", "",
                       str(2**64), str(-2**63 - 1)])
    | st.sampled_from(sorted({name for names in CHOICES.values() for name in names}))
    | st.sampled_from(["jkali", "jgenprog", "tibra", "custom", "nosuch"])
    | st.text(max_size=6)
)
config_lines = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(sorted(FIELD_NAMES)), config_values),
    st.builds("{} = {}".format, st.text(max_size=6) | st.just(""), config_values),
    st.text(max_size=8).filter(lambda line: "=" not in line),
).map(lambda line: line.encode() + b"\n")
config_bytes = st.sampled_from([b"\xff\xfe", b"\xc3", b"mode = jkali\x80\n"]) | st.binary(max_size=6)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(lines=st.lists(config_lines | config_bytes, min_size=1, max_size=4))
def test_corrupted_config_exits_cleanly(lines):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_bytes(BASE_CONFIG + b"".join(lines))
        exits_cleanly(BUG, Path(tmp), "--config", str(config))
