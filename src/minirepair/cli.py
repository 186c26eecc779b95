"""Command-line front door.

    minirepair repair <project-dir> [flags]    search for patches
    minirepair bench  <corpus-dir>  [flags]    run the bundled benchmark

A project directory holds `src/**/*.mini` plus `tests.json`; corpus bugs
additionally carry `bug.json` (step budget, which presets can reach the
planted fix) and `expected_fix.patch`.  Repair writes `report.json` and one
`.patch` file per solution into the output directory and exits 0 when at
least one patch was found, 2 when the search ended empty-handed, and 1 on
usage, parse, or nothing-to-repair errors.

All artifacts are byte-deterministic for a fixed configuration and seed
under one CPython minor version (a deep MiniLang recursion can end where
Python's stack runs out, which differs between versions); the time measure
in reports and bench CSVs is interpreter steps, not wall clock.  Set
REPAIR_LOG=debug|info|warning for stderr logging.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from pathlib import Path

from minirepair.config import (
    CHOICES,
    FIELD_NAMES,
    ConfigError,
    RunConfig,
    configure,
    parse_config_file,
)
from minirepair.engine import navigate
from minirepair.faultloc import (
    NoFailingTests, SuiteError, TestCase, load_suite, read_json, read_text,
)
from minirepair.lang.ast import ProjectError, SourceProject, parse_project
from minirepair.lang.types import TypeCheckError, cached_types
from minirepair.presets import PRESET_NAMES, preset

log = logging.getLogger("minirepair")

BENCH_FIELDS = (
    "bug", "mode", "seed", "repaired", "first_patch_iteration",
    "validations_to_first_patch", "validations", "time_steps",
)


def _setup_logging() -> None:
    level_name = os.environ.get("REPAIR_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


class InputError(Exception):
    """Bad input that no other module's error names: a project or corpus
    path, bug.json, a bench list option or an output path."""


# what bad input raises: `main` ends each in "error: ..." and exit code 1
# (OSError: a config, source, suite or bug.json file that cannot be read)
INPUT_ERRORS = (
    InputError, ProjectError, TypeCheckError, SuiteError, ConfigError, NoFailingTests,
    ValueError, OSError,
)


def _directory(path: str | Path) -> Path:
    """`path`, which must name a directory: the one check of a project and
    of a corpus, so that both get the same error."""
    root = Path(path)
    if not root.exists():
        raise InputError(f"{root}: no such directory")
    if not root.is_dir():
        raise InputError(f"{root}: not a directory")
    return root


def load_project_dir(project_dir: str | Path) -> tuple[SourceProject, list[TestCase], dict]:
    """Parse <dir>/src/**/*.mini and <dir>/tests.json (paths are stored
    relative to src/, so module names follow the directory layout), and
    read the optional <dir>/bug.json: a JSON object whose step_budget, if
    present, is a positive integer."""
    root = _directory(project_dir)
    src_root = root / "src"
    if not src_root.is_dir():
        raise InputError(f"{root}: missing src/ directory")
    files = []
    for path in sorted(src_root.rglob("*.mini")):
        files.append((path.relative_to(src_root).as_posix(), read_text(path, InputError)))
    if not files:
        raise InputError(f"{src_root}: no .mini files")
    project = parse_project(files)
    cached_types(project)  # raises TypeCheckError; the first session reuses the result

    tests_path = root / "tests.json"
    if not tests_path.is_file():
        raise InputError(f"{root}: missing tests.json")
    suite = load_suite(tests_path)

    meta = {}
    meta_path = root / "bug.json"
    if meta_path.is_file():
        meta = read_json(meta_path, InputError)
        if not isinstance(meta, dict):
            raise InputError(f"{meta_path}: expected a JSON object")
        budget = meta.get("step_budget")
        if "step_budget" in meta and (type(budget) is not int or budget < 1):
            raise InputError(
                f"{meta_path}: step_budget must be a positive integer, got {budget!r}"
            )
    return project, suite, meta


def _flags(args) -> dict:
    """The parsed options that set a RunConfig field, by field name."""
    return {key: value for key, value in vars(args).items() if key in FIELD_NAMES}


def build_config(args, meta: dict | None = None) -> RunConfig:
    """The preset of `--mode`, else of the `--config` file's `mode` (else
    `custom`), then the `--config` file, then bug.json's step budget, then
    the flags, `--mode` among them."""
    file_values = parse_config_file(args.config) if args.config else {}
    mode = args.mode or file_values.get("mode", "custom")
    base = RunConfig() if mode == "custom" else preset(mode)
    budget = {"step_budget": (meta or {}).get("step_budget")}
    return configure(base, file_values, budget, _flags(args))


def _write_files(out_dir: Path, texts: dict[str, str]) -> None:
    """Write each text under its file name in `out_dir`, made if missing;
    an InputError names a file or directory that cannot be written."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (out_dir / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{exc.filename or out_dir}: {exc.strerror or exc}") from None


def cmd_repair(args) -> int:
    project, suite, meta = load_project_dir(args.project_dir)
    outcome = navigate(project, suite, build_config(args, meta))
    out_dir = Path(args.out)
    texts = {"report.json": json.dumps(outcome.report_dict(), indent=2, sort_keys=True) + "\n"}
    for patch in outcome.patches:
        texts[f"patch-{patch.discovery_order:03d}.patch"] = patch.diff_text
    _write_files(out_dir, texts)
    found = len(outcome.patches)
    log.info("stop=%s patches=%d validated=%d", outcome.stats.stop_reason,
             found, outcome.stats.validated)
    print(f"{found} patch(es) found; report in {out_dir}")
    return 0 if found else 2


def bench_run(
    corpus_dir: str | Path,
    pairs: list[tuple[str, str]],
    seeds: list[int],
    overrides: dict | None = None,
) -> list[dict]:
    """Run (bug, mode) pairs across seeds; one result row per run.  Each
    bug is loaded once, so all its runs share one project and its analysis.
    A bug whose suite has no failing test raises NoFailingTests, with the
    bug's name in the message."""
    rows = []
    loaded: dict[str, tuple[SourceProject, list[TestCase], dict]] = {}
    for bug_name, mode in pairs:
        if bug_name not in loaded:
            loaded[bug_name] = load_project_dir(Path(corpus_dir) / bug_name)
        project, suite, meta = loaded[bug_name]
        for seed in seeds:
            config = configure(preset(mode), {"seed": seed},
                               {"step_budget": meta.get("step_budget")}, overrides or {})
            try:
                outcome = navigate(project, suite, config)
            except NoFailingTests as exc:
                raise NoFailingTests(f"{bug_name}: {exc}") from None
            stats = outcome.stats
            rows.append(
                {
                    "bug": bug_name,
                    "mode": mode,
                    "seed": seed,
                    "repaired": "yes" if outcome.patches else "no",
                    "first_patch_iteration": stats.iteration_at_first_patch
                    if stats.iteration_at_first_patch is not None
                    else "",
                    "validations_to_first_patch": stats.validations_at_first_patch
                    if stats.validations_at_first_patch is not None
                    else "",
                    "validations": stats.validated,
                    "time_steps": stats.time_steps,
                }
            )
    return rows


def discover_bugs(corpus_dir: str | Path) -> list[str]:
    return sorted(
        p.name for p in Path(corpus_dir).iterdir()
        if p.is_dir() and (p / "tests.json").is_file()
    )


def rows_to_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=BENCH_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def summary_csv(rows: list[dict]) -> str:
    """Bugs repaired per mode (a bug counts once if any seed repaired it)."""
    repaired: dict[str, set[str]] = {}
    modes = []
    for row in rows:
        if row["mode"] not in modes:
            modes.append(row["mode"])
        if row["repaired"] == "yes":
            repaired.setdefault(row["mode"], set()).add(row["bug"])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["mode", "bugs_repaired"])
    for mode in modes:
        writer.writerow([mode, len(repaired.get(mode, ()))])
    return buffer.getvalue()


def _items(option: str, value: str, read=str) -> list:
    """The items of the comma list `value` of `option`, each read by `read`
    (`int` for seeds, which then compare as integers); an InputError for an
    item that `read` refuses, an empty item or a repeated one."""
    try:
        items = [read(item) for item in value.split(",")]
    except ValueError:
        raise InputError(f"{option} must be comma-separated integers, got {value!r}") from None
    if "" in items:
        raise InputError(f"{option} has an empty item")
    repeated = next((item for i, item in enumerate(items) if item in items[:i]), None)
    if repeated is not None:
        raise InputError(f"{option} repeats {repeated!r}")
    return items


def cmd_bench(args) -> int:
    corpus = _directory(args.corpus_dir)
    modes = _items("--modes", args.modes)
    bugs = discover_bugs(corpus) if args.bugs is None else _items("--bugs", args.bugs)
    seeds = _items("--seeds", args.seeds, int)
    rows = bench_run(corpus, [(bug, mode) for bug in bugs for mode in modes], seeds, _flags(args))
    out_dir = Path(args.out)
    _write_files(out_dir, {"bench.csv": rows_to_csv(rows), "summary.csv": summary_csv(rows)})
    repaired = sum(1 for r in rows if r["repaired"] == "yes")
    print(f"{len(rows)} runs, {repaired} repaired; CSV in {out_dir}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="minirepair",
                                     description="generate-and-validate program repair for MiniLang")
    sub = parser.add_subparsers(dest="command", required=True)

    repair = sub.add_parser("repair", help="search for patches for one project")
    repair.add_argument("project_dir")
    repair.add_argument("--mode", default=None, choices=("custom",) + PRESET_NAMES)
    repair.add_argument("--seed", type=int, default=None)
    repair.add_argument("--max-solutions", type=int, default=None)
    repair.add_argument("--max-iterations", type=int, default=None)
    repair.add_argument("--max-seconds", type=float, default=None)
    repair.add_argument("--navigation", default=None, choices=CHOICES["navigation"])
    repair.add_argument("--scope", dest="ingredient_scope", default=None,
                        choices=CHOICES["ingredient_scope"])
    repair.add_argument("--granularity", default=None, choices=CHOICES["granularity"])
    repair.add_argument("--jobs", type=int, default=None, help="accepted; has no effect")
    repair.add_argument("--step-budget", type=int, default=None)
    repair.add_argument("--formula", default=None, choices=CHOICES["formula"])
    repair.add_argument("--config", default=None, help="flat key=value config file")
    repair.add_argument("--out", default="repair-out")
    repair.set_defaults(func=cmd_repair)

    bench = sub.add_parser("bench", help="run repair attempts over a corpus")
    bench.add_argument("corpus_dir")
    bench.add_argument("--modes", required=True, help="comma-separated preset names")
    bench.add_argument("--seeds", default="1,2,3")
    bench.add_argument("--bugs", default=None, help="comma-separated bug names (default: all)")
    bench.add_argument("--navigation", default=None, choices=CHOICES["navigation"])
    bench.add_argument("--scope", dest="ingredient_scope", default=None,
                       choices=CHOICES["ingredient_scope"])
    bench.add_argument("--max-iterations", type=int, default=None)
    bench.add_argument("--out", default="bench-out")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
