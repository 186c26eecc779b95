"""Repair benchmark: times the corpus experiment end to end and per layer.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 40 --trace 0

Runs from the root of a source checkout (it imports `src/minirepair` and
reads `corpus/`) in one process, serially, through the public API:
`cli.load_project_dir`, `presets.config_from_preset`, `engine.navigate`,
`RepairOutcome.report_dict` and `Patch.diff_text`.  Every run uses jobs=1
and no wall-clock budget.

--trace 0 runs the workload (its first three repair seeds), then one more
repair seed at a time while that still ends within --seconds; it checks
every run and prints the end-to-end metrics.  --trace 1 runs the workload
untraced (checked) and then traced, and prints the per-layer metrics, the
self-time split of wall_s, the tracing overhead and the counter drift.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  --workload all runs every workload in turn.  --write-reference
records the digests of seed 0 that later runs are compared against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from tracing import RUN_SPAN, Tracer, per_layer_metrics, summarize

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
WORK_PARENT = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
# the tail is the mean of the slowest 5% of runs, not a high percentile: each
# workload's slowest runs come in groups of a few (preset, bug) pairs, and
# p95 or p96 sits on the edge of such a group, so which run lands there
# changes with the repair seeds (see README.md)
TAIL_SHARE = 0.05


@dataclass
class RunResult:
    preset: str
    bug: str
    seed: int
    latency_s: float
    digest: str = ""
    repaired: bool = False
    validations: int = 0
    time_steps: int = 0
    rejected_typecheck: int = 0
    duplicates: int = 0
    failure: str = ""  # why the run counts as failed; "" when it passed

    @property
    def key(self) -> str:
        return f"{self.preset}/{self.bug}/{self.seed}"


COUNTERS = ("repaired", "validations", "time_steps", "rejected_typecheck", "duplicates")


def artifact_digest(outcome) -> str:
    """sha256 over the report.json bytes `minirepair repair` writes, then
    every patch file's bytes in discovery order."""
    h = hashlib.sha256()
    h.update((json.dumps(outcome.report_dict(), indent=2, sort_keys=True) + "\n").encode())
    for patch in outcome.patches:
        h.update(b"\0" + patch.diff_text.encode())
    return h.hexdigest()


def patch_problem(api, bug, patch) -> str:
    """'' when the patch applies to the bug's sources and the patched
    project passes its whole suite; otherwise what went wrong."""
    try:
        patched = api.diffs.apply_unified_diff(patch.diff_text, bug.sources)
    except api.diffs.PatchApplyError as exc:
        return f"patch does not apply: {exc}"
    if patched == bug.sources:
        return "patch changes nothing"
    try:
        project = api.ast.parse_project(sorted(patched.items()))
        api.types.check_project(project)
    except (api.ast.ProjectError, api.types.TypeCheckError) as exc:
        return f"patched project does not load: {exc}"
    matrix = api.faultloc.run_suite(project, bug.suite, bug.step_budget)
    if matrix.total_failing:
        return f"patched project fails {matrix.total_failing} test(s)"
    return ""


def run_repairs(setup, workload, repair_seeds, reference=(), tracer=None, check=True):
    """Run every repair of the workload for the given repair seeds; only
    navigate is timed.  `reference` maps run keys to expected digests."""
    api = setup.api
    navigate = tracer.wrap(RUN_SPAN, api.engine.navigate) if tracer else api.engine.navigate
    results = []
    for preset, bug, repair_seed in workloads.plan(setup, workload, repair_seeds):
        config = api.presets.config_from_preset(preset, seed=repair_seed)
        config.step_budget = bug.step_budget
        config.validate()
        start = perf_counter()
        try:
            outcome = navigate(bug.project, bug.suite, config)
        except Exception:  # a raising run is counted as failed, not fatal
            result = RunResult(preset, bug.name, repair_seed, perf_counter() - start)
            result.failure = "raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
            results.append(result)
            continue
        stats = outcome.stats
        result = RunResult(
            preset, bug.name, repair_seed, perf_counter() - start,
            digest=artifact_digest(outcome), repaired=bool(outcome.patches),
            validations=stats.validated, time_steps=stats.time_steps,
            rejected_typecheck=stats.rejected_typecheck, duplicates=stats.duplicates,
        )
        if check:
            if result.key in reference and reference[result.key] != result.digest:
                result.failure = "report.json or patch bytes differ from the reference"
            for patch in outcome.patches:
                result.failure = result.failure or patch_problem(api, bug, patch)
        results.append(result)
    return results


def load_reference(workload, seed: int) -> dict:
    """Recorded digests by run key; empty unless recorded for this seed."""
    path = REFERENCE_DIR / f"{workload.name}.json"
    if not path.is_file():
        return {}
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc["digests"] if doc["seed"] == seed else {}


def tail_mean(values, share: float) -> tuple[float, int]:
    """Mean of the largest ceil(share * n) values, and how many that is."""
    count = math.ceil(share * len(values))
    return statistics.mean(sorted(values)[-count:]), count


def timed_setup(workload, seed: int, work_dir: Path):
    """Set up SETUP_REPEATS times; returns the last setup and the median time."""
    times = []
    for k in range(SETUP_REPEATS):
        start = perf_counter()
        setup = workloads.set_up(ROOT, workload, seed, work_dir / f"setup-{k}")
        times.append(perf_counter() - start)
    return setup, statistics.median(times)


def counters(results) -> dict[str, int]:
    return {name: sum(int(getattr(r, name)) for r in results) for name in COUNTERS}


def failures(results) -> list:
    return [r for r in results if r.failure]


def report_failures(results) -> None:
    for r in failures(results)[:20]:
        print(f"  FAILED {r.key}: {r.failure}", file=sys.stderr)


def measure(workload, seed: int, seconds: float, work_dir: Path) -> tuple[dict, list]:
    """Untraced end-to-end run: the workload's repair seeds, then one more
    repair seed at a time while the next slice should still fit in time."""
    setup, setup_s = timed_setup(workload, seed, work_dir)
    reference = load_reference(workload, seed)
    slices, spent = [], []
    start = perf_counter()
    while len(slices) < workloads.REPAIR_SEEDS or perf_counter() - start + statistics.mean(spent) <= seconds:
        t0 = perf_counter()
        repair_seed = workloads.repair_seed(seed, len(slices))
        slices.append(run_repairs(setup, workload, [repair_seed], reference))
        spent.append(perf_counter() - t0)
    k = len(slices)
    all_results = [r for results in slices for r in results]
    first = counters(all_results[: workloads.REPAIR_SEEDS * len(slices[0])])
    walls = [sum(r.latency_s for r in results) for results in slices]
    latencies_ms = [r.latency_s * 1000 for r in all_results]
    tail_ms, tail_runs = tail_mean(latencies_ms, TAIL_SHARE)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (workloads.REPAIR_SEEDS * statistics.mean(walls), "s"),
        "run_p50_ms": (statistics.median_low(latencies_ms), "ms"),
        "run_top5_mean_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    failed = failures(all_results)
    n = len(all_results)
    per_pass = n // k * workloads.REPAIR_SEEDS
    print(f"workload {workload.name}: seed {seed}, repair seeds "
          f"{workloads.repair_seed(seed, 0)}-{workloads.repair_seed(seed, k - 1)}, {n} runs")
    print(f"  setup_s      {setup_s:10.4f} s   median of {SETUP_REPEATS} set-ups")
    print(f"  wall_s       {metrics['wall_s'][0]:10.4f} s   {per_pass} runs "
          f"({workloads.REPAIR_SEEDS} repair seeds), from the mean per repair seed: "
          + " ".join(f"{wall:.3f}" for wall in walls))
    print(f"  run_p50_ms   {metrics['run_p50_ms'][0]:10.4f} ms  {n} samples")
    print(f"  run_top5_mean_ms {tail_ms:10.4f} ms  mean of the slowest {tail_runs} of {n} runs")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:10.4f} MB")
    checked = sum(r.key in reference for r in all_results)
    print(f"  failed_run_share {len(failed)}/{n} = {len(failed) / n:.4f}  ({checked} runs "
          f"compared with reference digests; every patch applied and its suite re-run)")
    print(f"  counters, first {workloads.REPAIR_SEEDS} repair seeds: "
          + ", ".join(f"{name} {value}" for name, value in first.items()))
    report_failures(all_results)
    return metrics, all_results


def traced(workload, seed: int, work_dir: Path) -> tuple[dict, list]:
    """The workload untraced (checked), then traced: per-layer metrics,
    self-time attribution, tracing overhead and counter drift."""
    setup, _ = timed_setup(workload, seed, work_dir)
    seeds = workloads.pass_seeds(seed)
    plain = run_repairs(setup, workload, seeds, load_reference(workload, seed))
    tracer = Tracer()
    tracer.install(setup.api)
    try:
        spanned = run_repairs(setup, workload, seeds, tracer=tracer, check=False)
    finally:
        tracer.uninstall()
    layers = summarize(tracer.spans)
    wall_plain = sum(r.latency_s for r in plain)
    wall_traced = layers[RUN_SPAN].s
    metrics = per_layer_metrics(layers)
    untraced_counts = counters(plain)
    for name, value in untraced_counts.items():
        metrics[f"counters.{name}"] = (value, "count")

    print(f"workload {workload.name}: seed {seed}, repair seeds {seeds}, {len(plain)} runs, "
          f"{len(tracer.spans)} spans")
    print(f"  self-time split of traced wall_s {wall_traced:.4f} s:")
    for name, layer in sorted(layers.items(), key=lambda item: -item[1].self_s):
        print(f"    {name:34s} {layer.calls:9d} calls  {layer.s:9.4f} s incl  "
              f"{layer.self_s:9.4f} s self  {100 * layer.self_s / wall_traced:5.1f}%")
    print(f"  tracing overhead: traced wall_s {wall_traced:.4f} s - untraced "
          f"{wall_plain:.4f} s = {wall_traced - wall_plain:.4f} s "
          f"({100 * (wall_traced / wall_plain - 1):.1f}%)")
    drift = {k: v - untraced_counts[k] for k, v in counters(spanned).items()}
    moved = [r.key for r, s in zip(plain, spanned)
             if (r.repaired, r.validations, r.time_steps) != (s.repaired, s.validations,
                                                              s.time_steps)]
    print("  counter drift, traced - untraced: "
          + ", ".join(f"{k} {v:+d}" for k, v in drift.items())
          + f"; {len(moved)} run(s) differ")
    if moved:
        print("    known defect: wrappers add Python frames, which moves where the "
              "interpreter's RecursionError turns into a stack-overflow verdict: "
              + ", ".join(moved[:10]))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.4f} {unit}")
    report_failures(plain)
    return metrics, plain


def write_reference(workload, work_dir: Path) -> None:
    setup, _ = timed_setup(workload, 0, work_dir)
    results = run_repairs(setup, workload, workloads.pass_seeds(0))
    failed = failures(results)
    if failed:
        report_failures(results)
        raise SystemExit(f"{len(failed)} run(s) failed; reference not written")
    REFERENCE_DIR.mkdir(exist_ok=True)
    doc = {"workload": workload.name, "seed": 0,
           "digests": {r.key: r.digest for r in results}}
    path = REFERENCE_DIR / f"{workload.name}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} digests to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "minirepair").is_dir() or not (ROOT / "corpus").is_dir():
        print(f"error: {ROOT} holds no src/minirepair or corpus/ to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")

    WORK_PARENT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK_PARENT))
    try:
        if args.write_reference:
            for name in names:
                write_reference(workloads.WORKLOADS[name], work_dir / name)
            return 0
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            workload = workloads.WORKLOADS[name]
            if args.trace:
                found, results = traced(workload, args.seed, work_dir / name)
            else:
                found, results = measure(workload, args.seed, args.seconds, work_dir / name)
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, (value, unit) in found.items():
                metrics[prefix + metric] = {"value": value, "unit": unit}
            attempted += len(results)
            failed += len(failures(results))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
