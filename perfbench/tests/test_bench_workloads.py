"""The benchmark's own checks: search invariance of the `scale` and
`deep-budget` workloads, the patch check, the reference and the tracer.

Run with `python -m pytest perfbench/tests` (about a minute)."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import tracing
import workloads
from filler import FILLER_PATH, filler_source

ROOT = Path(__file__).resolve().parents[2]
CORPUS = workloads.WORKLOADS["corpus"]
SEEDS = workloads.pass_seeds(0)


def search_rows(tmp_path_factory, workload):
    setup = workloads.set_up(ROOT, workload, 0, tmp_path_factory.mktemp(workload.name))
    results = bench.run_repairs(setup, workload, SEEDS, check=False)
    assert not bench.failures(results)
    return {r.key: r for r in results}


@pytest.fixture(scope="module")
def searches(tmp_path_factory):
    """Every workload at seed 0, each run from the same stack depth:
    deep-recursion verdicts depend on it (see tracing.py)."""
    return {name: search_rows(tmp_path_factory, w) for name, w in workloads.WORKLOADS.items()}


def test_default_seed_is_the_paper_experiment():
    assert SEEDS == [1, 2, 3]
    seen = {workloads.repair_seed(seed, k) for seed in range(5) for k in range(50)}
    assert len(seen) == 250


def test_filler_is_deterministic_canonical_and_unused(tmp_path):
    setup = workloads.set_up(ROOT, CORPUS, 0, tmp_path)
    api = setup.api
    text = filler_source(7)
    assert text == filler_source(7) and text != filler_source(8)
    project = api.ast.parse_project([(FILLER_PATH, text)])
    api.types.check_project(project)
    assert api.printer.print_sources(project)[FILLER_PATH] == text
    assert len(project.functions) == 8
    for bug in setup.bugs:
        assert all(not path.startswith("zzpad/") for path in bug.sources)
        assert FILLER_PATH > max(bug.sources)
        assert not set(project.functions) & set(bug.project.functions)


def test_scale_search_matches_unpadded(searches):
    padded, corpus = searches["scale"], searches["corpus"]
    assert len(padded) == 330
    for key, row in padded.items():
        plain = corpus[key]
        assert (row.repaired, row.validations, row.time_steps) == (
            plain.repaired, plain.validations, plain.time_steps), key


def test_deep_budget_matches_corpus_search(searches):
    deep, corpus = searches["deep-budget"], searches["corpus"]
    assert deep.keys() == corpus.keys()
    for key, row in deep.items():
        plain = corpus[key]
        assert (row.repaired, row.validations) == (plain.repaired, plain.validations), key


def test_every_patch_applies_and_passes(tmp_path):
    workload = dataclasses.replace(CORPUS, presets=("jkali", "jmutrepair"))
    setup = workloads.set_up(ROOT, workload, 0, tmp_path)
    results = bench.run_repairs(setup, workload, SEEDS)
    assert sum(r.repaired for r in results) >= 20
    assert not bench.failures(results)

    fixed = next(r for r in results if r.repaired)
    bug = next(b for b in setup.bugs if b.name == fixed.bug)
    config = setup.api.presets.config_from_preset(fixed.preset, seed=fixed.seed)
    config.step_budget = bug.step_budget
    patch = setup.api.engine.navigate(bug.project, bug.suite, config).patches[0]
    assert bench.patch_problem(setup.api, bug, patch) == ""
    path = patch.files[0][0]
    lines = patch.diff_text.splitlines(keepends=True)
    context = next(i for i, line in enumerate(lines) if line.startswith(" "))
    lines[context] = " // not in the source\n"
    broken = dataclasses.replace(patch, files=((path, "".join(lines)),))
    assert bench.patch_problem(setup.api, bug, broken).startswith("patch does not apply")
    empty = dataclasses.replace(patch, files=((path, ""),))
    assert bench.patch_problem(setup.api, bug, empty) == "patch changes nothing"
    source = bug.sources[path]
    extra = source + "\nfn unrelated_extra() -> int {\n    return 0;\n}\n"
    unfixed = dataclasses.replace(
        patch, files=((path, setup.api.diffs.make_file_diff(path, source, extra)),))
    assert "fails" in bench.patch_problem(setup.api, bug, unfixed)


def test_reference_covers_the_default_seed(tmp_path):
    for workload in workloads.WORKLOADS.values():
        setup = workloads.set_up(ROOT, dataclasses.replace(workload, padded=False), 0, tmp_path)
        keys = {f"{p}/{bug.name}/{s}" for p, bug, s in workloads.plan(setup, workload, SEEDS)}
        assert bench.load_reference(workload, 0).keys() == keys
        assert bench.load_reference(workload, 1) == {}


def test_tracer_self_times_add_up_and_uninstall(tmp_path):
    workload = dataclasses.replace(CORPUS, presets=("jgenprog", "cardumen"))
    setup = workloads.set_up(ROOT, workload, 0, tmp_path)
    original = setup.api.engine.validate_variant
    tracer = tracing.Tracer()
    tracer.install(setup.api)
    try:
        bench.run_repairs(setup, workload, SEEDS, tracer=tracer, check=False)
    finally:
        tracer.uninstall()
    assert setup.api.engine.validate_variant is original
    layers = tracing.summarize(tracer.spans)
    assert layers[tracing.RUN_SPAN].calls == 2 * 22 * 3
    assert sum(l.self_s for l in layers.values()) == pytest.approx(layers[tracing.RUN_SPAN].s)
    metrics = tracing.per_layer_metrics(layers)
    execute = layers["interp.execute"]
    assert sum(metrics[f"interp.execute.{o}.calls"][0]
               for o in ("normal", "error", "timeout")) == execute.calls
    assert metrics["validate.search.calls"][0] > 0
    assert metrics["ingredients.transform_ingredient.trees"][0] > 0


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(trace, kind, monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tiny = workloads.Workload("tiny", ("jmutrepair",), 1, False)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    assert bench.main(["--workload", "tiny", "--seed", "2", "--seconds", "0",
                       "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 66
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
