"""One analysis per project, shared by every repair session on it.

A session reads the type table, ingredient pools, similarity index, name
model and printed baseline sources from `SourceProject.analysis`, so a
project object handed to several sessions builds each of them once.  The
sessions must not notice: each report and patch equals that of a session
on a freshly loaded project, in any order, and no session modifies what
it shares.
"""

import json
from operator import is_

import pytest

from minirepair import cli, engine
from minirepair.engine import RepairSession, navigate
from minirepair.lang.printer import print_sources
from minirepair.presets import config_from_preset

from conftest import CORPUS, load_bug

# statement pool with uniform selection, statement pool with the similarity
# index, template pool with the name model
PRESETS = ("jgenprog", "deeprepair-lite", "cardumen")
BUGS = ("audit-scope", "ledger-scope", "two-modules", "mid-formula")
SEEDS = (1, 2)


def config(mode, seed, meta):
    return config_from_preset(mode, seed=seed, step_budget=int(meta["step_budget"]))


def artifacts(outcome):
    """The report.json bytes `repair` writes and every patch's bytes."""
    report = json.dumps(outcome.report_dict(), indent=2, sort_keys=True) + "\n"
    return report, [patch.diff_text for patch in outcome.patches]


@pytest.mark.parametrize("bug", BUGS)
def test_shared_project_gives_fresh_artifacts(bug):
    fresh = {}
    for mode in PRESETS:
        for seed in SEEDS:
            project, suite, meta = load_bug(bug)
            fresh[mode, seed] = artifacts(navigate(project, suite, config(mode, seed, meta)))
    for order in (PRESETS, tuple(reversed(PRESETS))):
        project, suite, meta = load_bug(bug)
        for mode in order:
            for seed in SEEDS:
                outcome = navigate(project, suite, config(mode, seed, meta))
                assert artifacts(outcome) == fresh[mode, seed], (bug, order, mode, seed)
        assert any(isinstance(key, tuple) for key in project.analysis)


ALL_PRESETS = ("jgenprog", "jkali", "jmutrepair", "deeprepair-lite", "cardumen", "tibra")


def report_bytes(project, suite, meta, mode, seed):
    """The report and patch bytes of one run; every run goes through this
    one call site, so all of them share the verdict memos too."""
    return artifacts(navigate(project, suite, config(mode, seed, meta)))


@pytest.mark.parametrize("bug", ("two-modules", "mid-formula"))
def test_each_run_after_all_others_matches_a_fresh_project(bug):
    runs = [(mode, seed) for mode in ALL_PRESETS for seed in (1, 2, 3)]
    for target in runs:
        fresh, suite, meta = load_bug(bug)
        shared = load_bug(bug)[0]
        jobs = [(fresh, target)] + [(shared, run) for run in runs if run != target]
        jobs.append((shared, target))
        results = [report_bytes(project, suite, meta, *run) for project, run in jobs]
        assert results[-1] == results[0], (bug, target)


def test_bench_rows_do_not_depend_on_pair_order():
    pairs = [(bug, mode) for bug in ("two-modules", "mid-formula", "audit-scope")
             for mode in ALL_PRESETS]
    forward = cli.bench_run(CORPUS, pairs, [1, 2, 3])
    backward = cli.bench_run(CORPUS, pairs[::-1], [1, 2, 3])
    key = lambda row: (row["bug"], row["mode"], row["seed"])
    assert sorted(forward, key=key) == sorted(backward, key=key)


def pool_snapshot(project):
    """Every shared pool's entry lists, and their entries, by key."""
    return {
        key: {scope: (entries, tuple(entries)) for scope, entries in pool.entries_by_key.items()}
        for key, pool in project.analysis.items()
        if isinstance(key, tuple) and key[0] in ("statement-pool", "template-pool")
    }


def test_sessions_leave_shared_pools_untouched():
    project, suite, meta = load_bug("two-modules")
    for mode in PRESETS:  # fill the memo
        navigate(project, suite, config(mode, 1, meta))
    before = pool_snapshot(project)
    assert len(before) == 2  # the module statement pool and the global template pool
    for mode in PRESETS:
        for seed in (2, 3):
            navigate(project, suite, config(mode, seed, meta))
    after = pool_snapshot(project)
    assert after.keys() == before.keys()
    for key, lists in before.items():
        assert after[key].keys() == lists.keys()
        for scope, (entries, items) in lists.items():
            assert after[key][scope][0] is entries
            assert len(entries) == len(items) and all(map(is_, entries, items)), (key, scope)


def test_each_analysis_built_once_per_project(monkeypatch):
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("build_pool", "mine_templates", "FunctionSimilarity", "build_name_model",
                 "print_sources"):
        monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
    project, suite, meta = load_bug("ledger-scope")
    configs = [config(mode, seed, meta) for mode in PRESETS + PRESETS for seed in SEEDS]
    configs.append(config("jgenprog", 1, meta))
    configs[-1].ingredient_scope = "file"
    for run_config in configs:
        outcome = RepairSession(project, suite, run_config).run()
        assert outcome.stats.pool_builds == 1
    # module and file statement pools, one global template pool
    assert calls["build_pool"] == 2
    assert calls["mine_templates"] == 1
    assert calls["FunctionSimilarity"] == 1
    assert calls["build_name_model"] == 1
    assert calls["print_sources"] == 1


def test_variants_start_with_empty_analysis():
    project, suite, meta = load_bug("ledger-scope")
    session = RepairSession(project, suite, config("jgenprog", 1, meta))
    session.ingredient_pool()
    assert project.analysis
    assert project.derive().analysis == {}
    assert project.clone().analysis == {}


@pytest.mark.parametrize("mode", ("jgenprog", "jmutrepair"))
def test_patch_sources_equal_printed_final_project(mode, corpus_names):
    """A patch's sources are the whole printed final project, in the
    project's file order."""
    patches = 0
    for name in corpus_names:
        project, suite, meta = load_bug(name)
        for seed in (1, 2, 3):
            outcome = navigate(project, suite, config(mode, seed, meta))
            for patch in outcome.patches:
                final = outcome.session.materialize(list(patch.transformations))
                assert patch.sources == print_sources(final), (name, seed)
                assert list(patch.sources) == list(print_sources(project))
                patches += 1
    assert patches > 0


def test_bench_loads_each_bug_once(monkeypatch):
    loads = []
    load = cli.load_project_dir

    def counting(path):
        loads.append(path.name)
        return load(path)

    bugs = ("audit-scope", "ledger-scope")
    modes = ("jgenprog", "jkali", "cardumen")
    pairs = [(bug, mode) for bug in bugs for mode in modes]
    separate = []
    for pair in pairs:  # one fresh project per (bug, mode), as before sharing
        separate += cli.bench_run(CORPUS, [pair], [1, 2])
    monkeypatch.setattr(cli, "load_project_dir", counting)
    rows = cli.bench_run(CORPUS, pairs, [1, 2])
    assert sorted(loads) == sorted(bugs)
    assert cli.rows_to_csv(rows) == cli.rows_to_csv(separate)
