"""Command-line behavior: exit codes, artifacts, bench CSV."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import minirepair
from minirepair import cli
from minirepair.cli import (
    BENCH_FIELDS,
    bench_run,
    load_project_dir,
    main,
    rows_to_csv,
    summary_csv,
)
from minirepair.config import ConfigError, RunConfig, apply_overrides, parse_config_file
from minirepair.engine import navigate
from minirepair.lang import types
from minirepair.presets import PRESET_NAMES, config_from_preset

from conftest import CORPUS


def run_cli(*argv):
    return main(list(argv))


def test_repair_exit_zero_and_artifacts(tmp_path):
    out = tmp_path / "out"
    code = run_cli("repair", str(CORPUS / "abs-sign"), "--mode", "jmutrepair",
                   "--seed", "1", "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["patches"], "expected at least one patch"
    patch_files = sorted(p.name for p in out.glob("*.patch"))
    assert patch_files == [f"patch-{i:03d}.patch" for i in range(len(report["patches"]))]
    assert report["config"]["mode"] == "jmutrepair"
    assert report["stats"]["stop_reason"] == "solutions"


def test_all_passing_suite_exits_one(tmp_path):
    project_dir = tmp_path / "healthy"
    (project_dir / "src").mkdir(parents=True)
    (project_dir / "src" / "main.mini").write_text(
        "fn f(x: int) -> int {\n    return x;\n}\n"
    )
    (project_dir / "tests.json").write_text(
        json.dumps([{"name": "t", "entry": "f", "args": [1], "expect": 1}])
    )
    code = run_cli("repair", str(project_dir), "--mode", "jmutrepair",
                   "--out", str(tmp_path / "out"))
    assert code == 1


def test_bench_on_an_all_passing_suite_exits_one_without_traceback(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS / "abs-sign", corpus / "abs-sign")
    project_dir = corpus / "healthy"
    (project_dir / "src").mkdir(parents=True)
    (project_dir / "src" / "main.mini").write_text(
        "fn f(x: int) -> int {\n    return x;\n}\n"
    )
    (project_dir / "tests.json").write_text(
        json.dumps([{"name": "t", "entry": "f", "args": [1], "expect": 1}])
    )
    code = run_cli("bench", str(corpus), "--modes", "jmutrepair", "--seeds", "1",
                   "--out", str(tmp_path / "bench"))
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: healthy: no failing tests: nothing to repair\n"
    assert "Traceback" not in err
    assert not (tmp_path / "bench").exists()


def test_repair_on_an_all_passing_suite_prints_an_error(tmp_path, capsys):
    write_project(tmp_path / "healthy", "fn f(x: int) -> int {\n    return x;\n}\n",
                  [{"name": "t", "entry": "f", "args": [1], "expect": 1}])
    code = run_cli("repair", str(tmp_path / "healthy"), "--mode", "jmutrepair",
                   "--out", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err == "error: no failing tests: nothing to repair\n"
    assert not (tmp_path / "out").exists()


def test_parse_error_exits_one(tmp_path):
    project_dir = tmp_path / "broken"
    (project_dir / "src").mkdir(parents=True)
    (project_dir / "src" / "main.mini").write_text("fn f( {")
    (project_dir / "tests.json").write_text("[]")
    assert run_cli("repair", str(project_dir), "--out", str(tmp_path / "out")) == 1


@pytest.mark.parametrize("literal", ["9223372036854775808", "1" + "0" * 400],
                         ids=["2**63", "10**400"])
def test_int_literal_beyond_64_bits_exits_one(tmp_path, capsys, literal):
    project_dir = tmp_path / "wide"
    (project_dir / "src").mkdir(parents=True)
    (project_dir / "src" / "main.mini").write_text(
        f"fn f() -> bool {{\n    return {literal} < 1.5;\n}}\n"
    )
    (project_dir / "tests.json").write_text(
        json.dumps([{"name": "t", "entry": "f", "args": [], "expect": True}])
    )
    assert run_cli("repair", str(project_dir), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "64-bit range" in err
    assert "Traceback" not in err


def test_float_literal_beyond_the_float_range_exits_one(tmp_path, capsys):
    project_dir = tmp_path / "huge"
    (project_dir / "src").mkdir(parents=True)
    (project_dir / "src" / "main.mini").write_text("fn f() -> float {\n    return 1e999;\n}\n")
    (project_dir / "tests.json").write_text(
        json.dumps([{"name": "t", "entry": "f", "args": [], "expect": 1.5}])
    )
    assert run_cli("repair", str(project_dir), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "float range" in err
    assert "Traceback" not in err


def write_project(project_dir, source, tests):
    (project_dir / "src").mkdir(parents=True)
    (project_dir / "src" / "main.mini").write_text(source)
    (project_dir / "tests.json").write_text(json.dumps(tests))


@pytest.mark.parametrize(
    "source",
    [
        # each of these ended in a RecursionError traceback, two in the
        # parser and the last in the type checker
        "fn f(x: int) -> int {\n    return " + "(" * 70 + "x" + ")" * 70 + ";\n}\n",
        "fn f(x: int) -> int {\n" + "{\n" * 600 + "}\n" * 600 + "    return x;\n}\n",
        "fn f(x: int) -> int {\n    return " + " + ".join(["x"] * 1500) + ";\n}\n",
    ],
    ids=["70-parentheses", "600-blocks", "1500-term-sum"],
)
def test_nesting_beyond_the_limit_exits_one(tmp_path, capsys, source):
    write_project(tmp_path / "deep", source,
                  [{"name": "t", "entry": "f", "args": [1], "expect": 0}])
    code = run_cli("repair", str(tmp_path / "deep"), "--mode", "jkali",
                   "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "deeper than" in err
    assert "Traceback" not in err


def test_nesting_at_the_limit_parses_and_runs(tmp_path, capsys):
    from minirepair.lang.parser import MAX_NESTING, MAX_TREE_HEIGHT

    # the body block and the return open two constructs; the tree is the
    # function, block, return, the sum's binary-ops and its last term
    terms = MAX_TREE_HEIGHT - 3
    body = "(" * (MAX_NESTING - 2) + " + ".join(["x"] * terms) + ")" * (MAX_NESTING - 2)
    write_project(tmp_path / "deep", f"fn f(x: int) -> int {{\n    return {body};\n}}\n", [
        {"name": "sum", "entry": "f", "args": [1], "expect": terms},
        {"name": "off", "entry": "f", "args": [2], "expect": 0},
    ])
    out = tmp_path / "out"
    code = run_cli("repair", str(tmp_path / "deep"), "--mode", "jkali", "--out", str(out))
    assert code in (0, 2)
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["stats"]["validated"] > 0


def test_suite_int_beyond_64_bits_exits_one(tmp_path, capsys):
    project_dir = tmp_path / "wide"
    (project_dir / "src").mkdir(parents=True)
    (project_dir / "src" / "main.mini").write_text("fn f(x: int) -> int {\n    return x;\n}\n")
    (project_dir / "tests.json").write_text(
        json.dumps([{"name": "t", "entry": "f", "args": [2**63], "expect": 0}])
    )
    assert run_cli("repair", str(project_dir), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_suite_float_not_finite_exits_one(tmp_path, capsys, value):
    # NaN never equals itself, so such a test could never pass
    project_dir = tmp_path / "nan"
    (project_dir / "src").mkdir(parents=True)
    (project_dir / "src" / "main.mini").write_text(
        "fn f(x: float) -> float {\n    return x * 2.0;\n}\n"
    )
    (project_dir / "tests.json").write_text(
        '[{"name": "t", "entry": "f", "args": [1.0], "expect": %s},'
        ' {"name": "u", "entry": "f", "args": [%s], "expect": 0.0}]' % (value, value)
    )
    assert run_cli("repair", str(project_dir), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not finite" in err
    assert not (tmp_path / "out").exists()


def test_zero_second_budget_exits_two_with_valid_report(tmp_path):
    out = tmp_path / "out"
    code = run_cli("repair", str(CORPUS / "abs-sign"), "--mode", "jmutrepair",
                   "--max-seconds", "0", "--out", str(out))
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["patches"] == []
    assert report["stats"]["stop_reason"] == "wall-clock"
    assert report["stats"]["validated"] == 0


def test_search_without_result_exits_two(tmp_path):
    # jkali cannot touch abs-sign (no removable fix); exhaustive completes empty
    code = run_cli("repair", str(CORPUS / "abs-sign"), "--mode", "jkali",
                   "--out", str(tmp_path / "out"))
    assert code == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["stats"]["stop_reason"] == "completed"


def test_repair_report_is_deterministic(tmp_path):
    args = ("repair", str(CORPUS / "ledger-scope"), "--mode", "jgenprog",
            "--seed", "7", "--max-iterations", "500")
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run_cli(*args, "--out", str(out)) == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_bench_rows_and_csv(tmp_path):
    out = tmp_path / "bench"
    code = run_cli("bench", str(CORPUS), "--bugs", "abs-sign",
                   "--modes", "jmutrepair,jkali", "--seeds", "1,2,3",
                   "--out", str(out))
    assert code == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == ",".join(BENCH_FIELDS)
    assert len(lines) == 1 + 1 * 2 * 3  # header + bugs x modes x seeds
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "mode,bugs_repaired"
    assert summary[1] == "jmutrepair,1"
    assert summary[2] == "jkali,0"


def test_bench_deterministic_replay(tmp_path):
    pairs = [("count-down", "jmutrepair"), ("mid-formula", "cardumen")]
    rows1 = bench_run(CORPUS, pairs, [1, 2])
    rows2 = bench_run(CORPUS, pairs, [1, 2])
    assert rows_to_csv(rows1) == rows_to_csv(rows2)
    assert summary_csv(rows1) == summary_csv(rows2)


def test_bench_row_fields():
    rows = bench_run(CORPUS, [("abs-sign", "jmutrepair")], [1])
    row = rows[0]
    assert row["bug"] == "abs-sign" and row["mode"] == "jmutrepair"
    assert row["repaired"] == "yes"
    assert row["first_patch_iteration"] != ""
    assert int(row["time_steps"]) > 0


def test_config_file_parsing(tmp_path):
    config_file = tmp_path / "run.conf"
    config_file.write_text(
        "# comment line\n"
        "navigation = selective\n"
        "max_iterations = 123\n"
        "p_cross = 0.5\n"
        "seed = 9\n"
        "\n"
        "seed = 10\n"
    )
    values = parse_config_file(config_file)
    assert values == {"navigation": "selective", "max_iterations": 123,
                      "p_cross": 0.5, "seed": 10}
    config = apply_overrides(RunConfig(), values)
    assert config.seed == 10 and config.navigation == "selective"


def test_cli_flags_override_config_file(tmp_path):
    config_file = tmp_path / "run.conf"
    config_file.write_text("seed = 4\nmax_iterations = 50\n")
    out = tmp_path / "out"
    code = run_cli("repair", str(CORPUS / "abs-sign"), "--mode", "jmutrepair",
                   "--config", str(config_file), "--seed", "99", "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 99
    assert report["config"]["max_iterations"] == 50


def test_unknown_config_key_is_an_error(tmp_path):
    config_file = tmp_path / "run.conf"
    config_file.write_text("no_such_key = 1\n")
    code = run_cli("repair", str(CORPUS / "abs-sign"), "--config", str(config_file),
                   "--out", str(tmp_path / "out"))
    assert code == 1


def test_config_file_mode_picks_the_preset_unless_mode_is_given(tmp_path):
    config_file = tmp_path / "run.conf"
    config_file.write_text("mode = jkali\n")
    for flags, mode, space in (((), "jkali", "suppression"),
                               (("--mode", "jmutrepair"), "jmutrepair", "relational-logical")):
        out = tmp_path / f"out-{mode}"
        run_cli("repair", str(CORPUS / "abs-sign"), "--config", str(config_file), *flags,
                "--max-iterations", "0", "--out", str(out))
        config = json.loads((out / "report.json").read_text())["config"]
        assert (config["mode"], config["operator_space"], config["navigation"]) == (
            mode, space, "exhaustive")


def test_config_file_unknown_mode_exits_one(tmp_path, capsys):
    config_file = tmp_path / "run.conf"
    config_file.write_text("mode = nosuch\n")
    code = run_cli("repair", str(CORPUS / "abs-sign"), "--config", str(config_file),
                   "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'nosuch'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# each value was once hidden by a later layer that sets the same key:
# abs-sign's bug.json step budget, and the --seed flag
@pytest.mark.parametrize("text, flags, message", [
    ("mode = jmutrepair\nstep_budget = -1.5\n", (),
     "step_budget must be an integer, got -1.5"),
    ("seed = -1\n", ("--mode", "jmutrepair", "--seed", "1"),
     "seed must be in [0, 2**64), got -1"),
], ids=["step-budget-under-bug-json", "seed-under-flag"])
def test_bad_config_value_under_a_later_layer_exits_one(tmp_path, capsys, text, flags, message):
    config_file = tmp_path / "run.conf"
    config_file.write_text(text)
    code = run_cli("repair", str(CORPUS / "abs-sign"), "--config", str(config_file), *flags,
                   "--out", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("modes, bugs, message", [
    ("jkali,jmutrepair,jkali", "abs-sign", "--modes repeats 'jkali'"),
    ("jkali", "abs-sign,abs-sign", "--bugs repeats 'abs-sign'"),
], ids=["modes", "bugs"])
def test_bench_repeated_item_exits_one(tmp_path, capsys, modes, bugs, message):
    code = run_cli("bench", str(CORPUS), "--modes", modes, "--bugs", bugs, "--seeds", "1",
                   "--out", str(tmp_path / "bench"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}\n")
    assert "Traceback" not in err
    assert not (tmp_path / "bench").exists()


# a repeated seed once ran twice and wrote two equal rows; seeds compare
# as integers
@pytest.mark.parametrize("seeds", ["1,1", "1,01"])
def test_bench_repeated_seed_exits_one(tmp_path, capsys, seeds):
    code = run_cli("bench", str(CORPUS), "--modes", "jkali", "--bugs", "abs-sign",
                   "--seeds", seeds, "--out", str(tmp_path / "bench"))
    assert code == 1
    assert capsys.readouterr().err == "error: --seeds repeats 1\n"
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("modes, bugs, message", [
    ("jkali,", "abs-sign", "--modes has an empty item"),
    ("", "abs-sign", "--modes has an empty item"),
    ("jkali", "", "--bugs has an empty item"),
    ("jkali", "abs-sign,", "--bugs has an empty item"),
    ("jkali", ",abs-sign", "--bugs has an empty item"),
], ids=["modes-trailing", "modes-empty", "bugs-empty", "bugs-trailing", "bugs-leading"])
def test_bench_empty_item_exits_one(tmp_path, capsys, modes, bugs, message):
    code = run_cli("bench", str(CORPUS), "--modes", modes, "--bugs", bugs, "--seeds", "1",
                   "--out", str(tmp_path / "bench"))
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "bench").exists()


def test_bug_step_budget_applies(tmp_path):
    """bug.json's step budget beats the config file's, and --step-budget
    beats bug.json's."""
    config_file = tmp_path / "run.conf"
    config_file.write_text("step_budget = 123\n")
    for flags, budget in (((), 4000), (("--step-budget", "5000"), 5000)):
        out = tmp_path / f"out-{budget}"
        assert run_cli("repair", str(CORPUS / "count-down"), "--mode", "jmutrepair",
                       "--config", str(config_file), *flags, "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["step_budget"] == budget


def _record_configs(monkeypatch) -> list:
    """The configuration of every run the CLI starts, in order."""
    configs = []
    real = cli.navigate

    def recording(project, suite, config):
        configs.append(config)
        return real(project, suite, config)

    monkeypatch.setattr(cli, "navigate", recording)
    return configs


def test_bench_overrides_beat_bug_json_which_beats_the_preset(monkeypatch):
    configs = _record_configs(monkeypatch)
    bench_run(CORPUS, [("count-down", "jkali")], [1])
    bench_run(CORPUS, [("count-down", "jkali")], [1],
              {"step_budget": 5000, "navigation": "selective", "max_iterations": None})
    assert [(c.step_budget, c.navigation, c.max_iterations) for c in configs] == [
        (4000, "exhaustive", 2000), (5000, "selective", 2000),
    ]


def test_repair_and_bench_build_equal_configs(tmp_path, monkeypatch):
    configs = _record_configs(monkeypatch)
    for mode in PRESET_NAMES:
        run_cli("repair", str(CORPUS / "count-down"), "--mode", mode, "--seed", "2",
                "--out", str(tmp_path / mode))
    repair_configs = configs[:]
    configs.clear()
    run_cli("bench", str(CORPUS), "--bugs", "count-down", "--modes", ",".join(PRESET_NAMES),
            "--seeds", "2", "--out", str(tmp_path / "bench"))
    assert len(repair_configs) == len(PRESET_NAMES)
    assert configs == repair_configs
    assert [c.mode for c in configs] == list(PRESET_NAMES)


def test_config_value_of_wrong_type_exits_one_without_traceback(tmp_path, capsys):
    config_file = tmp_path / "run.conf"
    config_file.write_text("jobs = abc\n")
    code = run_cli("repair", str(CORPUS / "abs-sign"), "--mode", "jmutrepair",
                   "--config", str(config_file), "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert "jobs must be an integer" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "field,value",
    [("jobs", "abc"), ("max_iterations", True), ("step_budget", 2.5),
     ("seed", None), ("p_mut", "high"), ("p_cross", False), ("max_seconds", "soon"),
     ("operator_weights", "abc")],
)
def test_config_field_types_are_checked(field, value):
    config = RunConfig()
    setattr(config, field, value)
    with pytest.raises(ConfigError, match=field):
        config.validate()


# nan silently disabled the wall limit, and nan or inf made report.json invalid JSON
@pytest.mark.parametrize("value,in_file", [("nan", False), ("inf", False), ("nan", True)],
                         ids=["flag-nan", "flag-inf", "file-nan"])
def test_non_finite_max_seconds_exits_one(tmp_path, capsys, value, in_file):
    if in_file:
        config_file = tmp_path / "run.conf"
        config_file.write_text(f"max_seconds = {value}\n")
        extra = ("--config", str(config_file))
    else:
        extra = ("--max-seconds", value)
    code = run_cli("repair", str(CORPUS / "abs-sign"), "--mode", "jmutrepair", *extra,
                   "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert "max_seconds must be a finite number >= 0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_numbers_accepted():
    config = apply_overrides(RunConfig(), {"p_mut": 1, "p_cross": 0.5, "max_seconds": 3})
    config.validate()
    RunConfig(max_seconds=None).validate()
    RunConfig(seed=0).validate()
    RunConfig(seed=2**64 - 1).validate()


def _bug_copy(tmp_path, bug_json: str):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS / "abs-sign", corpus / "abs-sign")
    (corpus / "abs-sign" / "bug.json").write_text(bug_json)
    return corpus


@pytest.mark.parametrize(
    "bug_json,message",
    [('{"step_budget": null}', "step_budget must be a positive integer"),
     ('{"step_budget": "2000"}', "step_budget must be a positive integer"),
     ('{"step_budget": true}', "step_budget must be a positive integer"),
     ('{"step_budget": 0}', "step_budget must be a positive integer"),
     ("[1, 2]", "expected a JSON object")],
)
def test_bad_bug_json_exits_one_without_traceback(tmp_path, capsys, bug_json, message):
    corpus = _bug_copy(tmp_path, bug_json)
    code = run_cli("repair", str(corpus / "abs-sign"), "--mode", "jmutrepair",
                   "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name,data,message",
    [("bug.json", b'{"step_budget": ', "invalid JSON: Expecting value"),
     ("bug.json", b"\xff\xfe", "invalid JSON: 'utf-8' codec can't decode"),
     ("src/extra.mini", b"\xff\xfe", "'utf-8' codec can't decode")],
    ids=["truncated-bug-json", "bug-json-not-utf8", "source-not-utf8"],
)
def test_unreadable_project_file_is_named_in_the_error(tmp_path, capsys, name, data, message):
    corpus = _bug_copy(tmp_path, (CORPUS / "abs-sign" / "bug.json").read_text())
    path = corpus / "abs-sign" / name
    path.write_bytes(data)
    code = run_cli("repair", str(corpus / "abs-sign"), "--mode", "jmutrepair",
                   "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_bench_with_bad_bug_json_exits_one(tmp_path, capsys):
    corpus = _bug_copy(tmp_path, '{"step_budget": null}')
    code = run_cli("bench", str(corpus), "--modes", "jmutrepair", "--seeds", "1",
                   "--out", str(tmp_path / "bench"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "step_budget must be a positive integer" in err
    assert not (tmp_path / "bench").exists()


# the rng folds a seed modulo 2^64: -5 once ran as 2^64 - 5, and 2^64 + 1 as 1
@pytest.mark.parametrize("seed", ["-5", str(2**64 + 1)])
def test_repair_seed_outside_64_bits_exits_one(tmp_path, capsys, seed):
    code = run_cli("repair", str(CORPUS / "abs-sign"), "--mode", "jmutrepair",
                   "--seed", seed, "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be in [0, 2**64)") and seed in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_bench_negative_seed_exits_one(tmp_path, capsys):
    code = run_cli("bench", str(CORPUS), "--bugs", "abs-sign", "--modes", "jkali",
                   "--seeds", "-1", "--out", str(tmp_path / "bench"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be in [0, 2**64), got -1")
    assert "Traceback" not in err
    assert not (tmp_path / "bench").exists()


def test_bench_non_integer_seed_exits_one(tmp_path, capsys):
    code = run_cli("bench", str(CORPUS), "--bugs", "abs-sign", "--modes", "jmutrepair",
                   "--seeds", "1,x", "--out", str(tmp_path / "bench"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--seeds" in err and "'1,x'" in err
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("config_path", ["missing.cfg", "."])
def test_unreadable_config_exits_one_without_traceback(tmp_path, capsys, config_path):
    code = run_cli("repair", str(CORPUS / "abs-sign"), "--mode", "jmutrepair",
                   "--config", str(tmp_path / config_path), "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_not_utf8_is_named_in_the_error(tmp_path, capsys):
    config_file = tmp_path / "run.conf"
    config_file.write_bytes(b"\xff\xfe")
    code = run_cli("repair", str(CORPUS / "abs-sign"), "--mode", "jmutrepair",
                   "--config", str(config_file), "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_file}: ") and "'utf-8' codec can't decode" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["repair", "bench"])
def test_out_naming_an_existing_file_exits_one_without_traceback(tmp_path, capsys, command):
    out = tmp_path / "out"
    out.write_text("taken\n")
    if command == "repair":
        code = run_cli("repair", str(CORPUS / "abs-sign"), "--mode", "jmutrepair",
                       "--seed", "1", "--out", str(out))
    else:
        code = run_cli("bench", str(CORPUS), "--bugs", "abs-sign", "--modes", "jmutrepair",
                       "--seeds", "1", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ")
    assert "Traceback" not in err
    assert out.read_text() == "taken\n"


def test_load_and_first_session_type_check_the_project_once(monkeypatch):
    checks = []
    run = types._Checker.run

    def counting(self, functions, signatures=None):
        if functions is None:  # a whole-project check, not a variant's
            checks.append(self.project)
        return run(self, functions, signatures)

    monkeypatch.setattr(types._Checker, "run", counting)
    project, suite, meta = load_project_dir(CORPUS / "abs-sign")
    config = config_from_preset("jmutrepair", seed=1)
    config.step_budget = meta["step_budget"]
    navigate(project, suite, config)
    assert checks == [project]


@pytest.mark.parametrize("command", ["repair", "bench"])
def test_unreadable_source_exits_one_without_traceback(tmp_path, capsys, command):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS / "abs-sign", corpus / "abs-sign")
    (corpus / "abs-sign" / "src" / "extra.mini").mkdir()
    if command == "repair":
        code = run_cli("repair", str(corpus / "abs-sign"), "--mode", "jmutrepair",
                       "--out", str(tmp_path / "out"))
    else:
        code = run_cli("bench", str(corpus), "--modes", "jmutrepair", "--seeds", "1",
                       "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "extra.mini" in err
    assert not (tmp_path / "out").exists()


# a missing project once got "missing src/ directory", as did a regular
# file; bench-corpus passes the path to bench as its corpus, which once got
# "<path> is not a directory"
@pytest.mark.parametrize("command", ["repair", "bench", "bench-corpus"])
@pytest.mark.parametrize("kind,message", [("missing", "no such directory"),
                                          ("file", "not a directory")])
def test_project_that_is_not_a_directory_exits_one(tmp_path, capsys, command, kind, message):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    project = corpus / "nosuch"
    if kind == "file":
        project.write_text("fn f() -> int { return 1; }\n")
    if command == "repair":
        code = run_cli("repair", str(project), "--mode", "jkali", "--out", str(tmp_path / "out"))
    elif command == "bench":
        code = run_cli("bench", str(corpus), "--modes", "jkali", "--bugs", "nosuch",
                       "--seeds", "1", "--out", str(tmp_path / "out"))
    else:
        code = run_cli("bench", str(project), "--modes", "jkali", "--out", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err == f"error: {project}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "tests_json,message",
    [("[]", "test suite is empty"),
     (json.dumps([{"name": "t", "entry": "f", "args": [1], "expect": 1},
                  {"name": "t", "entry": "f", "args": [2], "expect": 2}]),
      "duplicate test name: t")],
    ids=["empty", "duplicate-name"],
)
def test_bad_suite_exits_one_without_traceback(tmp_path, capsys, tests_json, message):
    project_dir = tmp_path / "bad-suite"
    (project_dir / "src").mkdir(parents=True)
    (project_dir / "src" / "main.mini").write_text(
        "fn f(x: int) -> int {\n    return x + 1;\n}\n"
    )
    (project_dir / "tests.json").write_text(tests_json)
    code = run_cli("repair", str(project_dir), "--mode", "jmutrepair",
                   "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name,text,message",
    [("tests.json", "[" * 100_000, "tests.json: invalid JSON: nested too deeply"),
     ("bug.json", "[" * 100_000, "bug.json: invalid JSON: nested too deeply"),
     ("tests.json",
      '[{"name": "t", "entry": "sign", "args": [%s], "expect": 1}]' % ("[" * 900 + "]" * 900),
      "test #0: an array is nested deeper than 32 levels"),
     ("tests.json",
      json.dumps([{"name": "t", "entry": "sign", "args": [[1, 2.5, "x"]], "expect": 1}]),
      "test #0: an array's elements differ in type")],
    ids=["deep-tests-json", "deep-bug-json", "deep-argument", "mixed-argument"],
)
def test_bad_json_exits_one_without_traceback(tmp_path, capsys, name, text, message):
    corpus = _bug_copy(tmp_path, (CORPUS / "abs-sign" / "bug.json").read_text())
    (corpus / "abs-sign" / name).write_text(text)
    code = run_cli("repair", str(corpus / "abs-sign"), "--mode", "jmutrepair",
                   "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_bad_input_exits_one_from_a_separate_process(tmp_path):
    """The process boundary of the cases above: `python -m minirepair.cli`
    itself exits 1 with an `error:` line and no traceback."""
    src = Path(minirepair.__file__).resolve().parent.parent
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    project = tmp_path / "nosuch"
    done = subprocess.run(
        [sys.executable, "-m", "minirepair.cli", "repair", str(project), "--mode", "jkali",
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert done.stderr.splitlines()[0] == f"error: {project}: no such directory"
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()
