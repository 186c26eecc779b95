"""Preset bindings and the golden preset table."""

from pathlib import Path

import pytest

from minirepair.config import ConfigError, RunConfig
from minirepair.presets import PRESET_NAMES, config_from_preset, preset, render_table

REPO = Path(__file__).resolve().parent.parent


def test_preset_names():
    assert set(PRESET_NAMES) == {
        "jgenprog", "jkali", "jmutrepair", "deeprepair-lite", "cardumen", "tibra",
    }


def test_jkali_uses_suppression_space():
    assert preset("jkali").operator_space == "suppression"
    assert preset("jkali").navigation == "exhaustive"
    assert preset("jkali").ingredient_scope is None


def test_cardumen_expression_granularity():
    p = preset("cardumen")
    assert p.granularity == "expression"
    assert p.operator_space == "r-expression"
    assert p.ingredient_scope == "global"
    assert p.ingredient_transform == "name-probability"


def test_jgenprog_no_transformation():
    p = preset("jgenprog")
    assert p.ingredient_transform == "none"
    assert p.ingredient_scope == "module"
    assert p.operator_space == "irr-statements"
    assert p.navigation == "evolutionary"


def test_tibra_is_jgenprog_plus_random_replacement():
    gp, ti = preset("jgenprog"), preset("tibra")
    assert ti.operator_space == gp.operator_space
    assert ti.ingredient_scope == gp.ingredient_scope
    assert ti.ingredient_transform == "random-var"


def test_deeprepair_lite_similarity_components():
    p = preset("deeprepair-lite")
    assert p.ingredient_selection == "similarity"
    assert p.ingredient_transform == "name-similarity"


def test_every_preset_field_names_an_implemented_component():
    for name in PRESET_NAMES:
        config = config_from_preset(name)
        config.validate()
        assert isinstance(config, RunConfig)


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset("genprog-classic")


def test_overrides_win_over_preset():
    config = config_from_preset("jgenprog", navigation="selective", seed=9)
    assert config.navigation == "selective"
    assert config.seed == 9
    assert config.operator_space == "irr-statements"


def test_unknown_override_key_names_the_key():
    with pytest.raises(ConfigError, match="unknown config key 'step_bugdet'"):
        config_from_preset("jkali", step_bugdet=5)


def test_each_preset_is_a_run_config_named_by_its_mode():
    for name in PRESET_NAMES:
        config = preset(name)
        assert isinstance(config, RunConfig) and config.mode == name
        assert config == config_from_preset(name)
    preset("jkali").seed = 7  # a copy: the next run starts from the preset
    assert preset("jkali").seed == RunConfig().seed


def test_rendered_table_matches_golden_file():
    golden = (REPO / "docs" / "presets.md").read_text(encoding="utf-8")
    assert render_table() in golden
