"""The six built-in repair approaches, each a `RunConfig` whose `mode` is
its name.

Each preset binds one component to every extension point.  The markdown
rendering of this table is checked against docs/presets.md by the test
suite, so any change here must be reflected there.
"""

from __future__ import annotations

from dataclasses import replace

from minirepair.config import RunConfig, configure

PRESETS: dict[str, RunConfig] = {
    config.mode: config
    for config in (
        RunConfig(
            mode="jgenprog",
            granularity="statement",
            navigation="evolutionary",
            point_selection="weighted-random",
            operator_space="irr-statements",
            operator_selection="uniform-random",
            ingredient_scope="module",
            ingredient_selection="uniform",
            ingredient_transform="none",
        ),
        RunConfig(
            mode="jkali",
            granularity="statement",
            navigation="exhaustive",
            point_selection="sequential",
            operator_space="suppression",
            operator_selection="sequential",
        ),
        RunConfig(
            mode="jmutrepair",
            granularity="logical-relational",
            navigation="exhaustive",
            point_selection="weighted-random",
            operator_space="relational-logical",
            operator_selection="uniform-random",
        ),
        RunConfig(
            mode="deeprepair-lite",
            granularity="statement",
            navigation="evolutionary",
            point_selection="weighted-random",
            operator_space="irr-statements",
            operator_selection="uniform-random",
            ingredient_scope="module",
            ingredient_selection="similarity",
            ingredient_transform="name-similarity",
        ),
        RunConfig(
            mode="cardumen",
            granularity="expression",
            navigation="selective",
            point_selection="weighted-random",
            operator_space="r-expression",
            operator_selection="uniform-random",
            ingredient_scope="global",
            ingredient_selection="uniform",
            ingredient_transform="name-probability",
        ),
        RunConfig(
            mode="tibra",
            granularity="statement",
            navigation="selective",
            point_selection="weighted-random",
            operator_space="irr-statements",
            operator_selection="uniform-random",
            ingredient_scope="module",
            ingredient_selection="uniform",
            ingredient_transform="random-var",
        ),
    )
}

PRESET_NAMES = tuple(PRESETS)


def preset(name: str) -> RunConfig:
    """A fresh copy of the named preset."""
    try:
        return replace(PRESETS[name])
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        ) from None


def config_from_preset(name: str, **overrides) -> RunConfig:
    """The preset's configuration, validated; keyword overrides win."""
    return configure(preset(name), overrides)


_COLUMNS = (
    ("granularity", "Granularity"),
    ("navigation", "Navigation"),
    ("point_selection", "Point selection"),
    ("operator_space", "Operator space"),
    ("operator_selection", "Operator selection"),
    ("ingredient_scope", "Ingredient scope"),
    ("ingredient_selection", "Ingredient selection"),
    ("ingredient_transform", "Ingredient transform"),
)
# the extension points with one implementation, which every preset shares
_FIXED_ROWS = (
    ("Validation", "test-suite"),
    ("Fitness", "failing-count"),
    ("Prioritization", "chronological"),
)


def render_table() -> str:
    """Markdown table of every preset (golden-filed in docs/presets.md)."""
    names = list(PRESETS)
    header = "| Extension point | " + " | ".join(names) + " |"
    rule = "|---" * (len(names) + 1) + "|"
    rows = [header, rule]
    cells = [(label, [getattr(PRESETS[name], attr) or "-" for name in names])
             for attr, label in _COLUMNS]
    cells += [(label, [value] * len(names)) for label, value in _FIXED_ROWS]
    for label, values in cells:
        rows.append(f"| {label} | " + " | ".join(values) + " |")
    return "\n".join(rows) + "\n"
