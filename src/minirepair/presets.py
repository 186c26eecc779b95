"""The six built-in repair approaches as preset configurations.

Each preset binds one component to every extension point.  The markdown
rendering of this table is checked against docs/presets.md by the test
suite, so any change here must be reflected there.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from minirepair.config import RunConfig


@dataclass(frozen=True)
class ApproachPreset:
    name: str
    granularity: str
    navigation: str
    point_selection: str
    operator_space: str
    operator_selection: str
    ingredient_scope: str | None
    ingredient_selection: str | None
    ingredient_transform: str | None
    validation: str = "test-suite"
    fitness: str = "failing-count"
    prioritization: str = "chronological"


PRESETS: dict[str, ApproachPreset] = {
    "jgenprog": ApproachPreset(
        name="jgenprog",
        granularity="statement",
        navigation="evolutionary",
        point_selection="weighted-random",
        operator_space="irr-statements",
        operator_selection="uniform-random",
        ingredient_scope="module",
        ingredient_selection="uniform",
        ingredient_transform="none",
    ),
    "jkali": ApproachPreset(
        name="jkali",
        granularity="statement",
        navigation="exhaustive",
        point_selection="sequential",
        operator_space="suppression",
        operator_selection="sequential",
        ingredient_scope=None,
        ingredient_selection=None,
        ingredient_transform=None,
    ),
    "jmutrepair": ApproachPreset(
        name="jmutrepair",
        granularity="logical-relational",
        navigation="exhaustive",
        point_selection="weighted-random",
        operator_space="relational-logical",
        operator_selection="uniform-random",
        ingredient_scope=None,
        ingredient_selection=None,
        ingredient_transform=None,
    ),
    "deeprepair-lite": ApproachPreset(
        name="deeprepair-lite",
        granularity="statement",
        navigation="evolutionary",
        point_selection="weighted-random",
        operator_space="irr-statements",
        operator_selection="uniform-random",
        ingredient_scope="module",
        ingredient_selection="similarity",
        ingredient_transform="name-similarity",
    ),
    "cardumen": ApproachPreset(
        name="cardumen",
        granularity="expression",
        navigation="selective",
        point_selection="weighted-random",
        operator_space="r-expression",
        operator_selection="uniform-random",
        ingredient_scope="global",
        ingredient_selection="uniform",
        ingredient_transform="name-probability",
    ),
    "tibra": ApproachPreset(
        name="tibra",
        granularity="statement",
        navigation="selective",
        point_selection="weighted-random",
        operator_space="irr-statements",
        operator_selection="uniform-random",
        ingredient_scope="module",
        ingredient_selection="uniform",
        ingredient_transform="random-var",
    ),
}

PRESET_NAMES = tuple(PRESETS)
# the extension points a preset binds that a RunConfig also has
_RUN_FIELDS = {f.name for f in fields(RunConfig)}
_SHARED_FIELDS = tuple(f.name for f in fields(ApproachPreset) if f.name in _RUN_FIELDS)


def preset(name: str) -> ApproachPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        ) from None


def config_from_preset(name: str, **overrides) -> RunConfig:
    """RunConfig seeded from a preset; keyword overrides win."""
    p = preset(name)
    config = RunConfig(mode=p.name, **{key: getattr(p, key) for key in _SHARED_FIELDS})
    for key, value in overrides.items():
        if value is not None:
            setattr(config, key, value)
    return config


_COLUMNS = (
    ("granularity", "Granularity"),
    ("navigation", "Navigation"),
    ("point_selection", "Point selection"),
    ("operator_space", "Operator space"),
    ("operator_selection", "Operator selection"),
    ("ingredient_scope", "Ingredient scope"),
    ("ingredient_selection", "Ingredient selection"),
    ("ingredient_transform", "Ingredient transform"),
    ("validation", "Validation"),
    ("fitness", "Fitness"),
    ("prioritization", "Prioritization"),
)


def render_table() -> str:
    """Markdown table of every preset (golden-filed in docs/presets.md)."""
    names = list(PRESETS)
    header = "| Extension point | " + " | ".join(names) + " |"
    rule = "|---" * (len(names) + 1) + "|"
    rows = [header, rule]
    for attr, label in _COLUMNS:
        cells = []
        for name in names:
            value = getattr(PRESETS[name], attr)
            cells.append(value if value is not None else "-")
        rows.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(rows) + "\n"
