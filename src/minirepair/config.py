"""Run configuration: extension-point choices, budgets, and file parsing.

A configuration names one component per extension point plus the search
budgets.  A preset is one such configuration (`presets.PRESETS`); config
keys, a corpus bug's step budget and CLI flags override it, in that order
(`configure`).  Each extension point is a table in the module that
implements it, and its keys are the names a config accepts (`CHOICES`):
`engine.NAVIGATIONS`, `engine.GRANULARITIES`, `engine.POINT_SELECTIONS`,
`operators.SPACES`, `engine.OPERATOR_SELECTIONS`, `faultloc.FORMULAS`,
`ingredients.SCOPES`, `ingredients.SELECTIONS` and `ingredients.TRANSFORMS`.

The config file format is a flat `key = value` file: one pair per line,
`#` starts a comment, booleans are `true`/`false`, everything else is an
int, float, or bare string.  See docs/config.md.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from minirepair import engine, faultloc, ingredients, operators
from minirepair.lang.interp import DEFAULT_STEP_BUDGET


class ConfigError(Exception):
    pass


# the enumerated keys, in the order `RunConfig.validate` checks them, and
# the names each accepts; an ingredient key may also be None, for the
# engine's default per space
CHOICES = {
    key: tuple(table)
    for key, table in (
        ("navigation", engine.NAVIGATIONS),
        ("granularity", engine.GRANULARITIES),
        ("point_selection", engine.POINT_SELECTIONS),
        ("operator_space", operators.SPACES),
        ("operator_selection", engine.OPERATOR_SELECTIONS),
        ("formula", faultloc.FORMULAS),
        ("ingredient_scope", ingredients.SCOPES),
        ("ingredient_selection", ingredients.SELECTIONS),
        ("ingredient_transform", ingredients.TRANSFORMS),
    )
}
INT_FIELDS = (
    "max_suspicious", "seed", "max_solutions", "max_iterations", "population",
    "points_per_iteration", "step_budget", "jobs",
)
FLOAT_FIELDS = ("max_seconds", "p_mut", "p_cross")  # ints accepted; max_seconds may be None


@dataclass
class RunConfig:
    mode: str = "custom"
    granularity: str = "statement"
    navigation: str = "selective"
    point_selection: str = "weighted-random"
    operator_space: str = "irr-statements"
    operator_selection: str = "uniform-random"
    operator_weights: dict[str, float] | None = None
    ingredient_scope: str | None = None
    ingredient_selection: str | None = None
    ingredient_transform: str | None = None
    formula: str = "ochiai"
    max_suspicious: int = 100
    seed: int = 1
    max_solutions: int = 1
    max_iterations: int = 2000
    max_seconds: float | None = None
    population: int = 10
    p_mut: float = 1.0
    p_cross: float = 0.25
    points_per_iteration: int = 1
    step_budget: int = DEFAULT_STEP_BUDGET
    jobs: int = 1  # accepted and echoed; tests always run serially (docs/config.md)

    def validate(self) -> None:
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed and not (value is None and name.startswith("ingredient_")):
                raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
        for name in INT_FIELDS:
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in FLOAT_FIELDS:
            value = getattr(self, name)
            if type(value) not in (int, float) and not (name == "max_seconds" and value is None):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if self.operator_weights is not None and not isinstance(self.operator_weights, dict):
            raise ConfigError(f"operator_weights must be a dict, got {self.operator_weights!r}")
        for name, value in [
            ("max_suspicious", self.max_suspicious),
            ("max_solutions", self.max_solutions),
            ("population", self.population),
            ("points_per_iteration", self.points_per_iteration),
            ("step_budget", self.step_budget),
            ("jobs", self.jobs),
        ]:
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.max_iterations < 0:
            raise ConfigError("max_iterations must be >= 0")
        # the rng folds a seed modulo 2^64, so one outside would repeat another's run
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        # nan would disable the wall limit, and nan or inf would make
        # report.json invalid JSON
        if self.max_seconds is not None and not (
            self.max_seconds >= 0 and math.isfinite(self.max_seconds)
        ):
            raise ConfigError(f"max_seconds must be a finite number >= 0, got {self.max_seconds}")
        if not 0.0 <= self.p_mut <= 1.0 or not 0.0 <= self.p_cross <= 1.0:
            raise ConfigError("p_mut and p_cross must be in [0, 1]")
        if self.operator_selection == "weighted-random":
            # one finite weight >= 0 per operator of the space, summing to 1
            weights = self.operator_weights
            if not weights:
                raise ConfigError("weighted-random operator selection needs operator_weights")
            names = [op.name for op in operators.SPACES[self.operator_space]().operators]
            missing = [name for name in names if name not in weights]
            if missing:
                raise ConfigError(f"operator_weights missing entries for {missing}")
            for name in names:
                value = weights[name]
                if type(value) not in (int, float) or not (math.isfinite(value) and value >= 0):
                    raise ConfigError(f"operator_weights[{name!r}] must be a finite number"
                                      f" >= 0, got {value!r}")
            total = sum(weights[name] for name in names)
            if abs(total - 1.0) > 1e-9:
                raise ConfigError(f"operator weights must sum to 1, got {total}")

    def to_dict(self) -> dict:
        return asdict(self)


def _coerce(raw: str):
    text = raw.strip()
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_file(path: str | Path) -> dict:
    """Flat key = value pairs; later keys override earlier ones."""
    values: dict = {}
    for lineno, line in enumerate(faultloc.read_text(path, ConfigError).splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        values[key.strip()] = _coerce(raw)
    return values


FIELD_NAMES = {f.name for f in fields(RunConfig)}


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Set each key of `overrides` that is not None; an unknown key is an error."""
    for key, value in overrides.items():
        if key not in FIELD_NAMES:
            raise ConfigError(f"unknown config key {key!r}")
        if value is not None:
            setattr(config, key, value)
    return config


def configure(base: RunConfig, *layers: dict) -> RunConfig:
    """`base` with each layer of overrides applied in turn: a later layer
    wins, and a None value keeps what is there.  The base and each layer's
    result are validated, so a later layer never hides a bad value."""
    base.validate()
    for layer in layers:
        apply_overrides(base, layer).validate()
    return base
