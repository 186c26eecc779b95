"""Run configuration: extension-point choices, budgets, and file parsing.

A configuration names one component per extension point (granularity,
navigation, point/operator selection, operator space, ingredient scope/
selection/transformation, fault-localization formula) plus the search
budgets.  Presets fill these in; explicit config keys and CLI flags
override preset values, in that order.  Where a module dispatches an
extension point through a table (`operators.SPACES`, `faultloc.FORMULAS`),
the table's keys are the names listed here.

The config file format is a flat `key = value` file: one pair per line,
`#` starts a comment, booleans are `true`/`false`, everything else is an
int, float, or bare string.  See docs/config.md.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from minirepair import faultloc, operators
from minirepair.lang.interp import DEFAULT_STEP_BUDGET


class ConfigError(Exception):
    pass


NAVIGATIONS = ("exhaustive", "selective", "evolutionary")
POINT_SELECTIONS = ("uniform-random", "weighted-random", "sequential")
OPERATOR_SELECTIONS = ("uniform-random", "weighted-random", "sequential")
GRANULARITIES = ("statement", "expression", "logical-relational")
OPERATOR_SPACES = tuple(operators.SPACES)
SCOPES = ("file", "module", "global")
INGREDIENT_SELECTIONS = ("uniform", "similarity", "name-probability")
INGREDIENT_TRANSFORMS = ("none", "random-var", "name-probability", "name-similarity")
FORMULAS = tuple(faultloc.FORMULAS)
# the enumerated keys, in the order `RunConfig.validate` checks them; an
# ingredient key may also be None, for the engine's default per space
CHOICES = {
    "navigation": NAVIGATIONS,
    "granularity": GRANULARITIES,
    "point_selection": POINT_SELECTIONS,
    "operator_space": OPERATOR_SPACES,
    "operator_selection": OPERATOR_SELECTIONS,
    "formula": FORMULAS,
    "ingredient_scope": SCOPES,
    "ingredient_selection": INGREDIENT_SELECTIONS,
    "ingredient_transform": INGREDIENT_TRANSFORMS,
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
        # nan would disable the wall limit, and nan or inf would make
        # report.json invalid JSON
        if self.max_seconds is not None and not (
            self.max_seconds >= 0 and math.isfinite(self.max_seconds)
        ):
            raise ConfigError(f"max_seconds must be a finite number >= 0, got {self.max_seconds}")
        if not 0.0 <= self.p_mut <= 1.0 or not 0.0 <= self.p_cross <= 1.0:
            raise ConfigError("p_mut and p_cross must be in [0, 1]")
        if self.operator_selection == "weighted-random" and not self.operator_weights:
            raise ConfigError("weighted-random operator selection needs operator_weights")

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
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        values[key.strip()] = _coerce(raw)
    return values


_FIELD_NAMES = {f.name for f in fields(RunConfig)}


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    for key, value in overrides.items():
        if key not in _FIELD_NAMES:
            raise ConfigError(f"unknown config key {key!r}")
        if value is not None:
            setattr(config, key, value)
    return config
