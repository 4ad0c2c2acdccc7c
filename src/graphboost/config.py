"""Run configuration: a flat key/value text format.

One ``key = value`` pair per line, ``#`` comments, blank lines ignored.
Keys marked gridable accept a comma-separated list of values; ``train``
requires single values, ``sweep`` searches the cross product. Example:

    data = cohort_train.csv
    label = outcome
    split_fractions = 0.7, 0.15, 0.15
    seed = 7
    rounds = 10
    teleport = 0.1, 0.3
    expert_edges = age:5.0
"""

import itertools
from dataclasses import dataclass, field, fields

from .appnp import AppnpConfig
from .boost import BoostConfig
from .errors import ConfigError

# Keys whose values may be grids (searched by ``sweep``).
GRID_KEYS = ("rounds", "boost_learning_rate", "hidden_dim", "prop_steps",
             "teleport", "dropout", "weak_learning_rate", "weight_decay",
             "max_epochs", "patience")


@dataclass
class RunConfig:
    data: str | None = None
    label: str = "label"
    categorical: tuple = ()
    numeric: tuple = ()
    split_fractions: tuple = (0.7, 0.15, 0.15)
    split_seed: int | None = None
    seed: int = 0
    workers: int = 0
    expert_edges: tuple = ()  # (feature name, raw threshold)
    sweep_cap: int = 64
    model_out: str | None = None
    report_out: str | None = None
    # Gridable keys, stored as tuples even when scalar.
    rounds: tuple = (10,)
    boost_learning_rate: tuple = (1.0,)
    hidden_dim: tuple = (64,)
    prop_steps: tuple = (10,)
    teleport: tuple = (0.1,)
    dropout: tuple = (0.1,)
    weak_learning_rate: tuple = (1e-3,)
    weight_decay: tuple = (1e-4,)
    max_epochs: tuple = (100,)
    patience: tuple = (10,)

    def scalar(self, key: str):
        vals = getattr(self, key)
        if len(vals) != 1:
            raise ConfigError(f"{key} must be a single value here, got a "
                              f"grid of {len(vals)}")
        return vals[0]

    def grid_points(self):
        """Deduplicated grid points in deterministic order."""
        seen = set()
        axes = [tuple(dict.fromkeys(getattr(self, key))) for key in GRID_KEYS]
        for combo in itertools.product(*axes):
            if combo in seen:
                continue
            seen.add(combo)
            yield dict(zip(GRID_KEYS, combo))

    def with_point(self, point: dict) -> "RunConfig":
        """Copy of this config with every gridable key pinned to a scalar."""
        kwargs = {f.name: getattr(self, f.name) for f in fields(self)}
        for key, val in point.items():
            kwargs[key] = (val,)
        return RunConfig(**kwargs)

    def weak_config(self, seed: int) -> AppnpConfig:
        return AppnpConfig(
            hidden_dim=self.scalar("hidden_dim"),
            prop_steps=self.scalar("prop_steps"),
            teleport=self.scalar("teleport"),
            dropout=self.scalar("dropout"),
            learning_rate=self.scalar("weak_learning_rate"),
            weight_decay=self.scalar("weight_decay"),
            max_epochs=self.scalar("max_epochs"),
            patience=self.scalar("patience"),
            seed=seed)

    def boost_config(self) -> BoostConfig:
        return BoostConfig(
            n_rounds=self.scalar("rounds"),
            learning_rate=self.scalar("boost_learning_rate"),
            weak=self.weak_config(self.seed),
            expert_edges=self.expert_edges,
            workers=self.workers,
            seed=self.seed)

    def schema_hints(self) -> dict:
        hints = {name: "categorical" for name in self.categorical}
        hints.update({name: "numeric" for name in self.numeric})
        return hints


def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_float(text: str) -> float:
    return float(text)


def _parse_expert(text: str) -> tuple:
    if ":" not in text:
        raise ValueError("expected name:threshold")
    name, thr = text.rsplit(":", 1)
    return (name.strip(), float(thr))


_SCALAR_KEYS = {
    "data": str, "label": str, "split_seed": _parse_int, "seed": _parse_int,
    "workers": _parse_int, "sweep_cap": _parse_int, "model_out": str, "report_out": str,
}
_LIST_KEYS = {
    "categorical": str, "numeric": str, "expert_edges": _parse_expert,
    "split_fractions": _parse_float,
}
_GRID_TYPES = {
    "rounds": _parse_int, "hidden_dim": _parse_int, "prop_steps": _parse_int,
    "max_epochs": _parse_int, "patience": _parse_int,
    "boost_learning_rate": _parse_float, "teleport": _parse_float,
    "dropout": _parse_float, "weak_learning_rate": _parse_float,
    "weight_decay": _parse_float,
}


def parse_config(text: str) -> RunConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key in _SCALAR_KEYS:
                values[key] = _SCALAR_KEYS[key](val)
            elif key in _LIST_KEYS:
                parts = [p.strip() for p in val.split(",") if p.strip()]
                values[key] = tuple(_LIST_KEYS[key](p) for p in parts)
            elif key in _GRID_TYPES:
                parts = [p.strip() for p in val.split(",") if p.strip()]
                if not parts:
                    raise ValueError("empty value")
                values[key] = tuple(_GRID_TYPES[key](p) for p in parts)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: "
                              f"{exc}") from exc

    cfg = RunConfig(**values)
    if len(cfg.split_fractions) != 3:
        raise ConfigError("split_fractions needs exactly three values")
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
