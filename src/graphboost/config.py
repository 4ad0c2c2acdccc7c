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
from dataclasses import dataclass, field, fields, replace

from .appnp import AppnpConfig
from .boost import BoostConfig
from .errors import ConfigError

# Keys whose values may be grids (searched by ``sweep``), in the order the
# grid is walked. Each sets one BoostConfig or AppnpConfig field and takes
# its default, and whether it parses as an int or a float, from that field.
GRID_KEYS = {
    "rounds": (BoostConfig, "n_rounds"),
    "boost_learning_rate": (BoostConfig, "learning_rate"),
    "hidden_dim": (AppnpConfig, "hidden_dim"),
    "prop_steps": (AppnpConfig, "prop_steps"),
    "teleport": (AppnpConfig, "teleport"),
    "dropout": (AppnpConfig, "dropout"),
    "weak_learning_rate": (AppnpConfig, "learning_rate"),
    "weight_decay": (AppnpConfig, "weight_decay"),
    "max_epochs": (AppnpConfig, "max_epochs"),
    "patience": (AppnpConfig, "patience"),
}


def _grid_default(key: str):
    """The default of gridable ``key``: that of the field it sets."""
    owner, name = GRID_KEYS[key]
    return next(f.default for f in fields(owner) if f.name == name)


def _default_grid() -> dict:
    return {key: (_grid_default(key),) for key in GRID_KEYS}


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
    # Every gridable key's values, a tuple even when scalar.
    grid: dict = field(default_factory=_default_grid)

    def scalar(self, key: str):
        vals = self.grid[key]
        if len(vals) != 1:
            raise ConfigError(f"{key} must be a single value here, got a "
                              f"grid of {len(vals)}")
        return vals[0]

    def grid_points(self):
        """Grid points in deterministic order, repeated values dropped."""
        axes = [dict.fromkeys(self.grid[key]) for key in GRID_KEYS]
        for combo in itertools.product(*axes):
            yield dict(zip(GRID_KEYS, combo))

    def with_point(self, point: dict) -> "RunConfig":
        """Copy of this config with every gridable key pinned to a scalar."""
        return replace(self, grid={key: (val,) for key, val in point.items()})

    def boost_config(self) -> BoostConfig:
        kwargs = {BoostConfig: {}, AppnpConfig: {}}
        for key, (owner, name) in GRID_KEYS.items():
            kwargs[owner][name] = self.scalar(key)
        return BoostConfig(
            weak=AppnpConfig(**kwargs[AppnpConfig], seed=self.seed),
            expert_edges=self.expert_edges, workers=self.workers,
            seed=self.seed, **kwargs[BoostConfig])

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
            elif key in GRID_KEYS:
                parts = [p.strip() for p in val.split(",") if p.strip()]
                if not parts:
                    raise ValueError("empty value")
                parse = _parse_int if type(_grid_default(key)) is int \
                    else _parse_float
                values[key] = tuple(parse(p) for p in parts)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: "
                              f"{exc}") from exc

    grid = _default_grid()
    grid.update((key, values.pop(key)) for key in GRID_KEYS if key in values)
    cfg = RunConfig(grid=grid, **values)
    if len(cfg.split_fractions) != 3:
        raise ConfigError("split_fractions needs exactly three values")
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
