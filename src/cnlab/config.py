"""JSON run configuration, checked against one schema before anything runs.

_SIMULATE (its monitor block included) and _VERIFY are the schema: each key
maps to a nested table or to an entry (what the value must be, its test),
and each test states type and range. Integers are never true or false and
numbers never NaN or Infinity, which Python's json reads. _check rejects
unknown keys and bad values with one ConfigError, before any output or solve.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .grid import Grid
from .monitor import check_exponents, check_kato_horizon
from .solver import (PROFILE_KINDS, EtdrkOptions, PicardOptions, ProfileSpec,
                     SolverConfig)
from .verification import CHECKS, SIZE_KEYS, paraproduct_name


class ConfigError(ValueError):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float) and math.isfinite(value)


def _accepted(check, *args) -> bool:
    """Whether check(*args), an existing rule that raises ValueError, passes."""
    try:
        check(*args)
    except ValueError:
        return False
    return True


def _at_least(lo: int) -> tuple:
    return f"an integer >= {lo}", lambda v: _is_int(v) and v >= lo


def _above(lo: float) -> tuple:
    return f"a finite number > {lo}", lambda v: _is_number(v) and v > lo


def _list_of(entry: tuple) -> tuple:
    return (f"a non-empty list, each {entry[0]}",
            lambda v: isinstance(v, list) and len(v) > 0 and all(map(entry[1], v)))


def _distinct(entry: tuple, rule: str, key) -> tuple:
    each, ok = _list_of(entry)
    return f"{each}, {rule}", lambda v: ok(v) and len(set(map(key, v))) == len(v)


_DIM = "2 or 3", lambda v: _is_int(v) and _accepted(Grid, v, 8)
_RES = "a power of two >= 8", lambda v: _is_int(v) and _accepted(Grid, 2, v)

_MONITOR = {
    "p_list": ("a list of finite numbers >= 1",
               lambda v: isinstance(v, list) and all(map(_is_number, v))
               and _accepted(check_exponents, v)),
    "kato_horizon": ("null, 'default' or a finite number > 0",
                     lambda v: _accepted(check_kato_horizon, v)),
    "cutoff": ("'sharp' or 'smooth'", lambda v: v in ("sharp", "smooth")),
}

_SIMULATE = {
    "dim": _DIM, "res": _RES, "nu": _above(0), "horizon": _above(0),
    "dealias": ("true or false", lambda v: isinstance(v, bool)),
    "cross_tol": ("a finite number >= 0", lambda v: _is_number(v) and v >= 0),
    "picard": {
        "max_iters": _at_least(0),
        "contraction_tol": _above(0),
        "node_count": _at_least(1),
        "grading": ("'uniform' or 'graded'", lambda v: v in ("uniform", "graded")),
        "grading_power": _above(0),
    },
    "etdrk4": {"dt": ("null or a finite number > 0", lambda v: v is None or _above(0)[1](v))},
    "profile": {
        "kind": (f"one of {list(PROFILE_KINDS)}", lambda v: v in PROFILE_KINDS),
        "amplitude": ("a finite number", _is_number), "slope": ("a finite number", _is_number),
        "seed": _at_least(0),
        "band": ("null or integers [lo, hi] with 0 <= lo <= hi",
                 lambda v: v is None or isinstance(v, list) and len(v) == 2
                 and all(map(_is_int, v)) and 0 <= v[0] <= v[1]),
    },
    "monitor": _MONITOR,
}

# two values with one key in a report (a constant K_N{n} or opnorm_T{T:g}, a
# report name paraproduct_s{s:g}) would keep one of them and drop the other
_SIZES = {
    "trials": _at_least(1), "nodes": _at_least(1), "pairs": _at_least(1),
    "res": _RES, "res_list": _distinct(_RES, "no two equal", int),
    "dim": _DIM, "dims": _list_of(_DIM),
    "T_list": _distinct(_above(0), "no two with one report key (opnorm_T{T:g})", "{:g}".format),
    "s_list": _distinct(_above(1), "no two with one report name (paraproduct_s{s:g})",
                        paraproduct_name),
}

_VERIFY = {
    "checks": _list_of((f"one of {list(CHECKS)}", lambda v: isinstance(v, str) and v in CHECKS)),
    "seed": _at_least(0),
    "sizes": {name: {key: _SIZES[key] for key in keys} for name, keys in SIZE_KEYS.items()},
}


def _check(data, schema: dict, where: str) -> None:
    """Raise ConfigError unless data is an object whose keys all appear in
    schema and whose values pass their entries, nested tables recursively."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(schema))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed: {sorted(schema)}")
    for key, value in data.items():
        if isinstance(schema[key], dict):
            _check(value, schema[key], f"{where}.{key}")
        elif not schema[key][1](value):
            raise ConfigError(f"{where}.{key} must be {schema[key][0]}, got {value!r}")


def load_json(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file cannot be read: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def solver_config_from_dict(data: dict, where: str = "config") -> SolverConfig:
    """The solver configuration of a simulate config; its monitor block is
    checked too, and read by monitor_options_from_dict."""
    _check(data, _SIMULATE, where)
    blocks = {"picard": PicardOptions, "etdrk4": EtdrkOptions, "profile": ProfileSpec}
    kwargs = {k: blocks[k](**v) if k in blocks else v for k, v in data.items() if k != "monitor"}
    if "profile" in kwargs and kwargs["profile"].band is not None:
        kwargs["profile"].band = tuple(kwargs["profile"].band)
    return SolverConfig(**kwargs)


def monitor_options_from_dict(data: dict | None, where: str = "config.monitor") -> dict:
    data = {} if data is None else data
    _check(data, _MONITOR, where)
    opts = {"p_list": (), "kato_horizon": "default", "cutoff": "sharp", **data}
    opts["p_list"] = tuple(opts["p_list"])
    return opts


def verify_config_from_dict(data: dict, where: str = "config") -> tuple[list[str], int, dict]:
    _check(data, _VERIFY, where)
    return list(data.get("checks", CHECKS)), data.get("seed", 0), data.get("sizes", {})
