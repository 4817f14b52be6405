"""JSON run configuration with strict key checking.

Configs are plain JSON objects. Every level rejects keys it does not know
about, so a typo like "contraction_toll" fails loudly instead of silently
running with defaults.
"""

from __future__ import annotations

import json
from pathlib import Path

from .monitor import check_exponents
from .solver import EtdrkOptions, PicardOptions, ProfileSpec, SolverConfig
from .verification import CHECKS, SIZE_KEYS


class ConfigError(ValueError):
    pass


def _reject_unknown(data: dict, allowed: set[str], where: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {type(data).__name__}")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed: {sorted(allowed)}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(ok):
    return lambda v: isinstance(v, list) and all(map(ok, v))


_KINDS = {
    "ints": ("an integer", _is_int),
    "numbers": ("a number", _is_number),
    "nullable": ("a number or null", lambda v: v is None or _is_number(v)),
    "bools": ("true or false", lambda v: isinstance(v, bool)),
    "int_lists": ("a list of integers", _list_of(_is_int)),
    "number_lists": ("a list of numbers", _list_of(_is_number)),
    "int_pairs": ("null or a list of two integers",
                  lambda v: v is None or _list_of(_is_int)(v) and len(v) == 2),
}


def _check_types(data: dict, where: str, **kinds: tuple[str, ...]) -> None:
    """The value at each key named under a keyword of _KINDS, if present,
    has that kind: ints=("dim",) wants a JSON integer at data["dim"].
    Integers and numbers are never true or false."""
    for kind, keys in kinds.items():
        what, ok = _KINDS[kind]
        for key in keys:
            if key in data and not ok(data[key]):
                raise ConfigError(f"{where}.{key} must be {what}, got {data[key]!r}")


def load_json(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


_PICARD_KEYS = {"max_iters", "contraction_tol", "node_count", "grading", "grading_power"}
_ETDRK4_KEYS = {"dt"}
_PROFILE_KEYS = {"kind", "amplitude", "slope", "seed", "band"}
_SOLVER_KEYS = {"dim", "res", "nu", "horizon", "dealias", "cross_tol",
                "picard", "etdrk4", "profile"}
_MONITOR_KEYS = {"p_list", "kato_horizon", "cutoff"}
_SIMULATE_KEYS = _SOLVER_KEYS | {"monitor"}


def solver_config_from_dict(data: dict, where: str = "config") -> SolverConfig:
    _reject_unknown(data, _SIMULATE_KEYS, where)
    _check_types(data, where, ints=("dim", "res"), bools=("dealias",),
                 numbers=("nu", "horizon", "cross_tol"))
    kwargs = {k: data[k] for k in data if k in _SOLVER_KEYS - {"picard", "etdrk4", "profile"}}
    if "picard" in data:
        _reject_unknown(data["picard"], _PICARD_KEYS, f"{where}.picard")
        _check_types(data["picard"], f"{where}.picard", ints=("max_iters", "node_count"),
                     numbers=("contraction_tol", "grading_power"))
        kwargs["picard"] = PicardOptions(**data["picard"])
    if "etdrk4" in data:
        _reject_unknown(data["etdrk4"], _ETDRK4_KEYS, f"{where}.etdrk4")
        _check_types(data["etdrk4"], f"{where}.etdrk4", nullable=("dt",))
        kwargs["etdrk4"] = EtdrkOptions(**data["etdrk4"])
    if "profile" in data:
        _reject_unknown(data["profile"], _PROFILE_KEYS, f"{where}.profile")
        _check_types(data["profile"], f"{where}.profile", ints=("seed",),
                     numbers=("amplitude", "slope"), int_pairs=("band",))
        prof = dict(data["profile"])
        if prof.get("band") is not None:
            prof["band"] = tuple(prof["band"])
        kwargs["profile"] = ProfileSpec(**prof)
    try:
        return SolverConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}")


def monitor_options_from_dict(data: dict | None, where: str = "config.monitor") -> dict:
    data = {} if data is None else data
    _reject_unknown(data, _MONITOR_KEYS, where)
    _check_types(data, where, number_lists=("p_list",))
    opts = {
        "p_list": tuple(data.get("p_list", ())),
        "kato_horizon": data.get("kato_horizon", "default"),
        "cutoff": data.get("cutoff", "sharp"),
    }
    if opts["cutoff"] not in ("sharp", "smooth"):
        raise ConfigError(f"{where}.cutoff must be 'sharp' or 'smooth'")
    kh = opts["kato_horizon"]
    if not (kh is None or kh == "default" or _is_number(kh)):
        raise ConfigError(f"{where}.kato_horizon must be null, 'default', or a number")
    try:
        check_exponents(opts["p_list"])
    except ValueError as exc:
        raise ConfigError(f"{where}.p_list: {exc}")
    return opts


_VERIFY_KEYS = {"checks", "seed", "sizes"}


def verify_config_from_dict(data: dict, where: str = "config") -> tuple[list[str], int, dict]:
    _reject_unknown(data, _VERIFY_KEYS, where)
    checks = data.get("checks", list(CHECKS))
    if not isinstance(checks, list) or not checks:
        raise ConfigError(f"{where}.checks must be a non-empty list")
    bad = [c for c in checks if c not in CHECKS]
    if bad:
        raise ConfigError(f"{where}.checks: unknown {bad}; available: {sorted(CHECKS)}")
    seed = data.get("seed", 0)
    if not _is_int(seed):
        raise ConfigError(f"{where}.seed must be an integer")
    sizes = data.get("sizes", {})
    _reject_unknown(sizes, set(CHECKS), f"{where}.sizes")
    for name, block in sizes.items():
        _reject_unknown(block, SIZE_KEYS[name], f"{where}.sizes.{name}")
        _check_types(block, f"{where}.sizes.{name}",
                     ints=("trials", "res", "dim", "nodes", "pairs"),
                     int_lists=("res_list", "dims"), number_lists=("T_list", "s_list"))
    return list(checks), seed, sizes
