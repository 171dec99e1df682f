"""Config dicts checked against the keyword signature that consumes them.

A constructor's keyword parameters are the one definition of its config:
their names are the accepted keys, their defaults the defaults, and a
parameter without a default is a required key. No value may hold NaN or
Infinity, which JSON configs may carry and no parameter takes.
"""

from __future__ import annotations

import functools
import inspect
import math

import numpy as np

from .errors import ConfigError


def config_keys(fn, given=()) -> tuple[set, set]:
    """(accepted, required) config keys of `fn`: its parameters other than
    the ones named in `given`, which the caller supplies itself."""
    return _keys(_parameters(fn), given)


@functools.lru_cache(maxsize=256)
def _parameters(fn):
    # Every episode of a run or a tune loop builds its env and agent from
    # config, so each callable's signature is read once per process. The
    # parameters are a read-only mapping, safe to share between callers.
    return inspect.signature(fn).parameters


def _keys(params, given) -> tuple[set, set]:
    accepted = {name for name in params if name not in given}
    required = {name for name in accepted if params[name].default is inspect.Parameter.empty}
    return accepted, required


def check_keys(cfg, accepted, required, what: str) -> None:
    """Reject keys of `cfg` outside `accepted` and report the first missing
    key of `required`."""
    extra = set(cfg) - set(accepted)
    if extra:
        raise ConfigError(f"unknown {what} keys: {sorted(extra)}")
    missing = sorted(set(required) - set(cfg))
    if missing:
        raise ConfigError(f"{what} missing required key '{missing[0]}'")


def _check_finite(name: str, value) -> None:
    """Reject NaN and +-inf in `value`: a number, a numeric string, or a dict
    or list holding them. A list that converts to a float array is checked
    as one array."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(f"{name} {key}", item)
    elif isinstance(value, (list, tuple, np.ndarray)):
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError, OverflowError):
            for i, item in enumerate(value):
                _check_finite(f"{name}[{i}]", item)
        else:
            if not np.isfinite(arr).all():
                raise ConfigError(f"{name} entries must be finite")
    elif isinstance(value, (float, np.floating, str)):
        try:
            x = float(value)
        except ValueError:
            return
        if not math.isfinite(x):
            raise ConfigError(f"{name} must be finite, got {x}")


def check_config(fn, cfg: dict, what: str, given=()):
    """Reject keys `fn` does not take, a missing required key and a
    non-finite number anywhere in a value. Returns the parameters of `fn`'s
    signature."""
    params = _parameters(fn)
    check_keys(cfg, *_keys(params, given), f"{what} config")
    for key, value in cfg.items():
        _check_finite(key, value)
    return params


def build_from_config(fn, cfg: dict, what: str, **given):
    """fn(**given, **cfg) once cfg passes check_config, passing only the
    given values whose names `fn` takes. A TypeError, ValueError or
    OverflowError (int() of an infinite float) from the call means a value
    of the wrong type or form came in from outside, so it becomes a one-line
    ConfigError."""
    params = check_config(fn, cfg, what, given)
    given = {name: value for name, value in given.items() if name in params}
    try:
        return fn(**given, **cfg)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} config: {' '.join(str(exc).split())}") from exc
