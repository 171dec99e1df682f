"""Config dicts checked against the keyword signature that consumes them.

A constructor's keyword parameters are the one definition of its config:
their names are the accepted keys, their defaults the defaults, and a
parameter without a default is a required key.
"""

from __future__ import annotations

import inspect

from .errors import ConfigError


def config_keys(fn, given=()) -> tuple[set, set]:
    """(accepted, required) config keys of `fn`: its parameters other than
    the ones named in `given`, which the caller supplies itself."""
    return _keys(inspect.signature(fn).parameters, given)


def _keys(params, given) -> tuple[set, set]:
    accepted = {name for name in params if name not in given}
    required = {name for name in accepted if params[name].default is inspect.Parameter.empty}
    return accepted, required


def check_config(fn, cfg: dict, what: str, given=()):
    """Reject keys `fn` does not take and report a missing required key.
    Returns the parameters of `fn`'s signature."""
    params = inspect.signature(fn).parameters
    accepted, required = _keys(params, given)
    extra = set(cfg) - accepted
    if extra:
        raise ConfigError(f"unknown {what} config keys: {sorted(extra)}")
    missing = sorted(required - set(cfg))
    if missing:
        raise ConfigError(f"{what} config missing required key '{missing[0]}'")
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
