"""Config dicts checked against the keyword signature that consumes them,
and the rules every parameter is checked by.

A constructor's keyword parameters are the one definition of its config:
their names are the accepted keys, their defaults the defaults, and a
parameter without a default is a required key. No value may hold NaN or
Infinity, which JSON configs may carry and no parameter takes. A count
passes `as_count`, a real `as_real` and an array of reals `as_reals`.
"""

from __future__ import annotations

import functools
import inspect
import math
import operator

import numpy as np

from .errors import ConfigError


def as_count(value, name: str, minimum: int) -> int:
    """`value` as an int of at least `minimum`. It must be an integer, not a
    bool and not a float, even an integral one; numpy integers pass through
    operator.index."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return n


def as_real(value, name: str, *, gt=None, ge=None, lt=None, le=None) -> float:
    """float(value), which must be finite and lie in the interval the bounds
    give: above `gt` or at least `ge`, below `lt` or at most `le`. Every
    interval is refused in one form, as "discount must lie in [0, 1), got 1.0"."""
    x = float(value)
    if (math.isfinite(x) and (gt is None or x > gt) and (ge is None or x >= ge)
            and (lt is None or x < lt) and (le is None or x <= le)):
        return x
    low = f"({gt:g}" if gt is not None else f"[{ge:g}" if ge is not None else "(-inf"
    high = f"{lt:g})" if lt is not None else f"{le:g}]" if le is not None else "inf)"
    raise ConfigError(f"{name} must lie in {low}, {high}, got {x!r}")


def as_reals(value, name: str, shape=(None,), *, gt=None, ge=None, lt=None, le=None) -> np.ndarray:
    """np.asarray(value, dtype=float), which must have `shape` (a None
    dimension takes any nonzero length; by default any nonempty 1-D array)
    and whose entries must each pass `as_real`'s rule, as in "weights needs
    shape (4,), got (3,)" and "capacity entries must lie in [0, inf), got nan"."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim != len(shape) or not all(
            n > 0 if want is None else n == want for n, want in zip(arr.shape, shape)):
        raise ConfigError(f"{name} needs shape {shape}, got {arr.shape}")
    # min and max carry any NaN, and an interval holds every entry once it holds both
    for x in (arr.min(), arr.max()):
        as_real(x, f"{name} entries", gt=gt, ge=ge, lt=lt, le=le)
    return arr


@functools.lru_cache(maxsize=256)
def _parameters(fn):
    # Every episode of a run or a tune loop builds its env and agent from
    # config, so each callable's signature is read once per process. The
    # parameters are a read-only mapping, safe to share between callers.
    return inspect.signature(fn).parameters


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
    accepted = {name for name in params if name not in given}
    required = {name for name in accepted if params[name].default is inspect.Parameter.empty}
    check_keys(cfg, accepted, required, f"{what} config")
    for key, value in cfg.items():
        _check_finite(key, value)
    return params


def build_from_config(fn, cfg: dict, what: str, **given):
    """fn(**given, **cfg) once cfg passes check_config, passing only the
    given values whose names `fn` takes. A TypeError, ValueError or
    OverflowError (float() of an integer past the float range) from the
    call means a value of the wrong type or form came in from outside, so
    it becomes a one-line ConfigError."""
    params = check_config(fn, cfg, what, given)
    given = {name: value for name, value in given.items() if name in params}
    try:
        return fn(**given, **cfg)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} config: {' '.join(str(exc).split())}") from exc
