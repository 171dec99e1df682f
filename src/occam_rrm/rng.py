"""Deterministic randomness plumbing.

Every stochastic component draws from named substreams derived from a single
episode seed, so that (a) two runs with the same seed are bit-identical,
(b) exogenous processes consume draws indexed by step number and are therefore
unaffected by the agent's actions, and (c) adding diagnostics or extra
consumers never perturbs existing draws.
"""

from __future__ import annotations

import numpy as np

# Stream ids used across the package. Environments reserve 0-15, policies 16+.
STREAM_EXOGENOUS = 0
STREAM_ACTION = 1
STREAM_POLICY = 16
STEP_BLOCK = 1024  # steps a StepStream draws at once


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator for (seed, path).

    Distinct paths give statistically independent streams; the same path
    always gives the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, path) into a fresh 63-bit integer seed."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def scalars(first_step: int, draws: np.ndarray) -> list[float]:
    """Table of a scalar stream: the first draw of each step as a float."""
    return draws[:, 0].tolist()


def exponential(mean, first_step: int, u: np.ndarray) -> np.ndarray:
    """Table of exponential fading of the given mean from uniform draws
    (read-only): scheduling efficiencies and power gains."""
    table = mean * -np.log1p(-u)
    table.flags.writeable = False
    return table


class StepStream:
    """Per-step draws that are a pure function of (seed, stream id, step).

    Draws are generated in blocks of ``block`` steps, ``per_step`` values of
    the declared kind per step. ``table(first_step, draws)`` turns a block's
    read-only draws into the rows that ``at(t)`` returns; it runs once per
    block while the block stays in a tiny cache, and the default table is the
    draws themselves. A table must be a pure function of its arguments, so
    ``at(t)`` does not depend on the order or number of reads.
    """

    def __init__(self, seed: int, stream_id: int, per_step: int = 1,
                 kind: str = "normal", block: int = STEP_BLOCK, table=None):
        if kind not in ("normal", "uniform"):
            raise ValueError(f"unknown draw kind {kind!r}")
        self._seed = seed
        self._stream_id = stream_id
        self._shape = (block, per_step)
        self._draw = "random" if kind == "uniform" else "normal"  # a Generator method
        self._block = block
        self._table = table
        self._cache: dict[int, object] = {}

    def at(self, t: int):
        """Row t of its block's table; without a table, the ``per_step``
        draws of step t (a read-only view)."""
        if t < 0:
            raise ValueError("step index must be nonnegative")
        b, i = divmod(t, self._block)
        rows = self._cache.get(b)
        if rows is None:
            rng = substream(self._seed, self._stream_id, b)
            rows = getattr(rng, self._draw)(size=self._shape)
            rows.flags.writeable = False
            if self._table is not None:
                rows = self._table(b * self._block, rows)
            if len(self._cache) >= 4:  # keep the cache tiny; regeneration is deterministic
                self._cache.pop(next(iter(self._cache)))
            self._cache[b] = rows
        return rows[i]
