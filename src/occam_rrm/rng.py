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


class StepStream:
    """Per-step draws that are a pure function of (seed, stream id, step).

    Draws are generated in blocks of ``block`` steps so that sequential access
    is cheap, yet ``values(t)`` and ``block(b)`` are independent of the order
    or number of times they are called. ``per_step`` values of the declared
    kind are produced for every step index.
    """

    def __init__(self, seed: int, stream_id: int, per_step: int = 1,
                 kind: str = "normal", block: int = 1024):
        if kind not in ("normal", "uniform"):
            raise ValueError(f"unknown draw kind {kind!r}")
        self._seed = seed
        self._stream_id = stream_id
        self._per_step = per_step
        self._kind = kind
        self._block = block
        self._cache: dict[int, np.ndarray] = {}
        self._column_block = -1
        self._column: list[float] = []

    @property
    def block_size(self) -> int:
        """Steps per block: block b holds steps b * block_size up to
        (b + 1) * block_size - 1."""
        return self._block

    def block(self, b: int) -> np.ndarray:
        """Draws of block ``b``, one row of ``per_step`` values per step
        (read-only)."""
        if b < 0:
            raise ValueError("block index must be nonnegative")
        arr = self._cache.get(b)
        if arr is None:
            rng = substream(self._seed, self._stream_id, b)
            shape = (self._block, self._per_step)
            arr = rng.normal(size=shape) if self._kind == "normal" else rng.random(size=shape)
            arr.flags.writeable = False
            if len(self._cache) >= 4:  # keep the cache tiny; regeneration is deterministic
                self._cache.pop(next(iter(self._cache)))
            self._cache[b] = arr
        return arr

    def values(self, t: int) -> np.ndarray:
        """Vector of ``per_step`` draws for step ``t`` (read-only view)."""
        if t < 0:
            raise ValueError("step index must be nonnegative")
        return self.block(t // self._block)[t % self._block]

    def value(self, t: int) -> float:
        """Scalar draw for step ``t`` (first component). Read from the first
        column of t's block, kept as a list of floats while steps stay in
        that block."""
        if t < 0:
            raise ValueError("step index must be nonnegative")
        b, i = divmod(t, self._block)
        if b != self._column_block:
            self._column = self.block(b)[:, 0].tolist()
            self._column_block = b
        return self._column[i]
