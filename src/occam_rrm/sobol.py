"""Scrambled Sobol' points for the design of `tuning.bo_tune`.

Joe & Kuo's direction numbers (SIAM J. Sci. Comput. 30(5), 2008, file
new-joe-kuo-6.21201) with 30 bits, scrambled by Owen's linear matrix
scramble plus a digital shift. The order of the random draws and of the
points follows the reference implementation in the test extras, and
tests/test_tuning.py checks the points against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

BITS = 30

# The first 16 rows of new-joe-kuo-6.21201: (primitive polynomial with its
# leading and constant terms as bits, initial direction numbers m_1..m_s).
# Row 1 is van der Corput, where every m is 1.
JOE_KUO = (
    (1, (1,)),
    (3, (1,)),
    (7, (1, 3)),
    (11, (1, 3, 1)),
    (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)),
    (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)),
)
MAX_DIM = len(JOE_KUO)

_MSB_FIRST = np.arange(BITS - 1, -1, -1, dtype=np.uint32)


def _directions(poly: int, m: tuple) -> list:
    """The BITS direction numbers of one dimension, as BITS-bit integers
    (Bratley & Fox's recurrence)."""
    s = poly.bit_length() - 1
    v = [1] * BITS if s == 0 else list(m)
    for j in range(len(v), BITS):
        new = v[j - s]
        for k in range(1, s + 1):
            if poly >> (s - k) & 1:
                new ^= v[j - k] << k
        v.append(new)
    return [x << (BITS - 1 - j) for j, x in enumerate(v)]


def scrambled_sobol(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points, shape (n, d), of the d-dimensional Sobol'
    sequence under a linear matrix scramble and digital shift drawn from
    `np.random.default_rng(seed)`."""
    if not 1 <= d <= MAX_DIM:
        raise ConfigError(f"the Sobol' design supports 1 to {MAX_DIM} dimensions, got {d}")
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 2, (d, BITS), dtype=np.uint32) @ (
        np.uint32(1) << np.arange(BITS, dtype=np.uint32))
    ltm = np.tril(rng.integers(0, 2, (d, BITS, BITS), dtype=np.uint32))
    ltm[:, np.arange(BITS), np.arange(BITS)] = 1
    # Row p of ltm[k], read most significant bit first, is the GF(2) row
    # that gives bit BITS-1-p of each scrambled direction number.
    v = np.array([_directions(*row) for row in JOE_KUO[:d]], dtype=np.uint32)
    v_bits = v[:, :, None] >> _MSB_FIRST & 1
    scrambled = (v_bits @ ltm.transpose(0, 2, 1) & 1) @ (np.uint32(1) << _MSB_FIRST)

    # Point i XORs onto the shift the direction numbers of the bits set
    # in the Gray code of i.
    index = np.arange(n, dtype=np.uint32)
    gray = index ^ index >> 1
    points = np.tile(shift, (n, 1))
    for b in range(max(n - 1, 0).bit_length()):
        points ^= (gray[:, None] >> b & 1) * scrambled[:, b]
    return points * 2.0**-BITS
