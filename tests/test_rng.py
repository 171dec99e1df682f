import numpy as np

from occam_rrm.rng import StepStream, derive_seed, substream


def test_substream_deterministic():
    a = substream(123, 0, 4).normal(size=8)
    b = substream(123, 0, 4).normal(size=8)
    assert np.array_equal(a, b)


def test_substream_paths_independent():
    a = substream(123, 0).normal(size=8)
    b = substream(123, 1).normal(size=8)
    assert not np.array_equal(a, b)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert derive_seed(7, 1, 2) >= 0


def test_step_stream_pure_in_t():
    # Draw order must not matter: values(t) is a function of (seed, stream, t).
    s1 = StepStream(99, 3, per_step=2)
    forward = [s1.values(t).copy() for t in range(3000)]
    s2 = StepStream(99, 3, per_step=2)
    backward = [s2.values(t).copy() for t in reversed(range(3000))]
    for t in range(3000):
        assert np.array_equal(forward[t], backward[2999 - t])


def test_step_stream_block_boundary():
    s = StepStream(5, 0, per_step=1, block=4)
    vals = np.array([s.value(t) for t in range(16)])
    # Re-query across block boundaries after cache eviction.
    again = np.array([s.value(t) for t in [15, 3, 8, 0, 12, 7]])
    assert np.array_equal(again, vals[[15, 3, 8, 0, 12, 7]])


def test_step_stream_kinds():
    u = StepStream(11, 2, kind="uniform")
    xs = np.array([u.value(t) for t in range(256)])
    assert np.all((xs >= 0) & (xs < 1))
    n = StepStream(11, 2, kind="normal")
    assert not np.array_equal(xs, np.array([n.value(t) for t in range(256)]))


def test_step_stream_value_is_the_first_draw_of_values():
    # value(t) reads a per-block list; the reference is the per-step formula
    # float(values(t)[0]) on a second stream, over three blocks, in and out
    # of order, for both kinds and with more than one draw per step.
    for kind in ("normal", "uniform"):
        s = StepStream(5, 1, per_step=3, kind=kind, block=8)
        ref = StepStream(5, 1, per_step=3, kind=kind, block=8)
        steps = [*range(24), 23, 7, 16, 8, 0, 15, 9, 22]
        got = [s.value(t) for t in steps]
        assert all(type(v) is float for v in got)
        assert got == [float(ref.values(t)[0]) for t in steps]
