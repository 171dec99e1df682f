import numpy as np

from occam_rrm.rng import StepStream, derive_seed, scalars, substream


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
    # Draw order must not matter: at(t) is a function of (seed, stream, t).
    s1 = StepStream(99, 3, per_step=2)
    forward = [s1.at(t).copy() for t in range(3000)]
    s2 = StepStream(99, 3, per_step=2)
    backward = [s2.at(t).copy() for t in reversed(range(3000))]
    for t in range(3000):
        assert np.array_equal(forward[t], backward[2999 - t])


def test_step_stream_block_boundary():
    s = StepStream(5, 0, per_step=1, block=4, table=scalars)
    vals = np.array([s.at(t) for t in range(24)])
    # Re-query across block boundaries after cache eviction: the cache keeps
    # 4 of the 6 blocks.
    steps = [23, 3, 8, 0, 12, 7, 20]
    again = np.array([s.at(t) for t in steps])
    assert np.array_equal(again, vals[steps])


def test_step_stream_kinds():
    u = StepStream(11, 2, kind="uniform", table=scalars)
    xs = np.array([u.at(t) for t in range(256)])
    assert np.all((xs >= 0) & (xs < 1))
    n = StepStream(11, 2, kind="normal", table=scalars)
    assert not np.array_equal(xs, np.array([n.at(t) for t in range(256)]))


def test_step_stream_scalars_are_the_first_draw_of_each_step():
    # the scalars table is a per-block list; the reference is the per-step
    # formula float(at(t)[0]) on a raw second stream, over three blocks, in
    # and out of order, for both kinds and with more than one draw per step.
    for kind in ("normal", "uniform"):
        s = StepStream(5, 1, per_step=3, kind=kind, block=8, table=scalars)
        ref = StepStream(5, 1, per_step=3, kind=kind, block=8)
        steps = [*range(24), 23, 7, 16, 8, 0, 15, 9, 22]
        got = [s.at(t) for t in steps]
        assert all(type(v) is float for v in got)
        assert got == [float(ref.at(t)[0]) for t in steps]


def test_step_stream_builds_each_block_s_table_once():
    calls = []

    def table(first_step, draws):
        calls.append(first_step)
        assert not draws.flags.writeable
        return draws * 2.0

    s = StepStream(5, 1, per_step=2, block=8, table=table)
    ref = StepStream(5, 1, per_step=2, block=8)
    for t in range(24):
        assert np.array_equal(s.at(t), 2.0 * ref.at(t))
    assert calls == [0, 8, 16]
