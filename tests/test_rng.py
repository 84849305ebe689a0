import numpy as np

from vroute.rng import RngStream, gumbel_from_uniform


def test_triple_determines_sequence():
    a = RngStream(123, 456, 7)
    b = RngStream(123, 456, 7)
    for _ in range(3):
        np.testing.assert_array_equal(a.normal((5,)), b.normal((5,)))
    assert a.counter == b.counter == 10


def test_counter_advances_per_draw():
    s = RngStream(1)
    first = s.normal((4,))
    second = s.normal((4,))
    assert not np.array_equal(first, second)


def test_rewound_counter_replays():
    s = RngStream(9, 2)
    first = s.uniform((8,))
    s.counter -= 1
    np.testing.assert_array_equal(first, s.uniform((8,)))


def test_distinct_streams_differ():
    a = RngStream(0, 1).normal((64,))
    b = RngStream(0, 2).normal((64,))
    assert not np.array_equal(a, b)


def test_derive_is_pure_and_stable():
    base = RngStream(5)
    d1 = base.derive("layer", 3)
    d2 = base.derive("layer", 3)
    assert (d1.seed, d1.stream_id, d1.counter) == (d2.seed, d2.stream_id, d2.counter)
    assert base.counter == 0
    assert d1.stream_id != base.derive("layer", 4).stream_id


def test_derive_from_bytes_keyed_by_content():
    base = RngStream(5)
    row = np.array([1.0, 2.0, 3.0])
    a = base.derive_from_bytes(row.tobytes())
    b = base.derive_from_bytes(row.tobytes())
    c = base.derive_from_bytes(np.array([1.0, 2.0, 3.5]).tobytes())
    assert a.stream_id == b.stream_id != c.stream_id


def test_gumbel_draws_are_finite():
    # [0, 1) uniforms include 0; the clamp keeps every Gumbel finite.
    draws = gumbel_from_uniform(np.concatenate(
        [RngStream(7).uniform((100_000,)), [0.0, 1.0]]))
    assert np.isfinite(draws).all()
