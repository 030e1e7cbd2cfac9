"""The stacked splitmix64 draws against a scalar reference written in the
tests (splitmix_reference): every point, every stream's state and its
cached normal after the draw, bit for bit, including the rejection
branches reached from crafted states."""

import numpy as np
import pytest

from tcpkit._rng import SplitMix64, _sphere_stack, _uniform_stack
from tcpkit.fixtures import random_tensor
from tcpkit.tensor import unit_tensor

from splitmix_reference import INC, MASK, Stream, mix, unmix


def twin(state: int, cache: float | None = None):
    """A package stream and a reference stream at the same state and cache."""
    s = SplitMix64(0)
    s._state, s._gauss_cache = state & MASK, cache
    return s, Stream(state, cache)


def zero_output_at(j: int) -> int:
    """A state whose j-th next output is 0, so its j-th uniform() is 0.0."""
    return (unmix(0) - j * INC) & MASK


def quarter_u2_state() -> int:
    """A state whose second uniform() is exactly 0.25: its first normal is
    r cos(pi / 2), about 1e-16."""
    return (unmix(1 << 62) - 2 * INC) & MASK


def test_mixer_inverse():
    for z in (0, 1, 1 << 62, MASK, 0x0123456789ABCDEF):
        assert mix(unmix(z)) == z


def test_crafted_states_reach_the_rejection_branches():
    ref = Stream(zero_output_at(1))
    assert ref.uniform() == 0.0
    ref = Stream(quarter_u2_state())
    ref.uniform()
    assert ref.uniform() == 0.25
    ref = Stream(quarter_u2_state())
    assert abs(ref.normal()) < 1e-12
    assert Stream(quarter_u2_state()).on_sphere(1) == [1.0]  # rejected, then the cached sine


@pytest.mark.parametrize("k", [1, 2, 3, 8, 10, 27])
def test_on_sphere_sums_its_squares_in_order(k):
    # the reference adds the squares one after another; a pairwise or a
    # compensated sum (the builtin sum since Python 3.12) changes the last bit
    for seed in range(200):
        s, ref = twin(seed)
        for _ in range(3):
            assert s.on_sphere(k) == ref.on_sphere(k)
        assert (s._state, s._gauss_cache) == (ref.state, ref.cache)


@pytest.mark.parametrize("m, n", [(3, 2), (3, 3), (3, 4), (4, 3)])
def test_copositive_shift_sums_in_order(m, n):
    # the reference adds the |entries| one after another, as the fixture
    # draws them; the builtin sum compensates since Python 3.12, which would
    # move the shift of about half of these draws by an ulp
    for seed in range(200):
        ref, total = Stream(seed), 0.0
        for _ in range(n ** m):
            total += abs(ref.uniform(-2.0, 2.0))
        shift = (total + 1.0) * n ** (m - 1)
        expected = random_tensor("general", m, n, seed) + unit_tensor(m, n).scale(shift)
        assert random_tensor("copositive", m, n, seed) == expected


def crafted_stack():
    """Ordinary streams with and without a cached normal, mixed with streams
    whose first, second or fourth u1 is 0, one whose first normal is about
    1e-16, and one whose cached normal is tiny (a k = 2 sphere then rejects
    [cache, r cos(pi / 2)])."""
    states = [(3, None), (4, 0.75), (zero_output_at(1), None), (zero_output_at(1), -1.25),
              (zero_output_at(3), None), (zero_output_at(7), 0.5), (quarter_u2_state(), None),
              (quarter_u2_state(), 1e-300), (2**64 - 1, None), (12345, -2.0)]
    pairs = [twin(state, cache) for state, cache in states]
    return [s for s, _ in pairs], [ref for _, ref in pairs]


@pytest.mark.parametrize("reps, k", [(1, 1), (3, 1), (1, 2), (4, 2), (1, 3), (2, 5), (1, 27)])
def test_sphere_stack_matches_scalar_draws(reps, k):
    streams, refs = crafted_stack()
    got = _sphere_stack(streams, reps, k)
    assert got.shape == (len(refs), reps, k)
    for row, ref in zip(got, refs):
        assert row.tolist() == [ref.on_sphere(k) for _ in range(reps)]
    assert [(s._state, s._gauss_cache) for s in streams] == [(r.state, r.cache) for r in refs]


def test_interleaved_stacked_draws_carry_state_and_cache():
    # an odd sphere leaves a cached normal; a uniform draw keeps it, and the
    # next sphere starts from it, as in the openness probe's cone jitter
    streams, refs = crafted_stack()
    for reps, k, lo, hi in ((1, 27, 0.0, 1.0), (1, 3, -1.0, 1.0), (4, 2, 0.0, 1.0),
                            (1, 1, -1.0, 1.0), (2, 3, 0.0, 2.0)):
        spheres = _sphere_stack(streams, reps, k)
        uniforms = _uniform_stack(streams, 2, lo, hi)
        for sphere, u, ref in zip(spheres, uniforms, refs):
            assert sphere.tolist() == [ref.on_sphere(k) for _ in range(reps)]
            assert u.tolist() == [ref.uniform(lo, hi) for _ in range(2)]
    assert [(s._state, s._gauss_cache) for s in streams] == [(r.state, r.cache) for r in refs]


def test_spawned_streams_match_the_reference():
    rng, ref = twin(2024)
    streams = [rng.spawn(t + 1) for t in range(6)]
    refs = [ref.spawn(t + 1) for t in range(6)]
    got = _sphere_stack(streams, 1, 10)[:, 0]
    assert got.tolist() == [r.on_sphere(10) for r in refs]
    assert np.all(np.abs(np.linalg.norm(got, axis=1) - 1.0) < 1e-15)
    assert _uniform_stack(streams, 1)[:, 0].tolist() == [r.uniform() for r in refs]


def test_empty_stack_draws_nothing():
    assert _sphere_stack([], 1, 3).shape == (0, 1, 3)
    assert _uniform_stack([], 2).shape == (0, 2)
