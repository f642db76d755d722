"""``compsim.rng.substream`` is numpy's ``SeedSequence`` spawn-key derivation."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from compsim import rng
from compsim.errors import ConfigurationError

NAMED_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 1)  # one, one, two and three entropy words

keys = st.one_of(
    st.builds(lambda i: (rng.TRIAL, i), st.integers(0, 2**40)),
    st.builds(lambda d: (rng.DROP, d), st.integers(0, 2**64 - 1)),
    st.builds(lambda t: (rng.REDRAW, t), st.integers(0, 2**40)),
    st.builds(lambda label: (rng.TRAINING, 8, 6, label), st.integers(0, 2**32 - 1)),
    st.builds(lambda user: (rng.APPENDIX, 1, user), st.integers(0, 1)),
)


@settings(max_examples=40, deadline=None)
@given(master_seed=st.one_of(st.sampled_from(NAMED_SEEDS), st.integers(0, 2**130)), key=keys)
@example(master_seed=2**64 + 1, key=(rng.TRIAL, 255))
@example(master_seed=2**32, key=(rng.TRAINING, 8, 6, 2**32 - 1))
def test_states_and_draws_match_seed_sequence(master_seed, key):
    expected = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(master_seed, spawn_key=key)))
    gen = rng.substream(master_seed, *key)
    assert gen.bit_generator.state == expected.bit_generator.state
    assert np.array_equal(gen.standard_normal(3), expected.standard_normal(3))


def test_complex_normal_pairs_one_standard_normal_draw():
    z = rng.complex_normal(rng.substream(5, rng.TRIAL, 0), (3, 2))
    pairs = rng.substream(5, rng.TRIAL, 0).standard_normal((3, 2, 2))
    assert z.shape == (3, 2)
    assert np.array_equal(z, pairs[..., 0] + 1j * pairs[..., 1])


def test_negative_seed_rejected():
    with pytest.raises(ConfigurationError, match="master seed"):
        rng.substream(-1, rng.TRIAL, 0)
    with pytest.raises(ConfigurationError, match="keys"):
        rng.substream(5, rng.DROP, -3)
