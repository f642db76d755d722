"""The block seeding of ``compsim.rng`` is numpy's ``SeedSequence``, key by key."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from compsim import rng
from compsim.errors import ConfigurationError

NAMED_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 1)  # one, one, two and three entropy words

prefixes = st.one_of(
    st.just((rng.TRIAL,)),
    st.just((rng.DROP,)),
    st.builds(lambda label: (rng.TRAINING, 8, 6, label), st.integers(0, 2**32 - 1)),
    st.builds(lambda user: (rng.APPENDIX, 1, user), st.integers(0, 1)),
)
indices = st.one_of(
    st.builds(lambda first, count: range(first, first + count),
              st.integers(0, 2**40), st.integers(0, 300)),
    st.lists(st.integers(0, 2**64 - 1), max_size=8),  # one- and two-word indices
)


@settings(max_examples=60, deadline=None)
@given(master_seed=st.one_of(st.sampled_from(NAMED_SEEDS), st.integers(0, 2**130)),
       prefix=prefixes, keys=indices)
@example(master_seed=2**64 + 1, prefix=(rng.TRIAL,), keys=range(0, 256))
@example(master_seed=2**32, prefix=(rng.TRAINING, 8, 6, 2**32 - 1), keys=[2**32 - 1, 2**32])
def test_states_and_draws_match_seed_sequence(master_seed, prefix, keys):
    states = rng.seed_states(master_seed, prefix, keys)
    gens = rng.substreams(master_seed, prefix, keys)
    assert states.shape == (len(keys), 4) and states.dtype == np.uint64
    assert len(gens) == len(keys)
    for index, state, gen in zip(keys, states, gens):
        seq = np.random.SeedSequence(master_seed, spawn_key=prefix + (index,))
        assert np.array_equal(state, seq.generate_state(4, np.uint64))
        first = np.random.default_rng(seq).standard_normal(3)
        assert np.array_equal(gen.standard_normal(3), first)
        assert np.array_equal(rng.substream(master_seed, *prefix, index).standard_normal(3), first)


def test_negative_seed_rejected():
    with pytest.raises(ConfigurationError, match="master seed"):
        rng.substream(-1, rng.TRIAL, 0)
    with pytest.raises(ConfigurationError, match="master seed"):
        rng.substreams(-5, (rng.DROP,), range(3))
