"""Deterministic random-stream derivation.

All randomness in the package flows from one integer master seed. The
substream of key ``(k_1, ..., k_n)`` is the PCG64 generator that
``numpy.random.default_rng(numpy.random.SeedSequence(master_seed,
spawn_key=key))`` returns, so any consumer (a Monte Carlo trial, a user drop,
a codebook training run) can reconstruct its own stream from
``(master_seed, labels...)`` without coordinating with other consumers.
Results are therefore independent of execution order and worker count.

``seed_states`` runs numpy's ``SeedSequence`` hashing (stream-stable under
NEP 19) for a whole range of keys at once, in numpy uint32 arithmetic, and
``substreams`` hands each state to its generator; ``substream`` is the
one-key call. The words of the keys' shared part are mixed once, so a block
of keys costs a few array operations plus one generator construction each.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigurationError

# Stream labels; first element of every spawn key.
TRIAL = 0
DROP = 1
TRAINING = 2
ERROR_ESTIMATE = 3
APPENDIX = 4

# numpy.random.SeedSequence's constants: a pool of four 32-bit words, the
# hash constants of entropy mixing (A) and state generation (B), and the
# multipliers of the word mix.
_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(hash_const: int, mult: int, count: int):
    """The constants that ``count`` successive hashes of SeedSequence xor
    with and multiply by, starting from ``hash_const``, as lists of ints;
    and the hash constant after them."""
    xor, mul = [], []
    for _ in range(count):
        xor.append(hash_const)
        hash_const = (hash_const * mult) & _MASK
        mul.append(hash_const)
    return xor, mul, hash_const


def _hash(value, xor, mul):
    """SeedSequence's hash of ``value`` (a 32-bit int or uint32 array) with
    the given constants."""
    value = ((value ^ xor) * mul) & _MASK
    return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK
    return result ^ (result >> 16)


# The hashes that fill the pool from its first four entropy words, and those
# of state generation, start from fixed constants: derive them once.
_POOL_XOR, _POOL_MUL, _POOL_AFTER = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
_STATE_XOR, _STATE_MUL = (np.array(c, dtype=np.uint32)
                          for c in _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)[:2])


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative integer; [0] for 0."""
    if value < 0:
        raise ConfigurationError("substream keys must be nonnegative")
    words = [value & _MASK]
    while value := value >> 32:
        words.append(value & _MASK)
    return words


def _shared_pool(entropy: list) -> tuple[list, int]:
    """The pool of the entropy words every key shares, in Python ints: the
    first ``_POOL`` words hashed in and mixed into every other, then each
    further word mixed into every pool word; and the hash constant after."""
    constants = zip(_POOL_XOR, _POOL_MUL)
    pool = [_hash(word, *next(constants)) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(constants)))
    hash_const = _POOL_AFTER
    for word in entropy[_POOL:]:
        xor, mul, hash_const = _hash_constants(hash_const, _MULT_A, _POOL)
        pool = [_mix(p, _hash(word, x, m)) for p, x, m in zip(pool, xor, mul)]
    return pool, hash_const


def _absorb(pool: np.ndarray, words: np.ndarray, hash_const: int) -> tuple[np.ndarray, int]:
    """Mix one entropy word beyond the pool's size into the pool words of its
    row: ``pool`` is (rows, 4) or (1, 4), ``words`` (rows,) uint32."""
    xor, mul, hash_const = _hash_constants(hash_const, _MULT_A, _POOL)
    hashed = _hash(words[:, None], np.array(xor, dtype=np.uint32), np.array(mul, dtype=np.uint32))
    return _mix(pool, hashed), hash_const


def seed_states(master_seed: int, prefix, indices) -> np.ndarray:
    """(len(indices), 4) uint64 PCG64 seed states of the keys ``prefix + (i,)``
    for i in ``indices``: row r equals ``SeedSequence(master_seed,
    spawn_key=prefix + (indices[r],)).generate_state(4, np.uint64)``.

    Key entries are nonnegative integers, each index below 2^64.
    """
    if master_seed < 0:
        raise ConfigurationError("master seed must be nonnegative")
    index = np.asarray(indices, dtype=np.uint64).reshape(-1)
    # the seed's words, zero-padded to the pool size as for any nonempty
    # spawn key, then the words of the key prefix: shared by every row
    entropy = _words(master_seed)
    entropy += [0] * (_POOL - len(entropy))
    entropy += [w for k in prefix for w in _words(int(k))]
    pool, hash_const = _shared_pool(entropy)
    pool, after = _absorb(np.array([pool], dtype=np.uint32), (index & _MASK).astype(np.uint32),
                          hash_const)
    high = index >> 32
    if high.any():  # an index of two words absorbs its second word as well
        wide, _ = _absorb(pool, high.astype(np.uint32), after)
        pool = np.where((high != 0)[:, None], wide, pool)
    state = _hash(np.tile(pool, 2), _STATE_XOR, _STATE_MUL)  # word i from pool word i mod 4
    # word pairs as little-endian uint64, as SeedSequence.generate_state does
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """A seed sequence of one precomputed PCG64 seed state."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds one PCG64 seed state: 4 uint64 words")
        return self.state


def substreams(master_seed: int, prefix, indices) -> list[np.random.Generator]:
    """The generators of substreams ``prefix + (i,)`` for i in ``indices``."""
    return [np.random.Generator(np.random.PCG64(_SeedState(state)))
            for state in seed_states(master_seed, prefix, indices)]


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Return the generator for substream ``key`` (nonempty) of ``master_seed``."""
    *prefix, index = key
    return substreams(master_seed, prefix, [index])[0]


def complex_normal(gen: np.random.Generator, shape: tuple) -> np.ndarray:
    """Complex Gaussians of ``shape`` with independent standard normal real
    and imaginary parts, so E{|z|^2} = 2.

    Entry i takes the i-th (re, im) pair of one ``standard_normal`` draw of
    ``shape + (2,)``. That layout is part of the random-stream contract, and
    every complex draw of the package goes through here or through
    ``complex_normal_each``.
    """
    return _pairs(gen.standard_normal(tuple(shape) + (2,)))


def complex_normal_each(gens, shape: tuple) -> np.ndarray:
    """One ``complex_normal`` draw of ``shape`` from each generator of
    ``gens``, stacked along a new leading axis. A generator listed more than
    once draws once per listing, in order."""
    shape = tuple(shape) + (2,)
    return _pairs(np.stack([gen.standard_normal(shape) for gen in gens]))


def _pairs(z: np.ndarray) -> np.ndarray:
    """The trailing (re, im) pairs of C-contiguous float64 ``z`` as complex entries."""
    return z.view(np.complex128)[..., 0]
