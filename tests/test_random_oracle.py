"""dnaprep's random streams against a pure-Python oracle that imports no numpy.random.

The byte contract rests on numpy's ``SeedSequence`` mixing (which
``masking._seed_words`` copies onto uint32 arrays), on the PCG64 bit
generator and on the double transform of ``Generator.random``. This module
writes all three out in Python ints from their published definitions
(numpy's ``bit_generator.pyx``, ``pcg64.h`` and ``distributions.c``;
O'Neill's PCG paper for XSL-RR), so a numpy whose arithmetic or bit
generator changed fails here by name, not only as a golden digest.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnaprep.masking import _RNG_CHUNK, _seed_words, window_rng

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# SeedSequence (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

# PCG64 (numpy/random/src/pcg64/pcg64.h): PCG_DEFAULT_MULTIPLIER_128
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def int_to_words(n):
    """A non-negative int as 32-bit words, least significant first; 0 is one word."""
    assert n >= 0
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def seed_sequence_state(entropy, n_words64=4):
    """``SeedSequence(entropy).generate_state(n_words64, np.uint64)`` as Python ints."""
    entropy = [word for value in entropy for word in int_to_words(value)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = (value ^ hash_const) & _M32
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _M32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state32 = []
    for i in range(2 * n_words64):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        state32.append(value ^ (value >> _XSHIFT))
    # uint32 pairs read as little-endian uint64
    return [state32[2 * j] | state32[2 * j + 1] << 32 for j in range(n_words64)]


class Pcg64:
    """PCG64 (XSL-RR 128/64) seeded as numpy seeds it from four uint64 words."""

    def __init__(self, words):
        initstate = words[0] << 64 | words[1]
        initseq = words[2] << 64 | words[3]
        self.inc = (initseq << 1 | 1) & _M128
        self.state = 0
        self._step()
        self.state = (self.state + initstate) & _M128
        self._step()

    def _step(self):
        self.state = (self.state * _PCG_MULT + self.inc) & _M128

    def next64(self):
        self._step()
        value = ((self.state >> 64) ^ self.state) & _M64
        rot = self.state >> 122
        return (value >> rot | value << (64 - rot)) & _M64

    def random(self, n):
        """``Generator.random(n)``: the top 53 bits of each output over 2**53."""
        return [(self.next64() >> 11) * 2.0**-53 for _ in range(n)]


def oracle_random(master_seed, ordinal, *tag, n):
    return Pcg64(seed_sequence_state((master_seed, ordinal, *tag))).random(n)


_SEEDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96]), st.integers(0, 2**96))
# both sides of chunk edges, below and past 2**32
_EDGE_ORDINALS = [
    edge + step
    for edge in (_RNG_CHUNK, 7 * _RNG_CHUNK, 2**32, 2**32 + _RNG_CHUNK, 2**40)
    for step in (-1, 0, 1)
]
_ORDINALS = st.one_of(st.sampled_from([0, 1, *_EDGE_ORDINALS]), st.integers(0, 2**40))
_TAGS = st.sampled_from([(), (1,)])


class TestSeedWords:
    @given(_SEEDS, _ORDINALS, _TAGS)
    @settings(max_examples=300, deadline=None)
    def test_rows_match_the_oracle(self, seed, ordinal, tag):
        row = _seed_words(seed, ordinal // _RNG_CHUNK, tag)[ordinal % _RNG_CHUNK]
        assert [int(word) for word in row] == seed_sequence_state((seed, ordinal, *tag))

    @pytest.mark.parametrize("chunk", [0, 2**32 // _RNG_CHUNK - 1, 2**32 // _RNG_CHUNK])
    def test_every_row_of_a_chunk(self, chunk):
        table = _seed_words(11, chunk, (1,))
        for row in range(_RNG_CHUNK):
            ordinal = chunk * _RNG_CHUNK + row
            assert [int(word) for word in table[row]] == seed_sequence_state((11, ordinal, 1)), ordinal


class TestWindowRng:
    @given(_SEEDS, _ORDINALS, _TAGS, st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_draws_match_the_oracle(self, seed, ordinal, tag, n):
        assert window_rng(seed, ordinal, *tag).random(n).tolist() == oracle_random(seed, ordinal, *tag, n=n)

    @pytest.mark.parametrize(
        "args, words, draws",
        [
            (
                (0, 0),  # the entropy of default_rng(0) too: missing pool words mix in as 0
                [0xDB2CD7E7B0F478BE, 0xABF4641A2C71BA49, 0x20C6ED6D9D7B8D41, 0x2C4099DE223C39D4],
                [0.6369616873214543, 0.2697867137638703, 0.04097352393619469],
            ),
            (
                (7, 1023),
                [0xBEFD6381D9FFE7E4, 0x4927917F651BE28C, 0x2B24FC88A129A932, 0xC7F192F91FA8201F],
                [0.07753369377344776, 0.763365976162308, 0.7513058463393699],
            ),
            (
                (7, 1024, 1),
                [0xACD8169C9B8C9D85, 0x69971D1D4A736D62, 0xE7C6E0D2130199A8, 0x08D9DC83F56209B3],
                [0.7302235396966116, 0.9594434045058097, 0.7558519601243954],
            ),
            (
                (3, 2**32 + 5, 1),
                [0xCE7CEB9413F2A685, 0xB7B6F428044BDAD3, 0x07C3EB1B78A64271, 0xF331379F66BEECF6],
                [0.2933847144239834, 0.14730484787838782, 0.8976500657236639],
            ),
            (
                (2**64 + 9, 2**40 + 1023),
                [0xA3A6865781223F22, 0xF7A6F4441C7BE3C3, 0xD67DB0AC16899E79, 0x4259628B9FEEE486],
                [0.44419820883757555, 0.13630372841261207, 0.023332762968116816],
            ),
        ],
        ids=["0_0", "7_1023", "7_1024_tag1", "3_past_2**32_tag1", "seed_past_2**64"],
    )
    def test_literal_draws(self, args, words, draws):
        seed, ordinal, *tag = args
        assert seed_sequence_state(args) == words
        assert [int(word) for word in _seed_words(seed, ordinal // _RNG_CHUNK, tuple(tag))[ordinal % _RNG_CHUNK]] == words
        assert window_rng(*args).random(len(draws)).tolist() == draws
        assert oracle_random(*args, n=len(draws)) == draws
