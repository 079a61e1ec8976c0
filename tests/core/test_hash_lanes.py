"""The hash kernels against their references.

``fast_hash32_lanes`` evaluates splitmix64 for many keys inside one
big int (or, below ``LANE_CROSSOVER`` keys, the scalar loop); it must
equal the scalar :func:`fast_hash32` key for key.  The
scalar hashers take ints without the ``_to_int`` call; they must equal
the original formula, which masked the key to 64 bits first.
"""

from hypothesis import given, settings, strategies as st

from repro.core.algorithms.hashing import (
    LANE_CROSSOVER,
    LANES,
    M32,
    M64,
    crc_hash32,
    fast_hash32,
    fast_hash32_lanes,
    fast_hash64,
)

int_keys = st.one_of(
    st.sampled_from([0, 1, -1, M64, 1 << 64, -(1 << 64), (1 << 90) + 3]),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.integers(min_value=0, max_value=M64),
)
seeds = st.one_of(
    st.sampled_from([0, 1, 0xFA017, M64, 1 << 64]),
    st.integers(min_value=0, max_value=1 << 80),
)
lengths = st.sampled_from([0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES + 1])


def _splitmix64(key: int, seed: int) -> int:
    x = ((key & M64) + (seed + 1) * 0x9E3779B97F4A7C15) & M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & M64
    return x ^ (x >> 31)


def _crc(key: int, seed: int) -> int:
    x = ((key & M64) ^ (seed * 0x9E3779B1 + 0x85EBCA77)) & M64
    x = (x * 0xC2B2AE3D27D4EB4F) & M64
    x ^= x >> 29
    x = (x * 0x165667B19E3779F9) & M64
    x ^= x >> 32
    return x & M32


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=lengths, seed=seeds)
def test_lanes_equal_scalar(data, n, seed):
    keys = data.draw(st.lists(int_keys, min_size=n, max_size=n))
    assert fast_hash32_lanes(keys, seed) == [fast_hash32(k, seed) for k in keys]


#: Keys as the callers hand them: u64 header mixes, 104-bit
#: ``Packet.key_int`` values, and negatives (masked to 64 bits).
key_kinds = st.sampled_from([
    st.integers(min_value=0, max_value=M64),
    st.integers(min_value=0, max_value=(1 << 104) - 1),
    st.integers(min_value=-(1 << 70), max_value=-1),
    int_keys,
])


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    n=st.one_of(
        st.integers(min_value=0, max_value=300),
        st.sampled_from([
            LANE_CROSSOVER - 1, LANE_CROSSOVER, LANE_CROSSOVER + 1,
            LANES + LANE_CROSSOVER - 1, LANES + LANE_CROSSOVER,
        ]),
    ),
    seed=seeds,
)
def test_lanes_equal_scalar_at_every_length(data, n, seed):
    """Every length 0..300, on both sides of the crossover (a short
    call, and a long call's short tail block), for narrow, wide, negative
    and mixed keys, including a wide key first met in a later block."""
    kinds = data.draw(st.lists(key_kinds, min_size=1, max_size=3))
    keys = data.draw(
        st.lists(st.one_of(*kinds), min_size=n, max_size=n)
    )
    assert fast_hash32_lanes(keys, seed) == [fast_hash32(k, seed) for k in keys]


def test_wide_key_in_a_later_block_masks_the_rest():
    keys = list(range(LANES)) + [(1 << 100) + 7] + list(range(2 * LANES))
    assert fast_hash32_lanes(keys, 3) == [fast_hash32(k, 3) for k in keys]


def test_lanes_accept_any_sequence():
    keys = range(-3, 2 * LANES)
    assert fast_hash32_lanes(keys, 7) == [fast_hash32(k, 7) for k in keys]
    assert fast_hash32_lanes(tuple(keys), 7) == fast_hash32_lanes(keys, 7)


@settings(max_examples=200, deadline=None)
@given(key=int_keys, seed=seeds)
def test_scalar_int_path_matches_reference(key, seed):
    assert fast_hash64(key, seed) == _splitmix64(key, seed)
    assert fast_hash32(key, seed) == _splitmix64(key, seed) & M32
    assert crc_hash32(key, seed) == _crc(key, seed)


def test_bytes_and_bool_keys_still_fold():
    assert fast_hash32(b"\x05", 3) == fast_hash32(5, 3)
    assert fast_hash64(True) == fast_hash64(1)
    assert crc_hash32(b"backend-0") != crc_hash32(b"backend-1")
