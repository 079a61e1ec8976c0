"""Tests for the algorithm families: bitops, hashing, SIMD compare/reduce."""

import pytest
from hypothesis import given, strategies as st

from repro.core.algorithms.bitops import BitOps, soft_ffs, soft_fls, soft_popcnt
from repro.core.algorithms.hashing import HashAlgos, crc_hash32, fast_hash32
from repro.core.algorithms.simd import SimdOps
from repro.datastructs import BloomFilter, CountMinSketch
from repro.datastructs.dary_cuckoo import DaryCuckooTable
from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


def rt_for(mode):
    return BpfRuntime(mode=mode, seed=1)


class TestSoftBitops:
    @given(U64)
    def test_ffs_matches_reference(self, x):
        if x == 0:
            assert soft_ffs(x) == 0
        else:
            assert soft_ffs(x) == (x & -x).bit_length()
            assert x >> (soft_ffs(x) - 1) & 1 == 1

    @given(U64)
    def test_fls_matches_bit_length(self, x):
        assert soft_fls(x) == x.bit_length()

    @given(U64)
    def test_popcnt_matches_bin_count(self, x):
        assert soft_popcnt(x) == bin(x).count("1")

    def test_known_values(self):
        assert soft_ffs(0b1000) == 4
        assert soft_fls(0b1000) == 4
        assert soft_ffs(1) == 1
        assert soft_ffs(1 << 63) == 64


class TestBitOpsCosts:
    def test_hw_cheaper_than_soft(self):
        ebpf, kern = rt_for(ExecMode.PURE_EBPF), rt_for(ExecMode.KERNEL)
        BitOps(ebpf).ffs(0xF0)
        BitOps(kern).ffs(0xF0)
        assert kern.cycles.total < ebpf.cycles.total

    def test_enetstl_close_to_kernel(self):
        enet, kern = rt_for(ExecMode.ENETSTL), rt_for(ExecMode.KERNEL)
        BitOps(enet).ffs(0xF0)
        BitOps(kern).ffs(0xF0)
        # Leaf-call overhead only: a couple of cycles.
        assert 0 < enet.cycles.total - kern.cycles.total <= 3

    def test_results_mode_independent(self):
        for x in (0, 1, 0xFF00, 1 << 63):
            results = {
                BitOps(rt_for(m)).ffs(x)
                for m in (ExecMode.PURE_EBPF, ExecMode.KERNEL, ExecMode.ENETSTL)
            }
            assert len(results) == 1


class TestHashFunctions:
    @given(U64, st.integers(0, 63))
    def test_deterministic(self, key, seed):
        assert fast_hash32(key, seed) == fast_hash32(key, seed)
        assert crc_hash32(key, seed) == crc_hash32(key, seed)

    @given(U64)
    def test_seeds_give_distinct_functions(self, key):
        values = {fast_hash32(key, seed) for seed in range(8)}
        assert len(values) >= 7   # collisions possible but rare

    def test_bytes_and_int_keys_agree(self):
        key = 0xDEADBEEF
        assert fast_hash32(key) == fast_hash32(key.to_bytes(8, "little"))

    def test_distribution_is_roughly_uniform(self):
        width = 64
        buckets = [0] * width
        for key in range(20_000):
            buckets[fast_hash32(key) % width] += 1
        mean = 20_000 / width
        assert all(0.7 * mean < b < 1.3 * mean for b in buckets)

    def test_crc_and_fast_hash_differ(self):
        assert crc_hash32(12345, 0) != fast_hash32(12345, 0)


class TestHashAlgos:
    def test_hash_cnt_updates_counters(self):
        algos = HashAlgos(rt_for(ExecMode.ENETSTL))
        sketch = CountMinSketch(4, 64)
        algos.hash_cnt(sketch, 42)
        cols = sketch.columns(42)
        assert len(cols) == 4
        for row, col in enumerate(cols):
            assert sketch.rows[row][col] == 1

    def test_hash_cnt_returns_the_estimate(self):
        algos = HashAlgos(rt_for(ExecMode.ENETSTL))
        sketch = CountMinSketch(4, 64)
        for n in range(1, 8):
            assert algos.hash_cnt(sketch, 42) == n
        assert sketch.estimate(42) == 7

    def test_hash_setbits_testbits_roundtrip(self):
        algos = HashAlgos(rt_for(ExecMode.KERNEL))
        bloom = BloomFilter(1024, 4)
        algos.hash_setbits(bloom, 7)
        assert algos.hash_testbits(bloom, 7)
        assert not algos.hash_testbits(bloom, 8)

    def test_hash_cmp_finds_needle(self):
        algos = HashAlgos(rt_for(ExecMode.KERNEL))
        table = DaryCuckooTable(d=4, width=32)
        # Plant the key where hash row 2 points.
        table.keys[2][table.cell(2, 9)] = 9
        assert algos.hash_cmp(table, 9) == 2
        assert algos.hash_cmp(table, 888) == -1

    def test_cost_ordering_across_modes(self):
        """eBPF scalar > eNetSTL kfunc > kernel, for an 8-hash update."""
        totals = {}
        for mode in ExecMode:
            rt = rt_for(mode)
            HashAlgos(rt).hash_cnt(CountMinSketch(8, 64), 42)
            totals[mode] = rt.cycles.total
        assert totals[ExecMode.PURE_EBPF] > totals[ExecMode.ENETSTL]
        assert totals[ExecMode.ENETSTL] > totals[ExecMode.KERNEL]

    def test_crc_cheaper_than_scalar_for_single_hash(self):
        enet, ebpf = rt_for(ExecMode.ENETSTL), rt_for(ExecMode.PURE_EBPF)
        HashAlgos(enet).hw_hash_crc(5)
        HashAlgos(ebpf).hw_hash_crc(5)
        assert enet.cycles.total < ebpf.cycles.total

    def test_lowlevel_hash_cnt_same_result_higher_cost(self):
        rt_hi, rt_lo = rt_for(ExecMode.ENETSTL), rt_for(ExecMode.ENETSTL)
        s_hi, s_lo = CountMinSketch(8, 64), CountMinSketch(8, 64)
        hi = HashAlgos(rt_hi).hash_cnt(s_hi, 42)
        lo = HashAlgos(rt_lo).hash_cnt_lowlevel(s_lo, 42)
        assert hi == lo and s_hi.rows == s_lo.rows
        assert rt_lo.cycles.total > rt_hi.cycles.total


class TestSimdOps:
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=40),
           st.integers(0, 1000))
    def test_find_matches_index(self, arr, key):
        simd = SimdOps(rt_for(ExecMode.KERNEL))
        expected = arr.index(key) if key in arr else -1
        assert simd.find(arr, key) == expected

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=40))
    def test_reduce_min_max(self, arr):
        simd = SimdOps(rt_for(ExecMode.KERNEL))
        i_min, v_min = simd.reduce_min(arr)
        i_max, v_max = simd.reduce_max(arr)
        assert v_min == min(arr) and arr[i_min] == v_min
        assert v_max == max(arr) and arr[i_max] == v_max
        assert i_min == arr.index(v_min)

    def test_reduce_empty_rejected(self):
        simd = SimdOps(rt_for(ExecMode.KERNEL))
        with pytest.raises(ValueError):
            simd.reduce_min([])

    def test_simd_beats_scalar_on_8_items(self):
        ebpf, kern = rt_for(ExecMode.PURE_EBPF), rt_for(ExecMode.KERNEL)
        arr = list(range(8))
        SimdOps(ebpf).find(arr, 7)
        SimdOps(kern).find(arr, 7)
        assert kern.cycles.total < ebpf.cycles.total

    def test_fused_skips_call_overhead(self):
        a, b = rt_for(ExecMode.ENETSTL), rt_for(ExecMode.ENETSTL)
        arr = list(range(8))
        SimdOps(a).find(arr, 3)
        SimdOps(b).find(arr, 3, fused=True)
        assert a.cycles.total - b.cycles.total == a.costs.kfunc_call

    def test_lowlevel_same_result_much_higher_cost(self):
        hi, lo = rt_for(ExecMode.ENETSTL), rt_for(ExecMode.ENETSTL)
        arr = list(range(8))
        assert SimdOps(hi).find(arr, 5) == SimdOps(lo).find_lowlevel(arr, 5)
        # Fig. 6: the per-instruction interface erases most of the win.
        assert lo.cycles.total > 2 * hi.cycles.total

    def test_batching_scales_with_array_size(self):
        small, large = rt_for(ExecMode.KERNEL), rt_for(ExecMode.KERNEL)
        SimdOps(small).find(list(range(8)), -1, fused=True)
        SimdOps(large).find(list(range(64)), -1, fused=True)
        assert large.cycles.total == 8 * small.cycles.total
