"""Unit tests for the cycle-cost model."""

import pytest

from repro.ebpf.cost_model import (
    CPU_HZ,
    Category,
    Cycles,
    DEFAULT_COSTS,
    ExecMode,
    OBSERVATION_CATEGORIES,
    gap,
    improvement,
    processing_time_ns,
    simd_batches,
    throughput_pps,
)


class TestCycles:
    def test_starts_at_zero(self):
        c = Cycles()
        assert c.total == 0
        assert c.breakdown() == {}

    def test_charge_accumulates(self):
        c = Cycles()
        c.charge(10, Category.MULTIHASH)
        c.charge(5, Category.MULTIHASH)
        c.charge(3, Category.PARSE)
        assert c.total == 18
        assert c.breakdown()[Category.MULTIHASH] == 15
        assert c.breakdown()[Category.PARSE] == 3

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            Cycles().charge(-1)

    def test_zero_charge_allowed(self):
        c = Cycles()
        c.charge(0, Category.OTHER)
        assert c.total == 0

    def test_share(self):
        c = Cycles()
        c.charge(30, Category.MULTIHASH)
        c.charge(70, Category.FRAMEWORK)
        assert c.share(Category.MULTIHASH) == pytest.approx(0.3)
        assert c.share(Category.MULTIHASH, Category.FRAMEWORK) == pytest.approx(1.0)

    def test_share_empty_counter(self):
        assert Cycles().share(Category.MULTIHASH) == 0.0

    def test_reset(self):
        c = Cycles()
        c.charge(10, Category.OTHER)
        c.reset()
        assert c.total == 0
        assert c.breakdown() == {}

    def test_snapshot_delta(self):
        c = Cycles()
        c.charge(10, Category.PARSE)
        before = c.snapshot()
        c.charge(7, Category.PARSE)
        c.charge(5, Category.RANDOM)
        delta = before.delta(c.snapshot())
        assert delta.total == 12
        assert delta.by_category == {Category.PARSE: 7, Category.RANDOM: 5}

    def test_snapshot_delta_drops_zero_categories(self):
        c = Cycles()
        c.charge(10, Category.PARSE)
        before = c.snapshot()
        c.charge(4, Category.RANDOM)
        delta = before.delta(c.snapshot())
        assert Category.PARSE not in delta.by_category


class TestCostModel:
    def test_defaults_positive(self):
        for name, value in DEFAULT_COSTS.named().items():
            assert value > 0, f"{name} must be positive"

    def test_scaled_overrides(self):
        scaled = DEFAULT_COSTS.scaled(hash_scalar=99)
        assert scaled.hash_scalar == 99
        assert scaled.map_lookup == DEFAULT_COSTS.map_lookup
        # The original is untouched (frozen dataclass semantics).
        assert DEFAULT_COSTS.hash_scalar != 99

    def test_ordering_invariants(self):
        """The asymmetries the paper's analysis depends on."""
        c = DEFAULT_COSTS
        assert c.kfunc_call < c.helper_call
        assert c.kernel_call < c.kfunc_call
        assert c.hash_crc_hw < c.hash_scalar
        assert c.ffs_hw < c.ffs_soft
        assert c.popcnt_hw < c.popcnt_soft
        assert c.rpool_draw < c.prandom_helper
        assert c.get_next_kernel < c.get_next_kfunc
        assert c.percpu_array_lookup < c.map_lookup
        # One SIMD batch beats 8 scalar compares.
        assert c.simd_load + c.cmp_simd_batch < 8 * c.cmp_scalar_per_item
        # One 8-lane SIMD hash batch beats 8 scalar hashes.
        assert (
            c.hash_simd_setup + 8 * c.hash_simd_lane < 8 * c.hash_scalar
        )


class TestDerivedMetrics:
    def test_throughput(self):
        assert throughput_pps(220) == pytest.approx(10_000_000)
        assert throughput_pps(CPU_HZ) == pytest.approx(1.0)

    def test_throughput_invalid(self):
        with pytest.raises(ValueError):
            throughput_pps(0)

    def test_processing_time(self):
        assert processing_time_ns(2200) == pytest.approx(1000.0)

    def test_improvement(self):
        assert improvement(200, 100) == pytest.approx(1.0)
        assert improvement(150, 100) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            improvement(0, 100)

    def test_gap(self):
        assert gap(100, 125) == pytest.approx(0.2)
        assert gap(100, 100) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            gap(100, 0)

    def test_simd_batches(self):
        assert simd_batches(0) == 0
        assert simd_batches(1) == 1
        assert simd_batches(8) == 1
        assert simd_batches(9) == 2
        assert simd_batches(64, lane_width=8) == 8
        with pytest.raises(ValueError):
            simd_batches(-1)


def test_observation_categories_are_the_six_behaviors():
    assert len(OBSERVATION_CATEGORIES) == 6
    assert Category.PARSE not in OBSERVATION_CATEGORIES
    assert Category.FRAMEWORK not in OBSERVATION_CATEGORIES


def test_exec_mode_labels():
    assert ExecMode.PURE_EBPF.label == "eBPF"
    assert ExecMode.KERNEL.label == "Kernel"
    assert ExecMode.ENETSTL.label == "eNetSTL"
