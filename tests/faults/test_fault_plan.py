"""FaultPlan / FaultInjector: validation, determinism, errno mapping."""

import pytest

from repro.faults import (
    ERRNO,
    HELPER,
    MAP_FULL,
    MAP_NOMEM,
    PACKET_KINDS,
    PKT_CORRUPT,
    PKT_DROP,
    PKT_DUP,
    PKT_TRUNCATE,
    RATE_KINDS,
    FaultPlan,
)
from repro.ebpf.maps import MapFullError, MapNoMemError


class TestPlanValidation:
    def test_default_plan_is_inert(self):
        plan = FaultPlan()
        assert not plan.any_rate
        assert plan.crash_point(0) is None
        assert plan.wedge_point(0) is None

    @pytest.mark.parametrize("field", [
        "drop_rate", "corrupt_rate", "truncate_rate", "dup_rate",
        "helper_rate", "map_full_rate", "map_nomem_rate",
    ])
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_rates_must_be_probabilities(self, field, bad):
        with pytest.raises(ValueError):
            FaultPlan(**{field: bad})

    def test_negative_points_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_at=-1)
        with pytest.raises(ValueError):
            FaultPlan(wedge_at=-5)

    def test_uniform_splits_rate_across_kinds(self):
        plan = FaultPlan.uniform(0.06, seed=3)
        rates = plan.rates()
        for kind in (PKT_DROP, PKT_CORRUPT, PKT_TRUNCATE, PKT_DUP,
                     HELPER, MAP_FULL):
            assert rates[kind] == pytest.approx(0.01)
        assert rates[MAP_NOMEM] == 0.0
        assert plan.seed == 3

    def test_uniform_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            FaultPlan.uniform(1.5)

    def test_plans_are_frozen_and_hashable(self):
        plan = FaultPlan.uniform(0.01)
        assert hash(plan) == hash(FaultPlan.uniform(0.01))
        with pytest.raises(Exception):
            plan.seed = 99

    def test_crash_and_wedge_points(self):
        plan = FaultPlan(crash_core=2, crash_at=100, wedge_core=5, wedge_at=7)
        assert plan.crash_point(2) == 100
        assert plan.crash_point(3) is None
        assert plan.wedge_point(5) == 7
        assert plan.wedge_point(2) is None

    def test_negative_core_indices_rejected(self):
        with pytest.raises(ValueError, match="crash_core"):
            FaultPlan(crash_core=-1)
        with pytest.raises(ValueError, match="wedge_core"):
            FaultPlan(wedge_core=-2)

    def test_same_core_crash_and_wedge_rejected(self):
        with pytest.raises(ValueError, match="cannot both crash and wedge"):
            FaultPlan(crash_core=3, wedge_core=3)

    def test_different_cores_may_crash_and_wedge(self):
        plan = FaultPlan(crash_core=0, wedge_core=1)
        assert plan.crash_point(0) == 0
        assert plan.wedge_point(1) == 0

    def test_validate_for_cores_accepts_in_range(self):
        FaultPlan(crash_core=3, wedge_core=1).validate_for_cores(4)
        FaultPlan().validate_for_cores(1)

    @pytest.mark.parametrize("field", ["crash_core", "wedge_core"])
    def test_validate_for_cores_rejects_out_of_range(self, field):
        plan = FaultPlan(**{field: 9})
        with pytest.raises(ValueError, match="nonexistent core"):
            plan.validate_for_cores(8)
        # The message tells the operator what the fleet actually has.
        with pytest.raises(ValueError, match="cores 0..7"):
            plan.validate_for_cores(8)

    def test_validate_for_cores_rejects_bad_fleet(self):
        with pytest.raises(ValueError, match="n_cores"):
            FaultPlan().validate_for_cores(0)

    def test_errno_table_matches_kernel(self):
        assert ERRNO[MAP_FULL] == ("E2BIG", -7)
        assert ERRNO[MAP_NOMEM] == ("ENOMEM", -12)
        assert ERRNO[HELPER] == ("EINVAL", -22)


class TestSeedDeterminism:
    """Satellite: identical seeds -> bit-identical fault schedules."""

    def test_schedule_is_reproducible(self):
        plan = FaultPlan.uniform(0.05, seed=42)
        for kind in RATE_KINDS:
            assert plan.schedule(kind, 5000) == plan.schedule(kind, 5000)

    def test_equal_plans_equal_schedules(self):
        a = FaultPlan.uniform(0.05, seed=42)
        b = FaultPlan.uniform(0.05, seed=42)
        for kind in PACKET_KINDS:
            assert a.schedule(kind, 5000) == b.schedule(kind, 5000)

    def test_different_seed_diverges(self):
        a = FaultPlan.uniform(0.05, seed=42)
        b = FaultPlan.uniform(0.05, seed=43)
        assert any(
            a.schedule(k, 5000) != b.schedule(k, 5000) for k in PACKET_KINDS
        )

    def test_kind_streams_are_decorrelated(self):
        plan = FaultPlan.uniform(0.2, seed=7)
        schedules = [tuple(plan.schedule(k, 2000)) for k in PACKET_KINDS]
        assert len(set(schedules)) == len(schedules)

    def test_core_streams_are_decorrelated(self):
        plan = FaultPlan(drop_rate=0.1, seed=7)
        assert plan.schedule(PKT_DROP, 2000, core=0) != plan.schedule(
            PKT_DROP, 2000, core=1
        )

    def test_injector_matches_schedule(self):
        plan = FaultPlan(drop_rate=0.05, seed=9)
        expected = set(plan.schedule(PKT_DROP, 3000))
        injector = plan.injector()
        fired = {
            i for i in range(3000) if injector.packet_fault() == PKT_DROP
        }
        assert fired == expected
        assert injector.injected[PKT_DROP] == len(expected)

    def test_two_injectors_bit_identical(self):
        plan = FaultPlan.uniform(0.05, seed=11)
        inj_a, inj_b = plan.injector(), plan.injector()
        seq_a = [inj_a.packet_fault() for _ in range(4000)]
        seq_b = [inj_b.packet_fault() for _ in range(4000)]
        assert seq_a == seq_b
        assert inj_a.injected == inj_b.injected

    def test_rate_zero_never_fires(self):
        injector = FaultPlan(seed=5).injector()
        assert all(injector.packet_fault() is None for _ in range(1000))
        assert not injector.helper_fault()
        assert injector.map_update_fault() is None
        assert injector.total_injected == 0

    def test_rate_one_always_fires_with_precedence(self):
        injector = FaultPlan(drop_rate=1.0, corrupt_rate=1.0, seed=1).injector()
        # Drop shadows corrupt: only the highest-precedence kind counts.
        assert all(injector.packet_fault() == PKT_DROP for _ in range(100))
        assert injector.injected[PKT_DROP] == 100
        assert injector.injected[PKT_CORRUPT] == 0


class TestMapFaults:
    def test_map_full_returns_e2big_instance(self):
        injector = FaultPlan(map_full_rate=1.0).injector()
        exc = injector.map_update_fault("flows")
        assert isinstance(exc, MapFullError)
        assert exc.errno == -7
        assert "flows" in str(exc)

    def test_map_nomem_returns_enomem_instance(self):
        injector = FaultPlan(map_nomem_rate=1.0).injector()
        exc = injector.map_update_fault()
        assert isinstance(exc, MapNoMemError)
        assert exc.errno == -12

    def test_full_takes_precedence_over_nomem(self):
        injector = FaultPlan(map_full_rate=1.0, map_nomem_rate=1.0).injector()
        assert isinstance(injector.map_update_fault(), MapFullError)

    def test_describe_reports_ledger(self):
        injector = FaultPlan(drop_rate=1.0, seed=2).injector(core=3)
        injector.packet_fault()
        desc = injector.describe()
        assert desc["core"] == 3
        assert desc["injected"][PKT_DROP] == 1
