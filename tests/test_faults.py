"""The fault-injection layer: deterministic sampling, device integration.

Two invariants anchor everything here:

* **Fault-free purity** — fault sampling never touches the simulation's
  main RNG, so runs without an active :class:`FaultConfig` are
  byte-identical to runs from before the fault layer existed.
* **Seeded reproducibility** — a fault plan is a pure function of
  ``(fault seed, fault kind, line coordinate)``, so two runs of the same
  faulty spec agree bit-for-bit.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import FaultConfig, ConfigError
from repro.core import schemes
from repro.errors import FaultInjectionError
from repro.experiments import common
from repro.faults import FaultPlan, build_plan
from repro.perf.cellspec import cache_key, simulate_cell

from .golden import LIGHT_FAULTS, STRESS_FAULTS

SMALL = dict(length=120, cores=2)

STRESS = dataclasses.replace(STRESS_FAULTS, seed=3)
LIGHT = dataclasses.replace(LIGHT_FAULTS, seed=3)

KEYS = [(0, 0, 0), (0, 3, 1), (1, 17, 0), (3, 200, 1)]


def faulty_cell(bench="mcf", scheme=None, faults=STRESS, **kwargs):
    params = {**SMALL, **kwargs}
    return common.cell(bench, scheme or schemes.baseline(),
                       faults=faults, **params)


def payload(result) -> dict:
    return dataclasses.asdict(result)


class TestFaultConfig:
    def test_defaults_are_inactive(self):
        assert not FaultConfig().active

    def test_rates_make_it_active(self):
        assert FaultConfig(stuck_cells_per_line=0.1).active
        assert FaultConfig(drift_flip_prob=0.1).active
        assert FaultConfig(ecp_entry_failure_prob=0.1).active

    @pytest.mark.parametrize("stuck", [0.0, 0.1])
    @pytest.mark.parametrize("drift", [0.0, 0.1])
    @pytest.mark.parametrize("ecp", [0.0, 0.1])
    def test_active_iff_some_rate_is_positive(self, stuck, drift, ecp):
        config = FaultConfig(stuck_cells_per_line=stuck, drift_flip_prob=drift,
                             ecp_entry_failure_prob=ecp)
        assert config.active == (stuck > 0 or drift > 0 or ecp > 0)
        if config.active:
            assert isinstance(build_plan(config), FaultPlan)
        else:
            assert build_plan(config) is None
            with pytest.raises(FaultInjectionError):
                FaultPlan(config)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultConfig(stuck_cells_per_line=-1.0)
        with pytest.raises(ConfigError):
            FaultConfig(drift_flip_prob=1.5)
        with pytest.raises(ConfigError):
            FaultConfig(ecp_entry_failure_prob=-0.1)

    def test_plan_requires_enabled_config(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(FaultConfig())


class TestFaultPlan:
    def test_stuck_profile_is_deterministic(self):
        a, b = FaultPlan(STRESS), FaultPlan(STRESS)
        for key in KEYS:
            assert a.stuck_profile(key) == b.stuck_profile(key)

    def test_stuck_profile_is_memoised(self):
        plan = FaultPlan(STRESS)
        assert plan.stuck_profile(KEYS[0]) is plan.stuck_profile(KEYS[0])

    def test_seed_changes_the_pattern(self):
        a = FaultPlan(STRESS)
        b = FaultPlan(dataclasses.replace(STRESS, seed=STRESS.seed + 1))
        assert any(
            a.stuck_profile(key) != b.stuck_profile(key) for key in KEYS
        )

    def test_values_are_a_subset_of_mask(self):
        plan = FaultPlan(STRESS)
        for key in KEYS:
            profile = plan.stuck_profile(key)
            assert profile.values & ~profile.mask == 0
            assert profile.count == profile.mask.bit_count()

    def test_dead_entries_bounded_and_deterministic(self):
        a, b = FaultPlan(STRESS), FaultPlan(STRESS)
        for key in KEYS:
            dead = a.dead_entries(key, 6)
            assert 0 <= dead <= 6
            assert dead == b.dead_entries(key, 6)
        with pytest.raises(FaultInjectionError):
            a.dead_entries(KEYS[0], -1)

    def test_drift_replays_identically_across_plans(self):
        vulnerable = (1 << 300) - 1
        a, b = FaultPlan(STRESS), FaultPlan(STRESS)
        key = KEYS[0]
        seq_a = [a.drift_mask(key, vulnerable) for _ in range(5)]
        seq_b = [b.drift_mask(key, vulnerable) for _ in range(5)]
        assert seq_a == seq_b
        # Successive epochs draw fresh samples, not one frozen mask.
        assert len(set(seq_a)) > 1
        for mask in seq_a:
            assert mask & ~vulnerable == 0

    def test_inactive_kinds_sample_nothing(self):
        plan = FaultPlan(FaultConfig(drift_flip_prob=0.5))
        assert plan.stuck_profile(KEYS[0]).mask == 0
        assert plan.dead_entries(KEYS[0], 6) == 0


class TestDeviceIntegration:
    def test_fault_free_counters_stay_zero(self):
        result = simulate_cell(common.cell("mcf", schemes.lazyc(), **SMALL))
        c = result.counters
        assert c.fault_stuck_cells == 0
        assert c.fault_dead_ecp_entries == 0
        assert c.drift_flips == 0
        assert c.ecp_exhausted_lines == 0
        assert c.uncorrectable_bits == 0

    def test_zero_rate_config_is_byte_identical_to_fault_free(self):
        plain = simulate_cell(common.cell("mcf", schemes.lazyc(), **SMALL))
        gated = simulate_cell(faulty_cell(scheme=schemes.lazyc(),
                                          faults=FaultConfig(seed=7)))
        assert payload(plain) == payload(gated)

    def test_faulty_run_is_deterministic(self):
        first = simulate_cell(faulty_cell())
        second = simulate_cell(faulty_cell())
        assert payload(first) == payload(second)

    def test_stress_exercises_every_fault_path(self):
        """The acceptance property: ECP exhaustion genuinely fires."""
        c = simulate_cell(faulty_cell()).counters
        assert c.fault_stuck_cells > 0
        assert c.fault_dead_ecp_entries > 0
        assert c.drift_flips > 0
        assert c.ecp_exhausted_lines >= 1
        assert c.uncorrectable_bits > 0
        assert 0.0 < c.uncorrectable_bits / c.demand_writes

    def test_light_profile_is_gentler_than_stress(self):
        light = simulate_cell(faulty_cell(faults=LIGHT)).counters
        stress = simulate_cell(faulty_cell(faults=STRESS)).counters
        assert light.fault_stuck_cells < stress.fault_stuck_cells
        assert light.uncorrectable_bits <= stress.uncorrectable_bits

    def test_cache_key_covers_fault_knobs(self):
        base = cache_key(faulty_cell())
        assert cache_key(faulty_cell(faults=LIGHT)) != base
        assert cache_key(
            faulty_cell(faults=dataclasses.replace(STRESS, seed=99))
        ) != base
        assert cache_key(common.cell(
            "mcf", schemes.baseline(), **SMALL
        )) != base

