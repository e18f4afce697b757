"""Tests for the simultaneous place-and-route annealer.

These are the heaviest tests in the suite; they run the full engine on
small circuits with reduced-effort configs.
"""

import dataclasses

import pytest

from repro.core import (
    AnnealerConfig,
    ScheduleConfig,
    SimultaneousAnnealer,
    fast_config,
)
from repro.netlist import tiny, validate

from conftest import architecture_for


def micro_config(seed=0):
    """Smallest sensible effort for unit tests."""
    return AnnealerConfig(
        seed=seed,
        attempts_per_cell=3,
        initial="clustered",
        greedy_rounds=1,
        schedule=ScheduleConfig(
            lambda_=2.0, max_temperatures=15, freeze_patience=2
        ),
    )


@pytest.fixture(scope="module")
def anneal_outcome():
    netlist = tiny(seed=4, num_cells=32, depth=4)
    assert validate(netlist) == []
    arch = architecture_for(netlist, tracks=10, vtracks=5)
    annealer = SimultaneousAnnealer(netlist, arch, micro_config(seed=3))
    result = annealer.run()
    return netlist, annealer, result


class TestConfig:
    def test_invalid_attempts(self):
        with pytest.raises(ValueError):
            AnnealerConfig(attempts_per_cell=0)

    def test_invalid_initial(self):
        with pytest.raises(ValueError):
            AnnealerConfig(initial="best")


class TestRun:
    def test_reaches_full_routing(self, anneal_outcome):
        _, _, result = anneal_outcome
        assert result.fully_routed
        assert result.terms.global_unrouted == 0
        assert result.terms.detail_unrouted == 0

    def test_audits_clean_after_run(self, anneal_outcome):
        _, annealer, _ = anneal_outcome
        assert annealer.audit() == []

    def test_placement_stays_complete(self, anneal_outcome):
        _, _, result = anneal_outcome
        assert result.placement.is_complete()

    def test_moves_counted(self, anneal_outcome):
        _, _, result = anneal_outcome
        assert result.moves_attempted > 0
        assert 0 < result.moves_accepted <= result.moves_attempted

    def test_dynamics_recorded(self, anneal_outcome):
        _, _, result = anneal_outcome
        assert len(result.dynamics) == result.temperatures
        assert result.dynamics.converged_to_full_routing()

    def test_metrics_keys(self, anneal_outcome):
        _, _, result = anneal_outcome
        metrics = result.metrics()
        for key in (
            "worst_delay_ns",
            "fully_routed",
            "moves_attempted",
            "temperatures",
            "total_antifuses",
        ):
            assert key in metrics

    def test_worst_delay_matches_timing_engine(self, anneal_outcome):
        _, _, result = anneal_outcome
        assert result.worst_delay == pytest.approx(
            result.timing.worst_delay()
        )

    def test_routing_state_consistent(self):
        # An 8-temperature schedule also ends fully routed and clean.
        netlist = tiny(seed=4, num_cells=32, depth=4)
        arch = architecture_for(netlist, tracks=10, vtracks=5)
        config = dataclasses.replace(
            micro_config(seed=3),
            schedule=ScheduleConfig(
                lambda_=2.0, max_temperatures=8, freeze_patience=2
            ),
        )
        annealer = SimultaneousAnnealer(netlist, arch, config)
        result = annealer.run()
        assert annealer.audit() == []
        assert result.fully_routed


class TestDeterminism:
    def test_same_seed_same_result(self):
        netlist = tiny(seed=6, num_cells=28, depth=3)
        arch = architecture_for(netlist, tracks=10, vtracks=5)
        a = SimultaneousAnnealer(netlist, arch, micro_config(seed=5)).run()
        netlist_b = tiny(seed=6, num_cells=28, depth=3)
        arch_b = architecture_for(netlist_b, tracks=10, vtracks=5)
        b = SimultaneousAnnealer(netlist_b, arch_b, micro_config(seed=5)).run()
        assert a.worst_delay == pytest.approx(b.worst_delay)
        assert a.moves_attempted == b.moves_attempted
        assert a.moves_accepted == b.moves_accepted


class TestOptimization:
    def test_improves_over_initial_layout(self):
        """The anneal must beat the routed-clustered starting point on
        the weighted objective (fewer unrouted nets and/or less delay)."""
        from repro.place import clustered_placement
        from repro.route import IncrementalRouter, RoutingState
        from repro.timing import analyze
        import random

        netlist = tiny(seed=8, num_cells=36, depth=4)
        arch = architecture_for(netlist, tracks=8, vtracks=5)

        fabric = arch.build()
        placement = clustered_placement(netlist, fabric, random.Random(7))
        state = RoutingState(placement)
        IncrementalRouter(state).route_all_from_scratch()
        initial_unrouted = state.count_detail_unrouted()
        initial_delay = analyze(state, arch.technology).worst_delay

        result = SimultaneousAnnealer(netlist, arch, micro_config(seed=7)).run()
        final_unrouted = result.terms.detail_unrouted
        assert (final_unrouted, result.worst_delay) < (
            initial_unrouted,
            initial_delay,
        )

    def test_fast_config_factory(self):
        config = fast_config(seed=11)
        assert config.seed == 11
        assert config.attempts_per_cell < AnnealerConfig().attempts_per_cell
