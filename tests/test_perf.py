"""Tests for the repro.perf profiling subsystem.

Three layers:

1. unit tests of :class:`Profiler` / :class:`RunProfile` arithmetic;
2. integration: a profiled anneal attaches a populated profile to its
   result without perturbing the layout;
3. the golden-determinism guard — profiling is *invisible*: identical
   seeds must give bit-identical metrics with profiling on or off.
"""

from __future__ import annotations

import pytest

from repro.core import AnnealerConfig, ScheduleConfig, SimultaneousAnnealer
from repro.core.cost import CostTerms, TermAccumulator
from repro.netlist import tiny
from repro.perf import HOT_SECTIONS, Profiler, RunProfile, maybe_profiler

from conftest import architecture_for


def micro_config(**overrides):
    base = dict(
        seed=3,
        attempts_per_cell=3,
        initial="clustered",
        greedy_rounds=1,
        schedule=ScheduleConfig(
            lambda_=2.0, max_temperatures=8, freeze_patience=2
        ),
    )
    base.update(overrides)
    return AnnealerConfig(**base)


def run_anneal(**overrides):
    netlist = tiny(seed=4, num_cells=32, depth=4)
    arch = architecture_for(netlist, tracks=10, vtracks=5)
    annealer = SimultaneousAnnealer(netlist, arch, micro_config(**overrides))
    return annealer, annealer.run()


def comparable_metrics(result):
    """Result metrics minus the one legitimately nondeterministic field."""
    return {k: v for k, v in result.metrics().items() if k != "wall_time_s"}


class TestProfiler:
    def test_counters_accumulate(self):
        prof = Profiler()
        prof.count("moves")
        prof.count("moves", 4)
        prof.count("nets_ripped", 2)
        assert prof.counters == {"moves": 5, "nets_ripped": 2}

    def test_add_time_accumulates_and_counts_calls(self):
        prof = Profiler()
        prof.add_time("repair", 0.5)
        prof.add_time("repair", 0.25)
        prof.add_time("timing", 1.0)
        assert prof.section_s["repair"] == pytest.approx(0.75)
        assert prof.section_calls == {"repair": 2, "timing": 1}

    def test_section_context_manager_times(self):
        prof = Profiler()
        with prof.section("cost"):
            pass
        assert prof.section_calls["cost"] == 1
        assert prof.section_s["cost"] >= 0.0

    def test_maybe_profiler(self):
        assert maybe_profiler(False) is None
        assert isinstance(maybe_profiler(True), Profiler)

    def test_finish_freezes_snapshot(self):
        prof = Profiler()
        prof.add_time("repair", 2.0)
        prof.count("moves", 10)
        profile = prof.finish(wall_time_s=4.0, moves_attempted=10,
                              moves_accepted=7)
        prof.count("moves", 90)  # must not leak into the frozen profile
        assert profile.counters["moves"] == 10
        assert profile.moves_per_sec == pytest.approx(2.5)
        assert profile.section_fraction("repair") == pytest.approx(0.5)
        assert profile.section_fraction("absent") == 0.0


class TestRunProfile:
    def test_zero_wall_time_is_safe(self):
        profile = RunProfile(wall_time_s=0.0, moves_attempted=0,
                             moves_accepted=0)
        assert profile.moves_per_sec == 0.0
        assert profile.mean_nets_journaled == 0.0
        assert profile.section_fraction("repair") == 0.0

    def test_mean_nets_journaled(self):
        profile = RunProfile(wall_time_s=1.0, moves_attempted=4,
                             moves_accepted=2,
                             counters={"nets_journaled": 10})
        assert profile.mean_nets_journaled == pytest.approx(2.5)

    def test_as_dict_round_trips_to_json_types(self):
        profile = RunProfile(wall_time_s=2.0, moves_attempted=8,
                             moves_accepted=3,
                             section_s={"repair": 1.0},
                             section_calls={"repair": 8},
                             counters={"moves": 8})
        data = profile.as_dict()
        assert data["moves_per_sec"] == pytest.approx(4.0)
        assert data["section_s"] == {"repair": 1.0}
        assert data["counters"] == {"moves": 8}

    def test_format_lists_hot_sections_in_order(self):
        profile = RunProfile(
            wall_time_s=1.0, moves_attempted=1, moves_accepted=1,
            section_s={name: 0.1 for name in HOT_SECTIONS},
            section_calls={name: 1 for name in HOT_SECTIONS},
        )
        text = profile.format()
        positions = [text.index(name) for name in HOT_SECTIONS]
        assert positions == sorted(positions)


class TestMeanTermsExactness:
    def test_mean_terms_keeps_fractional_unrouted_counts(self):
        # Regression: int() truncation of the unrouted means silently
        # biased weight recalibration (3 samples averaging 1.67 -> 1).
        acc = TermAccumulator()
        acc.add(CostTerms(1, 2, 1.0))
        acc.add(CostTerms(2, 3, 2.0))
        acc.add(CostTerms(2, 0, 3.0))
        mean = acc.mean_terms()
        assert mean.global_unrouted == pytest.approx(5 / 3)
        assert mean.detail_unrouted == pytest.approx(5 / 3)
        assert mean.worst_delay == pytest.approx(2.0)


@pytest.fixture(scope="module")
def profiled_outcome():
    return run_anneal(profile=True)


class TestProfiledAnneal:
    def test_profile_attached_and_populated(self, profiled_outcome):
        _, result = profiled_outcome
        profile = result.profile
        assert profile is not None
        assert profile.moves_attempted == result.moves_attempted
        assert profile.moves_accepted == result.moves_accepted
        assert profile.counters["moves"] == result.moves_attempted
        for name in ("ripup", "repair", "timing", "cost"):
            assert profile.section_calls.get(name, 0) > 0
        assert profile.moves_per_sec > 0

    def test_profile_off_by_default(self):
        _, result = run_anneal()
        assert result.profile is None

    def test_format_is_printable(self, profiled_outcome):
        _, result = profiled_outcome
        text = result.profile.format()
        assert "moves/s" in text
        assert "repair" in text


class TestGoldenDeterminism:
    """The profiler must be invisible to results."""

    def test_profile_does_not_perturb_results(self):
        _, plain = run_anneal(profile=False)
        _, profiled = run_anneal(profile=True)
        assert comparable_metrics(plain) == comparable_metrics(profiled)

    def test_routing_state_consistent(self):
        annealer, result = run_anneal()
        assert annealer.audit() == []
        assert result.fully_routed
