"""Unit tests for repro.route.state (NetRoute / RoutingState)."""

import pytest

from repro.route import (
    IncrementalRouter,
    RoutingState,
    route_net_global,
    route_net_in_channel,
)
from repro.place import clustered_placement


@pytest.fixture
def state(tiny_netlist, tiny_arch, rng):
    placement = clustered_placement(tiny_netlist, tiny_arch.build(), rng)
    return RoutingState(placement)


class TestGeometry:
    def test_initial_geometry_populated(self, state):
        for route in state.routes:
            assert route.pin_channels
            assert route.cmin <= route.cmax
            assert route.xmin <= route.xmax

    def test_single_channel_net_trivially_global(self, state):
        singles = [r for r in state.routes if not r.needs_vertical]
        for route in singles:
            assert route.globally_routed
            assert route.vertical is None

    def test_multi_channel_net_needs_vertical(self, state):
        multis = [r for r in state.routes if r.needs_vertical]
        assert multis, "expected at least one multi-channel net"
        for route in multis:
            assert not route.globally_routed
            assert route.net_index in state.unrouted_global

    def test_requirements_need_global_route(self, state):
        multi = next(r for r in state.routes if r.needs_vertical)
        with pytest.raises(RuntimeError, match="no global route"):
            multi.requirements()

    def test_requirements_include_trunk(self, state):
        multi = next(r for r in state.routes if r.needs_vertical)
        assert route_net_global(state, multi.net_index)
        trunk = multi.vertical.column
        for channel, (lo, hi) in multi.requirements().items():
            assert lo <= trunk <= hi
            pins = multi.pin_channels[channel]
            assert lo <= min(pins) and hi >= max(pins)

    def test_queue_key_follows_geometry(self, state):
        router = IncrementalRouter(state)
        router.repair()
        nets = [route.net_index for route in state.routes[:5]]
        router.rip_up_nets(nets)
        router.refresh_nets(nets)
        assert state.check_consistency() == []
        state.queue_key[nets[0]] += 1
        problems = state.check_consistency()
        assert any(
            "queue-key" in p and f"net {nets[0]} " in p for p in problems
        )

    def test_refresh_with_claims_rejected(self, state):
        multi = next(r for r in state.routes if r.needs_vertical)
        route_net_global(state, multi.net_index)
        with pytest.raises(RuntimeError, match="rip it up"):
            state.refresh_geometry(multi.net_index)


class TestCounters:
    def test_initial_counts(self, state):
        num_nets = state.netlist.num_nets
        assert state.count_detail_unrouted() == num_nets
        assert 0 < state.count_global_unrouted() <= num_nets
        assert not state.is_complete()

    def test_counts_drop_after_routing(self, state):
        router = IncrementalRouter(state)
        router.repair()
        assert state.count_global_unrouted() == 0
        assert state.count_detail_unrouted() < state.netlist.num_nets

    def test_counter_matches_bruteforce(self, state):
        IncrementalRouter(state).repair()
        assert state.check_consistency() == []

    def test_fully_routed_fraction(self, state):
        assert state.fully_routed_fraction() == 0.0
        IncrementalRouter(state).repair()
        assert 0 < state.fully_routed_fraction() <= 1.0


class TestRipUp:
    def test_rip_up_frees_segments(self, state):
        router = IncrementalRouter(state)
        router.repair()
        routed = next(r for r in state.routes if r.fully_routed and r.needs_vertical)
        fabric = state.fabric
        h_used_before = sum(ch.segments_used() for ch in fabric.channels)
        state.rip_up(routed.net_index)
        h_used_after = sum(ch.segments_used() for ch in fabric.channels)
        assert h_used_after < h_used_before
        assert routed.vertical is None
        assert routed.claims == {}
        assert not routed.fully_routed

    def test_rip_up_restores_queues(self, state):
        IncrementalRouter(state).repair()
        routed = next(r for r in state.routes if r.fully_routed)
        state.rip_up(routed.net_index)
        for channel in routed.pin_channels:
            assert routed.net_index in state.unrouted_detail[channel]

    def test_rip_up_idempotent_on_unrouted(self, state):
        net = state.routes[0].net_index
        state.rip_up(net)
        state.rip_up(net)  # must not raise
        assert state.check_consistency() == []


class TestAntifuseAccounting:
    def test_total_antifuses_counts_pins(self, state):
        IncrementalRouter(state).repair()
        total = state.total_antifuses()
        pins = sum(net.num_terminals for net in state.netlist.nets)
        assert total >= pins  # at least one cross antifuse per pin

    def test_route_antifuse_fields(self, state):
        IncrementalRouter(state).repair()
        for route in state.routes:
            if not route.fully_routed:
                continue
            assert route.horizontal_antifuses() >= 0
            assert route.vertical_antifuses() >= 0
            assert route.cross_antifuses() >= sum(
                len(cols) for cols in route.pin_channels.values()
            )


class TestCommitGuards:
    def test_double_vertical_commit_rejected(self, state):
        multi = next(r for r in state.routes if r.needs_vertical)
        assert route_net_global(state, multi.net_index)
        claim = multi.vertical
        with pytest.raises(RuntimeError, match="already has"):
            state.commit_vertical(multi.net_index, claim)

    def test_double_detail_commit_rejected(self, state):
        single = next(r for r in state.routes if not r.needs_vertical)
        channel = next(iter(single.pin_channels))
        assert route_net_in_channel(state, single.net_index, channel)
        claim = single.claims[channel]
        with pytest.raises(RuntimeError, match="already routed"):
            state.commit_detail(single.net_index, claim)


class TestCacheBookAudit:
    def test_doctored_entries_are_reported(self, state):
        singles = [r for r in state.routes if not r.needs_vertical]
        honest, doctored = singles[0], singles[1]
        channel = next(iter(honest.pin_channels))
        state.note_detail_failure(
            honest.net_index, channel, *honest.requirements()[channel]
        )
        assert state.check_consistency() == []
        # A wrong interval in a channel the net is pending in, and an
        # entry in a channel it is not pending in.
        pending = next(iter(doctored.pin_channels))
        lo, hi = doctored.requirements()[pending]
        state.note_detail_failure(doctored.net_index, pending, lo, hi + 1)
        elsewhere = next(
            c for c in range(state.fabric.num_channels)
            if c not in doctored.pin_channels
        )
        state.note_detail_failure(doctored.net_index, elsewhere, 0, 1)
        problems = state.check_consistency()
        assert len(problems) == 2
        assert any(f"needs {[lo, hi]}" in problem for problem in problems)
        assert any("is not pending there" in problem for problem in problems)

    def test_doctored_global_entry_is_reported(self, state):
        multi = next(r for r in state.routes if r.needs_vertical)
        state.note_global_failure(multi.net_index, multi.cmin, multi.cmax)
        assert state.check_consistency() == []
        state.note_global_failure(multi.net_index, multi.cmin, multi.cmax + 1)
        problems = state.check_consistency()
        assert len(problems) == 1
        assert f"spans {[multi.cmin, multi.cmax]}" in problems[0]
