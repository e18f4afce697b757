"""Tests for the rip-up/repair engine and its undo journal.

The journal's bit-exact rollback is what makes routing-in-the-loop
annealing sound; these tests hammer it directly.
"""

import random

import pytest

from repro.place import clustered_placement, random_placement
from repro.route import (
    IncrementalRouter,
    NetJournal,
    RoutingState,
    global_route_all,
    route_channel,
)

from conftest import architecture_for


def snapshot_occupancy(state):
    """Full occupancy fingerprint of the fabric (for exactness checks)."""
    horizontal = tuple(
        tuple(
            tuple(
                channel.owner_of(track, seg)
                for seg in range(len(channel.segmentation.tracks[track]))
            )
            for track in range(channel.num_tracks)
        )
        for channel in state.fabric.channels
    )
    vertical = tuple(
        tuple(
            tuple(
                vc._channel.owner_of(track, seg)
                for seg in range(len(vc.segmentation.tracks[track]))
            )
            for track in range(vc.num_tracks)
        )
        for vc in state.fabric.vcolumns
    )
    routes = tuple(
        (route.vertical, tuple(sorted(route.claims.items())))
        for route in state.routes
    )
    return horizontal, vertical, routes


@pytest.fixture
def routed_state(tiny_netlist, tiny_arch, rng):
    placement = clustered_placement(tiny_netlist, tiny_arch.build(), rng)
    state = RoutingState(placement)
    IncrementalRouter(state).route_all_from_scratch()
    return state


class TestRouteAllFromScratch:
    def test_complete_on_generous_fabric(self, routed_state):
        assert routed_state.is_complete()
        assert routed_state.check_consistency() == []

    def test_idempotent(self, routed_state):
        router = IncrementalRouter(routed_state)
        router.route_all_from_scratch()
        assert routed_state.is_complete()
        assert routed_state.check_consistency() == []


class TestRipUpRepairCycle:
    def test_rip_and_repair_single_net(self, routed_state):
        router = IncrementalRouter(routed_state)
        net = next(r for r in routed_state.routes if r.needs_vertical).net_index
        router.rip_up_nets([net])
        assert not routed_state.routes[net].fully_routed
        router.refresh_nets([net])
        router.repair()
        assert routed_state.routes[net].fully_routed
        assert routed_state.check_consistency() == []

    def test_repair_touches_reported_nets(self, routed_state):
        router = IncrementalRouter(routed_state)
        nets = [r.net_index for r in routed_state.routes[:3]]
        router.rip_up_nets(nets)
        router.refresh_nets(nets)
        touched = router.repair()
        assert set(nets) <= touched


class TestJournalRollback:
    def test_rollback_restores_occupancy_exactly(self, routed_state):
        router = IncrementalRouter(routed_state)
        before = snapshot_occupancy(routed_state)
        journal = NetJournal(routed_state)
        nets = [r.net_index for r in routed_state.routes[:4]]
        router.rip_up_nets(nets, journal)
        router.refresh_nets(nets)
        router.repair(journal)
        journal.restore_all()
        assert snapshot_occupancy(routed_state) == before
        assert routed_state.check_consistency() == []

    def test_rollback_after_placement_change(self, routed_state, rng):
        """Rip, move a cell, repair, then undo the move and roll back."""
        router = IncrementalRouter(routed_state)
        placement = routed_state.placement
        netlist = placement.netlist
        before = snapshot_occupancy(routed_state)

        cell = next(c for c in netlist.cells if c.slot_class == "logic")
        nets = list(netlist.nets_of_cell(cell.index))
        slot_a = placement.slot_of(cell.index)
        empties = [
            s
            for s in placement.fabric.slots_of_kind("logic")
            if placement.cell_at(s) is None
        ]
        slot_b = empties[0] if empties else None
        if slot_b is None:
            pytest.skip("fabric is full")

        journal = NetJournal(routed_state)
        router.rip_up_nets(nets, journal)
        placement.swap_slots(slot_a, slot_b)
        router.refresh_nets(nets)
        router.repair(journal)

        placement.swap_slots(slot_a, slot_b)  # undo the move first
        journal.restore_all()
        assert snapshot_occupancy(routed_state) == before
        assert routed_state.check_consistency() == []

    def test_snapshot_first_wins(self, routed_state):
        journal = NetJournal(routed_state)
        net = routed_state.routes[0].net_index
        journal.snapshot(net)
        original = journal._snapshots[net]
        routed_state.rip_up(net)
        journal.snapshot(net)  # must not overwrite
        assert journal._snapshots[net] is original

    def test_rollback_covers_bystander_nets(self, tiny_netlist, tiny_arch):
        """A net that only becomes routable mid-transaction must also be
        rolled back (the paper's Figure-3 'net 6' situation)."""
        rng = random.Random(99)
        placement = random_placement(tiny_netlist, tiny_arch.build(), rng)
        state = RoutingState(placement)
        router = IncrementalRouter(state)
        router.route_all_from_scratch()
        before = snapshot_occupancy(state)
        # Rip up EVERY net on some cell and repair; repair also retries
        # any unroutable bystanders.
        cell = tiny_netlist.cells[0]
        nets = list(tiny_netlist.nets_of_cell(cell.index))
        journal = NetJournal(state)
        router.rip_up_nets(nets, journal)
        router.refresh_nets(nets)
        router.repair(journal)
        journal.restore_all()
        assert snapshot_occupancy(state) == before


class TestRandomizedTransactions:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_many_random_ripup_rollback_cycles(self, tiny_netlist, tiny_arch, seed):
        """Stress: random rip-up sets, half rolled back, half committed;
        consistency must hold throughout."""
        rng = random.Random(seed)
        placement = random_placement(tiny_netlist, tiny_arch.build(), rng)
        state = RoutingState(placement)
        router = IncrementalRouter(state)
        router.route_all_from_scratch()
        all_nets = [r.net_index for r in state.routes]
        for iteration in range(30):
            nets = rng.sample(all_nets, k=rng.randint(1, 4))
            journal = NetJournal(state)
            before = snapshot_occupancy(state)
            router.rip_up_nets(nets, journal)
            router.refresh_nets(nets)
            router.repair(journal)
            if iteration % 2 == 0:
                journal.restore_all()
                assert snapshot_occupancy(state) == before
            assert state.check_consistency() == [], f"iteration {iteration}"


def exhaustive_drain(state, journal=None):
    """Repair without the negative caches: attempt every pending net.

    The attempt order is :meth:`IncrementalRouter.repair`'s: the global
    queue, then each dirty channel's queue in channel order.  Every
    pending net is journaled first, since any of them may gain a claim.
    """
    if journal is not None:
        pending = set(state.unrouted_global)
        for channel in state.dirty_channels:
            pending |= state.unrouted_detail[channel]
        for net_index in sorted(pending):
            journal.snapshot(net_index)
    global_route_all(state)
    for channel in sorted(state.dirty_channels):
        route_channel(state, channel)


def assert_same_routing(cached, exhaustive):
    for a, b in zip(cached.routes, exhaustive.routes):
        assert a.vertical == b.vertical, f"net {a.net_index} vertical"
        assert a.claims == b.claims, f"net {a.net_index} claims"
    planes = zip(
        cached.fabric.channels
        + [vc._channel for vc in cached.fabric.vcolumns],
        exhaustive.fabric.channels
        + [vc._channel for vc in exhaustive.fabric.vcolumns],
    )
    for a, b in planes:
        assert a._word == b._word
    assert cached.check_consistency() == []
    assert exhaustive.check_consistency() == []


class TestCachedRepairMatchesExhaustiveDrain:
    """The negative caches skip only attempts that would fail, so cached
    repair commits exactly the claims an exhaustive drain commits."""

    @pytest.mark.parametrize("vtracks,seed", [(6, 0), (6, 1), (1, 2)])
    def test_same_claims_after_every_step(self, tiny_netlist, vtracks, seed):
        # 6 tracks leave most nets unroutable in detail; one vertical
        # track makes global routing fail too.
        arch = architecture_for(tiny_netlist, tracks=6, vtracks=vtracks)
        states = [
            RoutingState(clustered_placement(
                tiny_netlist, arch.build(), random.Random(seed)
            ))
            for _ in range(2)
        ]
        cached, exhaustive = states
        router = IncrementalRouter(cached)
        router.route_all_from_scratch()
        exhaustive_drain(exhaustive)
        assert_same_routing(cached, exhaustive)
        assert not cached.is_complete()

        rng = random.Random(seed)
        netlist = tiny_netlist
        slots = cached.fabric.slots_of_kind("logic")
        for step in range(40):
            # Move a placed logic cell to another logic slot, swapping
            # with its occupant if any.
            slot_a = rng.choice(
                [slot for slot in slots if cached.placement.cell_at(slot) is not None]
            )
            slot_b = rng.choice([slot for slot in slots if slot != slot_a])
            nets = set()
            for slot in (slot_a, slot_b):
                cell = cached.placement.cell_at(slot)
                if cell is not None:
                    nets.update(netlist.nets_of_cell(cell))
            journals = [NetJournal(state) for state in states]
            for state, journal in zip(states, journals):
                state_router = IncrementalRouter(state)
                state_router.rip_up_nets(nets, journal)
                state.placement.swap_slots(slot_a, slot_b)
                state_router.refresh_nets(nets)
            router.repair(journals[0])
            exhaustive_drain(exhaustive, journals[1])
            assert_same_routing(cached, exhaustive)
            if step % 2:
                for state, journal in zip(states, journals):
                    state.placement.swap_slots(slot_a, slot_b)
                    journal.restore_all()
                assert_same_routing(cached, exhaustive)
