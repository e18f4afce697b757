"""Unit tests for the global (feedthrough) router."""

import pytest

from repro.place import clustered_placement
from repro.route import (
    RoutingState,
    column_scan_order,
    global_route_all,
    ripup_order,
    route_net_global,
)


@pytest.fixture
def state(tiny_netlist, tiny_arch, rng):
    placement = clustered_placement(tiny_netlist, tiny_arch.build(), rng)
    return RoutingState(placement)


class TestColumnScanOrder:
    def test_center_first(self):
        assert list(column_scan_order(3, 7)) == [3, 2, 4, 1, 5, 0, 6]

    def test_edge_center(self):
        assert list(column_scan_order(0, 4)) == [0, 1, 2, 3]

    def test_covers_all_columns_once(self):
        order = list(column_scan_order(5, 13))
        assert sorted(order) == list(range(13))

    def test_out_of_range_center_clamped(self):
        assert list(column_scan_order(99, 3)) == [2, 1, 0]
        assert list(column_scan_order(-5, 3)) == [0, 1, 2]


class TestRouteNetGlobal:
    def test_single_channel_net_trivial(self, state):
        single = next(r for r in state.routes if not r.needs_vertical)
        assert route_net_global(state, single.net_index)
        assert single.vertical is None
        assert single.net_index not in state.unrouted_global

    def test_multi_channel_net_claims_vertical(self, state):
        multi = next(r for r in state.routes if r.needs_vertical)
        assert route_net_global(state, multi.net_index)
        claim = multi.vertical
        assert claim is not None
        assert claim.cmin == multi.cmin
        assert claim.cmax == multi.cmax

    def test_trunk_near_bbox_center(self, state):
        multi = next(r for r in state.routes if r.needs_vertical)
        assert route_net_global(state, multi.net_index)
        center = (multi.xmin + multi.xmax) // 2
        # The trunk is the *nearest feasible* column; with empty fabric
        # the center itself must be feasible.
        assert multi.vertical.column == center

    def test_already_routed_is_noop(self, state):
        multi = next(r for r in state.routes if r.needs_vertical)
        assert route_net_global(state, multi.net_index)
        claim = multi.vertical
        assert route_net_global(state, multi.net_index)
        assert multi.vertical is claim

    @staticmethod
    def _block_middle_channel(state):
        """Occupy a middle vertical segment of every column; return the
        multi-channel nets spanning it, none of which can find a free
        covering run anywhere."""
        fabric = state.fabric
        blocker = state.netlist.num_nets + 1000
        mid = fabric.num_channels // 2
        for vcolumn in fabric.vcolumns:
            for track in range(vcolumn.num_tracks):
                candidate = vcolumn._channel.candidate_on(track, mid, mid)
                if candidate is not None:
                    vcolumn._channel.claim(blocker, candidate, mid, mid)
        spanning = [
            r for r in state.routes
            if r.needs_vertical and r.cmin <= mid <= r.cmax
        ]
        assert spanning, "expected a net spanning the blocked channel"
        return spanning

    def test_exhausted_columns_fail(self, state):
        for route in self._block_middle_channel(state):
            assert not route_net_global(state, route.net_index)
            assert route.net_index in state.unrouted_global

    def test_incoherent_column_masks_raise(self, state):
        route = self._block_middle_channel(state)[0]
        # Column 0 now reads free in the masks but has no candidate: a
        # broken invariant, not a column to skip.
        for row in state.fabric.column_masks.masks:
            for seg in range(len(row)):
                row[seg] &= ~1
        with pytest.raises(RuntimeError, match="incoherent"):
            route_net_global(state, route.net_index)


class TestGlobalRouteAll:
    def test_routes_everything_on_empty_fabric(self, state):
        failed = global_route_all(state)
        assert failed == []
        assert state.count_global_unrouted() == 0

    def test_ripup_order_longest_first(self, state):
        nets = [r.net_index for r in state.routes]
        order = ripup_order(state, nets)
        lengths = [
            (state.routes[i].xmax - state.routes[i].xmin)
            + 0.5 * (state.routes[i].cmax - state.routes[i].cmin)
            for i in order
        ]
        assert lengths == sorted(lengths, reverse=True)
        # Equal lengths order by net index whatever the input order.
        assert len(set(lengths)) < len(lengths)
        for unsorted in (nets[::-1], set(nets)):
            assert ripup_order(state, unsorted) == order
        for i in range(len(order) - 1):
            if lengths[i] == lengths[i + 1]:
                assert order[i] < order[i + 1]

    def test_subset_only(self, state):
        multis = [r.net_index for r in state.routes if r.needs_vertical]
        chosen = multis[:2]
        global_route_all(state, chosen)
        for net_index in chosen:
            assert state.routes[net_index].globally_routed
        for net_index in multis[2:]:
            assert not state.routes[net_index].globally_routed
