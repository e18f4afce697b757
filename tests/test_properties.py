"""Property-based tests (hypothesis) on core data structures and invariants."""

import random
from functools import lru_cache

import pytest

from hypothesis import given, settings, strategies as st

from repro.arch import (
    Channel,
    FabricSpec,
    Technology,
    custom_segmentation,
    generate_palette,
    mixed_segmentation,
    uniform_segmentation,
)
from repro.netlist import CircuitSpec, generate, tiny, validate
from repro.place import clustered_placement
from repro.route import (
    DEFAULT_SEGMENT_WEIGHT,
    RoutingState,
    column_scan_order,
    route_net_global,
)
from repro.timing import RCTree
from repro.timing.estimator import estimate_by_position

from conftest import architecture_for


@lru_cache(maxsize=None)
def _tiny_arch(tracks, vtracks):
    netlist = tiny(seed=1)
    return netlist, architecture_for(netlist, tracks=tracks, vtracks=vtracks)


def _unrouted_state(tracks=6, vtracks=6):
    """A routing state on a fresh fabric: nothing claimed, no caches."""
    netlist, arch = _tiny_arch(tracks, vtracks)
    return RoutingState(
        clustered_placement(netlist, arch.build(), random.Random(0))
    )


class TestSegmentationProperties:
    @given(
        width=st.integers(min_value=1, max_value=200),
        tracks=st.integers(min_value=1, max_value=40),
        seg_len=st.integers(min_value=1, max_value=50),
    )
    def test_uniform_always_tiles(self, width, tracks, seg_len):
        seg = uniform_segmentation(width, tracks, seg_len)
        assert seg.num_tracks == tracks
        for track in seg.tracks:
            position = 0
            for start, end in track:
                assert start == position and end > start
                position = end
            assert position == width

    @given(
        width=st.integers(min_value=1, max_value=200),
        tracks=st.integers(min_value=1, max_value=40),
    )
    def test_mixed_always_tiles(self, width, tracks):
        seg = mixed_segmentation(width, tracks)
        assert seg.num_tracks == tracks
        total = sum(end - start for track in seg.tracks for start, end in track)
        assert total == width * tracks

    @given(
        width=st.integers(min_value=2, max_value=100),
        tracks=st.integers(min_value=1, max_value=20),
        new_tracks=st.integers(min_value=1, max_value=40),
    )
    def test_with_tracks_preserves_validity(self, width, tracks, new_tracks):
        seg = mixed_segmentation(width, tracks).with_tracks(new_tracks)
        assert seg.num_tracks == new_tracks


def _strict_min(candidates, key):
    """The first candidate with the least ``key``, in iteration order."""
    best = None
    for candidate in candidates:
        if best is None or key(candidate) < key(best):
            best = candidate
    return best


class TestChannelProperties:
    @settings(max_examples=50)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        width=st.integers(min_value=4, max_value=60),
        tracks=st.integers(min_value=1, max_value=10),
    )
    def test_claim_release_never_corrupts(self, seed, width, tracks):
        """Random interleaved claims and releases keep occupancy exact."""
        rng = random.Random(seed)
        channel = Channel(0, mixed_segmentation(width, tracks))
        live: dict[int, object] = {}
        net_counter = 0
        for _ in range(30):
            if live and rng.random() < 0.4:
                net, claim = live.popitem()
                channel.release(net, claim)
            else:
                lo = rng.randrange(width)
                hi = rng.randrange(lo, width)
                candidates = list(channel.candidates(lo, hi))
                if not candidates:
                    continue
                candidate = rng.choice(candidates)
                net_counter += 1
                live[net_counter] = channel.claim(net_counter, candidate, lo, hi)
        # Invariant: owners are exactly the live claims' segments.
        owned = {}
        for track in range(channel.num_tracks):
            for seg in range(len(channel.segmentation.tracks[track])):
                owner = channel.owner_of(track, seg)
                if owner is not None:
                    owned.setdefault(owner, []).append((track, seg))
        assert set(owned) == set(live)
        for net, claim in live.items():
            expected = [
                (claim.track, s)
                for s in range(claim.first_seg, claim.last_seg + 1)
            ]
            assert sorted(owned[net]) == expected

    @settings(max_examples=50)
    @given(
        width=st.integers(min_value=2, max_value=60),
        data=st.data(),
    )
    def test_candidate_covers_interval(self, width, data):
        channel = Channel(0, mixed_segmentation(width, 6))
        lo = data.draw(st.integers(min_value=0, max_value=width - 1))
        hi = data.draw(st.integers(min_value=lo, max_value=width - 1))
        for candidate in channel.candidates(lo, hi):
            segments = channel.segmentation.tracks[candidate.track]
            assert segments[candidate.first_seg][0] <= lo
            assert segments[candidate.last_seg][1] >= hi + 1
            assert candidate.wastage == candidate.used_length - (hi - lo + 1)
            assert candidate.wastage >= 0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_scans_match_generic_reference(self, data):
        """Both table scans pick what a strict-``<`` scan over
        ``candidates`` in track order picks, under dense occupancy."""
        width = data.draw(st.integers(min_value=1, max_value=30), label="width")
        cuts = st.lists(
            st.integers(min_value=1, max_value=max(1, width - 1)), max_size=8
        )
        # No tracks at all is allowed: the packed test must then answer
        # None, like the empty candidate set.
        boundaries = data.draw(
            st.lists(cuts if width > 1 else st.just([]), max_size=8),
            label="boundaries",
        )
        if width > 1 and boundaries and data.draw(st.booleans(), label="fine"):
            # One track cut at every column sets the packed word's field
            # size; the others are shorter.
            fine = data.draw(
                st.integers(min_value=0, max_value=len(boundaries) - 1),
                label="fine_track",
            )
            boundaries[fine] = list(range(1, width))
        other = data.draw(st.sampled_from([0.0, 0.5, 1.0, 10.0]), label="weight")
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=10_000)))
        channel = Channel(0, custom_segmentation(width, boundaries))
        live = []
        for step in range(120):
            # Claims outnumber releases, so fully blocked intervals are
            # common; every fourth query asks for the full width.
            lo = rng.randrange(width)
            hi = rng.randrange(lo, width)
            if step % 4 == 3:
                lo, hi = 0, width - 1
            candidates = list(channel.candidates(lo, hi))
            for weight in (DEFAULT_SEGMENT_WEIGHT, other):
                got = channel.best_weighted(lo, hi, weight)
                assert got == _strict_min(
                    candidates, lambda c: c.wastage + weight * c.num_segments
                )
                assert (got is None) == (not candidates)
            got = channel.best_tight(lo, hi)
            assert got == _strict_min(
                candidates, lambda c: (c.wastage, c.num_segments)
            )
            assert (got is None) == (not candidates)
            assert channel.all_blocked(lo, hi) == (not candidates)
            if live and rng.random() < 0.3:
                net, claim = live.pop(rng.randrange(len(live)))
                channel.release(net, claim)
            elif candidates:
                live.append(
                    (step, channel.claim(step, rng.choice(candidates), lo, hi))
                )


class TestNegativeCacheProperties:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_detail_hopeless_iff_interval_blocked(self, data):
        """A cached detail failure reads hopeless exactly when the
        channel has no candidate for its interval, whatever claims and
        releases happened since it was recorded."""
        tracks = data.draw(st.integers(min_value=1, max_value=6), label="tracks")
        state = _unrouted_state(tracks=tracks)
        index = data.draw(
            st.integers(min_value=0, max_value=state.fabric.num_channels - 1),
            label="channel",
        )
        channel = state.fabric.channels[index]
        width = channel.width
        lo = data.draw(st.integers(min_value=0, max_value=width - 1), label="lo")
        hi = data.draw(st.integers(min_value=lo, max_value=width - 1), label="hi")
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=10_000)))

        cached = False
        live = []
        for step in range(80):
            blocked = channel.best_weighted(lo, hi, DEFAULT_SEGMENT_WEIGHT) is None
            if cached:
                assert state.detail_attempt_is_hopeless(0, index) == blocked
                # A query that reads False drops the entry.
                cached = blocked
            elif blocked:
                # What a failed attempt records.
                state.note_detail_failure(0, index, lo, hi)
                cached = True
            if live and rng.random() < 0.35:
                # The release path rip-up takes, wakes included.
                state._release_detail(*live.pop(rng.randrange(len(live))))
                continue
            a = rng.randrange(width)
            b = rng.randrange(a, width)
            if rng.random() < 0.3:
                a, b = lo, hi
            candidates = list(channel.candidates(a, b))
            if candidates:
                owner = 1000 + step
                live.append(
                    (owner, channel.claim(owner, rng.choice(candidates), a, b))
                )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_parked_entries_stay_blocked(self, data):
        """After any claim, release, failure and query history, every
        parked failure in either plane is still blocked: no release
        freed one without waking it.  That is what lets repair skip a
        parked net untested."""
        tracks = data.draw(st.integers(min_value=1, max_value=4), label="tracks")
        vtracks = data.draw(st.integers(min_value=1, max_value=3), label="vtracks")
        state = _unrouted_state(tracks=tracks, vtracks=vtracks)
        fabric = state.fabric
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=10_000)))

        def pick(width):
            a = rng.randrange(width)
            return a, rng.randrange(a, width)

        live = []
        for step in range(150):
            net = rng.randrange(8)
            index = rng.randrange(fabric.num_channels)
            horizontal = rng.random() < 0.5
            if horizontal:
                plane = fabric.channels[index]
                a, b = pick(plane.width)
                release = state._release_detail
            else:
                plane = fabric.vcolumns[rng.randrange(fabric.cols)]
                a, b = pick(plane.num_channels)
                release = state._release_vertical
            roll = rng.random()
            if live and roll < 0.25:
                release, owner, claim = live.pop(rng.randrange(len(live)))
                release(owner, claim)
            elif roll < 0.6:
                # Vertical claims often take the span at every column,
                # so spans blocked everywhere are common.
                targets = [plane]
                if not horizontal and rng.random() < 0.5:
                    targets = fabric.vcolumns
                for target in targets:
                    candidates = list(target.candidates(a, b))
                    if candidates:
                        owner = 1000 + step
                        claim = target.claim(owner, rng.choice(candidates), a, b)
                        live.append((release, owner, claim))
            elif roll < 0.85:
                # What a failed attempt records.
                if horizontal and plane.all_blocked(a, b):
                    state.note_detail_failure(net, index, a, b)
                elif not horizontal and not fabric.column_masks.free_columns(a, b):
                    state.note_global_failure(net, a, b)
            elif horizontal:
                state.detail_attempt_is_hopeless(net, index)
            else:
                state.global_attempt_is_hopeless(net)
            for channel, parked in enumerate(state._parked):
                for lo, hi in parked.values():
                    assert not list(fabric.channels[channel].candidates(lo, hi))
            for cmin, cmax in state._parked_global.values():
                assert all(
                    column.best_candidate(cmin, cmax) is None
                    for column in fabric.vcolumns
                )

    def test_net_without_global_route_is_hopeless_in_every_channel(self):
        state = _unrouted_state()
        multis = [route for route in state.routes if route.needs_vertical]
        assert multis
        for route in multis:
            for channel in route.pin_channels:
                assert state.detail_attempt_is_hopeless(route.net_index, channel)
        single = next(route for route in state.routes if not route.needs_vertical)
        for channel in single.pin_channels:
            assert not state.detail_attempt_is_hopeless(single.net_index, channel)
        route = multis[0]
        assert route_net_global(state, route.net_index)
        for channel in route.pin_channels:
            assert not state.detail_attempt_is_hopeless(route.net_index, channel)


class TestRCTreeProperties:
    @settings(max_examples=100)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        nodes=st.integers(min_value=2, max_value=40),
    )
    def test_elmore_monotone_along_paths(self, seed, nodes):
        """Delay never decreases walking away from the root, and all
        delays are non-negative, for arbitrary random RC trees."""
        rng = random.Random(seed)
        tree = RCTree()
        tree.add_node(rng.random())
        for node in range(1, nodes):
            tree.add_node(
                rng.random(),
                parent=rng.randrange(node),
                resistance=rng.random(),
            )
        delays = tree.elmore_delays()
        assert all(d >= 0 for d in delays)
        for node in range(1, nodes):
            assert delays[node] >= delays[tree.parent[node]]

    @settings(max_examples=100)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_subtree_caps_conserve_total(self, seed):
        rng = random.Random(seed)
        tree = RCTree()
        tree.add_node(rng.random())
        for node in range(1, 20):
            tree.add_node(rng.random(), parent=rng.randrange(node),
                          resistance=rng.random())
        totals = tree.subtree_caps()
        assert totals[0] == pytest.approx(sum(tree.cap))


class TestGeneratorProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_cells=st.integers(min_value=30, max_value=150),
        depth=st.integers(min_value=2, max_value=9),
    )
    def test_generated_circuits_always_valid(self, seed, num_cells, depth):
        spec = CircuitSpec("prop", num_cells=num_cells, seed=seed, depth=depth)
        netlist = generate(spec)
        assert netlist.num_cells == num_cells
        assert validate(netlist) == []


class TestPaletteProperties:
    @given(
        num_ports=st.integers(min_value=1, max_value=8),
        sites=st.integers(min_value=4, max_value=8),
        cap=st.integers(min_value=1, max_value=10),
    )
    def test_palettes_always_legal(self, num_ports, sites, cap):
        ports = [f"p{i}" for i in range(num_ports)]
        palette = generate_palette(ports, sites_per_side=sites,
                                   max_alternatives=cap)
        assert 1 <= len(palette) <= cap
        for pinmap in palette:
            assert set(pinmap.ports()) == set(ports)
            assert pinmap.count_on_side("bottom") <= sites
            assert pinmap.count_on_side("top") <= sites


class TestScanOrderProperties:
    @given(
        center=st.integers(min_value=-5, max_value=60),
        columns=st.integers(min_value=1, max_value=50),
    )
    def test_scan_order_is_permutation(self, center, columns):
        order = list(column_scan_order(center, columns))
        assert sorted(order) == list(range(columns))

    @given(
        center=st.integers(min_value=0, max_value=49),
        columns=st.integers(min_value=1, max_value=50),
    )
    def test_scan_order_distance_monotone(self, center, columns):
        center = min(center, columns - 1)
        order = list(column_scan_order(center, columns))
        distances = [abs(col - center) for col in order]
        assert distances == sorted(distances)


class TestColumnMaskProperties:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_nearest_free_is_first_feasible_in_scan_order(self, data):
        cols = data.draw(st.integers(min_value=1, max_value=70), label="cols")
        rows = data.draw(st.integers(min_value=1, max_value=5), label="rows")
        vtracks = data.draw(st.integers(min_value=1, max_value=5), label="vtracks")
        fabric = FabricSpec(
            rows=rows, cols=cols, tracks_per_channel=1,
            vtracks_per_column=vtracks, io_cols=0,
        ).build()
        vcolumns = fabric.vcolumns
        channel = st.integers(min_value=0, max_value=rows)
        column = st.integers(min_value=0, max_value=cols - 1)
        cmin = data.draw(channel, label="cmin")
        cmax = data.draw(st.integers(min_value=cmin, max_value=rows), label="cmax")
        claims = []
        for x, a, b in data.draw(
            st.lists(st.tuples(column, channel, channel), max_size=60),
            label="claims",
        ):
            lo, hi = min(a, b), max(a, b)
            candidate = vcolumns[x].best_candidate(lo, hi)
            if candidate is not None:
                net = len(claims)
                claims.append((net, vcolumns[x].claim(net, candidate, lo, hi)))
        # Wall off one channel, usually inside the span, on every track
        # of all but a few columns, so the span is often blocked at the
        # center and sometimes everywhere.
        wall = data.draw(
            st.integers(min_value=cmin, max_value=cmax) | channel, label="wall"
        )
        center = data.draw(
            st.sampled_from([0, cols - 1]) | column, label="center"
        )
        gaps = data.draw(st.sets(column, max_size=6), label="gaps")
        if data.draw(st.booleans(), label="mirror"):
            # Equidistant gaps on both sides exercise the tie-break.
            gaps |= {2 * center - x for x in gaps if 0 <= 2 * center - x < cols}
        for vcolumn in vcolumns:
            if vcolumn.column not in gaps:
                for track in range(vcolumn.num_tracks):
                    candidate = vcolumn._channel.candidate_on(track, wall, wall)
                    if candidate is not None:
                        vcolumn.claim(-1, candidate, wall, wall)
        for net, claim in claims:
            if data.draw(st.booleans()):
                vcolumns[claim.column].release(net, claim)
        feasible = [
            x for x in column_scan_order(center, cols)
            if vcolumns[x].best_candidate(cmin, cmax) is not None
        ]
        found = fabric.column_masks.nearest_free(cmin, cmax, center)
        assert found == (feasible[0] if feasible else None)
        assert fabric.column_masks.free_columns(cmin, cmax) == sum(
            1 << x for x in feasible
        )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_global_hopeless_iff_no_column_free(self, data):
        """A cached global failure reads hopeless exactly when no column
        can carry its channel span."""
        vtracks = data.draw(st.integers(min_value=1, max_value=3), label="vtracks")
        state = _unrouted_state(vtracks=vtracks)
        fabric = state.fabric
        vcolumns = fabric.vcolumns
        channels = fabric.num_channels
        cmin = data.draw(
            st.integers(min_value=0, max_value=channels - 1), label="cmin"
        )
        cmax = data.draw(
            st.integers(min_value=cmin, max_value=channels - 1), label="cmax"
        )
        center = fabric.cols // 2
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=10_000)))
        cached = False
        live = []
        for step in range(120):
            blocked = fabric.column_masks.nearest_free(cmin, cmax, center) is None
            if cached:
                assert state.global_attempt_is_hopeless(0) == blocked
                cached = blocked
            elif blocked:
                state.note_global_failure(0, cmin, cmax)
                cached = True
            if live and rng.random() < 0.3:
                state._release_vertical(*live.pop(rng.randrange(len(live))))
                continue
            a = rng.randrange(channels)
            b = rng.randrange(a, channels)
            column = rng.randrange(fabric.cols)
            free = [
                x for x in range(fabric.cols)
                if vcolumns[x].best_candidate(cmin, cmax) is not None
            ]
            if free and rng.random() < 0.6:
                # Block the span at a column that can still carry it.
                a, b = cmin, cmax
                column = rng.choice(free)
            candidate = vcolumns[column].best_candidate(a, b)
            if candidate is not None:
                owner = 1000 + step
                live.append(
                    (owner, vcolumns[column].claim(owner, candidate, a, b))
                )


class TestEstimatorProperties:
    @settings(max_examples=60)
    @given(
        xspan=st.integers(min_value=0, max_value=20),
        grow=st.integers(min_value=1, max_value=10),
        cspan=st.integers(min_value=0, max_value=4),
        fanout=st.integers(min_value=1, max_value=8),
    )
    def test_wider_box_never_faster(self, xspan, grow, cspan, fanout):
        from repro.arch import act1_like

        arch = act1_like(8, 60, tracks_per_channel=10)
        fabric = arch.build()
        tech = Technology()
        cmax = min(cspan, fabric.num_channels - 1)
        x_hi = min(xspan, fabric.cols - 1)
        x_hi_wide = min(xspan + grow, fabric.cols - 1)
        narrow = estimate_by_position(0, cmax, 0, x_hi, fanout, fabric, tech)
        wide = estimate_by_position(0, cmax, 0, x_hi_wide, fanout, fabric, tech)
        assert wide >= narrow
