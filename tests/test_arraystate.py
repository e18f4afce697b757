"""The flat-array move core: golden trajectory and coherence probes.

The move transaction's shortcuts — the journal's phantom restore and
geometry restore by assignment, delay-cache reuse across moves, the
repair negative caches, dirty-channel repair, and the zero-net move
short-circuit — are all exact, so a run is pinned event for event by
the committed fixture traces in ``tests/data``.  The probes that check
each shortcut against a from-scratch recompute (the sanitizer's
``array-coherence`` rule) are unit-tested here too.
"""

import json

import pytest

from repro.core import AnnealerConfig, ScheduleConfig, SimultaneousAnnealer
from repro.core.arraystate import ArrayState
from repro.flows import run_simultaneous
from repro.netlist import tiny

from conftest import DATA, architecture_for, fixture_generator

#: ``run_start`` manifest fields that legitimately change when config
#: fields or the package version change; everything else in the trace
#: is a function of the seed.
SCRUBBED_MANIFEST = ("config", "config_digest", "package_version")


def _config(seed, sanitize=False):
    return AnnealerConfig(
        seed=seed,
        attempts_per_cell=3,
        initial="clustered",
        greedy_rounds=1,
        sanitize=sanitize,
        schedule=ScheduleConfig(
            lambda_=2.0, max_temperatures=6, freeze_patience=2
        ),
    )


def _anneal(netlist_seed, anneal_seed, **config_kw):
    netlist = tiny(seed=netlist_seed, num_cells=28, depth=4)
    arch = architecture_for(netlist, tracks=10, vtracks=5)
    annealer = SimultaneousAnnealer(
        netlist, arch, _config(anneal_seed, **config_kw)
    )
    result = annealer.run()
    assert annealer.audit() == []
    return annealer, result


def _scrubbed(lines):
    events = [json.loads(line) for line in lines]
    for event in events:
        if event.get("type") == "run_start":
            for key in SCRUBBED_MANIFEST:
                event["manifest"].pop(key, None)
    return events


class TestGoldenTrajectory:
    """The fixture anneals reproduce their committed traces exactly."""

    @pytest.mark.parametrize("seed", [3, 5])
    def test_fixture_anneal_reproduces_committed_trace(self, seed):
        generator = fixture_generator()
        netlist, arch = generator.fixture_design()
        result = run_simultaneous(netlist, arch, generator.sim_config(seed))
        got = _scrubbed(result.extra["trace"].to_jsonl().splitlines())
        committed = _scrubbed(
            (DATA / f"ledger_trace_seed{seed}.jsonl")
            .read_text(encoding="utf-8").splitlines()
        )
        assert len(got) == len(committed)
        for index, (event, expected) in enumerate(zip(got, committed)):
            assert event == expected, (
                f"event {index} ({expected.get('type')}) diverged from the "
                "committed trace; if the trajectory change is intended, "
                "re-baseline with PYTHONPATH=src python "
                "tests/data/make_ledger_fixture.py"
            )


class TestArrayStateWiring:
    def test_probes_clean_after_run(self):
        annealer, result = _anneal(31, 1)
        arrays = ArrayState(result.state, annealer.ctx.timing)
        # Post-run coherence: occupancy masks, claim books, route
        # versions, and timing caches all agree with the object graph.
        assert arrays.check_all() == []
        assert arrays.audit_column_occupancy() == []

    def test_probe_rotates_and_stays_clean(self):
        annealer, result = _anneal(32, 2)
        arrays = ArrayState(result.state, annealer.ctx.timing)
        # The sanitizer probe samples a different slice per move
        # counter; a settled state must be clean at every phase.
        for counter in range(8):
            assert arrays.probe(counter) == []

    def test_probe_detects_occupancy_divergence(self):
        _, result = _anneal(33, 2)
        state = result.state
        arrays = ArrayState(state, None)
        # Flip one unowned segment bit in the occupancy bitmask behind
        # the books' back; the probe must flag the divergence.
        channel = state.fabric.channels[0]
        for track, owners in enumerate(channel._owner):
            for seg, owner in enumerate(owners):
                if owner is None:
                    channel._occ[track] |= 1 << seg
                    problems = arrays.probe_channel(0)
                    assert problems, "divergent occupancy went undetected"
                    assert any("occupancy" in p for p in problems)
                    channel._occ[track] &= ~(1 << seg)
                    assert arrays.probe_channel(0) == []
                    return
        pytest.skip("channel 0 fully occupied")  # pragma: no cover

    def test_probes_detect_packed_word_divergence(self):
        _, result = _anneal(33, 2)
        state = result.state
        arrays = ArrayState(state, None)
        planes = [
            (state.fabric.channels[0], arrays.probe_channel),
            (state.fabric.vcolumns[0]._channel, arrays.probe_vcolumn),
        ]
        for channel, probe in planes:
            field = channel._tables.field
            track, seg = next(
                (track, seg)
                for track, owners in enumerate(channel._owner)
                for seg, owner in enumerate(owners)
                if owner is None
            )
            # Flip a free segment's bit, then its track's guard bit, in
            # the packed word only: the sanitizer probe and the
            # consistency audit must both report each flip.
            for bit in (seg, field - 1):
                flip = 1 << (track * field + bit)
                channel._word ^= flip
                assert any("packed" in p for p in probe(0))
                assert any(
                    "occupancy word" in p for p in state.check_consistency()
                )
                channel._word ^= flip
                assert probe(0) == []
                assert state.check_consistency() == []

    def test_probes_detect_column_mask_divergence(self):
        _, result = _anneal(33, 2)
        state = result.state
        arrays = ArrayState(state, None)
        assert arrays.probe_vcolumn(0) == []
        assert state.check_consistency() == []
        # Flip column 0's bit for one vertical segment behind the books'
        # back: both the sanitizer probe and the consistency audit must
        # report it.
        masks = state.fabric.column_masks.masks
        masks[0][0] ^= 1
        assert any("column-mask" in p for p in arrays.probe_vcolumn(0))
        assert any("column mask" in p for p in state.check_consistency())
        masks[0][0] ^= 1
        assert arrays.probe_vcolumn(0) == []
        assert state.check_consistency() == []

    def test_sanitized_array_run_matches_plain(self):
        _, plain = _anneal(34, 6)
        _, sanitized = _anneal(34, 6, sanitize=True)
        assert sanitized.moves_attempted == plain.moves_attempted
        assert sanitized.moves_accepted == plain.moves_accepted
        assert sanitized.terms == plain.terms
