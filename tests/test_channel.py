"""Unit tests for repro.arch.channel (segmented channel occupancy)."""

import pytest

from repro.arch import Channel, custom_segmentation, uniform_segmentation
from repro.arch.channel import tables_for


@pytest.fixture
def channel():
    """Two tracks over width 12: track 0 cut at 4 and 8, track 1 full."""
    return Channel(0, custom_segmentation(12, [[4, 8], []]))


class TestGeometry:
    def test_run_for_single_segment(self, channel):
        assert channel.run_for(0, 0, 3) == (0, 0)

    def test_run_for_spanning_break(self, channel):
        assert channel.run_for(0, 2, 6) == (0, 1)

    def test_run_for_all_segments(self, channel):
        assert channel.run_for(0, 0, 11) == (0, 2)

    def test_run_for_full_track(self, channel):
        assert channel.run_for(1, 3, 9) == (0, 0)

    def test_interval_bounds_checked(self, channel):
        with pytest.raises(ValueError):
            channel.run_for(0, -1, 3)
        with pytest.raises(ValueError):
            channel.run_for(0, 0, 12)
        with pytest.raises(ValueError):
            channel.candidate_on(0, 5, 4)
        # The scans check before any table lookup: seg_at[t][-1] would
        # silently read the last column's segment.
        for lo, hi in [(-1, 3), (0, 12), (5, 4)]:
            with pytest.raises(ValueError):
                channel.best_weighted(lo, hi, 4.0)
            with pytest.raises(ValueError):
                channel.best_tight(lo, hi)


class TestCandidates:
    def test_candidate_wastage(self, channel):
        candidate = channel.candidate_on(0, 1, 2)
        # Covers segment (0,4): used length 4, span 2 -> wastage 2.
        assert candidate.used_length == 4
        assert candidate.wastage == 2
        assert candidate.num_segments == 1

    def test_candidate_with_antifuse(self, channel):
        candidate = channel.candidate_on(0, 3, 5)
        assert candidate.num_segments == 2
        assert candidate.used_length == 8
        assert candidate.wastage == 5

    def test_full_track_candidate(self, channel):
        candidate = channel.candidate_on(1, 5, 6)
        assert candidate.num_segments == 1
        assert candidate.wastage == 10

    def test_candidates_lists_all_free_tracks(self, channel):
        assert len(list(channel.candidates(0, 11))) == 2

    def test_tables_outlive_the_fabric_that_built_them(self):
        # Every annealer builds its own fabric; an equal segmentation
        # built later must find the candidate tables warm even after
        # the first one is gone.
        first = tables_for(custom_segmentation(12, [[4, 8], []]))
        assert tables_for(custom_segmentation(12, [[4, 8], []])) is first

    def test_occupied_track_not_candidate(self, channel):
        candidate = channel.candidate_on(0, 0, 3)
        channel.claim(7, candidate, 0, 3)
        assert channel.candidate_on(0, 2, 3) is None
        # Other segments of the track remain available.
        assert channel.candidate_on(0, 5, 7) is not None


class TestClaimRelease:
    def test_claim_marks_ownership(self, channel):
        candidate = channel.candidate_on(0, 2, 6)
        claim = channel.claim(3, candidate, 2, 6)
        assert channel.owner_of(0, 0) == 3
        assert channel.owner_of(0, 1) == 3
        assert channel.owner_of(0, 2) is None
        assert claim.num_antifuses == 1

    def test_double_claim_rejected(self, channel):
        candidate = channel.candidate_on(0, 0, 3)
        channel.claim(1, candidate, 0, 3)
        with pytest.raises(RuntimeError, match="already owned"):
            channel.claim(2, candidate, 0, 3)

    def test_release_roundtrip(self, channel):
        candidate = channel.candidate_on(0, 0, 5)
        claim = channel.claim(9, candidate, 0, 5)
        channel.release(9, claim)
        assert channel.owner_of(0, 0) is None
        assert channel.candidate_on(0, 0, 5) is not None

    def test_release_wrong_net_rejected(self, channel):
        candidate = channel.candidate_on(0, 0, 3)
        claim = channel.claim(1, candidate, 0, 3)
        with pytest.raises(RuntimeError, match="expected net 2"):
            channel.release(2, claim)

    def test_release_wrong_channel_rejected(self, channel):
        other = Channel(5, uniform_segmentation(12, 1, 4))
        candidate = other.candidate_on(0, 0, 3)
        claim = other.claim(1, candidate, 0, 3)
        with pytest.raises(ValueError, match="channel 5"):
            channel.release(1, claim)

    def test_reclaim_restores(self, channel):
        candidate = channel.candidate_on(0, 2, 6)
        claim = channel.claim(4, candidate, 2, 6)
        channel.release(4, claim)
        channel.reclaim(4, claim)
        assert channel.owner_of(0, 0) == 4
        assert channel.owner_of(0, 1) == 4

    def test_reclaim_collision_rejected(self, channel):
        candidate = channel.candidate_on(0, 2, 6)
        claim = channel.claim(4, candidate, 2, 6)
        channel.release(4, claim)
        channel.claim(8, channel.candidate_on(0, 0, 3), 0, 3)
        with pytest.raises(RuntimeError, match="rollback collision"):
            channel.reclaim(4, claim)


class TestStatistics:
    def test_segments_used(self, channel):
        assert channel.segments_used() == 0
        channel.claim(1, channel.candidate_on(0, 2, 6), 2, 6)
        assert channel.segments_used() == 2

    def test_utilization(self, channel):
        assert channel.utilization() == 0.0
        channel.claim(1, channel.candidate_on(1, 0, 11), 0, 11)
        # Track 1 (12 cols) of 24 total columns of wire.
        assert channel.utilization() == pytest.approx(0.5)

    def test_occupancy_rows(self, channel):
        channel.claim(1, channel.candidate_on(0, 0, 3), 0, 3)
        rows = channel.occupancy_rows()
        assert rows[0].startswith("####|")
        assert set(rows[1]) == {"."}


class TestSegmentedRigidity:
    """The paper's core constraint: one track per channel passage."""

    def test_interval_cannot_span_two_tracks(self):
        # Width 8; track 0 free only on the left half, track 1 free only
        # on the right half. The interval [2, 5] fits on neither.
        channel = Channel(0, custom_segmentation(8, [[4], [4]]))
        channel.claim(1, channel.candidate_on(0, 5, 7), 5, 7)
        channel.claim(2, channel.candidate_on(1, 0, 2), 0, 2)
        assert list(channel.candidates(2, 5)) == []
