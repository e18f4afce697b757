"""Schema-versioned, digest-protected annealer checkpoints.

A checkpoint captures the *complete* trajectory state of one
:class:`~repro.core.SimultaneousAnnealer` at a stage boundary —
placement slots/pinmaps and committed claims (the same record
``flows/layout_io.py`` serializes), the ``random.Random`` state, the
adaptive schedule, the calibrated cost weights, the range-limiter
window, the dynamics history, the incremental timing arrays, and the
phase/stage cursor — so that interrupt-at-stage-k + resume is
**bit-identical** to an uninterrupted run (``tests/test_resilience.py``
holds the golden determinism test).

Two deliberate choices keep that guarantee honest:

* The incremental timing arrays are serialized *verbatim* rather than
  recomputed on resume.  Incremental propagation clips updates below
  ``EPSILON`` and is audited to 1e-6, so a from-scratch recompute may
  differ from the incrementally-maintained values in the last bits —
  enough to flip a later accept/reject.  Python's ``json`` round-trips
  floats exactly, so adopting the stored arrays reproduces the
  trajectory bit-for-bit.
* The routing negative caches are *not* serialized.  They are pure
  memoization: a cached-hopeless attempt that is retried after resume
  fails again with no side effects on claims, costs, or the RNG, so
  dropping them changes metrics counters at most.

On disk a checkpoint is one compact JSON envelope::

    {"sha256": "<hex digest of canonical payload>", "payload": {...}}

written atomically (:func:`repro.resilience.atomic.atomic_write_text`).
:func:`read_checkpoint` recomputes the digest before trusting anything,
so torn, truncated, or bit-flipped files are rejected with a typed
:class:`CheckpointError` instead of being loaded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..arch.channel import ChannelClaim
from ..arch.vertical import VerticalClaim
from ..netlist.netlist import Netlist
# A resume may change budgets, checkpoint cadence, or instrumentation,
# nothing else: the stored config identity is the trajectory digest.
from ..obs.tracer import trajectory_digest as resume_digest
from ..place.placement import Placement
from ..route.state import RoutingState

#: Version of the checkpoint payload schema.  Removing a field or
#: changing a field's meaning requires bumping this; readers reject
#: versions they do not know.
CHECKPOINT_SCHEMA_VERSION = 1

#: Payload kind marker, so a checkpoint is never confused with the
#: (structurally similar) layout files ``flows/layout_io.py`` writes.
CHECKPOINT_KIND = "repro-anneal-checkpoint"

#: Config keys that earlier versions wrote and the current
#: ``AnnealerConfig`` no longer has: the switches that selected the
#: retired object-graph move core and exhaustive repair, and the
#: retired in-program profiler switch.  All were proven bit-identical
#: (the cores to the one remaining core, profiling to a plain run), so
#: old checkpoints resume with the keys dropped.
RETIRED_CONFIG_FIELDS = ("array_core", "fast_path", "profile")

#: Annealer phases a checkpoint may record.
PHASES = ("anneal", "greedy", "done")


class CheckpointError(ValueError):
    """The checkpoint is corrupted, truncated, or inconsistent."""


# ----------------------------------------------------------------------
# Digests and config identity
# ----------------------------------------------------------------------
def payload_digest(payload: dict) -> str:
    """SHA-256 over the canonical JSON form of a checkpoint payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# RNG state codec
# ----------------------------------------------------------------------
def encode_rng_state(state: tuple) -> list:
    """``random.Random.getstate()`` as a JSON-serializable list."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def decode_rng_state(record) -> tuple:
    """Inverse of :func:`encode_rng_state` (for ``setstate``)."""
    try:
        version, internal, gauss_next = record
        return (version, tuple(int(word) for word in internal), gauss_next)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid RNG state record: {exc}") from exc


# ----------------------------------------------------------------------
# Layout snapshots
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LayoutSnapshot:
    """An immutable structural copy of one complete layout.

    The annealer's best-so-far tracking captures these at stage
    boundaries (a pure read: no RNG, no clock), and the checkpoint
    codec converts them to/from the exact dict schema
    ``flows/layout_io.py`` uses, so checkpoints, saved layouts, and the
    in-memory best all speak one format.
    """

    #: Per-cell ``(row, col)`` slot, in cell-index order.
    slots: tuple
    #: Per-cell pinmap palette index, in cell-index order.
    pinmaps: tuple
    #: Per-net vertical claim (or None), in net-index order.
    verticals: tuple
    #: Per-net channel claims sorted by channel, in net-index order.
    claims: tuple

    @classmethod
    def capture(cls, placement: Placement, state: RoutingState) -> "LayoutSnapshot":
        """Snapshot a live layout (placement must be complete)."""
        netlist = placement.netlist
        slots = []
        for cell_index in range(netlist.num_cells):
            slot = placement.slot_of(cell_index)
            if slot is None:
                raise CheckpointError(
                    f"cell {netlist.cells[cell_index].name!r} is unplaced; "
                    "only complete layouts can be snapshotted"
                )
            slots.append(tuple(slot))
        pinmaps = tuple(
            placement.pinmap_index(cell_index)
            for cell_index in range(netlist.num_cells)
        )
        verticals = tuple(route.vertical for route in state.routes)
        claims = tuple(
            tuple(route.claims[channel] for channel in sorted(route.claims))
            for route in state.routes
        )
        return cls(tuple(slots), pinmaps, verticals, claims)

    def to_layout_dict(self, netlist: Netlist) -> dict:
        """The snapshot in the exact ``flows/layout_io.py`` dict schema."""
        from ..flows.layout_io import FORMAT_VERSION

        cells = {}
        for cell in netlist.cells:
            cells[cell.name] = {
                "slot": list(self.slots[cell.index]),
                "pinmap": self.pinmaps[cell.index],
            }
        nets = {}
        for net in netlist.nets:
            entry: dict = {"claims": []}
            for claim in self.claims[net.index]:
                entry["claims"].append(
                    [claim.channel, claim.track, claim.first_seg,
                     claim.last_seg, claim.lo, claim.hi]
                )
            vertical = self.verticals[net.index]
            if vertical is not None:
                entry["vertical"] = [
                    vertical.column, vertical.track, vertical.first_seg,
                    vertical.last_seg, vertical.cmin, vertical.cmax,
                ]
            nets[net.name] = entry
        return {
            "format": FORMAT_VERSION,
            "circuit": netlist.name,
            "cells": cells,
            "nets": nets,
        }

    @classmethod
    def from_layout_dict(cls, netlist: Netlist, data: dict) -> "LayoutSnapshot":
        """Parse a layout dict back into a snapshot (names -> indices)."""
        from ..flows.layout_io import FORMAT_VERSION

        if not isinstance(data, dict):
            raise CheckpointError("layout record is not a JSON object")
        if data.get("format") != FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported layout format {data.get('format')!r}"
            )
        if data.get("circuit") != netlist.name:
            raise CheckpointError(
                f"layout is for circuit {data.get('circuit')!r}, "
                f"netlist is {netlist.name!r}"
            )
        netlist.freeze()
        cells = data.get("cells", {})
        slots: list = [None] * netlist.num_cells
        pinmaps = [0] * netlist.num_cells
        for name, entry in cells.items():
            if not netlist.has_cell(name):
                raise CheckpointError(f"layout names unknown cell {name!r}")
            index = netlist.cell(name).index
            try:
                slots[index] = tuple(entry["slot"])
                pinmaps[index] = int(entry.get("pinmap", 0))
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(f"cell {name!r}: {exc}") from exc
        for cell in netlist.cells:
            if slots[cell.index] is None:
                raise CheckpointError(
                    f"cell {cell.name!r} missing from layout"
                )
        verticals: list = [None] * netlist.num_nets
        claims: list = [()] * netlist.num_nets
        for name, entry in data.get("nets", {}).items():
            try:
                net = netlist.net(name)
            except KeyError:
                raise CheckpointError(
                    f"layout names unknown net {name!r}"
                ) from None
            try:
                vertical = entry.get("vertical")
                if vertical is not None:
                    verticals[net.index] = VerticalClaim(*vertical)
                parsed = [
                    ChannelClaim(*record) for record in entry.get("claims", ())
                ]
            except (TypeError, ValueError) as exc:
                raise CheckpointError(f"net {name!r}: {exc}") from exc
            claims[net.index] = tuple(
                sorted(parsed, key=lambda claim: claim.channel)
            )
        return cls(tuple(slots), tuple(pinmaps), tuple(verticals),
                   tuple(claims))

    def restore(self, placement: Placement, state: RoutingState) -> None:
        """Adopt this snapshot into a live placement + routing state.

        Mutates: ``placement`` (every slot and pinmap is rewritten) and
        ``state`` (every net is ripped up, its geometry refreshed, and
        the snapshot's claims re-committed through the normal occupancy
        machinery).  Any double-booking, illegal slot, or
        geometry-inconsistent claim raises :class:`CheckpointError` —
        a corrupt snapshot is rejected, never silently half-loaded.
        """
        fabric = state.fabric
        for route in state.routes:
            if route.vertical is not None or route.claims:
                state.rip_up(route.net_index)
        for cell_index in range(placement.netlist.num_cells):
            if placement.slot_of(cell_index) is not None:
                placement.unplace(cell_index)
        try:
            for cell_index, slot in enumerate(self.slots):
                placement.place(cell_index, slot)
                placement.set_pinmap(cell_index, self.pinmaps[cell_index])
        except Exception as exc:
            raise CheckpointError(
                f"snapshot placement is illegal: {exc}"
            ) from exc
        for route in state.routes:
            state.refresh_geometry(route.net_index)
        try:
            for net_index, vertical in enumerate(self.verticals):
                if vertical is not None:
                    fabric.vcolumns[vertical.column].reclaim(
                        net_index, vertical
                    )
                    state.commit_vertical(net_index, vertical)
                for claim in self.claims[net_index]:
                    fabric.channels[claim.channel].reclaim(net_index, claim)
                    state.commit_detail(net_index, claim)
        except Exception as exc:
            raise CheckpointError(
                f"snapshot claims are inconsistent: {exc}"
            ) from exc
        problems = state.check_consistency()
        if problems:
            raise CheckpointError(
                "snapshot inconsistent after restore: "
                + "; ".join(problems[:3])
            )


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------
def write_checkpoint(payload: dict, path: Union[str, Path]) -> str:
    """Atomically write one checkpoint envelope; returns the digest."""
    digest = payload_digest(payload)
    envelope = {"sha256": digest, "payload": payload}
    from .atomic import atomic_write_text

    atomic_write_text(
        path,
        json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n",
        kind="checkpoint",
    )
    return digest


def read_checkpoint(path: Union[str, Path]) -> dict:
    """Read, digest-verify, and version-check one checkpoint file.

    Raises :class:`CheckpointError` on any problem: unreadable file,
    malformed JSON (truncation), digest mismatch (corruption), unknown
    schema version, or wrong payload kind.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON (truncated?): {exc}"
        ) from exc
    if not isinstance(envelope, dict) or "payload" not in envelope:
        raise CheckpointError(f"checkpoint {path} has no payload envelope")
    payload = envelope["payload"]
    stored = envelope.get("sha256")
    actual = payload_digest(payload) if isinstance(payload, dict) else None
    if actual is None or stored != actual:
        raise CheckpointError(
            f"checkpoint {path} failed its content digest "
            "(torn or corrupted write)"
        )
    if payload.get("format") != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format {payload.get('format')!r} "
            f"(supported: {CHECKPOINT_SCHEMA_VERSION})"
        )
    if payload.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(
            f"not an anneal checkpoint (kind {payload.get('kind')!r})"
        )
    return payload


def validate_payload(payload: dict, circuit: str, config) -> None:
    """Check a payload against the run about to resume from it.

    The circuit name and the trajectory-shaping config fields (see
    :func:`resume_digest`) must match; the phase cursor must be one the
    annealer knows.  Raises :class:`CheckpointError` on mismatch.
    """
    if payload.get("circuit") != circuit:
        raise CheckpointError(
            f"checkpoint is for circuit {payload.get('circuit')!r}, "
            f"this run is {circuit!r}"
        )
    # The identity is recomputed from the payload's own config record
    # (covered by the same envelope digest as the stored
    # ``config_digest``) so that records carrying retired keys, whose
    # stored digest included them, still compare equal.
    stored = resume_digest(_config_record(payload))
    expected = resume_digest(config)
    if stored != expected:
        raise CheckpointError(
            "checkpoint was written under a different configuration "
            f"(digest {stored!r}, this run {expected!r}); resume with "
            "the original seed and knobs"
        )
    if payload.get("phase") not in PHASES:
        raise CheckpointError(
            f"unknown checkpoint phase {payload.get('phase')!r}"
        )


def _config_record(payload: dict) -> dict:
    """The payload's config record without :data:`RETIRED_CONFIG_FIELDS`."""
    record = payload.get("config")
    if not isinstance(record, dict):
        raise CheckpointError("checkpoint carries no config record")
    return {
        key: value for key, value in record.items()
        if key not in RETIRED_CONFIG_FIELDS
    }


def config_from_payload(payload: dict):
    """Rebuild the writing run's :class:`AnnealerConfig` from a payload.

    Convenience for ``SimultaneousAnnealer.resume(...)`` so callers can
    resume from a path alone; unknown fields (from a future config) are
    rejected by the dataclass constructor.
    """
    from ..core.annealer import AnnealerConfig
    from ..core.schedule import ScheduleConfig

    record = _config_record(payload)
    schedule = record.pop("schedule", None)
    try:
        if isinstance(schedule, dict):
            record["schedule"] = ScheduleConfig(**schedule)
        return AnnealerConfig(**record)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint config record is invalid: {exc}"
        ) from exc
