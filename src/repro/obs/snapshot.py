"""Layout snapshots: a JSON-serializable spatial image of a layout.

Where the trace (:mod:`repro.obs.events`) explains *when* the anneal's
cost moves, a snapshot explains *where* on the fabric it comes from:

* per-channel track occupancy and density profile (occupancy per
  column, max density vs. track capacity, segments used, utilization);
* per-column vertical occupancy and per-row feedthrough usage;
* per-net route geometry (trunk, channel claims, antifuse counts);
* a critical-path attribution table decomposing the timing engine's
  worst-case delay ``T`` into per-net and per-segment Elmore
  contributions that re-sum to ``T`` **bit-exactly**
  (:mod:`repro.timing.attribution`).

Snapshots are schema-versioned (:data:`SNAPSHOT_SCHEMA_VERSION`),
capturable standalone (:func:`capture_snapshot`), at stage boundaries
of a traced anneal (``--trace --snapshot-every N`` emits ``snapshot``
events into the JSONL trace), and at flow end
(:func:`repro.flows.capture_flow_snapshot`).  Like the tracer, capture
reads no wall clock, consumes no RNG, and mutates no layout or engine
state — snapshotted runs are bit-identical to plain runs.

``repro-fpga xray`` renders snapshots (:mod:`repro.obs.xray`);
:func:`diff_snapshots` aligns two by net/cell name for the
sequential-vs-simultaneous spatial comparison.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from ..route.state import RoutingState
from ..timing.attribution import (
    critical_path_attribution,
    resummed_path_delay,
    resummed_segment_delay,
)

#: Version of the snapshot payload layout.  Adding an optional field is
#: compatible; removing or re-meaning one requires a bump (same
#: contract as ``TRACE_SCHEMA_VERSION``).
SNAPSHOT_SCHEMA_VERSION = 1

_TOP_REQUIRED = (
    "schema_version", "label", "design", "fabric", "channels", "vertical",
    "rows", "cells", "nets", "timing", "totals",
)
_CHANNEL_REQUIRED = (
    "index", "tracks", "width", "segments_used", "occupancy",
    "max_density", "utilization",
)
_NET_REQUIRED = (
    "name", "index", "globally_routed", "fully_routed", "bbox", "pins",
    "vertical", "claims", "antifuses",
)
_TIMING_REQUIRED = ("T", "engine_T", "endpoint", "path", "entries")
_ENTRY_REQUIRED = {
    "launch": ("cell", "delay"),
    "interconnect": ("net", "from", "to", "routed", "delay", "segments"),
    "cell": ("cell", "delay"),
}


def capture_snapshot(state: RoutingState, timing, label: str = "") -> dict:
    """Capture the spatial image of ``state`` with timing attribution.

    ``timing`` is the layout's :class:`~repro.timing.IncrementalTiming`.
    Pure read: no RNG, no wall clock, and no mutation of the routing
    state, fabric occupancy, or the timing engine's incremental fields
    (attribution works on a side-effect-free recompute), so capturing
    mid-anneal cannot perturb the run.
    """
    fabric = state.fabric
    placement = state.placement
    netlist = state.netlist

    channels = []
    for channel in fabric.channels:
        occupancy = channel.column_occupancy()
        channels.append({
            "index": channel.index,
            "tracks": channel.num_tracks,
            "width": channel.width,
            "segments_used": channel.segments_used(),
            "occupancy": occupancy,
            "max_density": max(occupancy) if occupancy else 0,
            "utilization": channel.utilization(),
        })

    vertical_columns = []
    for vcolumn in fabric.vcolumns:
        occupancy = vcolumn.channel_occupancy()
        vertical_columns.append({
            "column": vcolumn.column,
            "tracks": vcolumn.num_tracks,
            "segments_used": vcolumn.segments_used(),
            "occupancy": occupancy,
            "max_density": max(occupancy) if occupancy else 0,
        })

    # A trunk spanning channels [cmin, cmax] crosses every row between
    # them: rows cmin .. cmax-1.
    feedthroughs = [0] * fabric.rows
    for route in state.routes:
        vertical = route.vertical
        if vertical is not None:
            for row in range(vertical.cmin, vertical.cmax):
                feedthroughs[row] += 1

    cells = []
    for cell_index, (row, col) in placement.iter_placed():
        cells.append({
            "name": netlist.cells[cell_index].name,
            "row": row,
            "col": col,
            "pinmap": placement.pinmap_index(cell_index),
        })

    nets = []
    for route in state.routes:
        net = netlist.nets[route.net_index]
        claims = []
        for channel_index in sorted(route.claims):
            claim = route.claims[channel_index]
            claims.append({
                "channel": claim.channel,
                "track": claim.track,
                "first_seg": claim.first_seg,
                "last_seg": claim.last_seg,
                "lo": claim.lo,
                "hi": claim.hi,
                "segments": claim.num_segments,
                "antifuses": claim.num_antifuses,
            })
        trunk = None
        if route.vertical is not None:
            vclaim = route.vertical
            trunk = {
                "column": vclaim.column,
                "track": vclaim.track,
                "first_seg": vclaim.first_seg,
                "last_seg": vclaim.last_seg,
                "cmin": vclaim.cmin,
                "cmax": vclaim.cmax,
                "segments": vclaim.num_segments,
                "antifuses": vclaim.num_antifuses,
            }
        nets.append({
            "name": net.name,
            "index": route.net_index,
            "globally_routed": route.globally_routed,
            "fully_routed": route.fully_routed,
            "bbox": {
                "cmin": route.cmin, "cmax": route.cmax,
                "xmin": route.xmin, "xmax": route.xmax,
            },
            "pins": {
                str(channel): list(columns)
                for channel, columns in sorted(route.pin_channels.items())
            },
            "vertical": trunk,
            "claims": claims,
            "antifuses": {
                "horizontal": route.horizontal_antifuses(),
                "vertical": route.vertical_antifuses(),
                "cross": route.cross_antifuses(),
            },
        })

    used = state.used_track_segments()
    totals = {
        "claimed_segments": used,
        "fabric_segments_used": {
            "horizontal": sum(entry["segments_used"] for entry in channels),
            "vertical": sum(
                entry["segments_used"] for entry in vertical_columns
            ),
        },
        "antifuses": state.total_antifuses(),
        "global_unrouted": state.count_global_unrouted(),
        "detail_unrouted": state.count_detail_unrouted(),
        "fully_routed": state.is_complete(),
    }

    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "label": label,
        "design": {"name": netlist.name, **netlist.stats()},
        "fabric": {
            "rows": fabric.rows,
            "cols": fabric.cols,
            "num_channels": fabric.num_channels,
        },
        "channels": channels,
        "vertical": vertical_columns,
        "rows": [
            {"row": row, "feedthroughs": count}
            for row, count in enumerate(feedthroughs)
        ],
        "cells": cells,
        "nets": nets,
        "timing": critical_path_attribution(timing),
        "totals": totals,
    }


def validate_snapshot(payload: object) -> list[str]:
    """Structural + invariant problems in a snapshot (empty = valid).

    Beyond shape checks, verifies the payload's self-consistency
    invariants, all checkable offline:

    * attribution entries re-sum (left fold) to ``T`` bit-exactly, and
      each routed interconnect entry's per-segment delays re-sum to the
      entry's delay bit-exactly;
    * per-channel occupancy profiles are ``width``-long, bounded by the
      track count, and consistent with ``max_density``;
    * the claim-side used-segment totals equal the fabric-side
      ``segments_used`` sums (the two sides of the occupancy books).
    """
    if not isinstance(payload, dict):
        return ["snapshot is not a JSON object"]
    problems: list[str] = []
    version = payload.get("schema_version")
    if version != SNAPSHOT_SCHEMA_VERSION:
        problems.append(
            f"unsupported snapshot schema_version {version!r} "
            f"(supported: {SNAPSHOT_SCHEMA_VERSION})"
        )
    for name in _TOP_REQUIRED:
        if name not in payload:
            problems.append(f"missing top-level field {name!r}")
    if problems:
        return problems

    for position, entry in enumerate(payload["channels"]):
        for name in _CHANNEL_REQUIRED:
            if name not in entry:
                problems.append(f"channel {position}: missing field {name!r}")
        occupancy = entry.get("occupancy")
        if isinstance(occupancy, list):
            if len(occupancy) != entry.get("width"):
                problems.append(
                    f"channel {position}: occupancy length {len(occupancy)} "
                    f"!= width {entry.get('width')}"
                )
            peak = max(occupancy) if occupancy else 0
            if entry.get("max_density") != peak:
                problems.append(
                    f"channel {position}: max_density "
                    f"{entry.get('max_density')} != profile max {peak}"
                )
            if occupancy and peak > entry.get("tracks", 0):
                problems.append(
                    f"channel {position}: density {peak} exceeds track "
                    f"capacity {entry.get('tracks')}"
                )

    for position, entry in enumerate(payload["nets"]):
        for name in _NET_REQUIRED:
            if name not in entry:
                problems.append(f"net {position}: missing field {name!r}")

    timing = payload["timing"]
    for name in _TIMING_REQUIRED:
        if name not in timing:
            problems.append(f"timing: missing field {name!r}")
    entries = timing.get("entries")
    if isinstance(entries, list):
        for position, entry in enumerate(entries):
            kind = entry.get("kind")
            required = _ENTRY_REQUIRED.get(kind)
            if required is None:
                problems.append(
                    f"timing entry {position}: unknown kind {kind!r}"
                )
                continue
            missing = [name for name in required if name not in entry]
            for name in missing:
                problems.append(
                    f"timing entry {position}: {kind} entry missing "
                    f"field {name!r}"
                )
            if kind == "interconnect" and not missing:
                rebuilt = resummed_segment_delay(entry)
                if rebuilt != entry["delay"]:
                    problems.append(
                        f"timing entry {position}: segment delays re-sum to "
                        f"{rebuilt!r}, entry delay is {entry['delay']!r}"
                    )
        if "T" in timing and not problems:
            rebuilt = resummed_path_delay(entries)
            if rebuilt != timing["T"]:
                problems.append(
                    f"timing: entries re-sum to {rebuilt!r}, "
                    f"T is {timing['T']!r}"
                )

    totals = payload["totals"]
    claimed = totals.get("claimed_segments", {})
    fabric_side = totals.get("fabric_segments_used", {})
    if claimed.get("horizontal_total") != fabric_side.get("horizontal"):
        problems.append(
            f"occupancy books disagree: claim-side horizontal "
            f"{claimed.get('horizontal_total')} vs fabric-side "
            f"{fabric_side.get('horizontal')}"
        )
    if claimed.get("vertical") != fabric_side.get("vertical"):
        problems.append(
            f"occupancy books disagree: claim-side vertical "
            f"{claimed.get('vertical')} vs fabric-side "
            f"{fabric_side.get('vertical')}"
        )
    per_channel = claimed.get("horizontal")
    if isinstance(per_channel, list):
        for entry in payload["channels"]:
            index = entry.get("index")
            if (
                isinstance(index, int)
                and 0 <= index < len(per_channel)
                and per_channel[index] != entry.get("segments_used")
            ):
                problems.append(
                    f"channel {index}: claim-side segments "
                    f"{per_channel[index]} vs fabric-side "
                    f"{entry.get('segments_used')}"
                )
    return problems


def write_snapshot(payload: dict, path: Union[str, Path]) -> None:
    """Write one snapshot as indented JSON, atomically."""
    from ..resilience.atomic import atomic_write_text

    atomic_write_text(
        path,
        json.dumps(payload, sort_keys=True, indent=1) + "\n",
        kind="snapshot",
    )


def read_snapshot(path: Union[str, Path]) -> dict:
    """Load a snapshot JSON file."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: snapshot is not a JSON object")
    return payload


def _critical_nets(payload: dict) -> list[str]:
    """Net names on the snapshot's critical path, in path order."""
    return [
        entry["net"]
        for entry in payload.get("timing", {}).get("entries", [])
        if entry.get("kind") == "interconnect" and "net" in entry
    ]


def diff_snapshots(a: dict, b: dict) -> dict:
    """Align two snapshots by net/cell name and report the deltas.

    Returns a JSON-serializable report: per-channel congestion deltas,
    per-row feedthrough deltas, critical-path membership churn, moved
    cells, and rerouted nets.  The snapshots should come from the same
    design (nets/cells align by name); differing fabrics are reported,
    not rejected.
    """
    report: dict = {
        "fabric_match": a.get("fabric") == b.get("fabric"),
        "labels": [a.get("label", ""), b.get("label", "")],
    }

    changed = []
    b_channels = {entry.get("index"): entry for entry in b.get("channels", [])}
    for entry in a.get("channels", []):
        other = b_channels.get(entry.get("index"))
        if other is None:
            continue
        if (
            entry.get("segments_used") != other.get("segments_used")
            or entry.get("max_density") != other.get("max_density")
            or entry.get("occupancy") != other.get("occupancy")
        ):
            changed.append({
                "channel": entry.get("index"),
                "segments_used": [
                    entry.get("segments_used"), other.get("segments_used")
                ],
                "max_density": [
                    entry.get("max_density"), other.get("max_density")
                ],
            })
    report["congestion"] = {
        "changed": changed,
        "horizontal_segments_used": [
            a["totals"]["fabric_segments_used"]["horizontal"],
            b["totals"]["fabric_segments_used"]["horizontal"],
        ],
        "vertical_segments_used": [
            a["totals"]["fabric_segments_used"]["vertical"],
            b["totals"]["fabric_segments_used"]["vertical"],
        ],
        "antifuses": [a["totals"]["antifuses"], b["totals"]["antifuses"]],
    }

    row_changes = []
    b_rows = {entry.get("row"): entry for entry in b.get("rows", [])}
    for entry in a.get("rows", []):
        other = b_rows.get(entry.get("row"))
        if other is not None and (
            entry.get("feedthroughs") != other.get("feedthroughs")
        ):
            row_changes.append({
                "row": entry.get("row"),
                "feedthroughs": [
                    entry.get("feedthroughs"), other.get("feedthroughs")
                ],
            })
    report["rows"] = {"changed": row_changes}

    path_a = _critical_nets(a)
    path_b = _critical_nets(b)
    set_a, set_b = set(path_a), set(path_b)
    report["timing"] = {
        "T": [a["timing"].get("T"), b["timing"].get("T")],
        "endpoint": [
            a["timing"].get("endpoint"), b["timing"].get("endpoint")
        ],
        "path": {
            "a": path_a,
            "b": path_b,
            "added": sorted(set_b - set_a),
            "removed": sorted(set_a - set_b),
            "common": sorted(set_a & set_b),
        },
    }

    cells_a = {entry["name"]: entry for entry in a.get("cells", [])}
    cells_b = {entry["name"]: entry for entry in b.get("cells", [])}
    moved = []
    for name in sorted(set(cells_a) & set(cells_b)):
        slot_a = [cells_a[name]["row"], cells_a[name]["col"]]
        slot_b = [cells_b[name]["row"], cells_b[name]["col"]]
        if slot_a != slot_b:
            moved.append({"name": name, "a": slot_a, "b": slot_b})
    report["cells"] = {
        "moved": moved,
        "aligned": len(set(cells_a) & set(cells_b)),
        "only_a": sorted(set(cells_a) - set(cells_b)),
        "only_b": sorted(set(cells_b) - set(cells_a)),
    }

    nets_a = {entry["name"]: entry for entry in a.get("nets", [])}
    nets_b = {entry["name"]: entry for entry in b.get("nets", [])}
    rerouted = []
    routing_state_changed = []
    for name in sorted(set(nets_a) & set(nets_b)):
        net_a, net_b = nets_a[name], nets_b[name]
        if net_a.get("fully_routed") != net_b.get("fully_routed"):
            routing_state_changed.append(name)
        if (
            net_a.get("vertical") != net_b.get("vertical")
            or net_a.get("claims") != net_b.get("claims")
        ):
            rerouted.append(name)
    report["nets"] = {
        "aligned": len(set(nets_a) & set(nets_b)),
        "rerouted": rerouted,
        "routing_state_changed": routing_state_changed,
        "only_a": sorted(set(nets_a) - set(nets_b)),
        "only_b": sorted(set(nets_b) - set(nets_a)),
    }
    return report
