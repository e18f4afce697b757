"""Command line for trace tooling: ``python -m repro.obs <cmd>``.

Also reachable as ``repro-fpga trace <cmd>`` from the main CLI.
Exit codes: 0 = ok, 1 = problems found (invalid trace / cost-
reconstruction mismatch), 2 = bad invocation.  A torn final trace
line is dropped with a warning; ``validate`` counts it a failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .events import RunTrace, read_trace, reconstructed_cost
from .snapshot import diff_snapshots, validate_snapshot
from .summary import diff_traces, find_anomalies, summarize
from .xray import render_diff, render_snapshot, render_svg


def render_json(payload: object) -> str:
    """The one machine-readable JSON shape every subcommand shares.

    Sorted keys and two-space indent, so ``runs show``, ``runs list
    --format json``, and ``watch --json`` all emit byte-stable output
    scripts can diff.
    """
    import json

    return json.dumps(payload, indent=2, sort_keys=True)


def _load(path: str) -> RunTrace:
    trace = read_trace(Path(path))
    for problem in trace.problems:
        print(f"warning: {path}: {problem}", file=sys.stderr)
    problems = trace.validate()
    if problems:
        for problem in problems:
            print(f"{path}: {problem}", file=sys.stderr)
        raise SystemExit(1)
    return trace


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the trace CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-fpga trace",
        description="Summarize, diff, and validate anneal traces "
        "(see docs/OBSERVABILITY.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser(
        "summary", help="render one trace as tables and sparklines"
    )
    p_summary.add_argument("trace", help="JSONL trace file")
    p_summary.add_argument(
        "--max-rows", type=int, default=12,
        help="max rows in the per-stage table (default: 12)",
    )

    p_diff = sub.add_parser(
        "diff", help="compare two traces stage by stage"
    )
    p_diff.add_argument("trace_a", help="first JSONL trace file")
    p_diff.add_argument("trace_b", help="second JSONL trace file")

    p_validate = sub.add_parser(
        "validate",
        help="check a trace against the event schema and the "
        "cost-reconstruction invariant",
    )
    p_validate.add_argument("trace", help="JSONL trace file")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Trace CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "summary":
            trace = _load(args.trace)
            print(summarize(trace, max_rows=args.max_rows))
            return 0

        if args.command == "diff":
            a = _load(args.trace_a)
            b = _load(args.trace_b)
            print(f"A: {args.trace_a}")
            print(f"B: {args.trace_b}")
            print(diff_traces(a, b))
            return 0

        if args.command == "validate":
            trace = _load(args.trace)  # exits 1 on schema problems
            failures = len(trace.problems)  # a torn tail is damage here
            end = trace.run_end
            if end is not None and end.get("final_cost") is not None:
                rebuilt = reconstructed_cost(end)
                if rebuilt is not None and rebuilt != end["final_cost"]:
                    print(
                        f"{args.trace}: cost reconstruction mismatch: "
                        f"recorded {end['final_cost']!r}, rebuilt {rebuilt!r}",
                        file=sys.stderr,
                    )
                    failures += 1
            snapshots = trace.of_type("snapshot")
            for position, event in enumerate(snapshots):
                for problem in validate_snapshot(event.get("snapshot")):
                    print(
                        f"{args.trace}: snapshot event {position}: {problem}",
                        file=sys.stderr,
                    )
                    failures += 1
            if snapshots:
                print(
                    f"{args.trace}: {len(snapshots)} snapshot events "
                    "deep-checked (schema + attribution/occupancy invariants)"
                )
            anomalies = find_anomalies(trace)
            for anomaly in anomalies:
                print(f"{args.trace}: anomaly: {anomaly}")
            stages = len(trace.stages)
            status = "ok" if not failures else "INVALID"
            print(
                f"{args.trace}: {status} "
                f"({len(trace.events)} events, {stages} stages, "
                f"{len(anomalies)} anomalies)"
            )
            return 1 if failures else 0
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


# ----------------------------------------------------------------------
# Layout x-ray CLI (``repro-fpga xray``)
# ----------------------------------------------------------------------
def _load_snapshot(path: str, stage: Optional[int] = None) -> dict:
    """Load a snapshot from a JSON file or from a JSONL trace.

    A snapshot file is one JSON object; a trace is JSONL whose
    ``snapshot`` events carry payloads.  ``stage`` selects a specific
    in-trace snapshot by its ``stage`` field (default: the last one).
    Raises ``ValueError`` when no usable snapshot is found; the caller
    validates the payload.
    """
    import json

    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict):
        if "channels" not in payload:
            raise ValueError(
                f"{path}: JSON object is not a layout snapshot "
                "(no 'channels' field)"
            )
        return payload

    trace = read_trace(Path(path))
    events = trace.of_type("snapshot")
    if not events:
        raise ValueError(f"{path}: trace contains no snapshot events")
    if stage is not None:
        for event in events:
            if event.get("stage") == stage:
                return event.get("snapshot", {})
        stages = [event.get("stage") for event in events]
        raise ValueError(
            f"{path}: no snapshot at stage {stage} (available: {stages})"
        )
    return events[-1].get("snapshot", {})


def _checked_snapshot(path: str, stage: Optional[int]) -> dict:
    payload = _load_snapshot(path, stage)
    problems = validate_snapshot(payload)
    if problems:
        for problem in problems:
            print(f"{path}: {problem}", file=sys.stderr)
        raise SystemExit(1)
    return payload


def build_xray_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the xray CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-fpga xray",
        description="Render and compare layout snapshots: channel-density "
        "heatmaps, critical-path attribution, SVG floorplans "
        "(see docs/OBSERVABILITY.md, 'Spatial observability')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_show = sub.add_parser(
        "show", help="terminal report: summary, heatmap, critical path"
    )
    p_show.add_argument(
        "snapshot", help="snapshot JSON file, or a JSONL trace with "
        "snapshot events",
    )
    p_show.add_argument(
        "--stage", type=int, default=None,
        help="pick the in-trace snapshot with this stage index "
        "(default: the last snapshot)",
    )
    p_show.add_argument(
        "--width", type=int, default=72,
        help="heatmap width in characters (default: 72)",
    )

    p_svg = sub.add_parser("svg", help="export an SVG floorplan view")
    p_svg.add_argument("snapshot", help="snapshot JSON file or JSONL trace")
    p_svg.add_argument(
        "--stage", type=int, default=None,
        help="pick the in-trace snapshot with this stage index",
    )
    p_svg.add_argument(
        "--out", default=None,
        help="output file (default: <snapshot>.svg; '-' for stdout)",
    )

    p_diff = sub.add_parser(
        "diff", help="align two snapshots by net/cell name and report "
        "congestion, path, and placement deltas",
    )
    p_diff.add_argument("snapshot_a", help="first snapshot (JSON or trace)")
    p_diff.add_argument("snapshot_b", help="second snapshot (JSON or trace)")
    p_diff.add_argument("--stage-a", type=int, default=None)
    p_diff.add_argument("--stage-b", type=int, default=None)
    return parser


def xray_main(argv: Optional[Sequence[str]] = None) -> int:
    """Xray CLI entry point; returns a process exit code."""
    parser = build_xray_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "show":
            payload = _checked_snapshot(args.snapshot, args.stage)
            print(render_snapshot(payload, width=args.width))
            return 0

        if args.command == "svg":
            payload = _checked_snapshot(args.snapshot, args.stage)
            svg = render_svg(payload)
            if args.out == "-":
                print(svg)
                return 0
            out = Path(args.out) if args.out else Path(
                args.snapshot
            ).with_suffix(".svg")
            out.write_text(svg + "\n", encoding="utf-8")
            print(f"wrote {out}")
            return 0

        if args.command == "diff":
            a = _checked_snapshot(args.snapshot_a, args.stage_a)
            b = _checked_snapshot(args.snapshot_b, args.stage_b)
            print(f"A: {args.snapshot_a}")
            print(f"B: {args.snapshot_b}")
            print(render_diff(diff_snapshots(a, b)))
            return 0
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


# ----------------------------------------------------------------------
# Run ledger CLI (``repro-fpga runs``)
# ----------------------------------------------------------------------
#: Typed exit codes for the runs CLI (CI keys off these).
RUNS_EXIT_OK = 0
RUNS_EXIT_REGRESSION = 1
RUNS_EXIT_USAGE = 2
RUNS_EXIT_NO_DATA = 3
RUNS_EXIT_LEDGER = 4


def _add_slice_filters(parser: argparse.ArgumentParser) -> None:
    """The shared record-slice selectors (None = don't filter)."""
    parser.add_argument("--design", default=None, help="netlist name")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--flow", default=None, help="simultaneous / sequential"
    )
    parser.add_argument("--tag", default=None, help="user tag on the record")
    parser.add_argument(
        "--digest", default=None, help="full config digest (exact knobs)"
    )
    parser.add_argument(
        "--family", default=None,
        help="seed-independent family digest (same experiment, any seed)",
    )


def _sliced(args: argparse.Namespace, records: list) -> list:
    from .ledger import select

    return select(
        records, design=args.design, seed=args.seed, flow=args.flow,
        tag=args.tag, digest=args.digest, family=args.family,
    )


def _sliced_indices(args: argparse.Namespace, records: list) -> list[int]:
    """Ledger positions of the matching records (duplicate-safe)."""
    matching = _sliced(args, records)
    indices: list[int] = []
    cursor = 0
    for record in matching:
        # select() preserves order, so scan forward by object identity.
        while records[cursor] is not record:
            cursor += 1
        indices.append(cursor)
        cursor += 1
    return indices


def _read_checked(path: str):
    """Load a ledger, translating damage into the typed exit code."""
    from .ledger import LedgerError, read_ledger

    try:
        ledger = read_ledger(path)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(RUNS_EXIT_LEDGER) from None
    for problem in ledger.problems:
        print(f"warning: {path}: {problem}", file=sys.stderr)
    return ledger


def _load_run_traces(ledger) -> dict[int, RunTrace]:
    """Traces for every record whose trace artifact is present on disk.

    Missing or unreadable artifacts degrade to absent entries (the
    report renders "no convergence data") rather than failing the
    command — a ledger routinely outlives its run directories.
    """
    from .ledger import resolve_artifact

    traces: dict[int, RunTrace] = {}
    for index, record in enumerate(ledger.records):
        artifact = (record.get("artifacts") or {}).get("trace")
        if not artifact:
            continue
        path = resolve_artifact(ledger.path, artifact)
        try:
            traces[index] = read_trace(path)
        except (OSError, ValueError):
            continue
    return traces


def build_runs_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the runs CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-fpga runs",
        description="Cross-run analytics over an append-only run ledger: "
        "list/show records, compare convergence across seeds, gate "
        "regressions, render the HTML observatory "
        "(see docs/OBSERVABILITY.md, 'Cross-run observability')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="one-line-per-run ledger table")
    p_list.add_argument("ledger", help="JSONL ledger file")
    _add_slice_filters(p_list)
    p_list.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format: human table or machine-readable JSON "
        "(sorted keys, matching 'runs show'; default: table)",
    )

    p_show = sub.add_parser("show", help="dump one record in full")
    p_show.add_argument("ledger", help="JSONL ledger file")
    p_show.add_argument(
        "index", type=int, help="record position (from 'runs list')"
    )

    p_compare = sub.add_parser(
        "compare",
        help="align convergence, acceptance, and per-seed variance "
        "across a record slice",
    )
    p_compare.add_argument("ledger", help="JSONL ledger file")
    _add_slice_filters(p_compare)

    p_regress = sub.add_parser(
        "regress",
        help="BENCH_moves-style gate between two ledger slices "
        "(exit 1 = regression)",
    )
    p_regress.add_argument("ledger", help="candidate ledger")
    _add_slice_filters(p_regress)
    p_regress.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline ledger file (default: the candidate ledger itself, "
        "sliced by --baseline-tag)",
    )
    p_regress.add_argument(
        "--baseline-tag", default=None, metavar="TAG",
        help="slice the baseline by this tag instead of --tag",
    )
    p_regress.add_argument(
        "--max-score-regression", type=float, default=0.30,
        help="normalized_score best-of regression limit (default: 0.30)",
    )
    p_regress.add_argument(
        "--max-delay-regression", type=float, default=0.05,
        help="worst_delay_ns mean worsening limit (default: 0.05)",
    )
    p_regress.add_argument(
        "--max-overhead", type=float, default=0.05,
        help="instrumentation overhead fraction limit (default: 0.05)",
    )

    p_report = sub.add_parser(
        "report", help="render the self-contained HTML observatory"
    )
    p_report.add_argument("ledger", help="JSONL ledger file")
    _add_slice_filters(p_report)
    p_report.add_argument(
        "--out", default=None,
        help="output HTML file (default: <ledger>.html; '-' for stdout)",
    )
    p_report.add_argument(
        "--title", default="Run ledger observatory",
        help="page title (default: 'Run ledger observatory')",
    )
    return parser


def _runs_list(args: argparse.Namespace) -> int:
    from ..analysis.report import format_table

    ledger = _read_checked(args.ledger)
    indices = _sliced_indices(args, ledger.records)
    if not indices:
        print("no matching records", file=sys.stderr)
        return RUNS_EXIT_NO_DATA
    if args.format == "json":
        print(render_json([
            {"index": index, "record": ledger.records[index]}
            for index in indices
        ]))
        return RUNS_EXIT_OK
    rows = []
    for index in indices:
        record = ledger.records[index]
        terms = record.get("terms") or {}
        rows.append([
            index, record.get("flow"), record.get("design"),
            record.get("seed"), record.get("config_digest", "-")[:8],
            terms.get("G"), terms.get("D"),
            record.get("worst_delay_ns"),
            "yes" if record.get("fully_routed") else "NO",
            record.get("moves_per_sec"),
            record.get("tag") or "-",
        ])
    print(format_table(
        ["#", "flow", "design", "seed", "config", "G", "D", "T (ns)",
         "routed", "moves/s", "tag"],
        rows, title=f"{args.ledger}: {len(indices)} records", decimals=4,
    ))
    return RUNS_EXIT_OK


def _runs_show(args: argparse.Namespace) -> int:
    import json

    ledger = _read_checked(args.ledger)
    if not 0 <= args.index < len(ledger.records):
        print(
            f"error: record {args.index} out of range "
            f"(ledger has {len(ledger.records)})",
            file=sys.stderr,
        )
        return RUNS_EXIT_NO_DATA
    print(render_json(ledger.records[args.index]))
    return RUNS_EXIT_OK


def _runs_compare(args: argparse.Namespace) -> int:
    from ..analysis.report import format_table
    from .ledger import slice_stats
    from .report import acceptance_series, convergence_series
    from .summary import sparkline

    ledger = _read_checked(args.ledger)
    indices = _sliced_indices(args, ledger.records)
    records = [ledger.records[i] for i in indices]
    if not records:
        print("no matching records", file=sys.stderr)
        return RUNS_EXIT_NO_DATA
    wanted = set(indices)
    traces = {
        i: t for i, t in _load_run_traces(ledger).items() if i in wanted
    }

    # Convergence + acceptance trajectories, one sparkline per run.
    print(f"{args.ledger}: comparing {len(records)} records "
          f"({len(traces)} with traces on disk)")
    for index in indices:
        record = ledger.records[index]
        label = (
            f"#{index} {record.get('flow')}/{record.get('design')} "
            f"seed={record.get('seed')}"
        )
        trace = traces.get(index)
        if trace is None:
            print(f"  {label}: no trace artifact")
            continue
        _, costs = convergence_series(trace)
        acceptance = acceptance_series(trace)
        if costs:
            print(f"  {label}")
            print(f"    cost        {sparkline(costs)}  "
                  f"[{min(costs):.4g}, {max(costs):.4g}]")
        if acceptance:
            print(f"    acceptance  {sparkline(acceptance)}  "
                  f"[{min(acceptance):.4g}, {max(acceptance):.4g}]")

    # Per-seed variance grouped by (flow, design, family).
    buckets: dict[tuple, list[dict]] = {}
    for record in records:
        key = (
            str(record.get("flow")), str(record.get("design")),
            str(record.get("family_digest")
                or record.get("config_digest") or "(none)"),
        )
        buckets.setdefault(key, []).append(record)
    rows = []
    for (flow, design, family), group in sorted(buckets.items()):
        stats = slice_stats(group)
        rows.append([
            f"{flow}/{design}", family[:8], stats["runs"],
            stats["delay_mean"], stats["delay_stdev"],
            stats["delay_min"], stats["delay_max"],
            f"{stats['routed_fraction']:.0%}",
        ])
    print(format_table(
        ["slice", "family", "runs", "T mean", "T stdev", "T min",
         "T max", "routed"],
        rows, title="per-seed variance (worst_delay_ns)", decimals=4,
    ))
    return RUNS_EXIT_OK


def _runs_regress(args: argparse.Namespace) -> int:
    from ..analysis.report import format_table
    from .ledger import regress_slices, select

    candidate_ledger = _read_checked(args.ledger)
    candidate = _sliced(args, candidate_ledger.records)
    if args.baseline is not None:
        baseline_records = _read_checked(args.baseline).records
    else:
        baseline_records = candidate_ledger.records
    if args.baseline_tag is not None:
        baseline = select(
            baseline_records, design=args.design, seed=args.seed,
            flow=args.flow, tag=args.baseline_tag, digest=args.digest,
            family=args.family,
        )
    elif args.baseline is not None:
        baseline = select(
            baseline_records, design=args.design, seed=args.seed,
            flow=args.flow, tag=None, digest=args.digest,
            family=args.family,
        )
    else:
        print(
            "error: --baseline PATH or --baseline-tag TAG is required "
            "(a slice cannot gate against itself)",
            file=sys.stderr,
        )
        return RUNS_EXIT_USAGE
    if not baseline or not candidate:
        side = "baseline" if not baseline else "candidate"
        print(f"no {side} records to gate on", file=sys.stderr)
        return RUNS_EXIT_NO_DATA
    rows, failures = regress_slices(
        baseline, candidate,
        max_score_regression=args.max_score_regression,
        max_delay_regression=args.max_delay_regression,
        max_overhead=args.max_overhead,
    )
    print(format_table(
        ["flow/design", "T base", "T cand", "score base", "score cand",
         "verdict"],
        rows,
        title=f"regression gate: {len(baseline)} baseline vs "
        f"{len(candidate)} candidate records",
        decimals=4,
    ))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return RUNS_EXIT_REGRESSION
    print("gate: ok")
    return RUNS_EXIT_OK


def _runs_report(args: argparse.Namespace) -> int:
    from .report import render_report

    ledger = _read_checked(args.ledger)
    indices = _sliced_indices(args, ledger.records)
    records = [ledger.records[i] for i in indices]
    if not records:
        print("no matching records", file=sys.stderr)
        return RUNS_EXIT_NO_DATA
    remap = {original: new for new, original in enumerate(indices)}
    traces = {
        remap[i]: t for i, t in _load_run_traces(ledger).items()
        if i in remap
    }
    html = render_report(records, traces, title=args.title)
    if args.out == "-":
        print(html, end="")
        return RUNS_EXIT_OK
    out = Path(args.out) if args.out else Path(
        args.ledger
    ).with_suffix(".html")
    out.write_text(html, encoding="utf-8")
    print(f"wrote {out} ({len(records)} records, {len(traces)} traces)")
    return RUNS_EXIT_OK


def runs_main(argv: Optional[Sequence[str]] = None) -> int:
    """Runs CLI entry point; returns a typed exit code."""
    parser = build_runs_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list": _runs_list,
        "show": _runs_show,
        "compare": _runs_compare,
        "regress": _runs_regress,
        "report": _runs_report,
    }
    try:
        return handlers[args.command](args)
    except SystemExit as exc:  # _read_checked signals damage this way
        return exc.code if isinstance(exc.code, int) else RUNS_EXIT_LEDGER
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNS_EXIT_LEDGER


# ---------------------------------------------------------------------------
# `repro-fpga watch` — live dashboard + stall watchdog over a running anneal.
# ---------------------------------------------------------------------------
WATCH_EXIT_OK = 0        # run completed with no anomaly alarms
WATCH_EXIT_ANOMALY = 1   # run completed but dynamics detectors fired
WATCH_EXIT_USAGE = 2     # bad arguments (argparse's own code)
WATCH_EXIT_STALLED = 6   # heartbeat lost / run never started / --timeout hit


def build_watch_parser() -> argparse.ArgumentParser:
    """CLI surface for the live watcher."""
    parser = argparse.ArgumentParser(
        prog="repro-fpga watch",
        description="Follow a live run through its trace stream and "
        "heartbeat sidecar: dashboard by default, single snapshot with "
        "--once, CI watchdog with --gate (exit 0 completed-ok, "
        "1 anomaly, 6 stalled).",
    )
    parser.add_argument(
        "trace",
        help="trace JSONL the run streams into (repro-fpga run "
        "--trace PATH --heartbeat)",
    )
    parser.add_argument(
        "--heartbeat", default=None, metavar="PATH",
        help="heartbeat sidecar path (default: <trace>.hb)",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="poll/redraw interval in seconds (default: 2)",
    )
    parser.add_argument(
        "--stall-timeout", type=float, default=30.0, metavar="S",
        help="declare the run stalled when the heartbeat is older than "
        "this, or when no artifact appears at all for this long "
        "(default: 30)",
    )
    parser.add_argument(
        "--timeout", type=float, default=0.0, metavar="S",
        help="overall wall budget for the watch itself; a run still "
        "unfinished after this long exits stalled. 0 disables "
        "(default: 0)",
    )
    parser.add_argument(
        "--plateau-stages", type=int, default=8, metavar="N",
        help="consecutive near-flat stages before the cost-plateau "
        "anomaly fires (default: 8)",
    )
    parser.add_argument(
        "--max-rows", type=int, default=8, metavar="N",
        help="stage-table rows in the dashboard (default: 8)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="poll once, render, and exit with the typed status code",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the watch state as JSON (sorted keys) instead of "
        "the dashboard",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="watchdog mode: no dashboard, print new alarms to stderr, "
        "exit when the run completes or stalls",
    )
    return parser


def _emit_watch_state(state, trace, args: argparse.Namespace) -> None:
    """One frame of output: JSON snapshot or rendered dashboard."""
    from .live import render_watch_trace

    if args.as_json:
        print(render_json(state.to_dict()))
    else:
        if not (args.once or args.gate) and sys.stdout.isatty():
            # Live redraw: clear between frames so the dashboard
            # overwrites itself instead of scrolling.
            sys.stdout.write("\x1b[2J\x1b[H")
        print(render_watch_trace(state, trace, max_rows=args.max_rows))


def _watch_exit_code(state) -> int:
    if state.stalled:
        return WATCH_EXIT_STALLED
    if state.anomalous:
        return WATCH_EXIT_ANOMALY
    return WATCH_EXIT_OK


def watch_main(argv: Optional[Sequence[str]] = None) -> int:
    """Watch CLI entry point; returns a typed exit code."""
    # Watcher pacing runs on the monotonic clock and sleep only; the
    # deterministic run being observed never sees this process.
    import time

    from .live import Alarm, AnomalyEngine, TraceFollower, heartbeat_path, \
        watch_once

    parser = build_watch_parser()
    args = parser.parse_args(argv)
    if args.interval <= 0:
        parser.error("--interval must be > 0")
    if args.stall_timeout <= 0:
        parser.error("--stall-timeout must be > 0")

    hb_path = args.heartbeat or str(heartbeat_path(args.trace))
    follower = TraceFollower(args.trace)
    engine = AnomalyEngine(
        stall_after_s=args.stall_timeout,
        plateau_stages=args.plateau_stages,
    )

    started = time.monotonic()
    last_progress = started
    progress_key: Optional[tuple] = None
    try:
        while True:
            state = watch_once(follower, hb_path, engine)
            key = (state.events, (state.heartbeat or {}).get("seq"))
            if key != progress_key:
                progress_key = key
                last_progress = time.monotonic()
            finished = state.status == "completed"
            # Age-based stall detection needs a heartbeat file to age;
            # when none ever appears (run died before its first beat,
            # or was never launched) the watcher keeps its own clock.
            if not finished and not state.stalled \
                    and state.heartbeat is None \
                    and time.monotonic() - last_progress \
                    > args.stall_timeout:
                state.alarms.append(Alarm(
                    "stall",
                    f"no heartbeat or trace progress for "
                    f"{args.stall_timeout:.0f}s; the run never started "
                    f"or died before its first beat",
                ))
                state.status = "stalled"
            if args.timeout and not finished and not state.stalled \
                    and time.monotonic() - started > args.timeout:
                state.alarms.append(Alarm(
                    "stall",
                    f"watch timeout: run still unfinished after "
                    f"{args.timeout:.0f}s",
                ))
                state.status = "stalled"
            if args.once or finished or state.stalled:
                _emit_watch_state(state, follower.trace, args)
                return _watch_exit_code(state)
            if args.gate:
                for alarm in engine.fresh:
                    print(
                        f"[{alarm.kind}] {alarm.message}", file=sys.stderr
                    )
            else:
                _emit_watch_state(state, follower.trace, args)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
