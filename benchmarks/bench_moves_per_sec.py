"""Move-throughput benchmark for the simultaneous annealer's hot loop.

Measures attempted moves per second on generated circuits and emits a
machine-readable ``BENCH_moves.json``.  This is the harness behind the
fast-path optimization work (dirty-channel repair, negative-result
caches, fused candidate scans): any change to the move transaction or
the routers should be checked against it.

Absolute moves/sec depends on the host, and on a shared host it swings
within one run, so every anneal is timed inside the flow benchmark's
host-speed probe (``flowbench/speed.py``), which samples a fixed
pure-Python loop every 20 ms while the anneal runs.  Each run reports a
*normalized score*: its moves/sec divided by the probe's host factor,
scaled by :data:`SCORE_SCALE_S`.  Regression checks compare normalized
scores, which makes a checked-in baseline meaningful across machines of
different speeds.

Usage
-----
Full run (small + medium + large), write ``BENCH_moves.json`` in the
cwd::

    PYTHONPATH=src python benchmarks/bench_moves_per_sec.py

CI smoke run with a regression gate against a checked-in baseline::

    PYTHONPATH=src python benchmarks/bench_moves_per_sec.py --smoke \
        --check benchmarks/baselines/moves_smoke.json --max-regression 0.30

Each design is then re-run with each instrumentation facility on, in
paired best-of runs (:func:`measure_overhead`, one row per facility in
:func:`overhead_gates`).  Every instrumented anneal must stay
bit-identical to the plain one, and each facility may slow the hot
loop by at most its limit (default 5% each):

* tracing (``--max-trace-overhead``, ``--no-trace``);
* layout snapshots every ``--snapshot-every`` stages, measured against
  a *traced* run since snapshots ride on the tracer
  (``--max-snapshot-overhead``, ``--no-snapshot``);
* checkpoints every ``--checkpoint-every`` stages
  (``--max-checkpoint-overhead``, ``--no-checkpoint``);
* run-ledger recording, the timed window covering the locked append
  (``--max-ledger-overhead``, ``--no-ledger-overhead``);
* the live heartbeat sidecar at ``--heartbeat-interval`` (default
  0.1 s, far below the 2 s production default)
  (``--max-heartbeat-overhead``, ``--no-heartbeat``).

``--ledger PATH`` additionally appends one ledger record per case
(QoR, normalized score, measured overheads) for ``repro-fpga runs``
analytics.

``--check`` also pins each baseline design's trajectory: its
``moves_attempted``, ``moves_accepted``, ``fully_routed`` and
``worst_delay_ns`` must equal the baseline's exactly, so a change that
moves the anneal at bench scale fails the gate even when throughput
holds.

Exit status is non-zero if any design fails to anneal, the regression
gate or the trajectory pin trips, or an overhead gate trips.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional, Sequence

from repro import architecture_for
from repro.core import AnnealerConfig, ScheduleConfig, SimultaneousAnnealer
from repro.netlist import CircuitSpec, generate

# The host-speed probe is the flow benchmark's (flowbench/speed.py).
sys.path.append(str(Path(__file__).resolve().parent.parent / "flowbench"))
from speed import REFERENCE_PROBE_S, SpeedProbe  # noqa: E402

#: Scale of the normalized score: the seconds the 200,000-iteration
#: calibration loop earlier versions timed takes on the probe's
#: reference host (200 probe loops), so scores keep their old scale.
SCORE_SCALE_S = 200 * REFERENCE_PROBE_S


@dataclass(frozen=True)
class BenchCase:
    """One benchmark configuration (circuit + anneal effort)."""

    name: str
    spec: CircuitSpec
    tracks: int
    max_temperatures: int


def _schedule(max_temperatures: int) -> ScheduleConfig:
    return ScheduleConfig(
        lambda_=2.0, max_temperatures=max_temperatures, freeze_patience=2
    )


def _config(case: BenchCase, **instrumentation) -> AnnealerConfig:
    """The bench anneal; ``instrumentation`` sets further config fields
    (tracing, snapshots, checkpoints, heartbeats)."""
    return AnnealerConfig(
        seed=1,
        attempts_per_cell=4,
        initial="clustered",
        greedy_rounds=1,
        schedule=_schedule(case.max_temperatures),
        **instrumentation,
    )


#: The standing benchmark set.  ``medium`` is the headline number quoted
#: in BENCH_moves.json; ``smoke`` is a cut-down case cheap enough for CI.
CASES = {
    "small": BenchCase(
        "small", CircuitSpec("small", num_cells=60, seed=42, depth=5), 20, 10
    ),
    "medium": BenchCase(
        "medium", CircuitSpec("medium", num_cells=150, seed=42, depth=7), 20, 10
    ),
    # Paper-scale tier (the DAC'94 benchmarks are 231-529 cells); 44
    # tracks is the narrowest width at which the anneal converges to
    # full routing, so throughput is measured on productive moves
    # rather than hopeless repair scans.
    "large": BenchCase(
        "large", CircuitSpec("large", num_cells=500, seed=42, depth=9), 44, 10
    ),
    "smoke": BenchCase(
        "smoke", CircuitSpec("smoke", num_cells=60, seed=42, depth=5), 20, 6
    ),
    # Paper-scale tier cut down for CI: same 500-cell circuit as
    # ``large`` but fewer temperature stages, so the per-move cost is
    # representative while the wall clock stays CI-sized.
    "large_smoke": BenchCase(
        "large_smoke", CircuitSpec("large", num_cells=500, seed=42, depth=9),
        44, 3
    ),
}


def run_case(
    case: BenchCase, ledger_path: Optional[str] = None, **instrumentation,
) -> dict:
    """Run one benchmark case and return its result record.

    The anneal is timed inside a :class:`SpeedProbe`, whose host factor
    turns the run's moves/sec into its normalized score.
    ``ledger_path`` appends a run-ledger record *inside* the timed
    window, so the measured wall clock covers the locked, fsynced
    append — the honest cost a ledger-recording run pays (the anneal
    itself is untouched; recording is a pure read of the finished
    result).
    """
    netlist = generate(case.spec)
    arch = architecture_for(netlist, tracks_per_channel=case.tracks)
    annealer = SimultaneousAnnealer(
        netlist, arch, _config(case, **instrumentation),
    )
    with SpeedProbe() as probe:
        t0 = perf_counter()
        result = annealer.run()
        if ledger_path is not None:
            from repro.obs.ledger import append_record, make_record

            append_record(ledger_path, make_record(
                flow="bench", design=case.name, seed=annealer.config.seed,
                worst_delay_ns=result.worst_delay,
                fully_routed=result.fully_routed,
                moves_attempted=result.moves_attempted,
                moves_accepted=result.moves_accepted,
            ))
        wall = perf_counter() - t0
    moves_per_sec = result.moves_attempted / wall if wall > 0 else 0.0
    factor = probe.factor()
    record = {
        "num_cells": netlist.num_cells,
        "num_nets": netlist.num_nets,
        "moves_attempted": result.moves_attempted,
        "moves_accepted": result.moves_accepted,
        "wall_time_s": round(wall, 4),
        "moves_per_sec": round(moves_per_sec, 1),
        "probe_factor": round(factor, 4),
        "normalized_score": round(moves_per_sec / factor * SCORE_SCALE_S, 3),
        "fully_routed": result.fully_routed,
        "worst_delay_ns": result.worst_delay,
        "audit_clean": annealer.audit() == [],
    }
    if result.trace is not None:
        record["trace_events"] = len(result.trace.events)
    return record


#: Result-record keys that must be bit-identical with tracing on or off.
_DETERMINISM_KEYS = (
    "moves_attempted", "moves_accepted", "fully_routed", "worst_delay_ns",
)


@dataclass(frozen=True)
class OverheadGate:
    """One instrumentation facility whose cost the bench gates."""

    #: Report field (and ledger ``overheads`` kind).
    key: str
    #: How the FAIL lines name the facility and an instrumented run.
    noun: str
    runner: str
    #: Progress-line label.
    title: str
    #: Largest tolerated fractional slowdown.
    limit: float
    #: ``run_case`` overrides of the instrumented run.
    run: dict
    #: Settings echoed at the head of the report entry.
    settings: dict = field(default_factory=dict)
    #: Measure against a traced run instead of a plain one: snapshots
    #: ride on the tracer, so the cost a user opting in actually pays
    #: is the marginal cost over tracing.
    traced_reference: bool = False


def overhead_gates(args: argparse.Namespace, case: BenchCase,
                   tmp: Path) -> list[OverheadGate]:
    """The enabled overhead gates for one case, in run order.

    Every gate also requires the instrumented anneal to stay
    bit-identical to the plain one.  Checkpoints, ledger appends and
    heartbeats write under ``tmp``; the heartbeat interval is cranked
    far below the 2 s production default so the gate covers many more
    sidecar writes than a real run pays.
    """
    rows = (
        (not args.no_trace, OverheadGate(
            "tracing", "trace", "traced", "traced",
            args.max_trace_overhead, {"trace": True},
        )),
        (not args.no_trace and not args.no_snapshot, OverheadGate(
            "snapshotting", "snapshot", "snapshotted",
            f"snapshot every {args.snapshot_every}",
            args.max_snapshot_overhead,
            {"trace": True, "snapshot_every": args.snapshot_every},
            {"snapshot_every": args.snapshot_every},
            traced_reference=True,
        )),
        (not args.no_checkpoint, OverheadGate(
            "checkpointing", "checkpoint", "checkpointed",
            f"checkpoint every {args.checkpoint_every}",
            args.max_checkpoint_overhead,
            {"checkpoint_path": str(tmp / f"{case.name}.ckpt"),
             "checkpoint_every": args.checkpoint_every},
            {"checkpoint_every": args.checkpoint_every},
        )),
        (not args.no_ledger_overhead, OverheadGate(
            "ledger", "ledger", "ledger-recording", "ledger recording",
            args.max_ledger_overhead,
            {"ledger_path": str(tmp / "ledger.jsonl")},
        )),
        (not args.no_heartbeat, OverheadGate(
            "heartbeat", "heartbeat", "heartbeating",
            f"heartbeat every {args.heartbeat_interval}s",
            args.max_heartbeat_overhead,
            {"heartbeat_path": str(tmp / f"{case.name}.hb"),
             "heartbeat_min_interval_s": args.heartbeat_interval},
            {"min_interval_s": args.heartbeat_interval},
        )),
    )
    return [gate for enabled, gate in rows if enabled]


def measure_overhead(
    case: BenchCase, baseline: dict, gate: OverheadGate, reps: int = 3,
) -> dict:
    """Re-run one case with ``gate``'s facility on; compare to reference.

    Returns the instrumented throughput, the fractional
    normalized-score overhead relative to the reference run, and
    whether the instrumented run reproduced ``baseline`` (the plain
    record) bit-exactly.

    Single timings of a multi-second anneal swing by ±10% on a busy
    host (warm-up drift alone exceeds the sub-5% overhead being gated),
    so the comparison is paired and best-of: ``reps`` interleaved
    (reference, instrumented) pairs, gating best score against best
    score.  A plain reference also counts ``baseline`` as one sample.
    """
    reference_run = {"trace": True} if gate.traced_reference else {}
    best_ref = None if gate.traced_reference else baseline
    best: Optional[dict] = None
    for _ in range(reps):
        ref = run_case(case, **reference_run)
        if (best_ref is None
                or ref["normalized_score"] > best_ref["normalized_score"]):
            best_ref = ref
        run = run_case(case, **gate.run)
        if best is None or run["normalized_score"] > best["normalized_score"]:
            best = run
    assert best is not None and best_ref is not None
    overhead = 1.0 - best["normalized_score"] / (
        best_ref["normalized_score"] or 1e-12
    )
    measured = dict(gate.settings)
    measured["moves_per_sec"] = best["moves_per_sec"]
    measured["normalized_score"] = best["normalized_score"]
    if "trace_events" in best:
        measured["trace_events"] = best["trace_events"]
    measured["overhead_frac"] = round(overhead, 4)
    measured["metrics_identical"] = all(
        best[key] == baseline[key] for key in _DETERMINISM_KEYS
    )
    return measured


def case_ledger_record(
    case: BenchCase, record: dict, tag: str = "",
) -> dict:
    """One run-ledger record summarizing a finished bench case.

    Carries the probe-normalized score and every measured
    instrumentation overhead, so ``repro-fpga runs regress`` can gate
    ledger slices the same way the bench gates BENCH_moves.json.
    """
    from repro.obs.ledger import config_identity, make_record

    config = _config(case)
    overheads = {
        kind: record[kind]
        for kind in ("tracing", "snapshotting", "checkpointing", "ledger",
                     "heartbeat")
        if kind in record
    }
    return make_record(
        flow="bench", design=case.name, seed=config.seed,
        **config_identity(config),
        netlist={"cells": record["num_cells"], "nets": record["num_nets"]},
        worst_delay_ns=record["worst_delay_ns"],
        fully_routed=record["fully_routed"],
        moves_attempted=record["moves_attempted"],
        moves_accepted=record["moves_accepted"],
        wall_time_s=record["wall_time_s"],
        moves_per_sec=record["moves_per_sec"],
        normalized_score=record["normalized_score"],
        overheads=overheads or None,
        tag=tag,
    )


def check_regression(
    current: dict, baseline: dict, max_regression: float
) -> list[str]:
    """Compare against a baseline report.  Returns failures.

    The normalized score may regress by at most ``max_regression``; the
    trajectory keys (:data:`_DETERMINISM_KEYS`) the baseline records
    must match exactly, since the anneal is deterministic per seed.
    """
    failures: list[str] = []
    for name, base in baseline.get("designs", {}).items():
        now = current["designs"].get(name)
        if now is None:
            continue
        for key in _DETERMINISM_KEYS:
            if key in base and now.get(key) != base[key]:
                failures.append(
                    f"{name}: {key} {now.get(key)!r} != baseline "
                    f"{base[key]!r} (trajectory changed)"
                )
        base_score = base.get("normalized_score")
        now_score = now.get("normalized_score")
        if not base_score or not now_score:
            failures.append(f"{name}: missing normalized_score for comparison")
            continue
        regression = 1.0 - now_score / base_score
        verdict = "FAIL" if regression > max_regression else "ok"
        print(
            f"  {name}: score {now_score:.3f} vs baseline {base_score:.3f} "
            f"({-regression:+.1%}) [{verdict}]"
        )
        if regression > max_regression:
            failures.append(
                f"{name}: moves/sec regressed {regression:.1%} "
                f"(limit {max_regression:.0%})"
            )
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--designs", nargs="+", choices=sorted(CASES), default=None,
        help="cases to run (default: small medium; --smoke overrides)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run only the cut-down smoke case (CI-sized)",
    )
    parser.add_argument(
        "--output", default="BENCH_moves.json",
        help="where to write the JSON report (default ./BENCH_moves.json)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE_JSON", default=None,
        help="compare against a baseline report and gate on regression",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.30,
        help="maximum tolerated normalized-score regression (default 0.30)",
    )
    parser.add_argument(
        "--max-trace-overhead", type=float, default=0.05,
        help="maximum tolerated tracing slowdown per design (default 0.05)",
    )
    parser.add_argument(
        "--no-trace", action="store_true",
        help="skip the tracing-enabled comparison runs",
    )
    parser.add_argument(
        "--max-snapshot-overhead", type=float, default=0.05,
        help="maximum tolerated slowdown of periodic layout snapshots "
        "relative to a plain traced run (default 0.05)",
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=5,
        help="snapshot cadence (in stages) for the overhead runs "
        "(default 5)",
    )
    parser.add_argument(
        "--no-snapshot", action="store_true",
        help="skip the snapshot-overhead comparison runs",
    )
    parser.add_argument(
        "--max-checkpoint-overhead", type=float, default=0.05,
        help="maximum tolerated slowdown of periodic checkpointing "
        "relative to a plain run (default 0.05)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=5,
        help="checkpoint cadence (in stages) for the overhead runs "
        "(default 5)",
    )
    parser.add_argument(
        "--no-checkpoint", action="store_true",
        help="skip the checkpoint-overhead comparison runs",
    )
    parser.add_argument(
        "--max-ledger-overhead", type=float, default=0.05,
        help="maximum tolerated slowdown of in-run ledger recording "
        "relative to a plain run (default 0.05)",
    )
    parser.add_argument(
        "--no-ledger-overhead", action="store_true",
        help="skip the ledger-overhead comparison runs",
    )
    parser.add_argument(
        "--max-heartbeat-overhead", type=float, default=0.05,
        help="maximum tolerated slowdown of the live heartbeat sidecar "
        "relative to a plain run (default 0.05)",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=0.1,
        help="heartbeat min interval (seconds) for the overhead runs; "
        "deliberately far below the 2s default (default 0.1)",
    )
    parser.add_argument(
        "--no-heartbeat", action="store_true",
        help="skip the heartbeat-overhead comparison runs",
    )
    parser.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="append one run-ledger record per case (QoR + normalized "
        "score + overheads); analyse with 'repro-fpga runs'",
    )
    parser.add_argument(
        "--ledger-tag", default="bench", metavar="TAG",
        help="tag stored on emitted ledger records (default 'bench')",
    )
    args = parser.parse_args(argv)

    names = args.designs or (
        ["smoke"] if args.smoke else ["small", "medium", "large"]
    )
    report = {"schema": "bench-moves/2", "designs": {}}
    ok = True
    for name in names:
        case = CASES[name]
        record = run_case(case)
        # Host jitter is roughly constant in absolute terms (~0.1 s a
        # run), so the overhead gates on short anneals are noise-
        # dominated: give them extra best-of pairs.  Long cases are
        # stable and expensive; three pairs suffice.
        overhead_reps = 5 if record["wall_time_s"] < 10 else 3
        report["designs"][name] = record
        print(
            f"{name}: {record['moves_attempted']} moves in "
            f"{record['wall_time_s']:.2f}s -> {record['moves_per_sec']:.1f} "
            f"moves/s (host factor {record['probe_factor']:.3f}, "
            f"score {record['normalized_score']:.3f}, "
            f"routed={record['fully_routed']})"
        )
        if not record["audit_clean"]:
            print(f"{name}: AUDIT FAILED", file=sys.stderr)
            ok = False
        with tempfile.TemporaryDirectory(prefix="bench-overhead-") as tmp:
            for gate in overhead_gates(args, case, Path(tmp)):
                measured = measure_overhead(
                    case, record, gate, reps=overhead_reps,
                )
                record[gate.key] = measured
                events = (
                    f"{measured['trace_events']} events, "
                    if "trace_events" in measured else ""
                )
                reference = "traced" if gate.traced_reference else "plain"
                print(
                    f"{name} ({gate.title}): "
                    f"{measured['moves_per_sec']:.1f} moves/s, {events}"
                    f"overhead {measured['overhead_frac']:+.1%} "
                    f"vs {reference}"
                )
                if not measured["metrics_identical"]:
                    print(
                        f"FAIL: {name}: {gate.runner} run diverged from "
                        f"plain run",
                        file=sys.stderr,
                    )
                    ok = False
                if measured["overhead_frac"] > gate.limit:
                    print(
                        f"FAIL: {name}: {gate.noun} overhead "
                        f"{measured['overhead_frac']:.1%} exceeds limit "
                        f"{gate.limit:.0%}",
                        file=sys.stderr,
                    )
                    ok = False
        if args.ledger:
            from repro.obs.ledger import append_record

            append_record(args.ledger, case_ledger_record(
                case, record, tag=args.ledger_tag,
            ))
            print(f"{name}: ledger record -> {args.ledger}")

    Path(args.output).write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")

    if args.check:
        try:
            baseline = json.loads(Path(args.check).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"FAIL: cannot read baseline {args.check}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"regression check vs {args.check} "
              f"(limit {args.max_regression:.0%}):")
        failures = check_regression(report, baseline, args.max_regression)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        ok = ok and not failures
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
