"""The run ledger: a persistent, append-only record of anneal runs.

Every observability layer so far (trace, snapshot, xray) sees exactly
one run; the ledger is the *population* view.  Each completed flow or
benchmark appends one schema-versioned JSON record to a JSONL file,
and the ``repro-fpga runs`` CLI (``list``/``show``/``compare``/
``regress``/``report``) answers cross-run questions from it: per-seed
variance, convergence alignment, throughput/QoR regressions between
two slices, and a self-contained HTML observatory
(:mod:`repro.obs.report`).

Record identity
---------------
``record_digest`` is a sha256 over the record's *identity* fields —
flow, design, netlist stats, seed, config digests, final cost terms,
routedness, and move counts.  Wall-clock-derived telemetry
(``wall_time_s``, ``moves_per_sec``, ``normalized_score``, overhead
ratios), artifact paths, and user tags are
:data:`VOLATILE_FIELDS`, deliberately outside the digest: two runs of
the same code with the same seed produce the *same* identity no matter
how slow the host was, or where its artifacts landed
(:func:`config_identity`).  Ledger recording happens strictly after the
run (a pure read of already-computed results — no RNG, no clock reads
feeding the anneal), so a ledger-recording run stays bit-identical to
an unrecorded one; ``tests/test_ledger.py`` pins both properties.

Durability
----------
The ledger is an append-only log under the contract every log shares
(:mod:`repro.resilience.jsonl`): concurrent recorders cannot erase
each other's records, a torn final line is dropped into
:attr:`Ledger.problems`, and damage anywhere else is a
:class:`LedgerError`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from ..resilience import jsonl
from .tracer import NON_IDENTITY_FIELDS, config_digest, trajectory_digest

#: Version of the record vocabulary.  Adding optional fields is
#: compatible; removing or re-interpreting a field requires a bump.
LEDGER_SCHEMA_VERSION = 1

#: Record fields excluded from ``record_digest``: telemetry derived
#: from the wall clock, artifact paths, and user-facing labels.  Two
#: identical trajectories must collide on identity regardless of host
#: speed or where their artifacts landed.
VOLATILE_FIELDS = (
    "wall_time_s",
    "moves_per_sec",
    "normalized_score",
    "overheads",
    # Written only by older versions (the retired in-program profiler);
    # kept so those records keep their record_digest.
    "profile",
    "artifacts",
    "tag",
    "record_digest",
)

#: Config fields excluded from ``family_digest`` (the seed-independent
#: experiment identity): the seed itself, plus every knob that does not
#: shape the trajectory (:data:`repro.obs.tracer.NON_IDENTITY_FIELDS`,
#: the same list the checkpoint's resume digest drops).
FAMILY_EXCLUDE = ("seed",) + NON_IDENTITY_FIELDS


def config_identity(config: Any) -> dict:
    """A record's ``config_digest`` (the trajectory digest: runs that
    differ only in artifact paths, budgets or instrumentation share it)
    and ``family_digest`` (which also drops the seed) for ``config``."""
    return {
        "config_digest": trajectory_digest(config),
        "family_digest": config_digest(config, exclude=FAMILY_EXCLUDE),
    }


class LedgerError(ValueError):
    """The ledger file is missing, corrupted, or not a ledger."""


@dataclass
class Ledger:
    """One loaded ledger: its records plus any recoverable problems."""

    path: Optional[Path] = None
    records: list[dict] = field(default_factory=list)
    #: Human-readable notes about tolerated damage (torn final line).
    problems: list[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Record construction
# ----------------------------------------------------------------------
def record_identity(record: dict) -> str:
    """16-hex sha256 over the record's identity fields.

    Volatile fields (:data:`VOLATILE_FIELDS`) are stripped first, so
    equality of digests means "same trajectory outcome", not "same
    wall clock".
    """
    identity = {
        key: value for key, value in record.items()
        if key not in VOLATILE_FIELDS
    }
    canonical = json.dumps(identity, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def make_record(
    *,
    flow: str,
    design: str,
    seed: Optional[int],
    worst_delay_ns: float,
    fully_routed: bool,
    config_digest: Optional[str] = None,
    family_digest: Optional[str] = None,
    netlist: Optional[dict] = None,
    terms: Optional[dict] = None,
    final_cost: Optional[float] = None,
    moves_attempted: Optional[int] = None,
    moves_accepted: Optional[int] = None,
    temperatures: Optional[int] = None,
    wall_time_s: Optional[float] = None,
    moves_per_sec: Optional[float] = None,
    normalized_score: Optional[float] = None,
    overheads: Optional[dict] = None,
    artifacts: Optional[dict] = None,
    tag: str = "",
) -> dict:
    """Assemble one ledger record and stamp its identity digest.

    Optional fields are omitted (not null-padded) so records stay
    compact and the identity digest only covers what a run actually
    reported.
    """
    record: dict = {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "flow": flow,
        "design": design,
        "seed": seed,
        "worst_delay_ns": worst_delay_ns,
        "fully_routed": bool(fully_routed),
    }
    optional = (
        ("config_digest", config_digest),
        ("family_digest", family_digest),
        ("netlist", netlist),
        ("terms", terms),
        ("final_cost", final_cost),
        ("moves_attempted", moves_attempted),
        ("moves_accepted", moves_accepted),
        ("temperatures", temperatures),
        ("wall_time_s", wall_time_s),
        ("moves_per_sec", moves_per_sec),
        ("normalized_score", normalized_score),
        ("overheads", overheads),
        ("artifacts", artifacts),
    )
    for name, value in optional:
        if value is not None:
            record[name] = value
    if tag:
        record["tag"] = tag
    record["record_digest"] = record_identity(record)
    return record


def record_from_result(
    result: Any,
    config: Any = None,
    tag: str = "",
    artifacts: Optional[dict] = None,
    normalized_score: Optional[float] = None,
) -> dict:
    """Build a ledger record from a flow result.

    ``result`` is duck-typed to :class:`repro.flows.common.FlowResult`
    (``flow``/``design``/``metrics()``/``extra``/``wall_time_s``) so
    this module stays importable without :mod:`repro.flows`.  The flows
    stash ``seed``/``config_digest``/``family_digest`` in ``extra``;
    ``config`` is the fallback source when they are absent (e.g. a
    hand-rolled result).
    """
    extra = getattr(result, "extra", None) or {}
    metrics = result.metrics()
    seed = extra.get("seed")
    digest = extra.get("config_digest")
    family = extra.get("family_digest")
    if config is not None:
        identity = config_identity(config)
        if seed is None:
            seed = getattr(config, "seed", None)
        digest = digest or identity["config_digest"]
        family = family or identity["family_digest"]
    terms = {
        "G": metrics.get("global_unrouted"),
        "D": metrics.get("detail_unrouted"),
        "T": metrics.get("worst_delay_ns"),
    }
    final_cost = None
    trace = extra.get("trace")
    if trace is not None and trace.run_end is not None:
        final_cost = trace.run_end.get("final_cost")
    moves_attempted = extra.get("moves_attempted")
    wall = result.wall_time_s
    moves_per_sec = None
    if moves_attempted and wall and wall > 0:
        moves_per_sec = round(moves_attempted / wall, 1)
    netlist_stats = extra.get("netlist")
    return make_record(
        flow=result.flow,
        design=result.design,
        seed=seed,
        config_digest=digest,
        family_digest=family,
        netlist=netlist_stats,
        terms=terms,
        final_cost=final_cost,
        worst_delay_ns=metrics["worst_delay_ns"],
        fully_routed=bool(metrics.get("fully_routed")),
        moves_attempted=moves_attempted,
        moves_accepted=extra.get("moves_accepted"),
        temperatures=extra.get("temperatures"),
        wall_time_s=round(wall, 4) if wall is not None else None,
        moves_per_sec=moves_per_sec,
        normalized_score=normalized_score,
        artifacts=artifacts or None,
        tag=tag,
    )


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def append_record(path: Union[str, Path], record: dict) -> None:
    """Append one record to the ledger at ``path`` (one locked line)."""
    jsonl.append(path, record)


def read_ledger(path: Union[str, Path]) -> Ledger:
    """Load a ledger; :class:`LedgerError` if it is missing or damaged."""
    path = Path(path)
    try:
        records, problems = jsonl.read(path, LedgerError, "ledger record")
    except FileNotFoundError:
        raise LedgerError(f"{path}: no such ledger") from None
    return Ledger(path=path, records=records, problems=problems)


# ----------------------------------------------------------------------
# Selection and aggregation
# ----------------------------------------------------------------------
def select(
    records: list[dict],
    *,
    design: Optional[str] = None,
    seed: Optional[int] = None,
    flow: Optional[str] = None,
    tag: Optional[str] = None,
    digest: Optional[str] = None,
    family: Optional[str] = None,
) -> list[dict]:
    """The records matching every given filter (None = don't care)."""
    out = []
    for record in records:
        if design is not None and record.get("design") != design:
            continue
        if seed is not None and record.get("seed") != seed:
            continue
        if flow is not None and record.get("flow") != flow:
            continue
        if tag is not None and record.get("tag", "") != tag:
            continue
        if digest is not None and record.get("config_digest") != digest:
            continue
        if family is not None and record.get("family_digest") != family:
            continue
        out.append(record)
    return out


def group_records(records: list[dict], key: str) -> dict[str, list[dict]]:
    """Records bucketed by one field, in first-seen order.

    ``key`` may be any record field name; ``family`` and ``digest``
    alias their ``*_digest`` fields.  Missing values group under
    ``"(none)"``.
    """
    field_name = {
        "family": "family_digest", "digest": "config_digest",
    }.get(key, key)
    groups: dict[str, list[dict]] = {}
    for record in records:
        value = record.get(field_name)
        label = "(none)" if value in (None, "") else str(value)
        groups.setdefault(label, []).append(record)
    return groups


def slice_stats(records: list[dict]) -> dict:
    """Aggregate QoR/throughput statistics over one record slice.

    ``delay_*`` summarize ``worst_delay_ns`` across the slice (the
    per-seed variance view); ``best_score`` is the best host-
    normalized throughput, matching the bench gate's best-of
    convention.
    """
    delays = [
        record["worst_delay_ns"] for record in records
        if record.get("worst_delay_ns") is not None
    ]
    scores = [
        record["normalized_score"] for record in records
        if record.get("normalized_score") is not None
    ]
    routed = [bool(record.get("fully_routed")) for record in records]
    n = len(delays)
    mean = sum(delays) / n if n else 0.0
    if n > 1:
        stdev = math.sqrt(sum((d - mean) ** 2 for d in delays) / (n - 1))
    else:
        stdev = 0.0
    return {
        "runs": len(records),
        "seeds": sorted({
            record.get("seed") for record in records
            if record.get("seed") is not None
        }),
        "delay_mean": mean,
        "delay_stdev": stdev,
        "delay_min": min(delays) if delays else 0.0,
        "delay_max": max(delays) if delays else 0.0,
        "routed_fraction": (
            sum(routed) / len(routed) if routed else 0.0
        ),
        "best_score": max(scores) if scores else None,
    }


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------
def regress_slices(
    baseline: list[dict],
    candidate: list[dict],
    *,
    max_score_regression: float = 0.30,
    max_delay_regression: float = 0.05,
    max_overhead: float = 0.05,
) -> tuple[list[list], list[str]]:
    """The BENCH_moves-style gate between two ledger slices.

    Records are paired by ``(flow, design)`` and each pair is judged on
    three axes, mirroring the standing benchmark gates:

    * **normalized_score** — best-of throughput may not regress by more
      than ``max_score_regression`` (host-normalized, so the
      comparison transfers across hosts);
    * **worst_delay_ns** — mean QoR may not worsen by more than
      ``max_delay_regression``;
    * **routedness** — a design fully routed in the baseline must stay
      fully routed;
    * **overhead ratios** — any recorded instrumentation overhead
      fraction (trace/snapshot/checkpoint/ledger) must stay at or
      under ``max_overhead``.

    Returns ``(rows, failures)``: comparison rows for display and the
    list of failed gates (empty = pass).  Designs present on only one
    side are reported as rows but never fail — the gate judges overlap.
    """
    def keyed(records: list[dict]) -> dict[tuple, list[dict]]:
        out: dict[tuple, list[dict]] = {}
        for record in records:
            out.setdefault(
                (record.get("flow"), record.get("design")), []
            ).append(record)
        return out

    base_groups, cand_groups = keyed(baseline), keyed(candidate)
    rows: list[list] = []
    failures: list[str] = []
    for key in sorted(
        set(base_groups) | set(cand_groups),
        key=lambda k: (str(k[0]), str(k[1])),
    ):
        flow, design = key
        name = f"{flow}/{design}"
        base = base_groups.get(key)
        cand = cand_groups.get(key)
        if base is None or cand is None:
            rows.append([name, "-", "-", "-", "-",
                         "baseline only" if cand is None else "candidate only"])
            continue
        bstats, cstats = slice_stats(base), slice_stats(cand)
        verdicts = []
        if bstats["best_score"] and cstats["best_score"]:
            regression = 1.0 - cstats["best_score"] / bstats["best_score"]
            if regression > max_score_regression:
                verdicts.append(
                    f"{name}: normalized_score regressed {regression:.1%} "
                    f"(limit {max_score_regression:.0%})"
                )
        if bstats["delay_mean"] > 0:
            worsening = (
                cstats["delay_mean"] / bstats["delay_mean"] - 1.0
            )
            if worsening > max_delay_regression:
                verdicts.append(
                    f"{name}: worst_delay_ns worsened {worsening:.1%} "
                    f"(limit {max_delay_regression:.0%})"
                )
        if bstats["routed_fraction"] >= 1.0 > cstats["routed_fraction"]:
            verdicts.append(
                f"{name}: lost full routing "
                f"({cstats['routed_fraction']:.0%} of candidate runs routed)"
            )
        for record in cand:
            for kind, info in sorted((record.get("overheads") or {}).items()):
                frac = (info or {}).get("overhead_frac")
                if frac is not None and frac > max_overhead:
                    verdicts.append(
                        f"{name}: {kind} overhead {frac:.1%} exceeds "
                        f"{max_overhead:.0%}"
                    )
        failures.extend(verdicts)
        rows.append([
            name,
            f"{bstats['delay_mean']:.4g}", f"{cstats['delay_mean']:.4g}",
            (f"{bstats['best_score']:.3f}"
             if bstats["best_score"] is not None else "-"),
            (f"{cstats['best_score']:.3f}"
             if cstats["best_score"] is not None else "-"),
            "FAIL" if verdicts else "ok",
        ])
    return rows, failures


def resolve_artifact(
    ledger_path: Optional[Union[str, Path]], artifact: str
) -> Path:
    """Artifact path resolved relative to the ledger's directory.

    Records store artifact paths as written (typically relative to
    where the run was launched); when a ledger travels with its
    artifacts, resolving against the ledger file keeps the links live.
    Absolute paths pass through untouched.
    """
    candidate = Path(artifact)
    if candidate.is_absolute() or ledger_path is None:
        return candidate
    return Path(ledger_path).parent / candidate
