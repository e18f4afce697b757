"""End-to-end smoke of the fault-tolerant job service for CI.

Drives the real ``repro-fpga jobs`` CLI through the contract the
supervisor exists to uphold (see docs/ROBUSTNESS.md, "Supervised
execution"):

1. **reference** — submit a small batch of ``tiny`` jobs and run it
   undisturbed to completion (``jobs run`` exit 0, ``jobs status``
   exit 0); record each job's layout digest;
2. **chaos + restart** — the same batch with ``--chaos kill@2000``
   (every first attempt SIGKILLed mid-anneal) under a supervisor
   wall-clock budget so the first supervisor drains mid-batch; then a
   *second* supervisor invocation (``jobs resume``) replays the
   journal, reconciles orphans, and finishes the batch;
3. **verdicts** — at least one ``crashed`` event with the kernel's
   ``-SIGKILL`` exit code is on the journal, the journal replays
   cleanly (``jobs status --json`` exit 0, no problems), and every
   job's layout digest is **bit-identical** to the reference batch —
   kill/retry schedule notwithstanding;
4. **one ledger** — both batches record into ``<outdir>/ledger.jsonl``
   (``--ledger`` on every supervisor), which must read back without
   problems, hold exactly one record per job of each batch, and give
   the chaos batch the reference batch's record identities: a retried
   trajectory is the same trajectory, wherever its checkpoints landed.

Artifacts (both journals, the ledger, per-job workdirs, status
snapshots, a ``service_smoke.json`` verdict) land in ``--outdir`` for
upload.
Exit status is non-zero if any scenario misbehaves.

Usage::

    PYTHONPATH=src python benchmarks/service_smoke.py --outdir smoke-out
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.obs.ledger import LedgerError, read_ledger

#: Exit codes pinned here must match repro.service.status.
JOBS_EXIT_OK = 0
JOBS_EXIT_RUNNING = 3


def _env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _jobs(args: Sequence[str], timeout: float = 900) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "jobs", *args],
        capture_output=True, text=True, env=_env(), timeout=timeout,
    )


def _submit(journal: Path, count: int) -> subprocess.CompletedProcess:
    return _jobs([
        "submit", "tiny", "--journal", str(journal),
        "--effort", "micro", "--tracks", "10", "--vtracks", "5",
        "--count", str(count),
    ])


def _layouts(journal: Path) -> tuple[dict, dict]:
    """(job_id -> layout_sha256, full status payload) via the CLI."""
    proc = _jobs(["status", "--journal", str(journal), "--json"])
    payload = json.loads(proc.stdout) if proc.stdout.strip() else {}
    digests = {
        job["job_id"]: (job.get("result") or {}).get("layout_sha256")
        for job in payload.get("jobs", [])
    }
    payload["actual_exit"] = proc.returncode
    return digests, payload


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="service-smoke-out",
                        help="artifact directory (default service-smoke-out)")
    parser.add_argument("--count", type=int, default=2,
                        help="jobs per batch (default 2)")
    parser.add_argument("--budget", type=float, default=1.0,
                        help="first chaos supervisor's wall-clock budget "
                        "so the restart has work left (default 1.0s)")
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    verdict: dict = {"count": args.count, "scenarios": {}}
    ok = True

    def record(name: str, passed: bool, extra: Optional[dict] = None,
               proc: Optional[subprocess.CompletedProcess] = None) -> bool:
        verdict["scenarios"][name] = {
            "passed": passed, **(extra or {}),
        }
        print(f"{name}: [{'ok' if passed else 'FAIL'}]"
              + (f" {extra}" if extra else ""))
        if not passed and proc is not None:
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return passed

    ledger = outdir / "ledger.jsonl"
    patient = [
        "--stall-timeout", "3600", "--startup-grace", "3600",
        "--ledger", str(ledger),
    ]

    # -- 1. reference batch: no faults, straight through ----------------
    ref_journal = outdir / "reference.jsonl"
    _submit(ref_journal, args.count)
    run = _jobs(["run", "--journal", str(ref_journal), *patient])
    ok = record("reference_run", run.returncode == JOBS_EXIT_OK,
                {"actual_exit": run.returncode}, run) and ok
    reference, ref_status = _layouts(ref_journal)
    (outdir / "status_reference.json").write_text(
        json.dumps(ref_status, indent=2, sort_keys=True), encoding="utf-8"
    )
    ok = record(
        "reference_status",
        ref_status.get("actual_exit") == JOBS_EXIT_OK
        and len(reference) == args.count
        and all(reference.values()),
        {"layouts": reference},
    ) and ok

    # -- 2. chaos batch: SIGKILL every first attempt, drain mid-batch ---
    chaos_journal = outdir / "chaos.jsonl"
    _submit(chaos_journal, args.count)
    first = _jobs([
        "run", "--journal", str(chaos_journal), *patient,
        "--chaos", "kill@2000", "--budget", str(args.budget),
    ])
    # Budget drains exit 3 with work pending; a fast host may finish
    # the whole batch inside the budget (exit 0) — both are clean.
    ok = record(
        "chaos_first_supervisor",
        first.returncode in (JOBS_EXIT_OK, JOBS_EXIT_RUNNING),
        {"actual_exit": first.returncode}, first,
    ) and ok

    # -- 3. supervisor restart: replay the journal and finish ----------
    resume = _jobs([
        "resume", "--journal", str(chaos_journal), *patient,
        "--chaos", "kill@2000",
    ])
    ok = record("restarted_supervisor", resume.returncode == JOBS_EXIT_OK,
                {"actual_exit": resume.returncode}, resume) and ok

    # -- verdicts -------------------------------------------------------
    events = [
        json.loads(line)
        for line in chaos_journal.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    kills = [e for e in events if e.get("kind") == "crashed"
             and e.get("exitcode") == -signal.SIGKILL]
    ok = record("worker_sigkills_recorded", bool(kills),
                {"sigkill_crashes": len(kills)}) and ok

    chaos, chaos_status = _layouts(chaos_journal)
    (outdir / "status_chaos.json").write_text(
        json.dumps(chaos_status, indent=2, sort_keys=True), encoding="utf-8"
    )
    ok = record(
        "journal_replays_cleanly",
        chaos_status.get("actual_exit") == JOBS_EXIT_OK
        and not chaos_status.get("problems"),
        {"actual_exit": chaos_status.get("actual_exit"),
         "problems": chaos_status.get("problems")},
    ) and ok
    ok = record(
        "retried_layouts_bit_identical",
        sorted(chaos.values()) == sorted(reference.values())
        and all(chaos.values()),
        {"reference": reference, "chaos": chaos},
    ) and ok

    try:
        recorded = read_ledger(ledger)
        records, problems = recorded.records, recorded.problems
    except LedgerError as exc:
        records, problems = [], [str(exc)]
    digests = [record.get("record_digest") for record in records]
    ref_digests = sorted(map(str, digests[:args.count]))
    chaos_digests = sorted(map(str, digests[args.count:]))
    ok = record(
        "ledger_identities_match",
        not problems
        and len(records) == 2 * args.count
        and chaos_digests == ref_digests,
        {"problems": problems, "records": len(records),
         "reference": ref_digests, "chaos": chaos_digests},
    ) and ok

    verdict["passed"] = ok
    (outdir / "service_smoke.json").write_text(
        json.dumps(verdict, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"service smoke: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
