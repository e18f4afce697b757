"""Tests for repro.service: the fault-tolerant anneal supervisor.

The acceptance centerpiece is the golden determinism test: a batch run
under injected worker SIGKILLs plus a supervisor restart must produce
layouts bit-identical to the same batch run with no faults at all —
retries resume from checkpoints, and resume is bit-exact.  Around it
sit unit tests for the journal's event fold, crash recovery, status
classification, and subprocess pins for the ``jobs`` CLI exit codes.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service.journal import (
    JOURNAL_SCHEMA_VERSION,
    JobSpec,
    JournalError,
    append_event,
    load_jobs,
    next_job_id,
    read_journal,
    replay,
)
from repro.service.status import (
    JOBS_EXIT_FAILED,
    JOBS_EXIT_JOURNAL,
    JOBS_EXIT_OK,
    JOBS_EXIT_RUNNING,
    JOBS_EXIT_STALLED,
    batch_exit_code,
    classify,
)
from repro.service.supervisor import Supervisor, SupervisorConfig
from repro.service.worker import (
    WORKER_DONE,
    WORKER_SETUP,
    job_paths,
    read_result,
    run_job,
)

REPO_ROOT = Path(__file__).parent.parent


def micro_spec(seed=0, **overrides):
    """The fastest real job the service can run (~1s of anneal)."""
    base = dict(
        design="tiny", seed=seed, effort="micro", tracks=10, vtracks=5
    )
    base.update(overrides)
    return JobSpec(**base)


def patient_config(**overrides):
    """Supervisor config with watchdog thresholds far above anything a
    loaded CI machine can trip by accident."""
    base = dict(
        workers=2,
        stall_timeout_s=3600.0,
        startup_grace_s=3600.0,
        heartbeat_min_interval_s=0.05,
    )
    base.update(overrides)
    return SupervisorConfig(**base)


def comparable(metrics):
    return {k: v for k, v in metrics.items() if k != "wall_time_s"}


def reaped_pid():
    """A pid that provably belonged to us and is now dead."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def submit_only_journal(path, count=1):
    for index in range(count):
        append_event(path, {
            "kind": "submitted",
            "job_id": f"j{index + 1:04d}",
            "spec": micro_spec(seed=index).to_record(),
        })


def jobs_cli(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "jobs", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


# ----------------------------------------------------------------------
# Job specs
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_record_roundtrip(self):
        spec = micro_spec(seed=7, overrides={"greedy_rounds": 1})
        assert JobSpec.from_record(spec.to_record()) == spec

    def test_unknown_fields_rejected(self):
        record = micro_spec().to_record()
        record["surprise"] = 1
        with pytest.raises(JournalError, match="unknown fields"):
            JobSpec.from_record(record)

    def test_non_object_rejected(self):
        with pytest.raises(JournalError):
            JobSpec.from_record("not a dict")


# ----------------------------------------------------------------------
# The journal: atomic appends and the event fold
# ----------------------------------------------------------------------
class TestJournal:
    def test_append_stamps_version_and_sequence(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        first = append_event(path, {"kind": "submitted", "job_id": "j0001",
                                    "spec": micro_spec().to_record()})
        second = append_event(path, {"kind": "cancel", "job_id": "j0001"})
        assert (first["v"], first["seq"]) == (JOURNAL_SCHEMA_VERSION, 1)
        assert second["seq"] == 2
        events, problems = read_journal(path)
        assert [e["seq"] for e in events] == [1, 2]
        assert problems == []

    def test_missing_journal_is_empty(self, tmp_path):
        assert read_journal(tmp_path / "absent.jsonl") == ([], [])

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text(json.dumps({"kind": "submitted", "v": 999,
                                    "seq": 1}) + "\n" + "x\n")
        with pytest.raises(JournalError, match="unsupported journal"):
            read_journal(path)

    def test_replay_full_lifecycle(self):
        spec = micro_spec()
        jobs, problems = replay([
            {"kind": "submitted", "job_id": "j0001",
             "spec": spec.to_record()},
            {"kind": "running", "job_id": "j0001", "attempt": 1,
             "pid": 111, "checkpoint": "ck", "heartbeat": "hb"},
            {"kind": "crashed", "job_id": "j0001", "attempt": 1,
             "exitcode": -9, "reason": "worker SIGKILLed"},
            {"kind": "running", "job_id": "j0001", "attempt": 2,
             "pid": 222, "checkpoint": "ck", "heartbeat": "hb"},
            {"kind": "done", "job_id": "j0001",
             "result": {"layout_sha256": "abc"}},
        ])
        assert problems == []
        job = jobs["j0001"]
        assert job.state == "done"
        assert job.attempts == 2
        assert job.pid is None
        assert job.result == {"layout_sha256": "abc"}
        # done clears the stale crash reason; it no longer describes
        # the job's fate.
        assert job.reason is None

    def test_crash_without_checkpoint_folds_to_submitted(self):
        jobs, _ = replay([
            {"kind": "submitted", "job_id": "j0001",
             "spec": micro_spec().to_record()},
            {"kind": "running", "job_id": "j0001", "attempt": 1,
             "pid": 11},
            {"kind": "crashed", "job_id": "j0001", "reason": "died"},
        ])
        assert jobs["j0001"].state == "submitted"
        assert jobs["j0001"].reason == "died"

    def test_crash_with_checkpoint_folds_to_checkpointed(self):
        jobs, _ = replay([
            {"kind": "submitted", "job_id": "j0001",
             "spec": micro_spec().to_record()},
            {"kind": "running", "job_id": "j0001", "attempt": 1,
             "pid": 11, "checkpoint": "ck"},
            {"kind": "crashed", "job_id": "j0001", "reason": "died"},
        ])
        assert jobs["j0001"].state == "checkpointed"

    def test_cancel_is_a_request_not_a_state(self):
        jobs, _ = replay([
            {"kind": "submitted", "job_id": "j0001",
             "spec": micro_spec().to_record()},
            {"kind": "cancel", "job_id": "j0001"},
        ])
        assert jobs["j0001"].state == "submitted"
        assert jobs["j0001"].cancel_requested

    def test_unknown_kinds_and_jobs_are_problems_not_fatal(self):
        jobs, problems = replay([
            {"kind": "submitted", "job_id": "j0001",
             "spec": micro_spec().to_record()},
            {"kind": "teleported", "job_id": "j0001"},
            {"kind": "done", "job_id": "j9999"},
            {"kind": "supervisor", "job_id": None, "note": "ignored"},
        ])
        assert jobs["j0001"].state == "submitted"
        assert len(problems) == 2

    def test_next_job_id_is_sequential(self):
        jobs, _ = replay([
            {"kind": "submitted", "job_id": "j0007",
             "spec": micro_spec().to_record()},
        ])
        assert next_job_id(jobs) == "j0008"
        assert next_job_id({}) == "j0001"


# ----------------------------------------------------------------------
# The worker body
# ----------------------------------------------------------------------
class TestWorker:
    def test_setup_error_is_permanent(self, tmp_path):
        bad = micro_spec(overrides={"no_such_knob": 1})
        assert run_job("j0001", bad, tmp_path) == WORKER_SETUP

    def test_done_writes_verifiable_result(self, tmp_path):
        spec = micro_spec()
        assert run_job("j0001", spec, tmp_path) == WORKER_DONE
        record = read_result(job_paths(tmp_path, "j0001").result)
        assert record["job_id"] == "j0001"
        assert len(record["layout_sha256"]) == 64
        assert record["metrics"]["fully_routed"] == 1.0


# ----------------------------------------------------------------------
# Golden determinism through the fault harness (acceptance)
# ----------------------------------------------------------------------
class TestGoldenDeterminism:
    def test_sigkilled_and_restarted_batch_is_bit_identical(self, tmp_path):
        """The whole point of the service: a batch whose workers are
        SIGKILLed mid-anneal and whose supervisor is restarted mid-batch
        converges to exactly the layouts of an undisturbed batch."""
        specs = [micro_spec(seed=0), micro_spec(seed=1)]

        # Reference: no faults, one supervisor, straight through.
        ref_journal = tmp_path / "ref.jsonl"
        ref = Supervisor(ref_journal, config=patient_config())
        for spec in specs:
            ref.submit(spec)
        summary = ref.run_until_complete()
        assert summary["states"] == {"done": len(specs)}
        reference = {
            job.spec.seed: job.result["layout_sha256"]
            for job in ref.jobs.values()
        }
        ref_metrics = {
            job.spec.seed: comparable(read_result(
                job_paths(ref.workdir, job.job_id).result)["metrics"])
            for job in ref.jobs.values()
        }

        # Chaos: every first attempt is SIGKILLed mid-anneal, and the
        # first supervisor's budget drains it mid-batch.
        chaos_journal = tmp_path / "chaos.jsonl"
        chaos_config = patient_config(chaos="kill@2000", max_seconds=0.8)
        first = Supervisor(chaos_journal, config=chaos_config)
        for spec in specs:
            first.submit(spec)
        first.run_until_complete()

        # Restart: a fresh supervisor replays the journal, reconciles,
        # and finishes the batch (no chaos budget this time — retries
        # resume from checkpoints either way).
        second = Supervisor(
            chaos_journal, config=patient_config(chaos="kill@2000")
        )
        second.recover()
        summary = second.run_until_complete()
        assert summary["states"] == {"done": len(specs)}

        # The SIGKILLs really happened: at least one crash with the
        # kernel's -SIGKILL exit is on the record.
        events, problems = read_journal(chaos_journal)
        assert problems == []
        kills = [e for e in events if e.get("kind") == "crashed"
                 and e.get("exitcode") == -signal.SIGKILL]
        assert kills, "chaos plan never fired"

        # Bit-identical results, fault schedule notwithstanding.
        for job in second.jobs.values():
            assert job.state == "done"
            assert job.attempts >= 2
            assert job.result["layout_sha256"] == reference[job.spec.seed]
            record = read_result(
                job_paths(second.workdir, job.job_id).result
            )
            assert comparable(record["metrics"]) \
                == ref_metrics[job.spec.seed]

        # And the journal replays cleanly after all that.
        jobs, fold_problems = load_jobs(chaos_journal)
        assert fold_problems == []
        assert {j.state for j in jobs.values()} == {"done"}


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------
class TestRecovery:
    def test_dead_pid_recorded_as_crash(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        append_event(journal, {"kind": "submitted", "job_id": "j0001",
                               "spec": micro_spec().to_record()})
        append_event(journal, {"kind": "running", "job_id": "j0001",
                               "attempt": 1, "pid": reaped_pid()})
        supervisor = Supervisor(journal, config=patient_config())
        notes = supervisor.recover()
        assert len(notes) == 1 and "died" in notes[0]
        # No checkpoint was recorded, so the job folds to submitted.
        assert supervisor.jobs["j0001"].state == "submitted"

    def test_live_orphan_is_reaped(self, tmp_path):
        """A live orphan is killed only because its heartbeat *proves*
        ownership: this pid, minted on this host."""
        orphan = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(120)"]
        )
        try:
            journal = tmp_path / "jobs.jsonl"
            heartbeat = tmp_path / "hb.json"
            heartbeat.write_text(json.dumps({
                "schema_version": 1, "pid": orphan.pid,
                "host": socket.gethostname(),
            }))
            append_event(journal, {"kind": "submitted", "job_id": "j0001",
                                   "spec": micro_spec().to_record()})
            append_event(journal, {"kind": "running", "job_id": "j0001",
                                   "attempt": 1, "pid": orphan.pid,
                                   "host": socket.gethostname(),
                                   "checkpoint": "ck",
                                   "heartbeat": str(heartbeat)})
            supervisor = Supervisor(journal, config=patient_config())
            notes = supervisor.recover()
            assert len(notes) == 1 and "orphaned" in notes[0]
            assert orphan.wait(timeout=30) == -signal.SIGKILL
            assert supervisor.jobs["j0001"].state == "checkpointed"
        finally:
            if orphan.poll() is None:
                orphan.kill()
                orphan.wait()

    def test_unproven_live_pid_is_not_killed(self, tmp_path):
        """A live pid with no matching heartbeat may belong to anyone
        (pid recycling); recovery records the crash but must not shoot
        a process it cannot prove is the orphaned worker."""
        bystander = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(120)"]
        )
        try:
            journal = tmp_path / "jobs.jsonl"
            append_event(journal, {"kind": "submitted", "job_id": "j0001",
                                   "spec": micro_spec().to_record()})
            append_event(journal, {"kind": "running", "job_id": "j0001",
                                   "attempt": 1, "pid": bystander.pid,
                                   "host": socket.gethostname(),
                                   "checkpoint": "ck"})
            supervisor = Supervisor(journal, config=patient_config())
            notes = supervisor.recover()
            assert len(notes) == 1 and "not killed" in notes[0]
            # The bystander survived recovery.
            assert bystander.poll() is None
            # The job is still rescheduled from its checkpoint.
            assert supervisor.jobs["j0001"].state == "checkpointed"
        finally:
            if bystander.poll() is None:
                bystander.kill()
                bystander.wait()

    def test_foreign_live_worker_left_alone(self, tmp_path):
        """A journal on a shared filesystem can name a worker launched
        on another machine; while its heartbeat is fresh, recovery
        must neither signal the (meaningless local) pid nor reschedule
        the job under a still-live writer."""
        journal = tmp_path / "jobs.jsonl"
        heartbeat = tmp_path / "hb.json"
        heartbeat.write_text(json.dumps({
            "schema_version": 1, "pid": 12345, "host": "elsewhere",
        }))
        append_event(journal, {"kind": "submitted", "job_id": "j0001",
                               "spec": micro_spec().to_record()})
        append_event(journal, {"kind": "running", "job_id": "j0001",
                               "attempt": 1, "pid": 12345,
                               "host": "elsewhere",
                               "heartbeat": str(heartbeat)})
        supervisor = Supervisor(journal, config=patient_config())
        notes = supervisor.recover()
        assert len(notes) == 1 and "leaving it alone" in notes[0]
        assert supervisor.jobs["j0001"].state == "running"
        events, _ = read_journal(journal)
        assert not [e for e in events if e.get("kind") == "crashed"]

    def test_foreign_stale_worker_presumed_dead(self, tmp_path):
        """Same shared-filesystem journal, but the remote heartbeat
        went stale: the attempt is recorded as crashed (no local kill
        is attempted — the pid means nothing here)."""
        journal = tmp_path / "jobs.jsonl"
        heartbeat = tmp_path / "hb.json"
        heartbeat.write_text(json.dumps({
            "schema_version": 1, "pid": 12345, "host": "elsewhere",
        }))
        ancient = time.time() - 10_000
        os.utime(heartbeat, (ancient, ancient))
        append_event(journal, {"kind": "submitted", "job_id": "j0001",
                               "spec": micro_spec().to_record()})
        append_event(journal, {"kind": "running", "job_id": "j0001",
                               "attempt": 1, "pid": 12345,
                               "host": "elsewhere", "checkpoint": "ck",
                               "heartbeat": str(heartbeat)})
        supervisor = Supervisor(
            journal, config=patient_config(stall_timeout_s=30.0)
        )
        notes = supervisor.recover()
        assert len(notes) == 1 and "presumed dead" in notes[0]
        assert supervisor.jobs["j0001"].state == "checkpointed"

    def test_leftover_heartbeat_does_not_kill_fresh_attempt(self, tmp_path):
        """A heartbeat file left by a previous attempt must not trip
        the stall watchdog before the new worker's first beat — the
        launch unlinks it, so the retry-after-stall path converges."""
        journal = tmp_path / "jobs.jsonl"
        supervisor = Supervisor(
            journal,
            # Far above any plausible CI beat gap, far below the
            # leftover file's 10000s age — only the stale file could
            # trip this threshold.
            config=patient_config(stall_timeout_s=60.0, workers=1),
        )
        job_id = supervisor.submit(micro_spec())
        paths = job_paths(supervisor.workdir, job_id)
        paths.root.mkdir(parents=True, exist_ok=True)
        paths.heartbeat.write_text(json.dumps(
            {"schema_version": 1, "pid": 1}
        ))
        ancient = time.time() - 10_000
        os.utime(paths.heartbeat, (ancient, ancient))
        summary = supervisor.run_until_complete()
        assert summary["states"] == {"done": 1}
        # One attempt: the stale file never got the worker killed.
        assert supervisor.jobs[job_id].attempts == 1


# ----------------------------------------------------------------------
# Status classification
# ----------------------------------------------------------------------
def terminal_journal(path, states):
    """A journal whose jobs ended in the given terminal states."""
    for index, state in enumerate(states):
        job_id = f"j{index + 1:04d}"
        append_event(path, {"kind": "submitted", "job_id": job_id,
                            "spec": micro_spec(seed=index).to_record()})
        append_event(path, {"kind": "running", "job_id": job_id,
                            "attempt": 1, "pid": 1})
        append_event(path, {"kind": state, "job_id": job_id,
                            "reason": f"ended {state}"})


class TestStatusClassification:
    def test_all_done_is_ok(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        terminal_journal(journal, ["done", "done", "cancelled"])
        statuses, code, problems = classify(journal)
        assert code == JOBS_EXIT_OK
        assert problems == []

    def test_any_failure_beats_ok(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        terminal_journal(journal, ["done", "failed"])
        _, code, _ = classify(journal)
        assert code == JOBS_EXIT_FAILED

    def test_pending_work_reports_in_progress(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        submit_only_journal(journal, count=2)
        statuses, code, _ = classify(journal)
        assert code == JOBS_EXIT_RUNNING
        assert {s.status for s in statuses} == {"pending"}

    def test_dead_worker_pid_reports_stalled(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        terminal_journal(journal, ["failed"])
        append_event(journal, {"kind": "submitted", "job_id": "j0002",
                               "spec": micro_spec(seed=1).to_record()})
        # The host stamp proves the pid is probeable from here.
        append_event(journal, {"kind": "running", "job_id": "j0002",
                               "attempt": 1, "pid": reaped_pid(),
                               "host": socket.gethostname()})
        statuses, code, _ = classify(journal, stall_timeout_s=3600.0)
        # Stalled outranks failed: it needs a human (or a resume) NOW.
        assert code == JOBS_EXIT_STALLED
        by_id = {s.job_id: s for s in statuses}
        assert by_id["j0002"].status == "stalled"
        assert "dead" in by_id["j0002"].detail

    def test_live_fresh_worker_reports_running(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        append_event(journal, {"kind": "submitted", "job_id": "j0001",
                               "spec": micro_spec().to_record()})
        heartbeat = tmp_path / "hb.json"
        heartbeat.write_text(json.dumps(
            {"schema_version": 1, "pid": os.getpid()}
        ))
        append_event(journal, {"kind": "running", "job_id": "j0001",
                               "attempt": 1, "pid": os.getpid(),
                               "heartbeat": str(heartbeat)})
        statuses, code, _ = classify(journal, stall_timeout_s=3600.0)
        assert code == JOBS_EXIT_RUNNING
        assert statuses[0].status == "running"

    def test_remote_pid_defers_to_staleness_clock(self, tmp_path):
        """A running event from another machine must not be signal-0
        probed here — a recycled local pid would misreport stalled (or
        a dead remote worker would look alive).  With no heartbeat
        file either, the verdict stays with the staleness clock."""
        journal = tmp_path / "jobs.jsonl"
        append_event(journal, {"kind": "submitted", "job_id": "j0001",
                               "spec": micro_spec().to_record()})
        append_event(journal, {"kind": "running", "job_id": "j0001",
                               "attempt": 1, "pid": reaped_pid(),
                               "host": "elsewhere"})
        statuses, code, _ = classify(journal, stall_timeout_s=3600.0)
        assert statuses[0].status == "running"
        assert code == JOBS_EXIT_RUNNING

    def test_empty_batch_is_ok(self, tmp_path):
        assert batch_exit_code([]) == JOBS_EXIT_OK


# ----------------------------------------------------------------------
# CLI exit codes (subprocess pins — the documented contract)
# ----------------------------------------------------------------------
class TestJobsCliExitCodes:
    def test_status_all_done_exits_0(self, tmp_path):
        terminal_journal(tmp_path / "jobs.jsonl", ["done", "done"])
        proc = jobs_cli("status", cwd=tmp_path)
        assert proc.returncode == JOBS_EXIT_OK, proc.stderr

    def test_status_any_failed_exits_1(self, tmp_path):
        terminal_journal(tmp_path / "jobs.jsonl", ["done", "failed"])
        proc = jobs_cli("status", cwd=tmp_path)
        assert proc.returncode == JOBS_EXIT_FAILED

    def test_status_in_progress_exits_3(self, tmp_path):
        submit_only_journal(tmp_path / "jobs.jsonl")
        proc = jobs_cli("status", cwd=tmp_path)
        assert proc.returncode == JOBS_EXIT_RUNNING

    def test_status_corrupt_journal_exits_4(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        submit_only_journal(journal)
        journal.write_text("GARBAGE\n" + journal.read_text())
        proc = jobs_cli("status", cwd=tmp_path)
        assert proc.returncode == JOBS_EXIT_JOURNAL

    def test_status_dead_worker_exits_6(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        submit_only_journal(journal)
        append_event(journal, {"kind": "running", "job_id": "j0001",
                               "attempt": 1, "pid": reaped_pid(),
                               "host": socket.gethostname()})
        proc = jobs_cli(
            "status", "--stall-timeout", "3600", cwd=tmp_path
        )
        assert proc.returncode == JOBS_EXIT_STALLED
        assert "stalled" in proc.stdout

    def test_status_json_reports_exit_code(self, tmp_path):
        terminal_journal(tmp_path / "jobs.jsonl", ["failed"])
        proc = jobs_cli("status", "--json", cwd=tmp_path)
        assert proc.returncode == JOBS_EXIT_FAILED
        payload = json.loads(proc.stdout)
        assert payload["exit_code"] == JOBS_EXIT_FAILED
        assert payload["jobs"][0]["status"] == "failed"

    def test_submit_run_status_end_to_end(self, tmp_path):
        submit = jobs_cli(
            "submit", "tiny", "--effort", "micro",
            "--tracks", "10", "--vtracks", "5", cwd=tmp_path,
        )
        assert submit.returncode == 0, submit.stderr
        assert "j0001: submitted" in submit.stdout
        run = jobs_cli(
            "run", "--workers", "1",
            "--stall-timeout", "3600", "--startup-grace", "3600",
            cwd=tmp_path,
        )
        assert run.returncode == 0, run.stderr + run.stdout
        status = jobs_cli("status", cwd=tmp_path)
        assert status.returncode == JOBS_EXIT_OK
        assert "layout=" in status.stdout

    def test_budget_drain_is_not_a_signal_drain(self, tmp_path):
        """A --budget drain reports its cause; only signal-initiated
        drains may map to exit 130."""
        journal = tmp_path / "jobs.jsonl"
        supervisor = Supervisor(
            journal, config=patient_config(max_seconds=0.01, workers=1)
        )
        supervisor.submit(micro_spec())
        summary = supervisor.run_until_complete()
        assert summary["drained"] is True
        assert summary["drain_reason"] == "budget"

    def test_sigint_exits_130_even_with_budget(self, tmp_path):
        """The documented signal contract: SIGINT drains and exits 130
        regardless of an armed --budget (which would otherwise claim
        the drain and exit 0/1/3)."""
        journal = tmp_path / "jobs.jsonl"
        submit_only_journal(journal, count=3)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "jobs", "run",
             "--journal", str(journal), "--workers", "1",
             "--stall-timeout", "3600", "--startup-grace", "3600",
             "--budget", "3600"],
            cwd=tmp_path, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            # Signal only once the batch is demonstrably in flight
            # (the drain handlers are installed before any launch).
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if (journal.exists()
                        and '"kind":"running"' in journal.read_text()):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("supervisor never started a worker")
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, out + err

    def test_cancel_unknown_job_exits_2(self, tmp_path):
        submit_only_journal(tmp_path / "jobs.jsonl")
        proc = jobs_cli("cancel", "j9999", cwd=tmp_path)
        assert proc.returncode == 2

    def test_cancel_before_run_cancels(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        submit_only_journal(journal)
        proc = jobs_cli("cancel", "j0001", cwd=tmp_path)
        assert proc.returncode == 0
        supervisor = Supervisor(journal, config=patient_config())
        summary = supervisor.run_until_complete()
        assert summary["states"] == {"cancelled": 1}
