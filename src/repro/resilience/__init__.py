"""Crash safety: atomic artifacts, checkpoint/resume, fault injection.

The anneal is the longest-running stage of the flow; this package makes
it survivable (see ``docs/ROBUSTNESS.md``):

* :mod:`repro.resilience.atomic` — the shared tmp + fsync + rename
  writer behind every single-document artifact (layouts, snapshots,
  checkpoints, finished traces), so a crash can never leave a
  truncated file behind;
* :mod:`repro.resilience.jsonl` — the line codec, locked append and
  damage contract behind every append-only log (ledger, job journal,
  traces);
* :mod:`repro.resilience.checkpoint` — the schema-versioned,
  digest-protected checkpoint format plus the layout snapshot codec the
  annealer's best-so-far tracking and resume path share;
* :mod:`repro.resilience.interrupt` — SIGINT/SIGTERM handlers and
  wall-clock/stage/move budgets that stop a run cleanly at a stage
  boundary;
* :mod:`repro.resilience.faults` — the deterministic fault-injection
  harness that proves the recovery paths actually recover.

Submodules are imported lazily so that low layers (``repro.flows``,
``repro.obs``, ``repro.service``) can pull ``atomic`` and ``jsonl``
(exported as a module) without dragging :mod:`repro.core` in through
the checkpoint codec.
"""

from __future__ import annotations

_EXPORTS = {
    "atomic_write_text": ".atomic",
    "jsonl": ".jsonl",
    "CHECKPOINT_SCHEMA_VERSION": ".checkpoint",
    "CheckpointError": ".checkpoint",
    "LayoutSnapshot": ".checkpoint",
    "config_from_payload": ".checkpoint",
    "read_checkpoint": ".checkpoint",
    "resume_digest": ".checkpoint",
    "write_checkpoint": ".checkpoint",
    "InterruptController": ".interrupt",
    "FaultError": ".faults",
    "FaultInjector": ".faults",
    "FaultPlan": ".faults",
    "RouterFault": ".faults",
    "SimulatedCrash": ".faults",
    "corrupt_file": ".faults",
    "truncate_file": ".faults",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name, __name__)
    return module if module_name == f".{name}" else getattr(module, name)
