"""Sanitizer smoke check: a sanitized anneal must be invisible.

Runs the same short simultaneous anneal twice on a small generated
benchmark — once plain, once with ``AnnealerConfig(sanitize=True)`` —
at two channel widths: 10 tracks, and 6, where routing fails often and
nets stay unrouted, so the sanitizer's cache probes inspect failures
the negative caches have re-tested.  At each width it asserts:

1. the sanitized run completes with zero :class:`SanitizerError`
   (every move's rollback digest, cache probe, and invariant audit
   passed),
2. the two runs land on bit-identical metrics (the sanitizer consumes
   no RNG and mutates no semantic state), and
3. both runs, traced, carry equal per-stage metric counters: repair
   attempts, their outcomes and the negative-cache hits.  The
   sanitizer's cache probes re-test woken failures, parking them again
   or dropping them; repair must still make exactly the same attempts.

Exit code 0 on success, 1 on any mismatch or sanitizer violation.
CI runs this as the ``sanitize-smoke`` job.
"""

from __future__ import annotations

import argparse
import sys
from itertools import zip_longest

from repro import architecture_for
from repro.core import AnnealerConfig, ScheduleConfig, SimultaneousAnnealer
from repro.lint.runtime import SanitizerError
from repro.netlist import tiny


#: Channel widths the pair runs at: routable, and below the design's
#: minimum.
WIDTHS = (10, 6)


def smoke_config(seed: int, sanitize: bool) -> AnnealerConfig:
    return AnnealerConfig(
        seed=seed,
        attempts_per_cell=4,
        initial="clustered",
        greedy_rounds=1,
        schedule=ScheduleConfig(
            lambda_=1.4, max_temperatures=16, freeze_patience=2
        ),
        sanitize=sanitize,
        trace=True,
    )


def comparable_metrics(result) -> dict[str, float]:
    return {k: v for k, v in result.metrics().items() if k != "wall_time_s"}


def stage_counters(result) -> list[dict]:
    """Each stage event's metric counter deltas, in stage order."""
    return [stage.get("metrics", {}) for stage in result.trace.stages]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--cells", type=int, default=32)
    args = parser.parse_args(argv)

    netlist = tiny(seed=4, num_cells=args.cells, depth=4)
    for tracks in WIDTHS:
        if not check_width(netlist, tracks, args.seed):
            return 1
    return 0


def check_width(netlist, tracks: int, seed: int) -> bool:
    """Run the plain/sanitized pair at one channel width; True if clean."""
    arch = architecture_for(netlist, tracks_per_channel=tracks)

    plain = SimultaneousAnnealer(
        netlist, arch, smoke_config(seed, sanitize=False)
    ).run()

    try:
        sanitized = SimultaneousAnnealer(
            netlist, arch, smoke_config(seed, sanitize=True)
        ).run()
    except SanitizerError as exc:
        print(f"FAIL: sanitizer violation during anneal at {tracks} tracks:"
              f"\n{exc}")
        return False

    left, right = comparable_metrics(plain), comparable_metrics(sanitized)
    mismatches = {
        key: (left[key], right[key]) for key in left if left[key] != right[key]
    }
    for key, (a, b) in sorted(mismatches.items()):
        print(f"FAIL: metric {key!r} diverged at {tracks} tracks: "
              f"plain={a!r} sanitized={b!r}")
    if mismatches:
        return False

    pairs = zip_longest(stage_counters(plain), stage_counters(sanitized))
    for stage, (a, b) in enumerate(pairs):
        if a != b:
            print(f"FAIL: trace counters diverged at {tracks} tracks in "
                  f"stage {stage}: plain={a!r} sanitized={b!r}")
            return False

    print(
        f"OK: sanitized anneal clean, bit-identical and counter-identical "
        f"at {tracks} tracks "
        f"({plain.moves_attempted} moves, "
        f"T={plain.worst_delay:.4f} ns, "
        f"fully_routed={plain.fully_routed})"
    )
    return True


if __name__ == "__main__":
    sys.exit(main())
