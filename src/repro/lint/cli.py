"""Command line for the static pass: ``python -m repro.lint [paths]``.

Also reachable as ``repro-fpga lint`` from the main CLI.  Exit codes
follow the run CLI's convention:

* ``0`` — clean (no findings; with ``--baseline``, nothing new and no
  stale waivers);
* ``1`` — findings (or a baseline ratchet violation: a new finding, or
  a waiver whose finding has been fixed but not deleted);
* ``2`` — usage/config error (unknown rule, missing path, malformed
  baseline).

``--deep`` adds the whole-program analysis (call graph + effect
inference, see :mod:`repro.lint.deep`); ``--format json|sarif`` and
``--output`` feed machine consumers while stdout keeps the human text;
``--dot`` exports the call graph for Graphviz.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .engine import lint_paths
from .rules import UndocumentedMutationRule, default_rules, rules_by_name

#: Typed exit codes (mirrors repro.cli's 0/1/2 convention).
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the lint CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-fpga lint",
        description="Determinism & invariant static analysis for the "
        "repro codebase (see docs/LINT.md)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated subset of rule names to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the available rules (per-file and deep) and exit",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress the summary line (diagnostics only)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parse and check files in N parallel processes "
        "(per-file rules only; output order is unchanged)",
    )
    parser.add_argument(
        "--deep", action="store_true",
        help="run the whole-program analysis: call graph, transitive "
        "effects, and the deep rules (transitive-nondeterminism, "
        "unjournaled-mutation, effect-docstring-sync)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="ratchet against a committed baseline: findings matching a "
        "waiver pass, new findings fail, stale waivers fail",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format for --output (stdout always gets text)",
    )
    parser.add_argument(
        "--output", metavar="FILE",
        help="write the formatted report to FILE",
    )
    parser.add_argument(
        "--dot", metavar="FILE",
        help="export the call graph as Graphviz DOT (implies --deep "
        "analysis of the given paths)",
    )
    parser.add_argument(
        "--dot-root", metavar="QUALNAME",
        help="restrict the DOT export to the subtree reachable from "
        "this function (suffix match, e.g. 'transaction.apply_move')",
    )
    parser.add_argument(
        "--dot-depth", type=int, metavar="N",
        help="bound the DOT subtree depth (with --dot-root)",
    )
    return parser


def _select_rules(names_arg: str):
    available = rules_by_name()
    selected = []
    for name in names_arg.split(","):
        name = name.strip()
        if name not in available:
            print(
                f"error: unknown rule {name!r}; available: "
                f"{', '.join(sorted(available))}",
                file=sys.stderr,
            )
            return None
        selected.append(available[name])
    return tuple(selected)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Lint CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        from .deep import DEEP_RULES

        for rule in default_rules():
            print(f"{rule.name:>28}  {rule.summary}")
        for name in sorted(DEEP_RULES):
            marker = "" if name == "unused-suppression" else " [--deep]"
            print(f"{name:>28}  {DEEP_RULES[name]}{marker}")
        return EXIT_CLEAN

    rules = None
    if args.rules:
        rules = _select_rules(args.rules)
        if rules is None:
            return EXIT_USAGE_ERROR

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return EXIT_USAGE_ERROR

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"error: no such path: {p}", file=sys.stderr)
        return EXIT_USAGE_ERROR

    deep_needed = args.deep or args.dot is not None
    per_file_rules = rules
    if args.deep and rules is None:
        # effect-docstring-sync supersedes the per-file verb heuristic:
        # running both would double-report every mutation finding.
        per_file_rules = tuple(
            rule for rule in default_rules()
            if not isinstance(rule, UndocumentedMutationRule)
        )

    findings = lint_paths(paths, rules=per_file_rules, jobs=args.jobs)

    program = None
    if deep_needed:
        from .deep import run_deep

        result = run_deep(paths)
        program = result.program
        if args.deep:
            findings = sorted(
                findings + result.diagnostics,
                key=lambda d: (d.path, d.line, d.col, d.rule),
            )
        if args.dot is not None:
            try:
                dot_text = program.to_dot(
                    root=args.dot_root, max_depth=args.dot_depth
                )
            except KeyError as exc:
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return EXIT_USAGE_ERROR
            Path(args.dot).write_text(dot_text, encoding="utf-8")

    baseline_result = None
    if args.baseline is not None:
        from .deep import BaselineError, apply_baseline, load_baseline

        try:
            waivers = load_baseline(args.baseline)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE_ERROR
        baseline_result = apply_baseline(findings, waivers)
        reported = baseline_result.new
    else:
        reported = findings

    for diagnostic in reported:
        print(diagnostic.format())
    failed = bool(reported)
    if baseline_result is not None:
        for waiver in baseline_result.stale:
            print(
                f"{waiver.path}: [stale-waiver] baseline entry "
                f"({waiver.rule}, {waiver.symbol}) matches no finding; "
                f"delete it from the baseline (ratchet)"
            )
            failed = True

    if args.output is not None:
        from .deep import render_json, render_sarif

        if args.format == "json":
            text = render_json(reported, program)
        elif args.format == "sarif":
            text = render_sarif(reported)
        else:
            text = "".join(d.format() + "\n" for d in reported)
        Path(args.output).write_text(text, encoding="utf-8")

    if not args.quiet:
        noun = "violation" if len(reported) == 1 else "violations"
        extras = []
        if baseline_result is not None:
            extras.append(f"{len(baseline_result.waived)} waived")
            if baseline_result.stale:
                extras.append(
                    f"{len(baseline_result.stale)} stale waiver(s)"
                )
        if program is not None:
            extras.append(
                f"call resolution {100 * program.resolution_rate():.1f}% "
                f"({program.unresolved_calls}/{program.total_calls} "
                f"unresolved)"
            )
        suffix = f" ({'; '.join(extras)})" if extras else ""
        print(f"repro-lint: {len(reported)} {noun}{suffix}")
    return EXIT_FINDINGS if failed else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
