"""Command line entry points: run, report, validate."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import load_config, preset_config
from .domain import ConfigError
from .engine import Engine, SnapshotError, restore_engine

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

_REPORT_KEYS = {"seed", "total_cycles", "samples_per_cycle", "phases", "event_counts",
                "key_cycles", "final_roster", "final_pool"}


def _load_run_config(args: argparse.Namespace):
    if bool(args.config) == bool(args.preset):
        raise ConfigError("exactly one of --config or --preset is required")
    if args.preset:
        return preset_config(args.preset)
    return load_config(args.config)


def cmd_run(args: argparse.Namespace) -> int:
    if args.restore:
        # A restored run continues the snapshot's own config; any override
        # would also change the config that later snapshots embed.
        overrides = {
            "--config": args.config, "--preset": args.preset,
            "--seed": args.seed, "--emit-detections": args.emit_detections or None,
        }
        given = [option for option, value in overrides.items() if value is not None]
        if given:
            print(f"error: {', '.join(given)} cannot be combined with --restore", file=sys.stderr)
            return EXIT_CONFIG
    try:
        if args.restore:
            engine = restore_engine(args.restore)
        else:
            config = _load_run_config(args)
            if args.seed is not None:
                config = replace(config, stream=replace(config.stream, seed=args.seed))
            if args.emit_detections:
                config = replace(config, emit_detections=True)
            engine = Engine(config)
    except (ConfigError, SnapshotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        summary = engine.run(args.out)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    counts = summary["event_counts"]
    print(
        f"completed {summary['total_cycles']} cycles "
        f"(seed {summary['seed']}): "
        + (", ".join(f"{k}={v}" for k, v in sorted(counts.items())) or "no transitions")
    )
    print(f"outputs in {Path(args.out).resolve()}")
    return EXIT_OK


def _report_lines(summary: dict) -> list[str]:
    lines = [
        f"run seed {summary['seed']}, {summary['total_cycles']} cycles, "
        f"{summary['samples_per_cycle']} samples/cycle",
        "",
    ]
    header = f"{'phase':>6} {'cycles':>12} {'mixture':<24} {'decided':>8} {'accuracy':>9} {'f1':>7}"
    lines += [header, "-" * len(header)]
    for i, phase in enumerate(summary["phases"]):
        mixture = " ".join(f"{k}:{v:g}" for k, v in sorted(phase["mixture"].items()))
        cycles = f"{phase['start_cycle']}-{phase['end_cycle']}"
        lines.append(
            f"{i:>6} {cycles:>12} {mixture:<24} {phase['decided']:>8} "
            f"{phase['accuracy']:>9.4f} {phase['f1']:>7.4f}"
        )
    key = summary["key_cycles"]
    lines += [
        "",
        "events: " + (", ".join(f"{k}={v}" for k, v in sorted(summary["event_counts"].items()))
                      or "no transitions"),
        "first release: {0}, first sign: {1}, first promote: {2}".format(
            key["first_release"], key["first_sign"], key["first_promote"]
        ),
    ]
    for name in ("roster", "pool"):
        agents = summary[f"final_{name}"]
        if agents or name == "roster":  # an empty pool is left out
            lines.append(f"final {name}:")
        lines += [
            f"  agent {agent['id']} [{agent['status']}] "
            f"performance={agent['performance']:.4f} service_time={agent['service_time']}"
            for agent in agents
        ]
    return lines


def cmd_report(args: argparse.Namespace) -> int:
    summary_path = Path(args.out_dir) / "summary.json"
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        if not isinstance(summary, dict) or not summary.keys() >= _REPORT_KEYS:
            raise ValueError(f"not a run summary: expected an object with {sorted(_REPORT_KEYS)}")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON or not a summary
        print(f"error: cannot read {summary_path}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:  # the whole report, before its first line is printed
        lines = _report_lines(summary)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:  # a malformed entry
        print(f"error: cannot read {summary_path}: not a run summary: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print("\n".join(lines))
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        _load_run_config(args)
    except (ConfigError, OSError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print("ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeagent",
        description="Deterministic free-agency roster engine for fraud-detection agents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a full run and write outputs")
    run_p.add_argument("--config", type=Path, help="path to a JSON run config")
    run_p.add_argument("--preset", help="name of a bundled preset (e.g. section-4.4)")
    run_p.add_argument("--seed", type=int, help="override the stream seed")
    run_p.add_argument("--out", type=Path, default=Path("freeagent-out"), help="output directory")
    run_p.add_argument(
        "--emit-detections", action="store_true", help="write per-sample detections.jsonl"
    )
    run_p.add_argument("--restore", type=Path, help="resume from a snapshot in DIR/snapshots/, "
                       "DIR holding the run's files, which give the cycles before it")
    run_p.set_defaults(func=cmd_run)

    report_p = sub.add_parser("report", help="print the phase summary of a finished run")
    report_p.add_argument("out_dir", type=Path, help="output directory of a finished run")
    report_p.set_defaults(func=cmd_report)

    val_p = sub.add_parser("validate", help="check a config without running")
    val_p.add_argument("--config", type=Path, help="path to a JSON run config")
    val_p.add_argument("--preset", help="name of a bundled preset")
    val_p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the reader went away (``freeagent report DIR | head``)
        # Point stdout at os.devnull so the flush at exit has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
