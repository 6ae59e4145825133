"""freeagent benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload preset --seed 42 --seconds 30 --trace 0

Run from a checkout: the engine is imported from ``src/`` next to this
directory. Each invocation drives the public API the way
``freeagent run --config FILE --seed N`` does (``load_config``, the seed
override, ``Engine(config)``, ``Engine.run``) in a closed loop for
``--seconds``: the next run starts when the previous one has ended. It
checks the outputs of every run and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, each time normalised to one
host speed by the reference kernel in ``hostspeed.py``. ``--trace 1``
alternates untraced runs with runs traced through ``spans.py`` and reports
the per-layer metrics as measured. README.md defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import hostspeed
import outputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Set-ups timed before each run; set-up takes milliseconds, so its median
# needs many samples spread over the whole measurement.
SETUP_REPS = 5
# Kernel calls timed before and after each set-up for its host speed.
SETUP_TICKS = 3


def is_timing(name: str) -> bool:
    """Per-layer figures that vary between runs; all others must repeat exactly."""
    return name.endswith(("_s", ".s")) or name in ("simulator.us_per_sample",
                                                    "trace.overhead_ratio")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--cycles", type=int, help="truncate the workload (smoke tests only)")
    p.add_argument("--work", type=Path, help="directory for outputs, log and spans")
    return p.parse_args(argv)


def import_engine():
    """Import freeagent from this checkout's src/, never from elsewhere."""
    if not (SRC / "freeagent" / "__init__.py").is_file():
        raise SystemExit(f"error: no engine sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import freeagent
    import freeagent.config
    import freeagent.engine

    if not Path(freeagent.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: freeagent imported from {freeagent.__file__}, not {SRC}")
    return freeagent


@dataclass
class Run:
    """One checked run of ``Engine.run``: wall and cycle times without the
    probe's own time, and the host-speed factor measured beside each cycle."""

    wall: float
    cycles: list[float]
    factors: list[float] = field(default_factory=list)

    def normalised_cycles(self) -> list[float]:
        return [c * f for c, f in zip(self.cycles, self.factors)]

    def wall_factor(self) -> float:
        """The cycles' time-weighted factor; the time outside cycles, spent
        writing between them, is scaled like the cycles around it."""
        return sum(self.normalised_cycles()) / sum(self.cycles)

    def normalised_wall(self) -> float:
        return self.wall * self.wall_factor()


def probed_run(engine, out: Path, probe: hostspeed.Probe) -> Run:
    """``engine.run(out)`` with the kernel ticking on a timer and after every
    cycle. Each cycle is scaled by the ticks from the end of the cycle
    before it to the tick after it."""
    bounds: list[tuple[float, float, float]] = []  # cycle start, end, end of its tick
    inner = engine.run_cycle

    def run_cycle():
        t0 = perf_counter()
        report = inner()
        t1 = perf_counter()
        probe.tick()
        bounds.append((t0, t1, perf_counter()))
        return report

    engine.run_cycle = run_cycle
    probe.clear()
    with probe.sampling():
        t0 = perf_counter()
        engine.run(out)
        t1 = perf_counter()
    wall = t1 - t0 - probe.time_in(t0, t1)
    cycles, factors = [], []
    for i, (c0, c1, tick_end) in enumerate(bounds):
        cycles.append(c1 - c0 - probe.time_in(c0, c1))
        factors.append(hostspeed.factor(probe.window(bounds[i - 1][1] if i else c0, tick_end)))
    return Run(wall, cycles, factors)


class Bench:
    """One invocation: the workload, its runs and their tallies."""

    def __init__(self, args: argparse.Namespace, freeagent) -> None:
        self.args = args
        self.fa = freeagent
        self.config_path = HERE / "workloads" / f"{args.workload}.json"
        self.work = args.work or ROOT / ".perfbench-work" / args.workload
        self.out = self.work / "out"
        self.attempted = 0
        self.failed = 0
        self.reference: str | None = None
        self.probe = hostspeed.Probe()
        self.setup_times: list[float] = []
        self.problems: list[str] = []
        self.samples = 0

    def setup(self):
        """Everything a CLI run pays before cycle 0, after imports."""
        cfg = self.fa.config.load_config(self.config_path)
        stream = replace(cfg.stream, seed=self.args.seed)
        if self.args.cycles is not None:
            stream = replace(stream, total_cycles=self.args.cycles)
        return self.fa.engine.Engine(replace(cfg, stream=stream))

    def timed_setups(self):
        """Set up ``SETUP_REPS`` times, each between kernel ticks; the last engine."""
        for _ in range(SETUP_REPS):
            before = self.probe.ticks(SETUP_TICKS)
            t0 = perf_counter()
            engine = self.setup()
            raw = perf_counter() - t0
            self.setup_times.append(raw * hostspeed.factor(before + self.probe.ticks(SETUP_TICKS)))
        return engine

    def one_run(self, engine, probed: bool = False) -> Run | None:
        """Run to completion and check the outputs; its times, or None.

        ``probed`` times every cycle and the host speed beside it.
        """
        self.attempted += 1
        if self.out.exists():
            shutil.rmtree(self.out)
        cfg = engine.config
        gc.collect()  # start every run from the same heap, not the last run's garbage
        try:
            if probed:
                run = probed_run(engine, self.out, self.probe)
            else:
                t0 = perf_counter()
                engine.run(self.out)
                run = Run(perf_counter() - t0, [])
            problems = outputs.check_run(
                self.out, self.args.workload, len(cfg.roster), len(cfg.pool),
                cfg.snapshot_interval, full_size=self.args.cycles is None,
            )
            digest = outputs.digest(self.out)
        except Exception:  # a failing run is counted, reported and measured no further
            traceback.print_exc()
            problems, digest = ["raised"], None
        if self.reference is None and digest is not None:
            self.reference = digest
        elif digest != self.reference:
            problems.append(f"output digest {digest} != first run's {self.reference}")
        if problems:
            self.failed += 1
            print(f"run {self.attempted} failed: " + "; ".join(problems), file=sys.stderr)
            return None
        self.samples = cfg.stream.samples_per_cycle * cfg.stream.total_cycles
        return run


def rounds(seconds: float):
    """Closed loop: at least one round, then more while the next one, as
    long as the last, still ends within ``seconds``."""
    start = last = perf_counter()
    while True:
        yield
        now = perf_counter()
        if 2 * now - last > start + seconds:
            return
        last = now


def measure_end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    bench.one_run(bench.timed_setups(), probed=True)  # warm-up, checked but not timed
    bench.setup_times.clear()
    runs = []
    for _ in rounds(seconds):
        run = bench.one_run(bench.timed_setups(), probed=True)
        if run is not None:
            runs.append(run)
    if not runs:
        return {}
    cycles_ms = sorted(c * 1e3 for r in runs for c in r.normalised_cycles())
    p90 = (statistics.quantiles(cycles_ms, n=10, method="inclusive")[8]
           if len(cycles_ms) > 1 else cycles_ms[0])
    beyond = sum(c > p90 for c in cycles_ms)
    factors = [r.wall_factor() for r in runs]
    raw_rate = statistics.median(bench.samples / r.wall for r in runs)
    print(f"{len(runs)} timed runs; cycle times pooled over {len(cycles_ms)} cycles, "
          f"{beyond} beyond p90; setup timed {len(bench.setup_times)} times")
    print(f"host-speed factor per run {min(factors):.3f} to {max(factors):.3f}, "
          f"median {statistics.median(factors):.3f}; samples_per_s as measured {raw_rate:.6g}")
    return {
        "samples_per_s": statistics.median(bench.samples / r.normalised_wall() for r in runs),
        "cycle_ms_p50": statistics.median(cycles_ms),
        "cycle_ms_p90": p90,
        "setup_s": statistics.median(bench.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_per_layer(bench: Bench, seconds: float) -> dict[str, float]:
    bench.one_run(bench.setup())  # warm-up and reference digest
    plain, traced, layers = [], [], []
    for _ in rounds(seconds):
        run = bench.one_run(bench.setup())
        if run is not None:
            plain.append(run.wall)
        rec = spans.Recorder()
        with spans.Tracing(rec) as tracing:
            run = bench.one_run(bench.setup())
        if run is not None:
            traced.append(run.wall)
            rec.counts["engine.output_bytes"] = outputs.output_bytes(bench.out)
            layers.append(spans.layer_metrics(rec, tracing.missing))
            last = rec
    if not (plain and traced):
        return {}
    last.write(bench.work / "spans.jsonl")
    out = {}
    for name in layers[0]:
        values = [run[name] for run in layers]
        if is_timing(name):
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if len(set(values)) > 1:
                bench.problems.append(f"traced count {name} differs between runs: {values}")
    out["trace.overhead_ratio"] = statistics.fmean(plain) / statistics.fmean(traced)
    out = {name: out[name] for name in PER_LAYER if name in out}
    absent = sorted(set(PER_LAYER) - set(out))
    if absent:
        print("absent (wrapped function not found): " + ", ".join(absent))
    print(f"{len(plain)} untraced and {len(traced)} traced runs; "
          f"spans of the last traced run in {bench.work / 'spans.jsonl'}")
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bench = Bench(args, import_engine())
    bench.work.mkdir(parents=True, exist_ok=True)
    logging.basicConfig(
        filename=bench.work / "engine.log", filemode="w", level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    if args.trace:
        metrics, units = measure_per_layer(bench, args.seconds), PER_LAYER
    else:
        metrics, units = measure_end_to_end(bench, args.seconds), END_TO_END
    if not metrics:
        print(f"error: no run of {args.workload} succeeded", file=sys.stderr)
        return 1

    for problem in bench.problems:
        print(problem, file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: output digest {bench.reference}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    result = {
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
