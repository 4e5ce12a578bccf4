"""gquot benchmark: one workload, timed from a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload until S seconds have passed (at least one
round) and prints, as the last line of standard output, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``wall_s``, the median
round, and ``setup_s``, both scaled to a reference host speed;
``peak_rss_mb``).  With ``--trace 1`` untraced and
traced rounds alternate and the metrics are the per-layer ones from the
traced rounds plus ``trace.overhead_s``.  See README.md in this directory.
"""

import os

# The numeric layers make many small eigh/svd calls; a BLAS thread pool on
# a 2-core host only adds scheduling noise.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

# The host's speed changes by up to 1.7x between stretches of seconds to
# minutes, with CPU time equal to wall time and no steal time recorded: far
# more than the bounds in BENCHMARK.json.  A fixed pure-Python probe, timed every
# PROBE_PERIOD_S while a measured interval runs, tracks that speed; the
# end-to-end times are reported at the speed at which one probe takes
# REFERENCE_PROBE_S (about its median in the host's slower state).
PROBE_PERIOD_S = 0.1
PROBE_LOOPS = 25_000
REFERENCE_PROBE_S = 0.0027


def probe() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Probes on SIGALRM while active, and once more on exit.

    ``probing_s`` is the probe time that fell inside the context (before the
    exit probe); a caller subtracts it from what it timed there.
    """

    def __enter__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probing_s = sum(self.samples)
        self.samples.append(probe())

    def to_reference(self, seconds: float) -> float:
        return seconds * REFERENCE_PROBE_S / statistics.median(self.samples)


def _import_program():
    """Put the checkout's own gquot first on the path; refuse any other copy."""
    if not (SRC / "gquot" / "__init__.py").is_file():
        sys.exit(f"gquot sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import gquot

    if not Path(gquot.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"imported gquot from {gquot.__file__}, not from {SRC}")


def measure_setup(workload: str, seed: int) -> float:
    """Median time, at the reference speed, from spawning a fresh interpreter
    until it has imported gquot and built the inputs.  The child reports its
    end on CLOCK_MONOTONIC, which is system-wide, so the parent's polling
    wait adds nothing, and probes its own speed while it builds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, capture_output=True, text=True)
        end, probing_s, median_probe = map(float, done.stdout.split()[-3:])
        times.append((end - start - probing_s) * REFERENCE_PROBE_S / median_probe)
    return statistics.median(times)


def timed_round(wl, spec, tally, instrument) -> float:
    """Wall time of one round, run inside ``instrument`` (a HostSpeed, a
    Tracer, or nothing)."""
    objs = wl.prepare(spec)
    gc.collect()
    with instrument:
        start = time.perf_counter()
        wl.run(spec, objs, tally)
        return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        with HostSpeed() as speed:
            wl.prepare(wl.build(args.seed))
            end = time.clock_gettime(time.CLOCK_MONOTONIC)
        print(end, speed.probing_s, statistics.median(speed.samples))
        return 0

    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    spec = wl.build(args.seed)
    tally = Tally()
    tracer = Tracer() if args.trace else None
    walls, scaled, traced, layers = [], [], [], []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < args.seconds:
        if tracer is None:
            speed = HostSpeed()
            elapsed = timed_round(wl, spec, tally, speed) - speed.probing_s
            walls.append(elapsed)
            scaled.append(speed.to_reference(elapsed))
        else:  # no probes here, so none lands inside a span
            walls.append(timed_round(wl, spec, tally, contextlib.nullcontext()))
            first = len(tracer.spans)
            traced.append(timed_round(wl, spec, tally, tracer))
            layers.append(tracer.summarize(first, len(tracer.spans)))

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(scaled), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        metrics = {}
        for name, unit in layer_metrics():
            if unit == "count":  # counts come from the first traced round
                metrics[name] = (layers[0][name], unit)
            else:
                metrics[name] = (statistics.median(r[name] for r in layers), unit)
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(walls), "s")

    for line in tally.errors + tally.wrong:
        print(line, file=sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**result, "round_walls_s": walls, "round_walls_at_reference_s": scaled,
              "traced_walls_s": traced}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"trace-{stem}.json",
                     {"workload": args.workload, "seed": args.seed, "rounds": len(traced)})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
