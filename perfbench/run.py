"""Run one rbc benchmark workload and print its metrics as one JSON line.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The workload's circuits come from ``--seed`` alone.  With ``--trace 0``
the run measures rbc untraced for at least ``--seconds`` seconds (and at
least over the workload's digest set) and reports the end-to-end metrics.
The machine's speed drifts by up to a quarter over seconds on a shared
host, so a fixed pure-Python loop (the gauge) is timed every
GAUGE_EVERY_S of rbc work, and each circuit's time is rescaled to the
speed at which the gauge takes GAUGE_REF_S; the summary lines also give
the unscaled rates.  With ``--trace 1`` it runs the digest set in passes
until ``--seconds`` have been measured, each circuit once untraced and
once traced, and reports per-layer metrics for one pass, so counts repeat
exactly for a seed.  Every output is checked independently outside the timed region.
The last line of standard output is the JSON result; the lines before it
are a readable summary.  The rbc source is taken from ``src/`` beside
this directory; without it the run fails without printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TRACED, CallCounter, Tracer
from workloads import WORKLOADS, Skipped

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_RUNS = 15  # timed fresh-interpreter start-ups; their median is setup_s
GAUGE_EVERY_S = 0.25  # rbc time between two readings of the speed gauge
GAUGE_REF_S = 0.0085  # the gauge reading that rescaled times refer to

# Time to import rbc and build the validated rule catalog, as every CLI
# command pays it.  Printed with the module path so the parent can check
# which rbc was imported.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rbc
rbc.builtin_rules()
print(time.perf_counter() - t0, rbc.__file__)
"""


def setup_seconds() -> float:
    # Installed copies of rbc import from a bytecode cache, so let the
    # first start-up write one even where the environment turns that off.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    times = []
    readings = [gauge()]
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        readings.append(gauge())
        seconds, where = out.stdout.split()
        if not Path(where).is_relative_to(SRC):
            raise SystemExit(f"set-up imported rbc from {where}, not {SRC}")
        if i:
            times.append(float(seconds) / slowdown(readings))
    return statistics.median(times)


def import_rbc() -> None:
    if not (SRC / "rbc" / "__init__.py").is_file():
        raise SystemExit(f"no rbc source at {SRC}")
    sys.path.insert(0, str(SRC))
    import rbc

    if not Path(rbc.__file__).is_relative_to(SRC):
        raise SystemExit(f"imported rbc from {rbc.__file__}, not {SRC}")
    rbc.builtin_rules()


def timed(run, d):
    """(output, seconds) of one call; output is None when the search skipped."""
    t0 = time.perf_counter()
    try:
        out = run(d)
    except Skipped:
        out = None
    return out, time.perf_counter() - t0


class Tally:
    """Checks outputs and folds the first circuits into the behaviour digest."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{seed}:check")
        self.hash = hashlib.sha256()
        self.attempted = self.skipped = self.failed = 0
        self.problems: list[str] = []

    def add(self, d, out) -> None:
        self.attempted += 1
        if out is None:
            self.skipped += 1
            line = "skipped"
        else:
            outcome = self.workload.check(d, out, self.rng)
            line = outcome.digest
            if outcome.problems:
                self.failed += 1
                self.problems += [f"circuit {self.attempted}: {p}" for p in outcome.problems]
        if self.attempted <= self.workload.digest_count:
            self.hash.update(line.encode() + b"\n")

    def digest(self) -> str:
        return self.hash.hexdigest()[:16]


def gauge() -> float:
    """Seconds for a fixed pure-Python loop: how fast the machine runs now."""
    t0 = time.perf_counter()
    table = {}
    for i in range(60_000):
        table[i & 63] = (i * i) % 7
    return time.perf_counter() - t0


def slowdown(readings: list[float]) -> float:
    """How much slower than at GAUGE_REF_S the machine ran between the last
    two gauge readings."""
    return (readings[-2] + readings[-1]) / (2 * GAUGE_REF_S)


def measure_untraced(workload, rng, tally: Tally, seconds: float) -> dict:
    """Time each circuit, rescaling the time to GAUGE_REF_S gauge speed by
    the gauge readings taken on either side of its segment."""
    steps = CallCounter("rewriting.apply_match")
    latencies: list[float] = []  # rescaled, circuits that finished
    measured = scaled = 0.0
    segment: list[tuple[float, bool]] = []
    readings = [gauge()]
    while tally.attempted < workload.digest_count or measured < seconds:
        d = workload.draw(rng)
        with steps.patch:
            out, dt = timed(workload.run, d)
        measured += dt
        segment.append((dt, out is not None))
        tally.add(d, out)
        done = tally.attempted >= workload.digest_count and measured >= seconds
        if done or sum(dt for dt, _ in segment) >= GAUGE_EVERY_S:
            readings.append(gauge())
            factor = slowdown(readings)
            for dt, finished in segment:
                scaled += dt / factor
                if finished:
                    latencies.append(dt / factor)
            segment = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    q = statistics.quantiles(latencies, n=100)
    print(f"measured {measured:.2f} s ({scaled:.2f} s at gauge speed) over "
          f"{len(latencies)} circuits, {steps.calls} rewrite steps; gauge median "
          f"{1000 * statistics.median(readings):.2f} ms over {len(readings)} readings")
    print(f"latency ms at gauge speed: p50 {1000 * q[49]:.3f}  p95 {1000 * q[94]:.3f} "
          f"({len(latencies) // 20} beyond)  p99 {1000 * q[98]:.3f} "
          f"({len(latencies) // 100} beyond)")
    print(f"unscaled: {len(latencies) / measured:.3f} circuits/s, "
          f"{steps.calls / measured:.3f} steps/s")
    return {
        "circuits_per_s": (len(latencies) / scaled, "1/s"),
        "rewrite_steps_per_s": (steps.calls / scaled, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def measure_traced(workload, rng, tally: Tally, seconds: float) -> dict:
    circuits = [workload.draw(rng) for _ in range(workload.digest_count)]
    tracer = Tracer()
    traced_s = untraced_s = 0.0
    passes = 0
    while passes == 0 or traced_s + untraced_s < seconds:
        passes += 1
        for i, d in enumerate(circuits):
            # Alternate which run goes first so warm caches favour neither.
            for traced in ((False, True) if i % 2 else (True, False)):
                if traced:
                    with tracer.patch:
                        out, dt = timed(workload.run, d)
                    traced_s += dt
                else:
                    out, dt = timed(workload.run, d)
                    untraced_s += dt
            if passes == 1:
                tally.add(d, out)
    metrics = tracer.metrics(traced_s, untraced_s, passes)
    print(f"{passes} traced passes over {len(circuits)} circuits: "
          f"{untraced_s:.2f} s untraced, {traced_s:.2f} s traced")
    print(f"{'per pass':32} {'calls':>9} {'self s':>10} {'self frac':>10}")
    for name in TRACED:
        print(f"{name:32} {metrics[name + '.calls'][0]:>9} "
              f"{tracer.self_s[name] / passes:>10.4f} {metrics[name + '.self_frac'][0]:>10.4f}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import_rbc()
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    tally = Tally(workload, args.seed)
    # Warm the matcher's pattern cache on a throwaway circuit.
    timed(workload.run, workload.draw(random.Random(f"{args.seed}:warm")))

    if args.trace:
        metrics = measure_traced(workload, rng, tally, args.seconds)
    else:
        metrics = measure_untraced(workload, rng, tally, args.seconds)
        metrics["setup_s"] = (setup_seconds(), "s")

    print(f"workload {args.workload}  seed {args.seed}  attempted {tally.attempted}  "
          f"skipped {tally.skipped}  failed {tally.failed}")
    recorded = json.loads((HERE / "digests.json").read_text())
    digest_ok = args.seed != recorded["seed"] or tally.digest() == recorded[args.workload]
    print(f"behaviour digest of the first {workload.digest_count} circuits: "
          f"{tally.digest()}" + ("" if digest_ok else "  (DIFFERS from digests.json)"))
    for p in tally.problems[:20]:
        print("FAILED", p, file=sys.stderr)
    failed = tally.failed + (not digest_ok)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
