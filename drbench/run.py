"""The repository's benchmark: host time to produce a paper result.

    python3 drbench/run.py --workload design_point --seed 1 --seconds 10 --trace 0

Runs one workload (see ``workloads.py`` and ``METRICS.md``) in this
process on the program's default backend, checks every repetition's
outputs, and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured untraced;
``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics plus ``trace.overhead_ratio``.  Every timing is
scaled to the reference host speed (``hostspeed.py``); the raw seconds,
the digests and the simulated results go to the run context written
under ``drbench/out/``, together with the spans of a traced run.

The program is built from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: end-to-end metrics (``--trace 0``) and their units
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: per-layer time metrics: (span name, self time or total time)
LAYER_TIMES = {
    "noc.step_s": ("noc.step", "self"),
    "noc.send_s": ("noc.send", "total"),
    "gpu.step_s": ("gpu.step", "self"),
    "memory_node.step_s": ("memory_node.step", "self"),
    "cpu.step_s": ("cpu.step", "self"),
    "sim.build_s": ("sim.build", "total"),
    "sweep.key_s": ("sweep.key", "total"),
    "sweep.cache_get_s": ("sweep.cache_get", "total"),
    "sweep.cache_put_s": ("sweep.cache_put", "self"),
    "sweep.warm_s": ("sweep.warm", "total"),
    "experiments.render_s": ("experiments.fig11", "self"),
    "telemetry.on_cycle_s": ("telemetry.on_cycle", "self"),
    "telemetry.finalize_s": ("telemetry.finalize", "self"),
    "faults.on_cycle_s": ("faults.on_cycle", "self"),
}

#: per-layer metric -> unit, in the order printed (``--trace 1``)
PER_LAYER = {
    "noc.step_s": "s", "noc.flits_delivered": "count", "noc.us_per_flit": "us",
    "noc.send_s": "s", "mem.blocked_cycles": "cycles",
    "gpu.step_s": "s", "gpu.insts": "count", "gpu.l1_hit_ratio": "ratio",
    "gpu.issue_stalls": "count", "gpu.frq_enqueued": "count",
    "memory_node.step_s": "s", "llc.hit_ratio": "ratio",
    "dram.row_hit_ratio": "ratio", "mem.requests": "count",
    "cpu.step_s": "s", "cpu.mem_ops": "count", "cpu.stall_cycles": "cycles",
    "core.delegations": "count", "core.delegation_ratio": "ratio",
    "rp.probe_hit_ratio": "ratio",
    "sim.build_s": "s", "sim.points": "count",
    "sweep.key_s": "s", "sweep.cache_get_s": "s", "sweep.cache_put_s": "s",
    "sweep.cache_hits": "count", "sweep.cache_misses": "count",
    "sweep.retries": "count", "sweep.warm_s": "s",
    "experiments.render_s": "s",
    "telemetry.on_cycle_s": "s", "telemetry.finalize_s": "s",
    "telemetry.events": "count", "telemetry.flight_dumps": "count",
    "faults.on_cycle_s": "s", "faults.retransmits": "count",
    "faults.lost": "count",
    "trace.overhead_ratio": "ratio",
}

#: fresh-interpreter set-up probes per run (after one discarded probe
#: that lets the checkout's bytecode cache settle)
SETUP_PROBES = 3
#: untraced repetitions timed even when ``--seconds`` runs out first
#: (traced runs stop at 2, each paired with a traced one)
MIN_REPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_environment() -> None:
    """One process, default backend, no stray sweep settings."""
    for var in ("REPRO_BACKEND", "REPRO_SWEEP_CACHE", "REPRO_SWEEP_BATCH",
                "REPRO_SWEEP_SALT"):
        os.environ.pop(var, None)
    os.environ["REPRO_SWEEP_JOBS"] = "1"


def measure_setup(name: str, seed: int):
    """Median scaled seconds of fresh-interpreter set-up probes."""
    scaled, raw = [], []
    for i in range(1 + SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if i:
            seconds, scaled_s = proc.stdout.strip().splitlines()[-1].split()
            raw.append(float(seconds))
            scaled.append(float(scaled_s))
    return statistics.median(scaled), raw


def timed_reps(workload, clock, seconds: float, tracer=None):
    """Back-to-back repetitions for ``seconds``; with a tracer, traced
    and untraced ones alternate.  Returns (untraced, traced, layers)."""
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    min_reps = MIN_REPS if tracer is None else 2
    while time.perf_counter() < deadline or len(plain) < min_reps:
        plain.append(workload.rep(clock))
        if tracer is None:
            continue
        before = tracer.self_times(), tracer.total_times()
        tracer.install()
        try:
            rep = workload.rep(clock, tracer)
        finally:
            tracer.uninstall()
        traced.append(rep)
        layers.append(_rep_layers(tracer, before, rep))
        tracer.reset()
    return plain, traced, layers


def _rep_layers(tracer, before, rep):
    """One traced repetition's per-layer metrics, times host-scaled."""
    from workloads import layer_counts

    factor = rep.scaled_s / rep.raw_s if rep.raw_s else 1.0
    now = tracer.self_times(), tracer.total_times()
    out = layer_counts(tracer)
    for metric, (span, kind) in LAYER_TIMES.items():
        i = 0 if kind == "self" else 1
        out[metric] = (now[i].get(span, 0.0)
                       - before[i].get(span, 0.0)) * factor
    flits = out["noc.flits_delivered"]
    out["noc.us_per_flit"] = out["noc.step_s"] * 1e6 / flits if flits else 0.0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC.relative_to(ROOT)}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_environment()

    import numpy
    from checks import digest
    from hostspeed import HostClock
    from repro.sim.engines import resolve_backend
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed,
                                        BENCH / ".work" / args.workload)

    clock = HostClock()
    setup = measure_setup(args.workload, args.seed) if not args.trace \
        else None
    first = workload.rep(clock)  # untimed: lazy imports, reference digests
    tracer = Tracer() if args.trace else None
    plain, traced, layers = timed_reps(workload, clock, args.seconds, tracer)
    reps = [first] + plain + traced

    wall = statistics.median(r.scaled_s for r in plain)
    if args.trace:
        metrics = {
            name: statistics.fmean(rep[name] for rep in layers)
            for name in PER_LAYER if name != "trace.overhead_ratio"
        }
        metrics["trace.overhead_ratio"] = (
            statistics.median(r.scaled_s for r in traced) / wall)
        units = PER_LAYER
        tracer.write(out_dir / f"{args.workload}-spans.npz")
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": setup[0],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    attempted = sum(r.ops for r in reps)
    failures = [f for r in reps for f in r.failures]
    context = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": resolve_backend(None),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "inputs_digest": digest(workload.inputs()),
        "digests": workload.reference,
        "reps": len(plain),
        "traced_reps": len(traced),
        "rep_raw_s": [r.raw_s for r in plain],
        "rep_scaled_s": [r.scaled_s for r in plain],
        "rep_segments": [r.segments for r in plain],
        "setup_raw_s": setup[1] if setup else None,
        "failures": failures[:20],
        "simulated": workload.context,
        "metrics": metrics,
    }
    ctx_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    ctx_path.write_text(json.dumps(context, indent=1, default=str) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(plain)} reps "
          f"(+{len(traced)} traced), median {wall:.4f} s scaled, "
          f"{statistics.median(r.raw_s for r in plain):.4f} s raw; "
          f"{len(failures)}/{attempted} ops failed; "
          f"context {ctx_path.relative_to(ROOT)}")
    for line in _comparison_lines(workload.context):
        print(line)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def _comparison_lines(context):
    simulated = context.get("simulated")
    if not simulated:
        return []
    lines = [f"DR vs baseline ({context['note']}):"]
    for key, value in simulated.items():
        lines.append(f"  {key}: simulated {value}, "
                     f"paper {context['paper'].get(key)}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
