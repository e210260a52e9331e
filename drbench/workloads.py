"""The benchmark's workloads: inputs made from a seed, one repetition,
its output checks, and the counts the traced run reports.

Every workload is a closed loop with one caller: a repetition starts
when the previous one has finished, in one process, on the program's
default backend, with ``jobs=1``.  Each repetition rebuilds everything
it simulates from the same inputs, so its simulated results must be
bit-identical to the first repetition's.

The program receives only configs, workload names, window lengths,
fault plans and packet schedules; the seed never reaches it any other
way.
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional

import checks

#: published averages (HPCA 2022) beside which the run context prints
#: the simulated ratios.  Only a label: the model is unvalidated.
PAPER = {
    "gpu_ipc_dr_over_baseline": 1.257,        # Fig. 10, average
    "gpu_data_rate_dr_over_baseline": 1.265,  # Fig. 11, average
    "cpu_latency_dr_over_baseline": 0.558,    # Fig. 12, average
}
MODEL_NOTE = ("simulated by an unvalidated model: no hardware reference, "
              "no error figure")

_MASK = (1 << 64) - 1


class Lcg:
    """64-bit linear congruential generator (the benchmark's own)."""

    def __init__(self, seed: int) -> None:
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK

    def below(self, n: int) -> int:
        self.state = (self.state * 6364136223846793005
                      + 1442695040888963407) & _MASK
        return (self.state >> 33) % n


#: simulated cycles between host-speed checkpoints (~0.15 s of host time
#: on the 8x8 chip)
CHECKPOINT_CYCLES = 200


def checkpoint_steps(system, clock):
    """Take a host-speed checkpoint after every ``CHECKPOINT_CYCLES``
    calls of ``system.step`` (through ``run`` or ``quiesce`` alike).  The
    cycles stepped, and so every simulated result, are the same; only
    the timing pauses between pieces."""
    step = system.step
    count = 0

    def counted() -> None:
        nonlocal count
        step()
        count += 1
        if count % CHECKPOINT_CYCLES == 0:
            clock.checkpoint()

    system.step = counted
    return system


@contextmanager
def checkpointed_builds(clock):
    """Checkpoint every system the program builds through
    ``build_system``."""
    import repro.sim.simulator as simulator

    build = simulator.build_system
    simulator.build_system = lambda *a, **k: checkpoint_steps(
        build(*a, **k), clock)
    try:
        yield
    finally:
        simulator.build_system = build


class Rep:
    """One repetition: timed segments, operations and failures."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        #: (raw seconds, host-speed factor) per timed segment
        self.segments: List[tuple] = []
        self.ops = 0
        self.failures: List[str] = []

    def segment(self, clock, fn: Callable[[], object]):
        """Time ``fn`` on the host clock: ``(result, None)``, or
        ``(None, reason)`` when it raised."""
        try:
            result, raw, factor = clock.measure(fn)
        except Exception as exc:  # noqa: BLE001 - counted as failed ops
            return None, f"{type(exc).__name__}: {exc}"
        self.raw_s += raw
        self.scaled_s += raw * factor
        self.segments.append((raw, factor))
        return result, None

    def op(self, n: int = 1, failure: Optional[str] = None) -> None:
        self.ops += n
        if failure is not None:
            self.failures.extend([failure] * n)


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        #: digest per simulated output, fixed by the first repetition
        self.reference: Dict[str, str] = {}
        #: simulated numbers for the run context
        self.context: Dict[str, object] = {}

    def inputs(self) -> object:
        """Everything the program receives, as plain data."""
        raise NotImplementedError

    def build_first(self) -> None:
        """Build the first system or fabric (the set-up probe)."""
        raise NotImplementedError

    def rep(self, clock, tracer=None) -> Rep:
        raise NotImplementedError

    def check_digest(self, key: str, payload) -> Optional[str]:
        got = checks.digest(payload)
        ref = self.reference.setdefault(key, got)
        return checks.same_digest(got, ref)

    @staticmethod
    def span(tracer, name: str):
        return tracer.span(name) if tracer is not None else nullcontext()


def _system_counts(systems) -> Dict[str, float]:
    """Whole-run counters (warm-up included) summed over systems."""
    from repro.sim.metrics import collect_counters

    total: Dict[str, float] = {}
    for system in systems:
        for key, value in collect_counters(system).items():
            if "lat_hist" not in key:
                total[key] = total.get(key, 0) + value
    return total


def layer_counts(tracer) -> Dict[str, float]:
    """The traced repetition's per-layer counts and ratios."""
    c = _system_counts(tracer.systems)
    flits = sum(f.request_net.flits_delivered + f.reply_net.flits_delivered
                for f in tracer.fabrics)

    def ratio(num: str, den: float) -> float:
        return c.get(num, 0) / den if den else 0.0

    out = {
        "noc.flits_delivered": flits,
        "mem.blocked_cycles": c.get("mem.blocked_cycles", 0),
        "gpu.insts": c.get("gpu.insts", 0),
        "gpu.l1_hit_ratio": ratio(
            "gpu.l1_hit_ops",
            c.get("gpu.l1_hit_ops", 0) + c.get("gpu.l1_miss_ops", 0)),
        "gpu.issue_stalls": c.get("gpu.issue_stalls", 0),
        "gpu.frq_enqueued": c.get("gpu.frq_enqueued", 0),
        "llc.hit_ratio": ratio(
            "llc.hits", c.get("llc.hits", 0) + c.get("llc.misses", 0)),
        "dram.row_hit_ratio": ratio("dram.row_hits", c.get("dram.served", 0)),
        "mem.requests": c.get("mem.requests", 0),
        "cpu.mem_ops": c.get("cpu.mem_ops", 0),
        "cpu.stall_cycles": c.get("cpu.stall_cycles", 0),
        "core.delegations": c.get("mem.delegations", 0),
        "core.delegation_ratio": ratio(
            "mem.delegations", c.get("mem.delegatable_replies", 0)),
        "rp.probe_hit_ratio": ratio(
            "rp.probe_hits", c.get("rp.probes_sent", 0)),
        "sim.points": len(tracer.systems),
        "faults.retransmits": c.get("fault.retransmits", 0),
        "faults.lost": c.get("fault.lost", 0),
        "telemetry.events": 0,
        "telemetry.flight_dumps": 0,
    }
    for system in tracer.systems:
        tel = system.telemetry
        if tel is not None:
            out["telemetry.events"] += sum(
                v for k, v in tel.metrics_snapshot().items()
                if k.startswith("events."))
            out["telemetry.flight_dumps"] += len(tel.flight_dumps)
    for key in ("sweep.cache_hits", "sweep.cache_misses", "sweep.retries"):
        out[key] = tracer.counts.get(key, 0)
    return out


# ---------------------------------------------------------------------------


class DesignPoint(Workload):
    """BP + canneal on the default 8x8 chip, under baseline and DR."""

    name = "design_point"
    why = ("one paper comparison point on the clogged 8x8 chip (BP+canneal, "
           "baseline then DR); fabric ~74% of work; closed loop, 1 caller")
    GPU, CPU = "BP", "canneal"
    #: long enough for DR to beat baseline on gpu_ipc on every seed
    #: tried (0-50 and a few large ones); at 800+800 or 1200+800 a few
    #: seeds tie or lose.  Caches start empty and fill in the warm-up.
    WARMUP, CYCLES = 1600, 1000
    MECHANISMS = ("baseline", "dr")

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        from repro.experiments.common import mechanism_config

        self.configs = {}
        for mech in self.MECHANISMS:
            cfg = mechanism_config(mech)
            cfg.seed = seed
            self.configs[mech] = cfg

    def inputs(self):
        return {m: c.to_dict() for m, c in self.configs.items()}

    def build_first(self) -> None:
        from repro import api

        api.build_system(self.configs["baseline"], self.GPU, self.CPU)

    def _simulate(self, mech: str, clock):
        from repro import api

        with checkpointed_builds(clock):
            return api.simulate(self.configs[mech], self.GPU, cpu=self.CPU,
                                cycles=self.CYCLES, warmup=self.WARMUP)

    def rep(self, clock, tracer=None) -> Rep:
        rep = Rep()
        results = {}
        for mech in self.MECHANISMS:
            result, error = rep.segment(
                clock, lambda: self._simulate(mech, clock))
            if error is not None:
                rep.op(failure=error)
                continue
            results[mech] = result
            failure = self.check_digest(mech, result.to_dict())
            if mech == "dr" and failure is None and "baseline" in results:
                failure = checks.dr_beats_baseline(
                    results["baseline"].gpu_ipc, result.gpu_ipc)
            rep.op(failure=failure)
        if len(results) == 2:
            self.context = _comparison(results["baseline"], results["dr"])
        return rep


def _comparison(base, dr) -> Dict[str, object]:
    def ratio(a: float, b: float) -> float:
        return round(b / a, 4) if a else 0.0

    return {
        "note": MODEL_NOTE,
        "baseline": {"gpu_ipc": base.gpu_ipc,
                     "gpu_data_rate": base.gpu_data_rate,
                     "cpu_latency_avg": base.cpu_latency_avg},
        "dr": {"gpu_ipc": dr.gpu_ipc,
               "gpu_data_rate": dr.gpu_data_rate,
               "cpu_latency_avg": dr.cpu_latency_avg},
        "simulated": {
            "gpu_ipc_dr_over_baseline": ratio(base.gpu_ipc, dr.gpu_ipc),
            "gpu_data_rate_dr_over_baseline": ratio(
                base.gpu_data_rate, dr.gpu_data_rate),
            "cpu_latency_dr_over_baseline": ratio(
                base.cpu_latency_avg, dr.cpu_latency_avg),
        },
        "paper": PAPER,
    }


class ObservedPoint(Workload):
    """The DR half of design_point with light telemetry and chaos faults."""

    name = "observed_point"
    why = ("DR half of design_point with light telemetry and a seeded chaos "
           "plan: the only workload where telemetry and faults work; "
           "closed loop, 1 caller")
    GPU, CPU = DesignPoint.GPU, DesignPoint.CPU
    WARMUP, CYCLES = DesignPoint.WARMUP, DesignPoint.CYCLES
    #: fault intensity of the chaos plan: drops and corruptions on the
    #: reply links out of every memory node, plus one link down/up
    INTENSITY = 0.1

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        from repro.experiments.common import mechanism_config
        from repro.faults.plan import chaos_plan

        cfg = mechanism_config("dr")
        cfg.seed = seed
        cfg.telemetry.enabled = True
        cfg.telemetry.mode = "light"
        cfg.telemetry.flight_dir = str(workdir / "flight")
        self.cfg = cfg
        self.plan = chaos_plan(cfg, self.INTENSITY, seed=seed,
                               warmup=self.WARMUP, cycles=self.CYCLES)

    def inputs(self):
        return {"config": self.cfg.to_dict(),
                "faults": self.plan.canonical_json()}

    def build_first(self) -> None:
        from repro import api

        api.build_system(self.cfg, self.GPU, self.CPU, faults=self.plan)

    def _observe(self, clock):
        from repro import api
        from repro.faults.controller import quiesce

        system = checkpoint_steps(
            api.build_system(self.cfg, self.GPU, self.CPU, faults=self.plan),
            clock)
        result = api.run_simulation(self.cfg, self.GPU, self.CPU,
                                    cycles=self.CYCLES, warmup=self.WARMUP,
                                    system=system)
        leftover = quiesce(system)
        return result, system.faults.summary(), leftover

    def rep(self, clock, tracer=None) -> Rep:
        rep = Rep()
        shutil.rmtree(self.workdir / "flight", ignore_errors=True)
        out, error = rep.segment(clock, lambda: self._observe(clock))
        if error is not None:
            rep.op(failure=error)
            return rep
        result, faults, leftover = out
        failure = self.check_digest(
            "dr", {"result": result.to_dict(), "faults": faults,
                   "leftover": leftover})
        if failure is None:
            failure = checks.nothing_lost(faults["lost"], leftover)
        rep.op(failure=failure)
        self.context = {"note": MODEL_NOTE, "gpu_ipc": result.gpu_ipc,
                        "faults": faults, "leftover": leftover}
        return rep


class FabricLight(Workload):
    """A bare mesh8x8 fabric carrying light uniform-random traffic."""

    name = "fabric_light"
    why = ("bare NocFabric mesh8x8, light uniform traffic from an LCG drawn "
           "before timing: only the fabric works, per-cycle fixed cost and "
           "active-set scheduler dominate; closed loop, 1 caller")
    CYCLES = 6000
    #: fabric cycles between host-speed checkpoints (~0.1 s of host time)
    CHECKPOINT_CYCLES = 2000
    #: packets per node per 1000 cycles (the harness's light load)
    PERMILLE = 5
    DRAIN_LIMIT = 20_000

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        n = 64
        rng = Lcg(seed)
        base, frac = divmod(n * self.PERMILLE, 1000)
        schedule = []
        for _ in range(self.CYCLES):
            batch = []
            for _ in range(base + (1 if rng.below(1000) < frac else 0)):
                src = rng.below(n)
                dst = rng.below(n - 1)
                if dst >= src:
                    dst += 1
                batch.append((src, dst, rng.below(2)))
            schedule.append(tuple(batch))
        #: per cycle: (src, dst, is_reply) — replies are 9-flit GPU
        #: cache-line replies, requests 1 flit, so both networks work
        self.schedule = tuple(schedule)

    def inputs(self):
        return self.schedule

    @staticmethod
    def _fabric():
        from repro.config.system import NocConfig
        from repro.noc import MeshTopology
        from repro.sim.engines import build_fabric

        return build_fabric(None, MeshTopology(8, 8), NocConfig())

    def build_first(self) -> None:
        self._fabric()

    def _packets(self):
        from repro.noc import MessageType, Packet, TrafficClass

        req, rep = MessageType.READ_REQ, MessageType.READ_REPLY
        gpu = TrafficClass.GPU
        return [
            [Packet(s, d, rep, gpu, 9) if r else Packet(s, d, req, gpu, 1)
             for s, d, r in batch]
            for batch in self.schedule
        ]

    def _episode(self, packets, clock, tracer):
        fabric = self._fabric()
        if tracer is not None:
            tracer.instrument_fabric(fabric)
        nics = fabric.nics
        for nic in nics:
            nic.handler = _ignore
        accepted = 0
        for cycle, batch in enumerate(packets):
            for pkt in batch:
                accepted += nics[pkt.src].try_send(pkt, cycle)
            fabric.step(cycle)
            if cycle % self.CHECKPOINT_CYCLES == self.CHECKPOINT_CYCLES - 1:
                clock.checkpoint()
        cycle = len(packets)
        while cycle < self.CYCLES + self.DRAIN_LIMIT and (
            fabric.in_flight_flits() or not all(nic.idle() for nic in nics)
        ):
            for _ in range(100):
                fabric.step(cycle)
                cycle += 1
        return fabric, accepted

    def rep(self, clock, tracer=None) -> Rep:
        rep = Rep()
        packets = self._packets()
        out, error = rep.segment(
            clock, lambda: self._episode(packets, clock, tracer))
        if error is not None:
            rep.op(failure=error)
            return rep
        fabric, accepted = out
        nets = (fabric.request_net, fabric.reply_net)
        delivered = sum(net.packets_delivered for net in nets)
        queued = sum(len(q) for nic in fabric.nics for q in nic.queues.values())
        failure = self.check_digest("episode", {
            "accepted": accepted,
            "delivered": [net.packets_delivered for net in nets],
            "flits": [net.flits_delivered for net in nets],
            "by_type": [sorted(net.delivered_by_type.items()) for net in nets],
            "delivered_at": sum(p.delivered for b in packets for p in b),
        })
        if failure is None:
            failure = checks.packets_conserved(
                accepted, delivered, fabric.in_flight_flits(), queued)
        rep.op(failure=failure)
        self.context = {"accepted": accepted, "delivered": delivered}
        return rep


def _ignore(pkt, cycle) -> None:
    return None


class FigureSweep(Workload):
    """Fig. 11 regenerated cold into a fresh result cache, then warm."""

    name = "figure_sweep"
    why = ("Fig. 11 on HS+SC x baseline/rp/dr through experiments and sweep "
           "into a fresh result cache, then again from it: many short points, "
           "the only rp; closed loop, 1 caller")
    #: the paper's best (HS) and worst (SC, LLC-bound) DR cases
    BENCHMARKS = ("HS", "SC")
    CYCLES = 250
    WARMUP = 150
    #: the seed moves the warm-up by up to this many cycles: the
    #: experiments path takes no simulation seed, and a small shift
    #: keeps every seed's host cost alike
    WARMUP_SPREAD = 16

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.warmup = self.WARMUP + seed % self.WARMUP_SPREAD
        self.cache_dir = workdir / "sweep-cache"

    def inputs(self):
        return {"benchmarks": list(self.BENCHMARKS), "cycles": self.CYCLES,
                "warmup": self.warmup}

    def build_first(self) -> None:
        from repro import api
        from repro.experiments.common import cpu_corunners, mechanism_config

        gpu = self.BENCHMARKS[0]
        api.build_system(mechanism_config("baseline"), gpu,
                         cpu_corunners(gpu, 1)[0])

    def _regenerate(self, clock, tracer):
        from repro.experiments import clear_sweep_cache, fig11_data_rate

        clear_sweep_cache()  # the in-process memo; the disk cache stays
        with checkpointed_builds(clock), \
                self.span(tracer, "experiments.fig11"):
            return fig11_data_rate.run(
                benchmarks=list(self.BENCHMARKS), n_mixes=1,
                cycles=self.CYCLES, warmup=self.warmup)

    def _warm(self, clock, tracer):
        with self.span(tracer, "sweep.warm"):
            return self._regenerate(clock, tracer)

    def rep(self, clock, tracer=None) -> Rep:
        from repro.sweep.cache import ENV_CACHE_DIR

        rep = Rep()
        points = len(self.BENCHMARKS) * 3
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.environ[ENV_CACHE_DIR] = str(self.cache_dir)
        try:
            cold, error = rep.segment(
                clock, lambda: self._regenerate(clock, tracer))
            warm, warm_error = rep.segment(
                clock, lambda: self._warm(clock, tracer))
        finally:
            del os.environ[ENV_CACHE_DIR]
        if error is not None:
            rep.op(2 * points, error)
            return rep
        rows = [[label, values] for label, values in cold.rows]
        rep.op(points, self.check_digest("fig11", rows))
        rep.op(points, warm_error or checks.rows_equal(cold.rows, warm.rows))
        self.context = {
            "note": MODEL_NOTE,
            "rows": rows,
            "simulated": {"gpu_data_rate_dr_over_baseline":
                          round(cold.data["dr_mean_gain"], 4)},
            "paper": PAPER,
        }
        return rep


WORKLOADS = {w.name: w for w in (DesignPoint, FabricLight, FigureSweep,
                                 ObservedPoint)}
