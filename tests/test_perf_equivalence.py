"""Equivalence harness: both backends compute one simulation semantics.

The object kernel (:class:`~repro.noc.network.NocFabric`, the readable
reference model) and the vector kernel (``backend="vector"``, batch array
operations) step the fabric with the same two-phase decide-then-commit
semantics, so the same seeded workload must produce **bit-identical**
counters on both — on the bench traffic generators and on full-system
runs.  These tests fail on the first counter that drifts, which pins down
optimisations (the active-set scheduler, the routing tables, the array
kernel) that silently change behaviour.

Adaptive routing runs on the object kernel only, so its pin is
determinism plus conservation.  The rest asserts flit/packet
conservation through the NoC under heavy delegation pressure: nothing
the delegation path converts, rejects or re-routes may create or lose
traffic.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import BENCH_CONFIGS, _Lcg
from repro.config.system import DelegationConfig, NocConfig, RoutingPolicy
from repro.core.delegated_replies import DelegatedRepliesMechanism, ReplyMeta
from repro.noc import MeshTopology, MessageType, NocFabric, Packet, TrafficClass
from repro.noc.packet import NetKind
from repro.sim.metrics import collect_counters
from repro.sim.simulator import build_system

from conftest import fabric_counters, small_config, small_dr_config


def _run_synthetic(config_name: str, cycles: int, backend: str) -> dict:
    builder, _default = BENCH_CONFIGS[config_name]
    drive, fabric = builder(backend=backend)
    for c in range(cycles):
        drive(c)
    return fabric_counters(fabric)


def _assert_identical(ref: dict, got: dict) -> None:
    diffs = {k: (ref[k], got.get(k)) for k in ref if got.get(k) != ref[k]}
    assert not diffs, f"counters drifted between backends: {diffs}"


@pytest.mark.parametrize("config_name", ["mesh8x8", "mesh8x8_dr", "shared_vnet"])
def test_synthetic_counters_bit_identical(config_name):
    """Object vs vector kernel on the bench traffic generators."""
    ref = _run_synthetic(config_name, 1500, "object")
    _assert_identical(ref, _run_synthetic(config_name, 1500, "vector"))


@pytest.mark.parametrize("make_cfg", [small_config, small_dr_config])
def test_full_system_counters_bit_identical(make_cfg):
    """End-to-end: every counter in collect_counters matches on both."""

    def run(backend: str) -> dict:
        system = build_system(make_cfg(), "HS", "canneal", backend=backend)
        system.run(700)
        return collect_counters(system)

    _assert_identical(run("object"), run("vector"))


# ---------------------------------------------------------------------------
# conservation
# ---------------------------------------------------------------------------


def _drain(fabric: NocFabric, start_cycle: int, limit: int = 6000) -> int:
    """Step the fabric with injection stopped until it is empty."""
    cycle = start_cycle
    while cycle < start_cycle + limit:
        fabric.step(cycle)
        cycle += 1
        if fabric.in_flight_flits() == 0 and all(
            not nic.queues[NetKind.REQUEST]
            and not nic.queues[NetKind.REPLY]
            and not nic._inflight[NetKind.REQUEST]
            and not nic._inflight[NetKind.REPLY]
            for nic in fabric.nics
        ):
            return cycle
    raise AssertionError("fabric failed to drain — flits lost or stuck")


def _assert_conserved(fabric: NocFabric) -> None:
    nets = {id(net): net for net in (fabric.request_net, fabric.reply_net)}
    delivered_pkts = sum(n.packets_delivered for n in nets.values())
    delivered_flits = sum(n.flits_delivered for n in nets.values())
    sent_pkts = sum(
        nic.packets_sent_net[NetKind.REQUEST]
        + nic.packets_sent_net[NetKind.REPLY]
        for nic in fabric.nics
    )
    injected_flits = sum(nic.flits_injected for nic in fabric.nics)
    # packets_sent_net is adjusted on delegation (reply decremented,
    # request incremented) so sends == deliveries exactly
    assert delivered_pkts == sent_pkts
    assert delivered_flits == injected_flits


@pytest.mark.parametrize("policy", [
    RoutingPolicy.DYXY, RoutingPolicy.FOOTPRINT, RoutingPolicy.HARE,
])
def test_adaptive_routing_deterministic_and_conserving(policy):
    """Adaptive routing (object kernel only) routes against the frozen
    start-of-pass state: re-runs are bit-identical, and after the sources
    stop the fabric drains with every packet delivered."""

    def run():
        fabric = NocFabric(MeshTopology(4, 4), NocConfig(routing=policy))
        for nic in fabric.nics:
            nic.handler = lambda pkt, cycle: None
        rng = _Lcg(7)
        for cycle in range(800):
            for _ in range(3):  # near saturation: adaptivity has choices
                src = rng.below(16)
                dst = (src + 1 + rng.below(15)) % 16
                size = 9 if rng.next() & 1 else 1
                mtype = MessageType.READ_REPLY if size == 9 else MessageType.READ_REQ
                fabric.nic(src).try_send(
                    Packet(src, dst, mtype, TrafficClass.GPU, size), cycle
                )
            fabric.step(cycle)
        return fabric, fabric_counters(fabric)

    fabric, first = run()
    _assert_identical(first, run()[1])
    assert first["in_flight"] > 0, "workload too light to exercise routing"
    _drain(fabric, 800)
    _assert_conserved(fabric)


def test_packet_conservation_under_heavy_delegation():
    """No flit is created or destroyed while delegation rewrites traffic.

    Memory nodes are hammered until their reply buffers block, forcing the
    delegation path (reply -> 1-flit delegated request conversion) to fire
    constantly; after the sources stop, the fabric must drain completely
    and the delivered totals must match the post-delegation send counts.
    """
    mem_nodes = (3, 7, 11, 15)
    fabric = NocFabric(MeshTopology(4, 4), NocConfig(), mem_nodes=mem_nodes)
    mech = DelegatedRepliesMechanism(DelegationConfig(enabled=True))
    for m in mem_nodes:
        mech.attach(fabric.nic(m))
    for nic in fabric.nics:
        nic.handler = lambda pkt, cycle: None
    compute = [n for n in range(16) if n not in mem_nodes]

    cycle = 0
    for cycle in range(1200):
        # every memory node posts a delegatable 9-flit reply each cycle —
        # far beyond reply-network capacity, so the buffers stay blocked
        for i, m in enumerate(mem_nodes):
            dst = compute[(cycle + i) % len(compute)]
            sharer = compute[(cycle + 2 * i + 1) % len(compute)]
            meta = ReplyMeta(
                llc_hit=True, delegate_to=sharer if sharer != dst else None
            )
            fabric.nic(m).try_send(
                Packet(m, dst, MessageType.READ_REPLY, TrafficClass.GPU, 9,
                       txn=meta),
                cycle,
            )
            src = compute[(3 * cycle + i) % len(compute)]
            fabric.nic(src).try_send(
                Packet(src, m, MessageType.READ_REQ, TrafficClass.GPU, 1),
                cycle,
            )
        fabric.step(cycle)

    delegations = sum(fabric.nic(m).delegations for m in mem_nodes)
    assert delegations > 100, "workload failed to trigger heavy delegation"

    _drain(fabric, cycle + 1)
    _assert_conserved(fabric)


class TestBenchMemoryTelemetry:
    """run_bench results carry memory-behaviour signals (BENCH_noc.json)."""

    def test_extras_report_rss_and_gc(self):
        from repro.bench.harness import _GcWatch, _peak_rss_kb, run_bench

        res = run_bench("mesh8x8", cycles=300)
        assert res.extra["peak_rss_kb"] == _peak_rss_kb()
        assert res.extra["peak_rss_kb"] > 0  # Linux: ru_maxrss available
        gc_keys = [k for k in res.extra if k.startswith("gc_gen")]
        assert gc_keys and all(res.extra[k] >= 0 for k in gc_keys)
        d = res.as_dict()
        assert d["peak_rss_kb"] == res.extra["peak_rss_kb"]

    def test_gc_watch_counts_forced_collection(self):
        import gc

        from repro.bench.harness import _GcWatch

        watch = _GcWatch()
        gc.collect()
        deltas = watch.deltas()
        assert deltas["gc_gen2_collections"] >= 1
