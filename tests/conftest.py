"""Shared fixtures: small, fast system configurations for unit tests."""

from __future__ import annotations

import pytest

from repro.config import (
    SystemConfig,
    baseline_config,
    delegated_replies_config,
)
from repro.noc.packet import NetKind, TrafficClass


def small_config(**overrides) -> SystemConfig:
    """A 4x4-mesh system that simulates quickly.

    Baseline column-major layout: 4 CPU nodes (west column), 2 memory
    nodes, 10 GPU nodes.
    """
    cfg = baseline_config(
        mesh_width=4, mesh_height=4, n_cpu=4, n_mem=2, n_gpu=10
    )
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return cfg


def small_dr_config(**overrides) -> SystemConfig:
    cfg = delegated_replies_config(
        mesh_width=4, mesh_height=4, n_cpu=4, n_mem=2, n_gpu=10
    )
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return cfg


@pytest.fixture
def cfg_small() -> SystemConfig:
    return small_config()


@pytest.fixture
def cfg_small_dr() -> SystemConfig:
    return small_dr_config()


@pytest.fixture
def cfg_table1() -> SystemConfig:
    """The full Table I configuration (8x8, 40/16/8)."""
    return baseline_config()


def fabric_counters(fabric) -> dict:
    """Every observable fabric counter, flattened for ``==`` comparison.

    Backend-neutral: reads only the surface both ``NocFabric`` and
    ``VectorFabric`` expose.
    """
    out: dict = {}
    nets = {id(net): net for net in (fabric.request_net, fabric.reply_net)}
    for i, net in enumerate(nets.values()):
        out[f"net{i}.cycles"] = net.cycles
        out[f"net{i}.packets_delivered"] = net.packets_delivered
        out[f"net{i}.flits_delivered"] = net.flits_delivered
        out[f"net{i}.delivered_by_type"] = dict(net.delivered_by_type)
        out[f"net{i}.total_routed"] = net.total_flits_routed()
        out[f"net{i}.flits_routed"] = [r.flits_routed for r in net.routers]
        out[f"net{i}.buffered"] = [r.buffered_flits() for r in net.routers]
        out[f"net{i}.link_flits"] = [list(row) for row in net.link_flits]
    for nic in fabric.nics:
        nid = nic.node_id
        out[f"nic{nid}.flits_injected"] = nic.flits_injected
        for kind in (NetKind.REQUEST, NetKind.REPLY):
            out[f"nic{nid}.injected_{int(kind)}"] = nic.flits_injected_net[kind]
            out[f"nic{nid}.sent_{int(kind)}"] = nic.packets_sent_net[kind]
        for cls in (TrafficClass.CPU, TrafficClass.GPU):
            out[f"nic{nid}.received_{int(cls)}"] = nic.flits_received[cls]
        out[f"nic{nid}.data_flits"] = nic.data_flits_received
        if hasattr(nic, "delegations"):
            out[f"nic{nid}.delegations"] = nic.delegations
            out[f"nic{nid}.blocked"] = nic.blocked_cycles
            out[f"nic{nid}.observed"] = nic.observed_cycles
    out["in_flight"] = fabric.in_flight_flits()
    return out
