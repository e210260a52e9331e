"""Span tracing from outside the program, by wrapping its public calls.

A :class:`Tracer` replaces a method or function with a wrapper that
records one span ``(name, start, end, parent)`` per call.  Built
instances (the system's cores, memory nodes, fabric and NICs) are
wrapped per instance; code the program builds internally and never
hands back (sweep specs, the result cache, the sweep runner) is wrapped
at the class or module attribute, and restored by :meth:`uninstall`.

Spans live in flat typed arrays, so a traced design point (some 10^5
spans) costs a few MB; :meth:`write` saves them once, at the end.  A
layer's self time is its spans' durations minus the part covered by
their child spans.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

_MISSING = object()


class Tracer:
    """In-memory span recorder plus the counts taken at the same calls."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list = []
        #: counts recorded by result hooks (cache hits, retries, ...)
        self.counts: Dict[str, int] = {}
        #: systems and fabrics built while installed, for their
        #: end-of-run counters; :meth:`reset` drops them
        self.systems: list = []
        self.fabrics: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(self._id(name))
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        on_result: Optional[Callable[[object], None]] = None,
        undo: bool = True,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is an instance, a class or a module.  ``on_result``
        sees each call's return value.  ``undo`` registers the original
        for :meth:`uninstall`; per-instance wraps on throwaway objects
        skip it so the tracer holds no reference to them.
        """
        fn = getattr(owner, attr)
        nid = self._id(name)
        stack, starts, ends = self._stack, self.start, self.end
        open_span, clock = self._open, time.perf_counter

        def traced(*args, **kwargs):
            idx = open_span(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        if undo:
            self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def reset(self) -> None:
        """Forget one repetition's counts, systems and fabrics."""
        self.counts.clear()
        self.systems.clear()
        self.fabrics.clear()

    # -- program layers ----------------------------------------------------

    def install(self) -> None:
        """Wrap the program's layer-boundary calls (undone by uninstall)."""
        import repro.api as api
        import repro.sim.simulator as simulator
        from repro.experiments import fig11_data_rate
        from repro.sweep.cache import ResultCache
        from repro.sweep.jobs import JobSpec
        from repro.sweep.runner import SweepRunner

        for module in (api, simulator):
            self.wrap(module, "build_system", "sim.build",
                      on_result=self.instrument_system)
            self.wrap(module, "run_simulation", "sim.run")
        self.wrap(JobSpec, "key", "sweep.key")
        self.wrap(ResultCache, "get", "sweep.cache_get",
                  on_result=self._count_cache_get)
        self.wrap(ResultCache, "put", "sweep.cache_put")
        self.wrap(SweepRunner, "run", "sweep.run",
                  on_result=self._count_retries)
        self.wrap(fig11_data_rate, "mechanism_sweep", "experiments.sweep")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def instrument_fabric(self, fabric) -> None:
        self.wrap(fabric, "step", "noc.step", undo=False)
        for nic in fabric.nics:
            self.wrap(nic, "try_send", "noc.send", undo=False)
        self.fabrics.append(fabric)

    def instrument_system(self, system) -> None:
        """Wrap one built system's per-cycle layer calls."""
        self.instrument_fabric(system.fabric)
        for core in system.gpu_cores:
            self.wrap(core, "step", "gpu.step", undo=False)
        for mem in system.memory_nodes:
            self.wrap(mem, "step", "memory_node.step", undo=False)
        for core in system.cpu_cores:
            self.wrap(core, "step", "cpu.step", undo=False)
        if system.faults is not None:
            self.wrap(system.faults, "on_cycle", "faults.on_cycle",
                      undo=False)
        if system.telemetry is not None:
            self.wrap(system.telemetry, "on_cycle", "telemetry.on_cycle",
                      undo=False)
            self.wrap(system.telemetry, "finalize", "telemetry.finalize",
                      undo=False)
        self.systems.append(system)

    def _count_cache_get(self, result) -> None:
        self.count("sweep.cache_misses" if result is None
                   else "sweep.cache_hits")

    def _count_retries(self, outcomes) -> None:
        self.count("sweep.retries",
                   sum(max(0, o.attempts - 1) for o in outcomes.values()))

    # -- analysis ----------------------------------------------------------

    def _arrays(self):
        # copies, not views: a view would pin the arrays against growth
        nid = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = (np.array(self.end, dtype=np.float64)
               - np.array(self.start, dtype=np.float64))
        return nid, parent, dur

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, excluding time inside child spans."""
        nid, parent, dur = self._arrays()
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        per = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        return {name: float(per[i]) for i, name in enumerate(self.names)}

    def total_times(self) -> Dict[str, float]:
        """Seconds per span name, child spans included."""
        nid, _, dur = self._arrays()
        per = np.bincount(nid, weights=dur, minlength=len(self.names))
        return {name: float(per[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Save every span (name index, parent index, start, end)."""
        nid, parent, _ = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=nid,
            parent=parent,
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
        )
