"""Outside-in layer tracing: wrap each layer's public functions at run time.

Nothing in ``src/`` is edited.  :class:`LayerTracer` replaces the
functions listed in :data:`TARGETS` with timing wrappers — on their
classes or modules, and on every ``repro`` module that imported a
module-level function by name — and accounts *self time*: a wrapped
call's wall time minus the wall time of the wrapped calls it made.
Self times of all layers plus the root's own self time (the
unattributed part) add up to the root span exactly.

Some targets also count work items (engine events, lease events, DNS
lookups, cache hits, transport bytes).  Worker-pool task
functions (:data:`WORKER_TASKS`) run in forked workers, where the
tracer's totals cannot reach the parent; their wrappers append each
task's busy seconds to a per-process file under ``worker_log_dir``.

Wrappers are installed before the world is built, because some layers
capture bound methods when they are wired together (the IPAM system
subscribes ``on_lease_event`` to its DHCP server).  The tracer keeps a
single call stack, so wrapped calls must come from one thread at a time,
which holds for the study process and for the serve process's event
loop.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional


class Target(NamedTuple):
    layer: str
    module: str
    qualname: str
    #: ``(counter name, fn(args, result) -> int)`` pairs added after each call.
    counts: tuple = ()


def _one(args, result) -> int:
    return 1


def _failures(result) -> int:
    return sum(1 for item in result if not item.ok)


def _cache_bytes(args, result) -> int:
    """Bytes one cache hit read: the JSON document plus any blockfile."""
    if result is None:
        return 0
    cache, key = args[0], args[1]
    size = cache.path_for(key).stat().st_size
    if "blockfile_path" in result:
        size += os.path.getsize(result["blockfile_path"])
    return size


_CACHE_LOAD_COUNTS = (
    ("storage.lookups", _one),
    ("storage.hits", lambda args, result: int(result is not None)),
    ("storage.bytes_read", _cache_bytes),
)


TARGETS: List[Target] = [
    Target("netsim.build", "repro.netsim.internet", "build_world"),
    Target("netsim.derive", "repro.netsim.network", "Network.counts_by_slash24",
           (("netsim.derive_calls", _one),)),
    Target("netsim.derive", "repro.netsim.network", "Network.records_on",
           (("netsim.derive_calls", _one),)),
    Target("netsim.engine", "repro.netsim.engine", "SimulationEngine.run_until",
           (("netsim.engine_events", lambda args, result: result),)),
    Target("dhcp", "repro.dhcp.server", "DhcpServer.handle",
           (("dhcp.messages", _one),)),
    Target("dhcp", "repro.dhcp.server", "DhcpServer.expire_leases"),
    Target("ipam", "repro.ipam.system", "IpamSystem.on_lease_event",
           (("ipam.lease_events", _one),)),
    Target("ipam", "repro.ipam.system", "IpamSystem.on_lease_batch",
           (("ipam.lease_events", lambda args, result: len(args[1])),)),
    Target("ipam", "repro.ipam.system", "IpamSystem.flush_pending",
           (("ipam.lease_events", lambda args, result: result),)),
    Target("dns", "repro.dns.zone", "ReverseZone.set_ptr",
           (("dns.zone_updates", _one),)),
    Target("dns", "repro.dns.zone", "ReverseZone.remove_ptr",
           (("dns.zone_updates", _one),)),
    Target("dns", "repro.dns.resolver", "StubResolver.resolve_ptr",
           (("dns.lookups", _one),
            ("dns.lookup_failures", lambda args, result: 0 if result.ok else 1))),
    Target("dns", "repro.dns.resolver", "StubResolver.lookup_batch",
           (("dns.lookups", lambda args, result: len(result)),
            ("dns.lookup_failures", lambda args, result: _failures(result)))),
    Target("scan.collect", "repro.scan.snapshot", "SnapshotCollector.collect"),
    Target("scan.sample", "repro.scan.snapshot", "SnapshotSeries.sample_records"),
    Target("scan.sweep", "repro.scan.icmp", "IcmpScanner.sweep"),
    Target("scan.rdns", "repro.scan.rdns", "RdnsLookupEngine.lookup_batch"),
    Target("scan.rdns", "repro.scan.rdns", "RdnsLookupEngine.lookup"),
    Target("scan.campaign", "repro.scan.campaign", "SupplementalCampaign.run"),
    Target("storage.load", "repro.scan.cache", "SnapshotCache.load", _CACHE_LOAD_COUNTS),
    Target("storage.load", "repro.scan.cache", "CampaignCache.load", _CACHE_LOAD_COUNTS),
    Target("storage.decode", "repro.scan.snapshot", "SnapshotSeries.from_payload"),
    Target("storage.decode", "repro.scan.campaign", "SupplementalDataset.from_payload"),
    Target("pool.collect", "repro.scan.parallel", "collect_days"),
    Target("pool.campaign", "repro.scan.campaign_parallel", "run_networks"),
    Target("transport.consume", "repro.scan.transport", "consume",
           (("transport.bytes", lambda args, result: args[0].size),)),
    Target("core.dynamicity", "repro.core.dynamicity", "DynamicityAnalyzer.analyze"),
    Target("core.dynamicity", "repro.core.dynamicity", "IncrementalDynamicityAnalyzer.report"),
    Target("core.leaks", "repro.core.leaks", "LeakIdentifier.identify"),
    Target("core.groups", "repro.core.grouping", "GroupBuilder.build"),
    Target("core.lingering", "repro.core.timing", "lingering_analysis"),
    Target("serve.prefix", "repro.serve.services", "DynamicityService.prefix_payload"),
    # Framing runs after ``dispatch`` returns, beside the root rather than in it.
    Target("serve.encode", "repro.serve.http", "encode_response"),
    Target("serve.ingest_derive", "repro.serve.repositories", "SnapshotRepository.append_derived_day"),
    Target("serve.ingest_analyze", "repro.core.dynamicity", "IncrementalDynamicityAnalyzer.ingest"),
]

#: Every layer a target can report into, in table order.
LAYERS: List[str] = list(dict.fromkeys(target.layer for target in TARGETS))

#: Task functions that run inside pool workers: ``(module, name)``.
WORKER_TASKS = [
    ("repro.scan.parallel", "_collect_chunk"),
    ("repro.scan.parallel", "_records_chunk"),
    ("repro.scan.campaign_parallel", "_run_one"),
]

#: The serve layer's root: every request passes through ``dispatch``.
SERVE_ROOT = Target("root", "repro.serve.app", "ServeApp.dispatch")


def _resolve(module_name: str, qualname: str):
    """``(owner, attribute name, original attribute)`` for one target."""
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    # A static lookup returns a classmethod as itself, and finds an
    # inherited method so the wrapper shadows it on this class only.
    original = inspect.getattr_static(owner, name)
    function = original.__func__ if isinstance(original, classmethod) else original
    if not inspect.isfunction(function):
        raise TypeError(f"{module_name}.{qualname} is not a function")
    return owner, name, original


def _rewrap(original, wrap: Callable[[Callable], Callable]):
    """Apply ``wrap`` to a function, keeping a classmethod a classmethod."""
    if isinstance(original, classmethod):
        return classmethod(wrap(original.__func__))
    return wrap(original)


class LayerTracer:
    """Self-time and count accounting for the wrapped layer functions."""

    def __init__(self, *, worker_log_dir: Optional[str] = None):
        self.enabled = True
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.worker_log_dir = worker_log_dir
        self._stack: List[float] = []

    # -- installation -----------------------------------------------------

    def install(self, targets=TARGETS, *, worker_tasks=WORKER_TASKS) -> None:
        for target in targets:
            owner, name, original = _resolve(target.module, target.qualname)
            wrapper = _rewrap(original, lambda function: self._wrap(target, function))
            self._patch(owner, name, original, wrapper)
        for module_name, name in worker_tasks:
            owner, name, original = _resolve(module_name, name)
            self._patch(owner, name, original, self._wrap_task(original))

    def _patch(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        if isinstance(owner, type):
            return
        # ``from module import function`` bindings elsewhere in the
        # package would keep calling the original.
        for module_name, module in list(sys.modules.items()):
            if (
                module_name.startswith("repro")
                and module is not owner
                and getattr(module, name, None) is original
            ):
                setattr(module, name, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, target: Target, original: Callable) -> Callable:
        tracer = self
        layer = target.layer
        counts = target.counts
        # A generator's work happens while it is iterated, not when it
        # is called; materialise it inside the timed region instead.
        eager = inspect.isgeneratorfunction(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                if eager:
                    result = list(result)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                tracer.self_s[layer] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            for counter, count in counts:
                tracer.counts[counter] += count(args, result)
            return iter(result) if eager else result

        return wrapper

    def _wrap_task(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def task(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                if tracer.enabled and tracer.worker_log_dir:
                    path = os.path.join(tracer.worker_log_dir, f"busy-{os.getpid()}.txt")
                    with open(path, "a", encoding="utf-8") as log:
                        log.write(f"{elapsed!r}\n")

        return task

    # -- root span ------------------------------------------------------------

    def start_root(self) -> None:
        """Open the root span (a study); nested layer time accrues under it."""
        self._stack.append(0.0)

    def stop_root(self, elapsed: float) -> None:
        """Close the root span; its uncovered time becomes ``root``'s self time."""
        covered = self._stack.pop()
        self.self_s["root"] += elapsed - covered

    # -- results --------------------------------------------------------------

    def worker_busy_s(self) -> float:
        """Busy seconds logged by pool-worker tasks (read from the log files)."""
        if not self.worker_log_dir or not os.path.isdir(self.worker_log_dir):
            return 0.0
        total = 0.0
        for name in os.listdir(self.worker_log_dir):
            if name.startswith("busy-"):
                with open(os.path.join(self.worker_log_dir, name), encoding="utf-8") as log:
                    total += sum(float(line) for line in log if line.strip())
        return total

    def totals(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "worker_busy_s": self.worker_busy_s(),
        }
