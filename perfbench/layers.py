"""Which public calls of the program are wrapped, and the per-layer metrics.

Each ``instrument_*`` function patches one group of the program's public
functions and methods through a :class:`~perfbench.spans.SpanRecorder`;
``recorder.restore()`` undoes all of it.  Nothing under ``src/`` knows it
is being measured.

:func:`layer_metrics` turns a recorder's aggregates into the per-layer
metrics named in ``BENCHMARK.json``.  Every workload reports every
metric; a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics
from typing import Optional

from perfbench.spans import SpanRecorder


def instrument_sim(rec: SpanRecorder) -> None:
    """Wrap the layers a simulated cell runs through (model and cycle)."""
    from repro.cache.nuca import NucaL2
    from repro.coherence.protocol import CoherentL1System
    from repro.core import latency_model, system
    from repro.noc import network, routing
    from repro.sim.engine import Engine
    from repro.workloads.generator import SyntheticWorkload

    def count_refs(args, kwargs, traces, start, end):
        rec.count("workloads.refs", sum(len(trace) for trace in traces))

    def count_l2_need(args, kwargs, event, start, end):
        if event.needs_l2:
            rec.count("coherence.needs_l2")

    def count_outcome(args, kwargs, outcome, start, end):
        if outcome.hit and outcome.search_step == 2:
            rec.count("cache.step2_hits")
        if outcome.migration is not None:
            rec.count("cache.migrations")

    rec.instrument(
        SyntheticWorkload, "traces", "workloads.traces", on_exit=count_refs
    )
    rec.instrument(
        CoherentL1System, "access", "coherence.access",
        on_exit=count_l2_need,
    )
    rec.instrument(NucaL2, "access", "cache.access", on_exit=count_outcome)
    rec.instrument(system.NetworkInMemory, "run_trace", "system.run_trace")
    rec.instrument(
        system.NetworkInMemory, "collect_stats", "system.collect_stats"
    )

    # The pricer is built per system, so its methods are wrapped on each
    # new instance.
    init = system.NetworkInMemory.__init__

    def instrumented_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        pricer = self.pricer
        pricer.price = rec.wrap(pricer.price, "pricer.price")
        pricer.charge_invalidations = rec.wrap(
            pricer.charge_invalidations, "pricer.charge_invalidations"
        )

    rec.patch(system.NetworkInMemory, "__init__", instrumented_init)

    model = latency_model.LatencyModel
    rec.instrument(model, "packet_latency", "latency_model.packet_latency")
    rec.instrument(model, "note_packet", "latency_model.note_packet")
    rec.instrument(model, "path", "latency_model.path")
    # best_pillar is imported by name into its callers' modules.
    best_pillar = rec.wrap(routing.best_pillar, "routing.best_pillar")
    for module in (routing, latency_model, network):
        rec.patch(module, "best_pillar", best_pillar)

    rec.instrument(network.Network, "send", "noc.send")
    rec.instrument(Engine, "run_until", "sim.run_until")


def instrument_serve(
    rec: SpanRecorder,
    submit_done_ns: dict[str, int],
    store_submit_ns: dict[str, int],
    queue_wait_s: list[float],
) -> None:
    """Wrap the sweep service's layers (store, journal, cache, cells).

    ``submit_done_ns`` maps a spec hash to when its first submission was
    committed; ``store_submit_ns`` maps a job id to its store-side
    submit duration; ``queue_wait_s`` collects, per executed cell, the
    time from that commit to the start of its execution.
    """
    from repro.experiments import orchestrator
    from repro.serve import scheduler
    from repro.serve.journal import Journal

    def note_submit(args, kwargs, job, start, end):
        store_submit_ns[job.job_id] = end - start
        for cell in job.cells:
            submit_done_ns.setdefault(cell.spec_hash, end)

    def note_execution(args, kwargs, stats, start, end):
        committed = submit_done_ns.get(args[0].spec_hash())
        if committed is not None:
            queue_wait_s.append((start - committed) / 1e9)

    rec.instrument(
        scheduler.JobStore, "submit", "serve.store_submit",
        is_async=True, sample=True, on_exit=note_submit,
    )
    rec.instrument(
        Journal, "append", "serve.journal_append", sample=True
    )
    rec.instrument(
        orchestrator.ResultCache, "get", "orchestrator.cache_get",
        sample=True,
    )
    rec.instrument(
        orchestrator.ResultCache, "put", "orchestrator.cache_put",
        sample=True,
    )
    execute = rec.wrap(
        orchestrator.execute_cell, "orchestrator.execute_cell",
        sample=True, on_exit=note_execution,
    )
    # The store calls the name it imported.
    rec.patch(orchestrator, "execute_cell", execute)
    rec.patch(scheduler, "execute_cell", execute)


#: (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = [
    ("workloads.traces.s", "s", "lower"),
    ("workloads.refs", "count", "higher"),
    ("coherence.access.calls", "count", "lower"),
    ("coherence.access.self_s", "s", "lower"),
    ("coherence.l2_share", "ratio", "lower"),
    ("cache.access.calls", "count", "lower"),
    ("cache.access.self_s", "s", "lower"),
    ("cache.step2_share", "ratio", "lower"),
    ("cache.migration_share", "ratio", "lower"),
    ("system.run_trace.self_s", "s", "lower"),
    ("system.collect_stats.s", "s", "lower"),
    ("pricer.price.calls", "count", "lower"),
    ("pricer.price.self_s", "s", "lower"),
    ("pricer.charge_invalidations.calls", "count", "lower"),
    ("pricer.charge_invalidations.self_s", "s", "lower"),
    ("latency_model.packet_latency.calls", "count", "lower"),
    ("latency_model.packet_latency.self_s", "s", "lower"),
    ("latency_model.note_packet.calls", "count", "lower"),
    ("latency_model.note_packet.self_s", "s", "lower"),
    ("latency_model.path.calls", "count", "lower"),
    ("latency_model.path.self_s", "s", "lower"),
    ("routing.best_pillar.calls", "count", "lower"),
    ("routing.best_pillar.self_s", "s", "lower"),
    ("latency_model.path_per_packet", "ratio", "lower"),
    ("noc.send.calls", "count", "lower"),
    ("noc.send.self_s", "s", "lower"),
    ("sim.run_until.calls", "count", "lower"),
    ("sim.run_until.self_s", "s", "lower"),
    ("noc.packets_per_l2_tx", "ratio", "lower"),
    ("orchestrator.execute_cell.calls", "count", "lower"),
    ("orchestrator.execute_cell.s_p50", "s", "lower"),
    ("orchestrator.cache_get.calls", "count", "lower"),
    ("orchestrator.cache_get.s_p50", "s", "lower"),
    ("orchestrator.cache_put.calls", "count", "lower"),
    ("orchestrator.cache_put.s_p50", "s", "lower"),
    ("serve.store_submit.s_p50", "s", "lower"),
    ("serve.transport.s_p50", "s", "lower"),
    ("serve.queue_wait.s_p50", "s", "lower"),
    ("serve.journal_append.calls", "count", "lower"),
    ("serve.journal_append.s_p50", "s", "lower"),
    ("serve.cache_hit_share", "ratio", "higher"),
    ("serve.dedup_share", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(
    rec: SpanRecorder,
    *,
    totals: Optional[dict[str, dict[str, float]]] = None,
    extra: Optional[dict[str, float]] = None,
) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``totals`` replaces the recorder's per-name aggregates (medians over
    several traced passes); ``extra`` supplies metrics measured outside
    the recorder (service shares, transport, queue wait, overhead).
    """
    totals = rec.totals() if totals is None else totals
    counts = rec.counts()

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    def own(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def inclusive(name: str) -> float:
        return totals.get(name, {}).get("s", 0.0)

    metrics = {
        "workloads.traces.s": inclusive("workloads.traces"),
        "workloads.refs": counts.get("workloads.refs", 0),
        "coherence.l2_share": _share(
            counts.get("coherence.needs_l2", 0), calls("coherence.access")
        ),
        "cache.step2_share": _share(
            counts.get("cache.step2_hits", 0), calls("cache.access")
        ),
        "cache.migration_share": _share(
            counts.get("cache.migrations", 0), calls("cache.access")
        ),
        "system.run_trace.self_s": own("system.run_trace"),
        "system.collect_stats.s": inclusive("system.collect_stats"),
        "latency_model.path_per_packet": _share(
            calls("latency_model.path"), calls("latency_model.note_packet")
        ),
        "noc.packets_per_l2_tx": _share(
            calls("noc.send"), calls("pricer.price")
        ),
    }
    for name in (
        "coherence.access", "cache.access", "pricer.price",
        "pricer.charge_invalidations", "latency_model.packet_latency",
        "latency_model.note_packet", "latency_model.path",
        "routing.best_pillar", "noc.send", "sim.run_until",
    ):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = own(name)
    for name in (
        "orchestrator.execute_cell", "orchestrator.cache_get",
        "orchestrator.cache_put", "serve.journal_append",
    ):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.s_p50"] = _median(rec.samples(name))
    metrics["serve.store_submit.s_p50"] = _median(
        rec.samples("serve.store_submit")
    )
    for name, __, __ in PER_LAYER:
        metrics.setdefault(name, 0.0)
    metrics.update(extra or {})
    return {name: metrics[name] for name, __, __ in PER_LAYER}
