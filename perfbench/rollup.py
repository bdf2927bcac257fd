"""Fold a traced run into per-layer metrics.

The trace holds the program's own spans (``sat.*``, ``pool.*``,
``compile``/``shards.*``/``kernel.*``/``select``, ``store.*``,
``service.*``, ``batch.*``) plus the benchmark's ``bench.*`` spans
around each call into a layer.  :func:`per_layer` matches them with
:func:`repro.obs.build_forest` and turns them, with the metric-registry
deltas of the same window, into the ``per_layer`` metrics named in
``BENCHMARK.json``.  Times and counts are per attempted request.

Self time: the part of a span's wall time during which none of its
children ran (a pool map's self time is fork, pickle and wait with no
worker span open).  Spans a pool or service worker ran in another
process are counted for their own layer too, so the layer self times
of a fanned-out request add up to busy time, which can exceed wall
time.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List

from repro import obs

LAYERS = ("bench", "sat", "runtime", "logic", "revision", "store", "service")


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    if head in ("bench", "sat", "store", "service"):
        return head
    if head == "pool":
        return "runtime"
    if head in ("compile", "shards", "kernel", "delta"):
        return "logic"
    return "revision"  # revise, select, batch.*


def _walk(spans: Iterable[dict]):
    for record in spans:
        yield record
        yield from _walk(record["children"])


def _outermost(roots, match: Callable[[dict], bool]) -> List[dict]:
    """Matching spans that have no matching ancestor."""
    found = []

    def visit(record):
        if match(record):
            found.append(record)
            return
        for child in record["children"]:
            visit(child)

    for root in roots:
        visit(root)
    return found


def _dur(records: Iterable[dict]) -> float:
    return sum(record["dur"] or 0.0 for record in records)


def _named(name: str) -> Callable[[dict], bool]:
    return lambda record: record["name"] == name


def _self_time(record: dict) -> float:
    """Wall time of *record* during which none of its children ran."""
    start = record["ts"]
    end = start + (record["dur"] or 0.0)
    intervals = sorted(
        (max(start, c["ts"]), min(end, c["ts"] + (c["dur"] or 0.0)))
        for c in record["children"]
    )
    covered, reach = 0.0, start
    for low, high in intervals:
        low = max(low, reach)
        if high > low:
            covered += high - low
            reach = high
    return max(0.0, end - start - covered)


def per_layer(events, since_ts: float, requests: int,
              counters: Dict[str, int], extra: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced window.

    ``events``: the trace's events; only spans opened at or after
    ``since_ts`` (epoch seconds) count.  ``counters``: registry deltas
    over the window.  ``extra``: figures measured on the benchmark side
    (``store.bytes``, ``client_latency_s``).
    """
    roots, _, _ = obs.build_forest(events)
    roots = [r for r in roots if r["ts"] >= since_ts and r["dur"] is not None]
    spans = list(_walk(roots))
    n = float(max(1, requests))

    enumerate_spans = [s for s in spans if s["name"] == "sat.enumerate"]
    serial = sum(
        (s["dur"] or 0.0) - _dur(_outermost(s["children"], _named("pool.map")))
        for s in enumerate_spans
    )
    maps = [s for s in spans if s["name"] == "pool.map"]
    map_capacity = sum((m["dur"] or 0.0) * int(m["attrs"].get("workers", 1))
                       for m in maps)
    worker_busy = sum(
        _dur(c for c in m["children"] if c["pid"] != m["pid"]) for m in maps
    )
    compile_spans = _outermost(roots, lambda r: (
        r["name"] == "shards.compile"
        or (r["name"] == "compile" and r["attrs"].get("engine") != "sat")
    ))
    chains = _outermost(roots, _named("batch.revise_chain"))
    works = [s for s in spans if s["name"] == "service.work"]
    if chains:
        select_s = sum(
            (c["dur"] or 0.0) - _dur(_outermost(c["children"],
                                                _named("batch.compile")))
            for c in chains
        )
        query_s = 0.0  # the worker's query step has no span of its own
    else:
        select_s = _dur(s for s in spans if s["name"] == "bench.select")
        query_s = _dur(s for s in spans if s["name"] == "bench.query")
    admits = [s for s in spans if s["name"] == "service.admit"
              and s["attrs"].get("outcome") == "admitted"]
    dispatches = [s for s in spans if s["name"] == "service.dispatch"
                  and s["attrs"].get("attempt") == 1
                  and not s["attrs"].get("hedge")]
    # Each admitted request is dispatched once as its first attempt, so
    # the total wait is the difference of the two sums.  Unequal counts
    # mean a request was still queued or left the window unseen.
    if len(admits) != len(dispatches):
        raise RuntimeError(
            f"queue wait: {len(admits)} admitted requests but "
            f"{len(dispatches)} first dispatches in the traced window"
        )
    queue_wait = (sum(d["ts"] for d in dispatches)
                  - sum(a["ts"] for a in admits))
    work_s = _dur(works) / n

    def count(name):
        return counters.get(name, 0) / n

    metrics = {
        "sat.enumerate_s": _dur(enumerate_spans) / n,
        "sat.serial_s": serial / n,
        "sat.conflicts": count("allsat.conflicts"),
        "sat.propagations": count("allsat.propagations"),
        "sat.cubes": count("allsat.cubes"),
        "runtime.pool.maps": len(maps) / n,
        "runtime.pool.map_s": _dur(maps) / n,
        "runtime.pool.busy_ratio": (worker_busy / map_capacity
                                    if map_capacity else 0.0),
        "logic.compile_s": _dur(compile_spans) / n,
        "logic.kernel_s": _dur(_outermost(roots, _named("select"))) / n,
        "revision.select_s": select_s / n,
        "revision.query_s": query_s / n,
        "revision.chain_resumed": count("batch.tier.chain-memoised"),
        "revision.carrier_incremental": count("batch.tier.carrier-lru-seed"),
        "revision.compile_misses": sum(
            1 for s in spans if s["name"] == "batch.compile") / n,
        "store.probe_s": _dur(s for s in spans
                              if s["name"] == "store.probe") / n,
        "store.publish_s": _dur(s for s in spans
                                if s["name"] == "store.publish") / n,
        "store.hits": count("store.hits"),
        "store.misses": count("store.misses"),
        "store.bytes": float(extra.get("store.bytes", 0)),
        "service.queue_wait_s": queue_wait / n,
        "service.work_s": work_s,
        "service.work_self_s": sum(_self_time(w) for w in works) / n,
        "service.overhead_s": (extra["client_latency_s"] - work_s
                               if works else 0.0),
        "service.queue_peak": float(extra.get("service.queue_peak", 0)),
        "service.retries": count("service.retries"),
        "service.worker_restarts": count("service.worker_restarts"),
    }
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for record in spans:
        self_by_layer[layer_of(record["name"])] += _self_time(record)
    for layer, seconds in self_by_layer.items():
        metrics[f"self.{layer}_s"] = seconds / n
    return metrics
