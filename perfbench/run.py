#!/usr/bin/env python3
"""The repository's benchmark: three workloads, end-to-end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine_sat --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --steadiness --workload engine_sat --runs 5

A run does a fixed amount of work, whole rounds that take about
``--seconds`` at reference speed.  It prints human-readable lines, then
a ``detail:`` JSON line (host, live ``REPRO_*`` settings, per-class
attempted/failed counts with error types, every figure as measured, the
host-speed factor), and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``,
times scaled to reference speed (:class:`HostSpeed`).  Metric names and
units come from ``BENCHMARK.json``.  See ``perfbench/README.md`` for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, wait
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Seconds one round takes at reference speed (see :class:`HostSpeed`).
#: A run does ``round(--seconds / ROUND_SECONDS)`` rounds, but at least
#: ``MIN_ROUNDS``, so every run of a workload does the same work whatever
#: the host's speed.  ``engine_sat`` needs 24 requests for a steady
#: median (18 left quartile spreads of 0.11-0.14 across seeds), so at
#: ``--seconds 20`` it measures about 26 s.
ROUND_SECONDS = {"engine_sat": 6.4, "engine_dense": 4.2,
                 "service_stream": 1.7}
MIN_ROUNDS = {"engine_sat": 4}
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: ``service_stream``: worker processes and the closed-loop window.
SERVICE_WORKERS = 2
SERVICE_WINDOW = 4
#: Thread CPU time of one :meth:`HostSpeed.burst` at reference speed.
REFERENCE_BURST_S = 0.010


class HostSpeed:
    """The host's speed, sampled through a run by a fixed CPU-bound burst.

    A burst is a pure-Python loop of int, bit and dict operations plus
    numpy shift, xor and popcount passes over preallocated 2 MB arrays:
    the kind of work the engine does.  It is timed in thread CPU time, so
    waiting for a CPU does not count but a slower CPU does.  Bursts run
    only when no program process is working (between set-up probes and
    requests, and on ``service_stream`` with the window drained), so the
    program's own load does not slow them.  :meth:`factor` is the median
    burst over the reference; the times a run measures after set-up are
    divided by it (rates multiplied), which takes out much of the host's
    drift in speed.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._table = dict.fromkeys(range(1024), 0)
        self._a = np.arange(1 << 18, dtype=np.int64)
        self._b = np.empty_like(self._a)
        self._c = np.empty(self._a.shape, dtype=np.uint8)
        self.samples = []

    def burst(self) -> None:
        np, table, a, b, c = self._np, self._table, self._a, self._b, self._c
        started = time.thread_time()
        acc = 0
        for i in range(6000):
            x = (i * 2654435761) & 0xFFFFFFFF
            acc ^= x >> 3
            acc += bin(x).count("1")
            table[x & 1023] = acc
        for shift in (1, 2, 3, 5):
            np.right_shift(a, shift, out=b)
            np.bitwise_xor(a, b, out=b)
            np.bitwise_count(b, out=c)
            acc += int(c.sum())
        self.samples.append(time.thread_time() - started)

    def factor(self) -> float:
        return statistics.median(self.samples) / REFERENCE_BURST_S


def at_reference_speed(name: str, value: float, unit: str,
                       factor: float) -> float:
    """Scale a measured time or rate to reference speed.

    ``setup_s`` stays as measured: interpreter start-up is imports and
    forks, whose cost the CPU-bound burst does not track (scaling it
    doubled its spread across runs).
    """
    if name == "setup_s":
        return value
    if unit == "s":
        return value / factor
    if unit == "1/s":
        return value * factor
    return value


def median_setup(mode: str, env: dict, speed: HostSpeed) -> float:
    """Median time from spawning a fresh interpreter to program-ready.

    The probes run before the workload: a process spawned later, from a
    parent that has grown, inherits the parent's peak RSS as its own at
    ``exec``, which would count in ``peak_rss_mb``.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        speed.burst()
        speed.burst()
        started = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), mode],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        try:
            line = probe.stdout.readline()
            samples.append(time.perf_counter() - started)
            probe.stdin.close()
            probe.wait(timeout=60)
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
            probe.stdout.close()
        if line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed ({mode})")
    return statistics.median(samples)


def cpu_seconds() -> float:
    """CPU of this process and of its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def proc_cpu_seconds(pid: int) -> float:
    """CPU of a live process and its reaped children, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = sum(int(value) for value in fields[11:15])
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def error_type(message) -> str:
    return (message or "unknown").split(":", 1)[0]


class Tally:
    """Attempted/failed counts per request class, with error types."""

    def __init__(self) -> None:
        self.classes = {}

    def add(self, request_class: str, error=None) -> None:
        entry = self.classes.setdefault(
            request_class, {"attempted": 0, "failed": 0, "errors": Counter()}
        )
        entry["attempted"] += 1
        if error is not None:
            entry["failed"] += 1
            entry["errors"][error] += 1

    @property
    def attempted(self) -> int:
        return sum(e["attempted"] for e in self.classes.values())

    @property
    def failed(self) -> int:
        return sum(e["failed"] for e in self.classes.values())

    def report(self) -> dict:
        return {name: {"attempted": e["attempted"], "failed": e["failed"],
                       "errors": dict(e["errors"])}
                for name, e in sorted(self.classes.items())}


class Window:
    """What one traced window needs for :func:`rollup.per_layer`."""

    def __init__(self, trace_path) -> None:
        from repro import obs

        self.obs = obs
        self.trace_path = trace_path
        if trace_path is not None:
            obs.configure(str(trace_path))
        self.since_ts = time.time()
        self.before = obs.REGISTRY.counters()

    def span(self, name: str, **attrs):
        return self.obs.span(name, **attrs)

    def per_layer(self, requests: int, extra: dict) -> dict:
        import rollup

        after = self.obs.REGISTRY.counters()
        deltas = {k: v - self.before.get(k, 0) for k, v in after.items()}
        deltas["service.queue_peak"] = after.get("service.queue_peak", 0)
        self.obs.configure(None)
        events = self.obs.load_events(str(self.trace_path))
        extra = dict(extra, **{"service.queue_peak":
                               deltas["service.queue_peak"]})
        return rollup.per_layer(events, self.since_ts, requests, deltas, extra)


def run_engine(args, workdir: Path, speed: HostSpeed, make_round,
               check_pair) -> dict:
    """Closed loop, one caller: compile, select, query per request.

    The measured time is the sum of request latencies; generation,
    checks and host-speed bursts are outside it.
    """
    from repro.logic.bitmodels import BitAlphabet
    from repro.revision.batch import BatchCache, revise_many

    window = Window(workdir / "trace.jsonl" if args.trace else None)
    span = window.span
    tally = Tally()
    latencies, busy, cpu = [], 0.0, 0.0
    by_shape = {}
    rounds = rounds_for(args)
    for round_index in range(rounds):
        for number, pair in enumerate(make_round(args.seed, round_index)):
            label = f"round {round_index} pair {number}"
            cache = BatchCache()
            alphabet = BitAlphabet.coerce(pair.letters)
            theory = (pair.t_formula,)
            results, answers = {}, {}
            for op in pair.operators:
                speed.burst()
                cpu_before, started = cpu_seconds(), time.perf_counter()
                try:
                    with span("bench.request", op=op,
                              letters=len(pair.letters)):
                        with span("bench.compile"):
                            cache.warm(theory, alphabet)
                            cache.bit_models(pair.p_formula, alphabet,
                                             role="update")
                        with span("bench.select"):
                            result = revise_many(
                                [(theory, pair.p_formula)], op, cache
                            )[0]
                        with span("bench.query"):
                            answer = result.entails(pair.query.formula)
                except Exception as error:  # counted, never fatal
                    tally.add(op, type(error).__name__)
                    continue
                finally:
                    latency = time.perf_counter() - started
                    busy += latency
                    cpu += cpu_seconds() - cpu_before
                latencies.append(latency)
                by_shape.setdefault(f"{len(pair.letters)}/{op}", []).append(
                    latency)
                tally.add(op)
                if tuple(result.alphabet) != tuple(pair.letters):
                    raise SystemExit(f"{label} {op}: result alphabet differs")
                results[op] = sorted(result.bit_model_set.iter_masks())
                answers[op] = answer
            check_pair(label, pair, results, answers)
    ok = len(latencies)
    measured = {
        "throughput_rps": ok / busy,
        "latency_p50_s": statistics.median(latencies),
        "cpu_s_per_req": cpu / ok,
        "busy_s": busy,
        "rounds": rounds,
        "ok": ok,
        "latency_by_shape": {
            shape: [min(v), statistics.median(v), max(v)]
            for shape, v in sorted(by_shape.items())
        },
    }
    if ok >= 100:
        measured["latency_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
    layers = window.per_layer(tally.attempted, {}) if args.trace else None
    return {"tally": tally, "measured": measured, "layers": layers}


def check_sat_pair(label, pair, results, answers) -> None:
    import oracle

    for op, masks in results.items():
        expected = oracle.reference_fold(
            pair.letters, pair.t_masks, [pair.p_masks], op
        )
        oracle.check_result(f"{label} {op}", expected, masks, pair.query,
                            answers[op])


def rounds_for(args) -> int:
    return max(MIN_ROUNDS.get(args.workload, 1),
               round(args.seconds / ROUND_SECONDS[args.workload]))


def run_service(args, workdir: Path, speed: HostSpeed) -> dict:
    """Closed loop of ``SERVICE_WINDOW`` outstanding requests against a
    ``SERVICE_WORKERS``-worker service, round by round.

    Each round is submitted through the window and drained; two
    host-speed bursts run between rounds, with no request in flight, and
    are not part of the elapsed time.
    """
    import inputs
    import oracle
    from probe import wait_handshaken
    from repro.service import Request, RevisionService, ServiceConfig

    store_dir = workdir / "store"
    os.environ["REPRO_STORE"] = str(store_dir)
    stream = inputs.ServiceStream(args.seed)
    truth = {}

    def expected(req):
        key = (req.kb.name, req.chain)
        if key not in truth:
            truth[key] = oracle.reference_fold(
                req.kb.letters, req.kb.t_masks,
                [req.kb.update_masks[i] for i in req.chain], req.kb.operator,
            )
        return truth[key]

    window = None
    tally = Tally()
    latencies, all_latencies = [], []
    service = RevisionService(ServiceConfig(workers=SERVICE_WORKERS))
    try:
        if args.trace:
            # Workers fork with the trace sink, so it opens first.
            window = Window(workdir / "trace.jsonl")
        service.start()
        wait_handshaken(service)
        # Warm every KB once (publishes its carrier to the store); not
        # part of the measured stream.
        for start in range(0, len(stream.kbs), SERVICE_WORKERS):
            batch = stream.kbs[start:start + SERVICE_WORKERS]
            futures = [service.submit(Request(
                kind="warm", kb=kb.name, theory=kb.theory,
                deadline=inputs.SERVICE_DEADLINE_S)) for kb in batch]
            for kb, future in zip(batch, futures):
                response = future.result(300)
                if not response.ok or response.model_count != len(kb.t_masks):
                    raise SystemExit(f"warm of {kb.name} failed: "
                                     f"{response.status} {response.error}")
        from repro import obs
        obs.REGISTRY.put("service.queue_peak", 0)
        if args.trace:
            window.since_ts = time.time()
            window.before = obs.REGISTRY.counters()
        pids = service.live_worker_pids()
        worker_cpu = {pid: proc_cpu_seconds(pid) for pid in pids}
        cpu_before = os.times()
        inflight, done_at, elapsed = {}, {}, 0.0
        rounds = rounds_for(args)

        def submit(req) -> None:
            future = service.submit(Request(
                kind="revise", kb=req.kb.name, theory=req.kb.theory,
                updates=tuple(req.kb.updates[i] for i in req.chain),
                query=req.query.text, operator=req.kb.operator,
                deadline=req.deadline,
            ))
            inflight[future] = (req, time.perf_counter())
            future.add_done_callback(
                lambda f: done_at.__setitem__(f, time.perf_counter()))

        def collect(finished) -> float:
            """Check and count finished requests; the last finish time."""
            last = 0.0
            for future in finished:
                req, submitted = inflight.pop(future)
                response = future.result()
                # The done callback may not have run yet when wait() wakes.
                done = done_at.pop(future, time.perf_counter())
                last = max(last, done)
                latency = done - submitted
                all_latencies.append(latency)
                if not response.ok:
                    tally.add(req.request_class,
                              error_type(response.error or response.status))
                    continue
                tally.add(req.request_class)
                oracle.check_result(
                    f"{req.kb.name} chain {req.chain}", expected(req),
                    response.masks, req.query, response.entailed,
                )
                if req.deadline is not None:
                    latencies.append(latency)
            return last

        bursts_before = len(speed.samples)
        for _ in range(rounds):
            plan = deque(stream.next_round())
            speed.burst()
            speed.burst()
            started = last = time.perf_counter()
            while plan or inflight:
                while plan and len(inflight) < SERVICE_WINDOW:
                    submit(plan.popleft())
                finished, _ = wait(list(inflight), timeout=120,
                                   return_when=FIRST_COMPLETED)
                if not finished:
                    raise SystemExit("service_stream: no response in 120s")
                last = max(last, collect(finished))
            elapsed += last - started
        burst_cpu = sum(speed.samples[bursts_before:])
        cpu_after = os.times()
        cpu = sum(proc_cpu_seconds(pid) - before
                  for pid, before in worker_cpu.items()
                  if pid in service.live_worker_pids())
        cpu += (cpu_after.user + cpu_after.system
                - cpu_before.user - cpu_before.system - burst_cpu)
        store_bytes = sum(p.stat().st_size for p in store_dir.rglob("*")
                          if p.is_file())
        layers = None
        if args.trace:
            layers = window.per_layer(tally.attempted, {
                "store.bytes": store_bytes,
                "client_latency_s": statistics.fmean(all_latencies),
            })
        from repro.service.frontend import STATS
        counters = {key: STATS[key] for key in
                    ("retries", "worker_deaths", "worker_restarts", "shed",
                     "timeouts", "queue_peak")}
    finally:
        service.stop()
        if window is not None:
            window.obs.configure(None)
    ok = tally.attempted - tally.failed
    measured = {
        "throughput_rps": ok / elapsed,
        "latency_p50_s": statistics.median(latencies),
        "cpu_s_per_req": cpu / ok,
        "elapsed_s": elapsed,
        "rounds": rounds,
        "ok": ok,
        "store_bytes": store_bytes,
        "service": counters,
        "latency_deciles": statistics.quantiles(latencies, n=10),
    }
    if len(latencies) >= 100:
        measured["latency_p90_s"] = measured["latency_deciles"][-1]
    return {"tally": tally, "measured": measured, "layers": layers}


def host_and_config() -> dict:
    from repro.logic import bitmodels, shards

    return {
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "backend": "numpy" if shards._np is not None else "pure-int",
            "numpy": getattr(shards._np, "__version__", None),
        },
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("REPRO_")},
        "knobs": {
            "table_max_letters": bitmodels._TABLE_MAX_LETTERS,
            "shard_max_letters": shards.SHARD_MAX_LETTERS,
            "sparse_max_models": shards.SPARSE_MAX_MODELS,
            "parallel_workers_at_32": shards.parallel_workers(32),
        },
    }


def run_once(args, spec: dict) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    probe_env = dict(os.environ, REPRO_STORE=str(workdir / "probe-store"))
    probe_env.pop("REPRO_TRACE", None)
    import inputs
    import oracle

    speed = HostSpeed()
    try:
        mode = "service" if args.workload == "service_stream" else "engine"
        setup_s = median_setup(mode, probe_env, speed)
        if args.workload == "engine_sat":
            outcome = run_engine(args, workdir, speed, inputs.sat_round,
                                 check_sat_pair)
        elif args.workload == "engine_dense":
            outcome = run_engine(args, workdir, speed, inputs.dense_round,
                                 oracle.check_dense)
        else:
            outcome = run_service(args, workdir, speed)
    except oracle.CheckFailed as error:
        print(f"CHECK FAILED: {error}", flush=True)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    measured = outcome["measured"]
    measured["setup_s"] = setup_s
    measured["peak_rss_mb"] = peak_rss_mb()
    tally = outcome["tally"]
    factor = speed.factor()
    detail = dict(host_and_config(), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  classes=tally.report(), measured=measured,
                  layers=outcome["layers"],
                  host_speed={"factor": factor, "bursts": len(speed.samples)})
    print(f"{args.workload}: {tally.attempted} attempted, {tally.failed} "
          f"failed, {measured['ok'] / measured['throughput_rps']:.1f}s "
          f"measured, all outputs checked", flush=True)
    print("detail: " + json.dumps(detail, sort_keys=True), flush=True)
    values = outcome["layers"] if args.trace else measured
    metrics = {
        m["name"]: {"value": at_reference_speed(m["name"], values[m["name"]],
                                                m["unit"], factor),
                    "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    print(json.dumps({"correct": True, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def steadiness(args, spec: dict) -> int:
    """Run a workload ``--runs`` times (seeds ``--seed``, ``--seed``+1,
    ...) and print each metric's median and quartile spread.

    Rows in parentheses: the throughput at reference speed (the traced
    one with ``--trace 1``), each time as measured before scaling, and
    the host-speed factor.
    """
    values, shares = {}, []
    for offset in range(args.runs):
        seed = args.seed + offset
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        started = time.perf_counter()
        out = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(out.stdout[-2000:], out.stderr[-2000:])
            return 1
        result = json.loads(lines[-1])
        detail = json.loads(next(line for line in lines
                                 if line.startswith("detail: "))[8:])
        shares.append(f"{result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        raw, factor = detail["measured"], detail["host_speed"]["factor"]
        values.setdefault("(throughput_rps)", []).append(
            raw["throughput_rps"] * factor)
        for metric in spec["end_to_end"]:
            if metric["unit"] in ("s", "1/s") and metric["name"] != "setup_s":
                values.setdefault(f"(raw {metric['name']})", []).append(
                    raw[metric["name"]])
        values.setdefault("(host factor)", []).append(factor)
        shown = ", ".join(f"{name}={metric['value']:.4g}"
                          for name, metric in result["metrics"].items())
        print(f"seed {seed}: {time.perf_counter() - started:.1f}s wall, "
              f"failed {shares[-1]}, correct={result['correct']}; {shown}",
              flush=True)
    print(f"\n{args.workload}, {args.runs} runs, trace={args.trace}")
    print(f"{'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, series in values.items():
        q1, mid, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid if mid else 0.0
        print(f"{name:<30} {mid:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{spread:>8.3f}")
    print("failed/attempted per run:", ", ".join(shares))
    return 0


def main(argv=None) -> int:
    # Metric names, units and directions: BENCHMARK.json is their one copy.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="run the workload --runs times and print "
                             "each metric's median and quartile spread")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args, spec)
    return run_once(args, spec)


if __name__ == "__main__":
    sys.exit(main())
