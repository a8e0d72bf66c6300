"""Run one workload of the Wedge benchmark and print its metrics.

Usage (from the repository root)::

    python3 wedgebench/run.py --workload web_tls --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced phase and then a traced phase of ``--seconds`` each and prints
the per-layer metrics (see ``wedgebench/README.md``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the run's op mix, sample counts and CPU placement.  End-to-end timings
are scaled to a reference host by an interleaved host-speed probe
(:func:`host_probe`).  The exit code is 0 only when every reply and
every end-of-run check was correct.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import math
import os
import re
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Servers built per run; ``setup_s`` is the median of their set-up times.
SETUPS = 15
#: Untimed ops before each measured phase (connection set-up, cache fill).
WARMUP_OPS = 200
#: Length of one measurement window (seconds).
WINDOW_S = 0.5
#: Seconds between host-speed probes within a phase (about 1% of it).
PROBE_EVERY_S = 0.05
#: Loop count of one host-speed probe.
PROBE_LOOPS = 800
#: The probe's CPU time on the reference host (a quiet 2.0 GHz Xeon
#: vCPU, Python 3.11); timings are reported scaled to that host.
PROBE_REF_S = 0.4e-3
#: Probes taken before and after each set-up.
SETUP_PROBES = 3

_PROBE_TABLE = {str(i): i for i in range(0, 4000, 3)}


def pin_cpu():
    """Pin the process to its last allowed CPU; returns (cpu, count).

    The servers hand every request from thread to thread; on one CPU no
    wake-up crosses CPUs, which about triples throughput and narrows the
    run-to-run spread (README.md, "Steadiness").
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    return allowed[-1], len(allowed)


def host_probe():
    """CPU seconds of fixed pure-Python work that calls no program code.

    The benchmark shares its host, whose speed drifts by up to ~1.8x
    over seconds to minutes.  Timed on the thread's CPU clock, the probe
    sees how fast the host runs Python right now, but not the program:
    waiting for the GIL or for other threads is not CPU time, and the
    probe allocates no containers, so it never triggers a collection.
    """
    start = time.thread_time()
    acc = 0
    for i in range(PROBE_LOOPS):
        key = str(i)
        acc += _PROBE_TABLE.get(key, i) ^ len(key * 3)
        acc ^= hash(key.encode())
    return time.thread_time() - start


def timed_setup(workload):
    """Set *workload* up; returns (wall seconds, host scale around it)."""
    probes = [host_probe() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - start
    probes += [host_probe() for _ in range(SETUP_PROBES)]
    return elapsed, statistics.fmean(probes) / PROBE_REF_S


def _sum_costs(kernels):
    total = collections.Counter()
    for kernel in kernels:
        total.update(kernel.costs.checkpoint())
    return total


def _sum_tlb(kernels):
    hits = walks = 0
    for kernel in kernels:
        stats = kernel.tlb_stats()
        hits += stats["hits"]
        walks += stats["walks"]
    return hits, walks


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Window:
    """One slice of a phase: its ops, failures, latencies and CPU.

    ``scale`` is the window's mean probe time over :data:`PROBE_REF_S`:
    how much slower than the reference host this host ran meanwhile.
    """

    def __init__(self, latencies, failed, wall, service_cpu, probes):
        self.ops = len(latencies)
        self.failed = failed
        self.latencies = latencies
        self.wall = wall
        self.service_cpu = service_cpu
        self.scale = statistics.fmean(probes) / PROBE_REF_S


class Phase:
    """One measured stretch of closed-loop ops and its counter deltas.

    The stretch is cut into windows of :data:`WINDOW_S` seconds, each
    with its own host scale.  Between ops the load generator runs
    :func:`host_probe` every :data:`PROBE_EVERY_S`; the probes' wall
    time is left out of the window and their CPU out of the load
    generator's.
    """

    def __init__(self, workload, seconds, tracer=None):
        kernels = workload.kernels()
        costs0, tlb0 = _sum_costs(kernels), _sum_tlb(kernels)
        counters0 = workload.counters()
        self.kinds = collections.Counter()
        self.windows = []
        self.first_error = None
        gc.collect()
        proc0, loadgen0 = time.process_time(), time.thread_time()
        start = time.perf_counter()
        end = start + seconds
        edge = (start, proc0, loadgen0)
        latencies, failed = [], 0
        probes, probe_wall, next_probe = [], 0.0, start
        self.probe_cpu = 0.0
        while True:
            tick = time.perf_counter()
            if tick >= next_probe:
                probes.append(host_probe())
                next_probe = time.perf_counter()
                probe_wall += next_probe - tick
                next_probe += PROBE_EVERY_S
            kind, op = workload.run_op()
            if tracer is not None:
                tracer.op = kind
            began = time.perf_counter()
            try:
                ok = op()
            except Exception as exc:   # an op boundary: count and go on
                ok = False
                self.first_error = self.first_error or repr(exc)
            done = time.perf_counter()
            if tracer is not None:
                tracer.op = None
            self.kinds[kind] += 1
            if ok:
                latencies.append(done - began)
            else:
                failed += 1
                latencies.append(math.inf)   # misses every latency limit
            if done >= edge[0] + WINDOW_S or done >= end:
                now = (time.perf_counter(), time.process_time(),
                       time.thread_time())
                self.windows.append(Window(
                    latencies, failed, now[0] - edge[0] - probe_wall,
                    (now[1] - edge[1]) - (now[2] - edge[2]), probes))
                self.probe_cpu += sum(probes)
                edge, latencies, failed = now, [], 0
                probes, probe_wall, next_probe = [], 0.0, 0.0
                if done >= end:
                    break
        self.loadgen_cpu = edge[2] - loadgen0 - self.probe_cpu
        self.ops = sum(w.ops for w in self.windows)
        self.failed = sum(w.failed for w in self.windows)
        costs1, tlb1 = _sum_costs(kernels), _sum_tlb(kernels)
        self.costs = (costs0, costs1)
        self.tlb = (tlb1[0] - tlb0[0], tlb1[1] - tlb0[1])
        counters1 = workload.counters()
        self.counters = {key: counters1[key] - counters0[key]
                         for key in counters1}

    def per_op(self, value):
        return value / self.ops

    def timings(self, scaled=True):
        """(ops/s, p50 s, p90 s, CPU s per op) over all the phase's ops.

        Scaled, each window's times are first divided by its host scale.
        """
        def scale(w):
            return w.scale if scaled else 1.0
        latencies = sorted(latency / scale(w) for w in self.windows
                           for latency in w.latencies)
        wall = sum(w.wall / scale(w) for w in self.windows)
        cpu = sum(w.service_cpu / scale(w) for w in self.windows)
        return ((self.ops - self.failed) / wall,
                _percentile(latencies, 0.50), _percentile(latencies, 0.90),
                cpu / self.ops)


def warm(workload, ops):
    """Untimed ops; returns how many replies were incorrect."""
    bad = 0
    for _ in range(ops):
        _, op = workload.run_op()
        bad += not op()
    return bad


def timings(phase, setups, scaled):
    """The timing metrics, scaled to the reference host or as measured.

    *setups* is ``[(wall seconds, scale)]`` from :func:`timed_setup`.
    """
    ops_per_s, p50, p90, cpu = phase.timings(scaled)
    return {
        "setup_s": (statistics.median(
            wall / (factor if scaled else 1.0) for wall, factor in setups),
            "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "p50_ms": (p50 * 1e3, "ms"),
        "p90_ms": (p90 * 1e3, "ms"),
        "cpu_ms_per_op": (cpu * 1e3, "ms"),
    }


def end_to_end(layers, phase, setups, success_ratio):
    return {
        **timings(phase, setups, scaled=True),
        "model_cycles_per_op": (phase.per_op(
            sum(layers.cycles_by_layer(*phase.costs).values())), "cycles"),
        "success_ratio": (success_ratio, "ratio"),
    }


def per_layer(layers, untraced, traced, tracer, extra):
    """Every per-layer metric: model counters from the untraced phase,
    span totals from the traced phase (load-generator thread excluded,
    between-op spans excluded)."""
    from repro.disk import SECTOR_SIZE
    out = {}
    cycles = layers.cycles_by_layer(*untraced.costs)
    for layer in layers.CYCLE_LAYERS:
        out[f"{layer}.model_cycles_per_op"] = (
            untraced.per_op(cycles[layer]), "cycles")

    spans = collections.defaultdict(lambda: [0, 0, 0, 0])
    main = threading.main_thread().ident
    for _name, ident, table in tracer.threads():
        if ident == main:
            continue
        for (bucket, layer, func), totals in table.items():
            if bucket is None:
                continue
            acc = spans[layer, func]
            for i, value in enumerate(totals):
                acc[i] += value

    def total(layer, index, funcs=None):
        return sum(acc[index] for (lay, func), acc in spans.items()
                   if lay == layer and (funcs is None or func in funcs))

    n = traced.ops
    for layer in layers.SPAN_LAYERS:
        cpu, wall = total(layer, 1), total(layer, 2)
        out[f"{layer}.calls_per_op"] = (total(layer, 0) / n, "count")
        out[f"{layer}.self_us_per_op"] = (cpu / n / 1e3, "us")
        out[f"{layer}.wait_us_per_op"] = ((wall - cpu) / n / 1e3, "us")

    hits, walks = untraced.tlb
    counters = untraced.counters
    before, after = untraced.costs
    sectors = after["disk_sector_write"] - before["disk_sector_write"]
    fsyncs = after["disk_fsync"] - before["disk_fsync"]
    device_bytes = sectors * SECTOR_SIZE
    value_bytes = counters.get("value_bytes", 0)
    lookups = (counters.get("server.hits", 0)
               + counters.get("server.misses", 0))
    out.update({
        "core.memory.bytes_per_op": (total("core.memory", 3) / n, "B"),
        "core.memory.tlb_hit_ratio": (
            hits / (hits + walks) if hits + walks else 0.0, "ratio"),
        "core.sthread.sthreads_per_op": (total(
            "core.sthread", 0, {"Kernel.sthread_create", "Kernel.fork",
                                "Kernel.pthread_create"}) / n, "count"),
        "net.stream.bytes_per_op": (total("net.stream", 3) / n, "B"),
        "crypto.bytes_per_op": (total("crypto", 3) / n, "B"),
        "tls.records_per_op": (total("tls", 0) / n, "count"),
        "disk.bytes_written_per_op": (untraced.per_op(device_bytes), "B"),
        "disk.fsyncs_per_op": (untraced.per_op(fsyncs), "count"),
        "disk.write_amplification": (
            device_bytes / value_bytes if value_bytes else 0.0, "ratio"),
        "apps.kv.wal.checkpoints_per_op": (untraced.per_op(
            counters.get("wal.checkpoints", 0)), "count"),
        "apps.kv.wal.recovery_ms": (
            extra.get("recovery_s", 0.0) * 1e3, "ms"),
        "apps.kv.wal.recovery_cycles": (
            extra.get("recovery_cycles", 0), "cycles"),
        "apps.kv.server.hit_ratio": (
            counters.get("server.hits", 0) / lookups if lookups else 0.0,
            "ratio"),
        "apps.kv.server.evictions_per_op": (untraced.per_op(
            counters.get("server.evictions", 0)), "count"),
        "sched.threads_started_per_op": (
            total("sched", 0, {"Thread.start"}) / n, "count"),
        "sched.waits_per_op": (total(
            "sched", 0, {"Condition.wait", "Event.wait"}) / n, "count"),
        "sched.wait_us_per_op": (
            (total("sched", 2) - total("sched", 1)) / n / 1e3, "us"),
        "loadgen.cpu_us_per_op": (
            untraced.per_op(untraced.loadgen_cpu * 1e6), "us"),
        "trace.overhead_ratio": (
            traced.timings()[0] / untraced.timings()[0],
            "ratio"),
    })
    return out


def write_trace(tracer, path):
    """Write the span totals, one entry per thread role.

    Per-connection threads (``ssl-handshake17``...) share a role, with
    digits replaced by ``#``; spans opened between ops carry ``"op":
    null``.
    """
    roles = collections.defaultdict(
        lambda: {"threads": 0, "spans": collections.defaultdict(
            lambda: [0, 0, 0, 0])})
    for name, _ident, table in tracer.threads():
        role = roles[re.sub(r"\d+", "#", name)]
        role["threads"] += 1
        for key, totals in table.items():
            acc = role["spans"][key]
            for i, value in enumerate(totals):
                acc[i] += value
    out = [{"role": name, "threads": role["threads"], "spans": [
        {"op": op, "layer": layer, "func": func, "calls": t[0],
         "self_cpu_ns": t[1], "self_wall_ns": t[2], "bytes": t[3]}
        for (op, layer, func), t in sorted(
            role["spans"].items(), key=lambda item: repr(item[0]))]}
        for name, role in sorted(roles.items())]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"roles": out}, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"wedgebench: program sources not found under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"wedgebench: unknown workload {args.workload!r} "
              f"(expected one of {sorted(workloads.WORKLOADS)})",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("wedgebench: --seconds must be positive", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if cls.MAX_SECONDS is not None and args.seconds > cls.MAX_SECONDS:
        print(f"wedgebench: {args.workload} measures at most "
              f"{cls.MAX_SECONDS:g} s per phase: KvServer joins a "
              f"connection's parser with a 30 s timeout, so a longer "
              f"phase would see its connection dropped", file=sys.stderr)
        return 2
    pinned, cpus = pin_cpu()

    setups = []
    for instance in range(SETUPS):
        workload = cls(args.seed, instance)
        setups.append(timed_setup(workload))
        if instance < SETUPS - 1:
            workload.stop()

    try:
        workload.begin_phase()
        bad = warm(workload, WARMUP_OPS)
        untraced = Phase(workload, args.seconds)
        phases = [untraced]
        if args.trace:
            workload.begin_phase()
            bad += warm(workload, WARMUP_OPS)
            tracer = layers.Tracer()
            with tracer:
                traced = Phase(workload, args.seconds, tracer)
            phases.append(traced)
        problems, extra = workload.finish()
    finally:
        workload.stop()

    # every op counts, warm-ups included, and the end-of-run checks
    # (server errors, remount...) count as one more
    attempted = sum(phase.ops for phase in phases) + WARMUP_OPS * len(
        phases) + 1
    failed = sum(phase.failed for phase in phases) + bad + bool(problems)
    if bad:
        problems.append(f"{bad} incorrect warm-up replies")
    errors = [phase.first_error for phase in phases if phase.first_error]
    if args.trace:
        metrics = per_layer(layers, untraced, traced, tracer, extra)
        write_trace(tracer, HERE / "out" /
                    f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(layers, untraced, setups,
                             1 - failed / attempted)
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "pinned_cpu": pinned, "cpu_count": cpus,
        "shape": workload.shape(),
        "mix": [phase.kinds for phase in phases],
        "windows": [len(phase.windows) for phase in phases],
        "samples": [phase.ops for phase in phases],
        "setups": setups,
        "host_scale": [statistics.median(w.scale for w in phase.windows)
                       for phase in phases],
        "as_measured": {name: value for name, (value, _unit)
                        in timings(untraced, setups, scaled=False).items()},
        "error_rate": failed / attempted,
        "problems": problems + errors,
        "extra": extra,
    }
    print(json.dumps({"info": info}, default=str))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
