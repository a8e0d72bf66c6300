"""The overload campaign: ``python -m repro overload``.

Surge N seeded clients against each shipped app and prove the overload
regime is **bounded, deterministic and correct**:

* the listener's accept queue never exceeds its configured backlog —
  the surplus is shed with a typed
  :class:`~repro.core.errors.ConnectionShed` at the client;
* no byte stream ever buffers past its high-water mark (senders block
  on real backpressure instead);
* the shed *count* is structurally deterministic: the surge happens
  while a "plug" connection holds the sequential server busy, so the
  queue admits exactly ``backlog`` clients and sheds the rest no matter
  how the client threads interleave;
* every admitted request is answered **byte-identically** to an
  unloaded baseline session — load shedding degrades capacity, never
  correctness — and a small surge (≤ backlog) produces identical
  responses with the resilience layer on and off.

The campaign emits ``BENCH_overload.json`` (goodput + shed rate per
app); ``--check`` compares goodput against a committed baseline and
fails on a >10% drop (note the inverted direction vs the model-cycle
artifacts: *lower* goodput is the regression).

Two reactor-era extensions ride on the same artifact:

* ``scheduler="reactor"`` runs every app surge with the kernels on the
  event-driven readiness loop (:mod:`repro.core.reactor`) instead of
  per-connection OS threads — same bounds, same shed counts, same
  byte-identical responses, or the campaign fails;
* ``connections=N`` adds the :mod:`repro.resilience.scale` leg: N
  concurrent echo sessions on **one** reactor kernel, with p50/p95/p99
  latency in deterministic model cycles (``scale_*_cycles`` metrics;
  for those, *higher* is the regression, and ``--check`` skips them
  when the fresh run did not include the leg).

This module imports the shipped apps (via the chaos targets), so it is
deliberately not re-exported from :mod:`repro.resilience`'s
``__init__`` — import it directly, the same discipline as
:mod:`repro.observe.session`.
"""

from __future__ import annotations

import json
import threading
import time

from repro.core.errors import ConnectionShed, WedgeError
from repro.net.stream import ByteStream

#: Generous per-client timeout: an admitted client must wait out the
#: whole sequential drain of the backlog ahead of it without giving up,
#: or goodput would depend on host speed.
OVERLOAD_CLIENT_TIMEOUT = 60.0

DEFAULT_CLIENTS = 200
DEFAULT_BACKLOG = 32
DEFAULT_HIGH_WATER = 64 * 1024

#: ``--check`` fails when goodput drops more than this vs the baseline.
GOODPUT_TOLERANCE = 0.10

#: Surge size for the resilience-on-vs-off comparison leg (must be
#: <= backlog so nothing is shed and the response sets are comparable).
COMPARE_SURGE = 6

#: ``--check`` fails when a scale-leg latency percentile rises more
#: than this vs the baseline (model cycles are deterministic for a
#: given seed and connection count, so the slack only absorbs honest
#: cost-model retunes, not noise).
CYCLES_TOLERANCE = 0.10

#: The opt-in scale leg's latency percentiles (model cycles), present
#: only when the campaign ran with ``connections > 0``.
SCALE_METRICS = ("scale_p50_cycles", "scale_p95_cycles",
                 "scale_p99_cycles")


def overload_app_names():
    from repro.faults.chaos import CHAOS_APP_NAMES
    return CHAOS_APP_NAMES


def _wait_for(predicate, timeout, what):
    give_up = time.monotonic() + timeout
    while time.monotonic() < give_up:
        if predicate():
            return
        time.sleep(0.002)
    raise WedgeError(f"overload harness timed out waiting for {what}")


def _build_server(app, *, backlog, high_water, audit_streams=True,
                  scheduler=None):
    """Build one chaos-target server with admission control configured.

    The apps construct their :class:`~repro.net.Network` internally, but
    the listener is only created at ``server.start()`` — so the bounds
    can be set on the instance between construction and start, no
    class-attribute juggling needed.  *scheduler* (``"threads"`` /
    ``"reactor"``) selects the kernel scheduling mode for the build via
    :meth:`Kernel.scheduler_override`; ``None`` keeps the default.
    """
    from repro.core.kernel import Kernel
    from repro.faults.chaos import CHAOS_TARGETS
    target = CHAOS_TARGETS[app]
    with Kernel.scheduler_override(scheduler):
        server = target.make(None)
    net = server.network
    if backlog is not None:
        net.default_backlog = backlog
    if high_water is not None:
        net.default_high_water = high_water
    if audit_streams:
        net.streams = []
    return target, server


class AppSurgeResult:
    """One app's surge: counts, peaks, and any bound violations."""

    def __init__(self, app, *, clients, backlog, seed):
        self.app = app
        self.clients = clients
        self.backlog = backlog
        self.seed = seed
        self.admitted_ok = 0
        self.shed = 0
        self.errors = []
        self.stragglers = 0
        self.peak_backlog = 0
        self.peak_stream_buffer = 0
        self.high_water = 0
        self.wall_seconds = 0.0
        self.violations = []

    @property
    def expected_shed(self):
        return max(0, self.clients - self.backlog)

    @property
    def goodput(self):
        return self.admitted_ok / self.clients if self.clients else 0.0

    @property
    def shed_rate(self):
        return self.shed / self.clients if self.clients else 0.0

    @property
    def passed(self):
        return not self.violations

    def format(self):
        lines = [
            f"  {self.app}: {'PASS' if self.passed else 'FAIL'} "
            f"({self.clients} clients vs backlog {self.backlog}, "
            f"{self.wall_seconds:.1f}s)",
            f"    admitted {self.admitted_ok} ok "
            f"(goodput {self.goodput:.2f}), shed {self.shed} "
            f"(rate {self.shed_rate:.2f}), {len(self.errors)} errors",
            f"    peak backlog {self.peak_backlog}/{self.backlog}, "
            f"peak stream buffer {self.peak_stream_buffer}"
            f"/{self.high_water}",
        ]
        for violation in self.violations:
            lines.append(f"    VIOLATION: {violation}")
        return "\n".join(lines)


def run_surge(app, *, clients=DEFAULT_CLIENTS, backlog=DEFAULT_BACKLOG,
              seed=0, high_water=DEFAULT_HIGH_WATER,
              timeout=OVERLOAD_CLIENT_TIMEOUT, scheduler=None):
    """Surge *clients* seeded sessions against *app*; audit the bounds.

    The surge runs behind a **plug**: one connection is opened first and
    accepted, and because every shipped app serves sequentially the
    accept loop is parked on the plug's (never-arriving) request while
    all N surge connects race in.  The queue therefore fills to exactly
    ``backlog`` and sheds exactly ``clients - backlog`` — deterministic
    shed *counts* regardless of thread interleaving (which *threads*
    shed varies; how many never does).  Closing the plug releases the
    server to drain the admitted clients one by one.
    """
    target, server = _build_server(app, backlog=backlog,
                                   high_water=high_water,
                                   scheduler=scheduler)
    net = server.network
    result = AppSurgeResult(app, clients=clients, backlog=backlog,
                            seed=seed)
    result.high_water = high_water
    start = time.perf_counter()
    server.start()
    outcomes = [None] * clients
    try:
        listener = net._listeners[server.addr]
        baseline_obs = target.session(server, f"{seed}-base",
                                      strict=True, timeout=timeout)
        accepted0 = listener.accepted_count
        plug = net.connect(server.addr)
        try:
            _wait_for(lambda: listener.accepted_count > accepted0,
                      10.0, "the plug to be accepted")
            shed0 = listener.shed_count

            def client_body(i):
                try:
                    obs = target.session(server, f"{seed}-c{i}",
                                         strict=True, timeout=timeout)
                    outcomes[i] = ("ok", obs)
                except ConnectionShed:
                    outcomes[i] = ("shed", None)
                except WedgeError as exc:
                    outcomes[i] = ("error",
                                   f"{type(exc).__name__}: {exc}")

            threads = [threading.Thread(target=client_body, args=(i,),
                                        name=f"surge-{app}-{i}",
                                        daemon=True)
                       for i in range(clients)]
            for thread in threads:
                thread.start()
            # every connect must resolve (queued or shed) while the plug
            # still holds the server, or the shed count would race the
            # drain
            _wait_for(
                lambda: (listener.shed_count - shed0
                         + listener.pending_count()) >= clients,
                30.0, "the surge to fully enqueue")
            result.peak_backlog = listener.peak_pending
        finally:
            plug.close()
        give_up = time.monotonic() + timeout
        for thread in threads:
            thread.join(max(0.1, give_up - time.monotonic()))
        result.stragglers = sum(1 for t in threads if t.is_alive())
    finally:
        server.stop()
        result.wall_seconds = time.perf_counter() - start

    for outcome in outcomes:
        if outcome is None:
            continue
        status, detail = outcome
        if status == "shed":
            result.shed += 1
        elif status == "ok":
            if detail == baseline_obs:
                result.admitted_ok += 1
            else:
                result.violations.append(
                    "an admitted request was answered differently "
                    "than the unloaded baseline")
        else:
            result.errors.append(detail)

    result.peak_stream_buffer = max(
        (s.peak_buffered for s in net.streams), default=0)
    if result.peak_backlog > backlog:
        result.violations.append(
            f"peak backlog {result.peak_backlog} exceeded the cap "
            f"{backlog}")
    if result.peak_stream_buffer > high_water:
        result.violations.append(
            f"peak stream buffer {result.peak_stream_buffer} exceeded "
            f"the high-water mark {high_water}")
    if result.shed != result.expected_shed:
        result.violations.append(
            f"shed {result.shed} connections, expected exactly "
            f"{result.expected_shed}")
    if result.admitted_ok != min(clients, backlog):
        result.violations.append(
            f"only {result.admitted_ok} of {min(clients, backlog)} "
            f"admitted requests completed byte-identically "
            f"({len(result.errors)} errors, "
            f"{result.stragglers} stragglers)")
    if result.errors:
        result.violations.append(
            f"admitted sessions failed: {result.errors[:3]}")
    if result.stragglers:
        result.violations.append(
            f"{result.stragglers} client(s) still running at teardown")
    return result


def run_comparison(app, *, surge=COMPARE_SURGE, seed=0,
                   backlog=DEFAULT_BACKLOG,
                   high_water=DEFAULT_HIGH_WATER,
                   timeout=OVERLOAD_CLIENT_TIMEOUT, scheduler=None):
    """Byte-identical responses with the resilience layer on vs off.

    Runs the same small surge (≤ backlog, so nothing is shed) twice:
    once with the configured bounds and once effectively unbounded
    (the pre-resilience behaviour), and demands the two response sets
    are identical to each other and to their unloaded baselines.
    """
    surge = min(surge, backlog)
    observed = {}
    for label, (cap, hw) in (("on", (backlog, high_water)),
                             ("off", (1 << 30, 1 << 30))):
        target, server = _build_server(app, backlog=cap, high_water=hw,
                                       scheduler=scheduler)
        server.start()
        try:
            baseline = target.session(server, f"{seed}-cmp-base",
                                      strict=True, timeout=timeout)
            results = [None] * surge

            def body(i):
                try:
                    results[i] = target.session(
                        server, f"{seed}-cmp{i}", strict=True,
                        timeout=timeout)
                except WedgeError as exc:
                    results[i] = f"{type(exc).__name__}: {exc}"

            threads = [threading.Thread(target=body, args=(i,),
                                        daemon=True)
                       for i in range(surge)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout)
            observed[label] = {"baseline": baseline, "results": results}
        finally:
            server.stop()
    on, off = observed["on"], observed["off"]
    identical = (
        on["baseline"] == off["baseline"]
        and on["results"] == off["results"]
        and all(obs == on["baseline"] for obs in on["results"]))
    return {"app": app, "surge": surge, "identical": identical,
            "on": on["results"], "off": off["results"]}


def backpressure_probe(*, high_water=4096, payload=64 * 1024,
                       chunk=1024):
    """Directly exercise the bounded-blocking send path.

    A fast sender pushes *payload* bytes through a stream whose
    high-water mark is far smaller, against a deliberately slow reader:
    the send must block (``backpressure_waits > 0``), the buffer must
    never exceed the mark, and every byte must still arrive in order.
    """
    stream = ByteStream("overload-probe", high_water=high_water)
    received = bytearray()

    def reader():
        while True:
            data = stream.recv(chunk, timeout=10.0)
            if data is None:
                return
            received.extend(data)
            time.sleep(0.0005)   # slow consumer: force the sender to wait

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    payload_bytes = bytes(range(256)) * (payload // 256)
    sent = stream.send(payload_bytes, timeout=30.0)
    stream.close()
    thread.join(30.0)
    return {
        "high_water": high_water,
        "sent": sent,
        "intact": bytes(received) == payload_bytes,
        "peak_buffered": stream.peak_buffered,
        "backpressure_waits": stream.backpressure_waits,
        "bounded": stream.peak_buffered <= high_water,
        "engaged": stream.backpressure_waits > 0,
    }


class OverloadReport:
    """The whole campaign: per-app surges + comparison + probe."""

    def __init__(self, *, clients, backlog, seed, high_water,
                 scheduler=None):
        self.clients = clients
        self.backlog = backlog
        self.seed = seed
        self.high_water = high_water
        self.scheduler = scheduler
        self.surges = {}
        self.comparisons = {}
        self.probe = None
        self.scale = None

    @property
    def passed(self):
        return (all(s.passed for s in self.surges.values())
                and all(c["identical"]
                        for c in self.comparisons.values())
                and (self.probe is None
                     or (self.probe["bounded"] and self.probe["engaged"]
                         and self.probe["intact"]))
                and (self.scale is None or self.scale.passed))

    def format(self):
        mode = f", scheduler {self.scheduler}" if self.scheduler else ""
        lines = [f"overload seed={self.seed}: "
                 f"{'PASS' if self.passed else 'FAIL'} "
                 f"({self.clients} clients, backlog {self.backlog}, "
                 f"high-water {self.high_water}{mode})"]
        for surge in self.surges.values():
            lines.append(surge.format())
        if self.scale is not None:
            lines.append(self.scale.format())
        for app, cmp in self.comparisons.items():
            lines.append(
                f"  {app}: resilience on-vs-off "
                f"({cmp['surge']} sessions): "
                f"{'byte-identical' if cmp['identical'] else 'DIVERGED'}")
        if self.probe is not None:
            p = self.probe
            lines.append(
                f"  backpressure probe: peak {p['peak_buffered']}"
                f"/{p['high_water']} bytes, {p['backpressure_waits']} "
                f"waits, payload {'intact' if p['intact'] else 'LOST'}"
                f" -> {'ok' if p['bounded'] and p['engaged'] else 'FAIL'}")
        return "\n".join(lines)

    def artifact(self):
        """The ``BENCH_overload.json`` payload.

        ``metrics`` carries goodput (checked: **lower** is a
        regression) and shed rate (checked: higher is a regression);
        ``wall`` is recorded for the trajectory, never checked.
        """
        metrics = {}
        wall = {}
        for app, surge in self.surges.items():
            metrics[f"{app}_goodput"] = round(surge.goodput, 4)
            metrics[f"{app}_shed_rate"] = round(surge.shed_rate, 4)
            wall[f"{app}_seconds"] = surge.wall_seconds
        info = {
            "clients": self.clients,
            "backlog": self.backlog,
            "seed": self.seed,
            "high_water": self.high_water,
            "scheduler": self.scheduler,
            "passed": self.passed,
            "shed": {app: s.shed for app, s in self.surges.items()},
            "peak_backlog": {app: s.peak_backlog
                             for app, s in self.surges.items()},
            "peak_stream_buffer": {app: s.peak_stream_buffer
                                   for app, s in self.surges.items()},
        }
        if self.scale is not None:
            metrics.update(zip(SCALE_METRICS, (
                self.scale.p50, self.scale.p95, self.scale.p99)))
            wall["scale_seconds"] = self.scale.wall_seconds
            info["scale"] = {
                "connections": self.scale.connections,
                "completed": self.scale.completed,
                "shed": self.scale.shed,
                "mismatches": self.scale.mismatches,
                "peak_live": self.scale.peak_live,
                "dispatches": self.scale.dispatches,
            }
        return {"artifact": "overload", "metrics": metrics,
                "wall": wall, "info": info}


def run_overload(apps=None, *, clients=DEFAULT_CLIENTS,
                 backlog=DEFAULT_BACKLOG, seed=0,
                 high_water=DEFAULT_HIGH_WATER,
                 timeout=OVERLOAD_CLIENT_TIMEOUT, compare=True,
                 scheduler=None, connections=0):
    """Run the full campaign; returns an :class:`OverloadReport`.

    ``scheduler`` runs the per-app surges under that kernel scheduling
    mode (``"threads"``/``"reactor"``); ``connections > 0`` appends the
    reactor-native scale leg (:func:`repro.resilience.scale.run_scale`)
    at that connection count.
    """
    names = list(apps) if apps else list(overload_app_names())
    report = OverloadReport(clients=clients, backlog=backlog, seed=seed,
                            high_water=high_water, scheduler=scheduler)
    for app in names:
        report.surges[app] = run_surge(
            app, clients=clients, backlog=backlog, seed=seed,
            high_water=high_water, timeout=timeout,
            scheduler=scheduler)
        if compare:
            report.comparisons[app] = run_comparison(
                app, seed=seed, backlog=backlog, high_water=high_water,
                timeout=timeout, scheduler=scheduler)
    report.probe = backpressure_probe()
    if connections:
        from repro.resilience.scale import run_scale
        report.scale = run_scale(connections=connections, seed=seed)
    return report


def check_artifact(new, baseline, *, tolerance=GOODPUT_TOLERANCE,
                   optional=()):
    """Compare a fresh artifact against the committed baseline.

    Returns a list of problem strings (empty = clean).  Goodput is
    checked inverted — a drop beyond *tolerance* fails; a shed-rate
    *rise* beyond tolerance (plus an absolute epsilon for near-zero
    baselines) fails too.  ``_cycles`` keys check in the usual
    model-cycle direction — higher is the regression.  A baseline key
    missing from the fresh run fails unless it is in *optional* (the
    overload scale leg's :data:`SCALE_METRICS` when ``--connections``
    was not given).
    """
    problems = []
    for key, old in sorted(baseline.get("metrics", {}).items()):
        value = new.get("metrics", {}).get(key)
        if value is None:
            if key not in optional:
                problems.append(f"{key}: missing from new run")
            continue
        if key.endswith("_cycles"):
            ceiling = old * (1 + CYCLES_TOLERANCE)
            if value > ceiling:
                problems.append(
                    f"{key}: {old:,} -> {value:,} "
                    f"(latency rose beyond {CYCLES_TOLERANCE:.0%})")
        elif key.endswith("_goodput"):
            floor = old * (1 - tolerance)
            if value < floor:
                problems.append(
                    f"{key}: {old:.3f} -> {value:.3f} "
                    f"(goodput regression beyond {tolerance:.0%})")
        elif key.endswith("_shed_rate"):
            ceiling = old * (1 + tolerance) + 0.01
            if value > ceiling:
                problems.append(
                    f"{key}: {old:.3f} -> {value:.3f} "
                    f"(shed rate rose beyond {tolerance:.0%})")
    return problems


def write_artifact(report, path):
    payload = report.artifact()
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload
