"""Reactor vs threads: the differential battery.

The reactor's headline claim (reactor.py rule 1) is *readiness, then
syscall*: cooperative scheduling changes **when** code runs, never
**what** it does.  These tests hold every shipped app to that claim by
serving the same seeded sessions under both schedulers and demanding

* byte-identical responses,
* byte-identical sensitive-state snapshots, and
* identical kernel event streams per compartment — kind, compartment
  and payload fields, event for event — once the one legitimately
  scheduler-shaped artifact is set aside: *when* ``accept`` is entered.
  The threaded accept loop blocks inside ``accept`` before its
  connection exists, so its enter event can precede the sink attaching,
  while the reactor enters ``accept`` only at readiness.  Neither polls;
  the ``net.accept`` event of every real connection is still compared.
  The comparison is per compartment because the apps
  themselves are concurrent either way — a spawner's ``sthread_create``
  exit event races its child compartment's first events in *both*
  modes — so the cross-compartment interleaving is the one ordering
  that was never deterministic to begin with.  Within a compartment,
  every event must match exactly, including the ``net.accept`` for
  each real connection.

The chaos leg replays whole fault-injection campaigns (seeds 1-3) on
both schedulers: same injected fault mix, same contained outcome, same
clean-probe bytes, same sensitive-state blobs.
"""

import time

import pytest

from repro.core.kernel import Kernel
from repro.faults.chaos import CHAOS_TARGETS, run_chaos
from repro.observe import events as ev

#: The shipped apps the session differential runs (lb is covered by the
#: chaos leg's target table and the cluster campaign's own differential).
APPS = ("httpd-simple", "httpd-mitm", "pop3", "sshd-wedge", "kv")

SESSIONS = 2


class _EventLog:
    """Bus sink recording every delivered event verbatim."""

    def __init__(self):
        self.events = []

    def accept(self, event):
        self.events.append(event)


def _essence(events):
    """The scheduler-independent projection of an event stream.

    Drops the ``accept`` syscall enter/exit pairs (entered before or at
    readiness, see the module docstring) and the cycle/sequence stamps
    (an accept entered before the sink attached charged its cycles
    unseen), then partitions by compartment, order preserved:
    ``{comp: [(kind, fields), ...]}``.
    """
    out = {}
    for event in events:
        if (event.kind in (ev.SYSCALL_ENTER, ev.SYSCALL_EXIT)
                and event.fields.get("name") == "accept"):
            continue
        out.setdefault(event.comp, []).append(
            (event.kind, event.fields))
    return out


def _quiesce(log, *, settle=0.25, cap=5.0):
    """Wait until the event stream stops growing.

    A session returns when the *client* has its bytes; the server-side
    handler compartment may still be emitting its exit events.  Detach
    the sink only once the stream has been silent for *settle* seconds
    or the comparison would race the tail of the last session.
    """
    seen = -1
    stable_since = time.monotonic()
    give_up = time.monotonic() + cap
    while time.monotonic() < give_up:
        count = len(log.events)
        if count != seen:
            seen = count
            stable_since = time.monotonic()
        elif time.monotonic() - stable_since >= settle:
            return
        time.sleep(0.02)


def _serve_sessions(app, scheduler):
    """Build *app* under *scheduler*, serve SESSIONS seeded sessions.

    Returns ``(observations, snapshot, event_essence)``.
    """
    target = CHAOS_TARGETS[app]
    with Kernel.scheduler_override(scheduler):
        server = target.make(None)
    log = _EventLog()
    server.start()
    try:
        server.kernel.observe.add_sink(log)
        observations = [target.session(server, index, strict=True)
                        for index in range(SESSIONS)]
        _quiesce(log)
        server.kernel.observe.remove_sink(log)
    finally:
        server.stop()
    snapshot = target.snapshot(server)
    return observations, snapshot, _essence(log.events)


class TestSessionDifferential:
    @pytest.mark.parametrize("app", APPS)
    def test_sessions_bytes_stores_and_events_match(self, app):
        threaded = _serve_sessions(app, "threads")
        reactor = _serve_sessions(app, "reactor")

        assert threaded[0] == reactor[0], \
            f"{app}: responses diverged between schedulers"
        assert threaded[1] == reactor[1], \
            f"{app}: sensitive-state snapshots diverged"

        t_events, r_events = threaded[2], reactor[2]
        assert sorted(t_events) == sorted(r_events), \
            (f"{app}: compartment sets diverged "
             f"({sorted(t_events)} vs {sorted(r_events)})")
        for comp in t_events:
            t_stream, r_stream = t_events[comp], r_events[comp]
            assert len(t_stream) == len(r_stream), \
                (f"{app}/{comp}: event counts diverged "
                 f"({len(t_stream)} threaded vs {len(r_stream)} "
                 f"reactor)")
            for i, (te, re_) in enumerate(zip(t_stream, r_stream)):
                assert te == re_, \
                    f"{app}/{comp}: event {i} diverged: {te} vs {re_}"

    @pytest.mark.parametrize("app", APPS)
    def test_reactor_accept_loop_does_not_poll(self, app):
        """The reactor side calls ``accept`` only for real readiness:
        at most one accept syscall per served connection (plus one
        final ``NetTimeout`` probe when the listener closes under it),
        where the threaded loop's poll cadence is unbounded."""
        target = CHAOS_TARGETS[app]
        with Kernel.scheduler_override("reactor"):
            server = target.make(None)
        log = _EventLog()
        server.start()
        try:
            server.kernel.observe.add_sink(log)
            for index in range(SESSIONS):
                target.session(server, index, strict=True)
            server.kernel.observe.remove_sink(log)
        finally:
            server.stop()
        accepts = [e for e in log.events
                   if e.kind == ev.SYSCALL_ENTER
                   and e.fields.get("name") == "accept"]
        served = server.connections_served
        assert served >= SESSIONS
        assert len(accepts) <= served + 1, \
            (f"{app}: {len(accepts)} accept syscalls for {served} "
             f"connections — the reactor accept path is polling")


class TestChaosDifferential:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chaos_campaign_matches_across_schedulers(self, seed):
        reports = {
            mode: run_chaos("httpd-simple", seed=seed, faults=20,
                            scheduler=mode)
            for mode in ("threads", "reactor")
        }
        threaded, reactor = reports["threads"], reports["reactor"]
        assert threaded.passed, threaded.violations
        assert reactor.passed, reactor.violations
        # the same seed must land the same storm on both schedulers...
        assert threaded.injected == reactor.injected
        assert threaded.by_site == reactor.by_site
        assert threaded.sessions == reactor.sessions
        # ...and leave the same world behind
        assert threaded.baseline_obs == reactor.baseline_obs
        assert threaded.probe_obs == reactor.probe_obs
        assert threaded.final_snapshot == reactor.final_snapshot
