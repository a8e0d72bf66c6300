"""The reactor: event-driven scheduling for thousands of connections.

Thread-per-connection tops out around a few hundred clients: every
blocked ``recv`` pins an OS thread, and the overload campaign spends its
budget on context switches instead of service.  The reactor replaces
that with one readiness loop per kernel that multiplexes *cooperative
continuations* — plain Python generators that ``yield`` a
:class:`Wait` descriptor whenever they would block — over the simulated
endpoints (byte streams, listeners, completed tasks, pool gates).

Design rules, in decreasing order of load-bearing-ness:

1. **Readiness, then syscall.**  Cooperative code never re-implements
   I/O.  It waits (silently — no model-cycle charges, no events) until
   an endpoint's level-triggered predicate says the *unchanged* blocking
   syscall would complete immediately, then calls that syscall.  Bytes
   moved, cycles charged and events emitted are therefore identical to
   the threaded oracle **by construction**; the differential suite in
   ``tests/net/test_reactor_differential.py`` checks it anyway.

2. **No lost wakeups.**  Registration order is: append the task to the
   endpoint's FIFO waiter queue, attach the watcher, *then* probe the
   readiness predicate once more.  An event that fired between the
   task's own probe and registration is re-observed by that final probe;
   an event after registration reaches the watcher.  There is no window
   in which readiness can be missed.

3. **No double dispatch.**  A task is removed from its waiter queue the
   moment it is moved to the ready queue; a second notification for the
   same readiness event finds no waiter.  ``double_dispatches`` counts
   violations (it must stay 0 — the property suite asserts it).

4. **FIFO everywhere.**  The ready queue is FIFO; each endpoint's waiter
   queue is FIFO; wakeups preserve waiter order.  Per-endpoint fairness
   is therefore structural, not probabilistic.

5. **Watchers never take reactor locks.**  Endpoint watchers run under
   the endpoint's own condition lock, so all they may do is append to a
   thread-safe notification deque and set an event — the loop drains
   the deque on its own thread.  This is what makes the reactor safe to
   drive from watcher callbacks fired by *other* kernels' threads.

Two poll modes share every other line of the scheduler:

- ``"watch"`` (default): endpoints push notifications via watchers; the
  idle loop blocks on an event.  O(ready work) per pass.
- ``"scan"``: the walk-every-time oracle — every pass re-probes every
  waiter's predicate and never relies on a notification.  O(waiters)
  per pass, obviously correct, and the reference the property suite
  compares "watch" against.

Genuinely blocking work (watchdog-supervised callgate bodies, handler
callables that cannot yield) escapes to a small thread pool via
:meth:`Reactor.offload`; pool size 1 (the default) preserves the
sequential serving order of the threaded apps exactly, which is what
keeps chaos campaigns byte-identical across schedulers.

This module imports only :mod:`repro.core.errors` and
:mod:`repro.resilience.deadline` — the kernel imports *it*, never the
reverse.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque

from repro.core.errors import WedgeError
from repro.resilience.deadline import deadline_scope

#: How long the background loop sleeps when idle with no timer armed.
#: Purely a liveness backstop — every real wakeup arrives via _wake.
_IDLE_TICK = 0.05


class Wait:
    """What a cooperative continuation yields when it would block.

    One descriptor = one endpoint + one level-triggered readiness
    predicate + an optional absolute monotonic time at which the waiter
    wants waking regardless (so timeouts and deadlines make progress
    even if the endpoint stays silent).
    """

    __slots__ = ("endpoint", "kind", "need", "wake_at")

    READABLE = "readable"
    WRITABLE = "writable"
    ACCEPTABLE = "acceptable"
    DONE = "done"

    def __init__(self, endpoint, kind, *, need=1, wake_at=None):
        self.endpoint = endpoint
        self.kind = kind
        self.need = need
        self.wake_at = wake_at

    def ready(self):
        kind = self.kind
        if kind == Wait.READABLE:
            return self.endpoint.readable
        if kind == Wait.WRITABLE:
            return self.endpoint.has_room(self.need)
        if kind == Wait.ACCEPTABLE:
            return self.endpoint.acceptable
        return self.endpoint.ready()

    def __repr__(self):
        return (f"<Wait {self.kind} on "
                f"{getattr(self.endpoint, 'name', self.endpoint)!r}>")


def wait_readable(stream, *, wake_at=None):
    """Wait until ``stream.recv`` would return without blocking."""
    return Wait(stream, Wait.READABLE, wake_at=wake_at)


def wait_writable(stream, need=1, *, wake_at=None):
    """Wait until *need* bytes (clamped to high-water) fit in *stream*."""
    return Wait(stream, Wait.WRITABLE, need=need, wake_at=wake_at)


def wait_acceptable(listener, *, wake_at=None):
    """Wait until ``listener.accept`` would return without blocking."""
    return Wait(listener, Wait.ACCEPTABLE, wake_at=wake_at)


def wait_done(task_or_gate, *, wake_at=None):
    """Wait for a :class:`Task` or offload gate to complete."""
    return Wait(task_or_gate, Wait.DONE, wake_at=wake_at)


def run_blocking(gen):
    """Drive cooperative generator *gen* to completion on this thread.

    The driver for ``co_*`` code outside a reactor (the threads
    scheduler).  Each yielded :class:`Wait` parks the calling thread on
    the endpoint's watcher until the predicate holds or ``wake_at``
    passes; the resumed generator re-probes and either issues its
    unchanged syscall or raises its typed timeout.  Returns the
    generator's return value; its exceptions propagate.
    """
    wake = threading.Event()

    def watcher(_endpoint):   # rule 5: runs under the endpoint's lock
        wake.set()

    while True:
        try:
            wait = gen.send(None)
        except StopIteration as stop:
            return stop.value
        if wait is None:
            continue
        endpoint = wait.endpoint
        wake.clear()
        endpoint.add_watcher(watcher)
        try:
            # rule 2: the watcher is attached before the probe; the
            # resumed generator re-probes, so a spurious wake is harmless
            if not wait.ready():
                timeout = None
                if wait.wake_at is not None:
                    timeout = max(0.0, wait.wake_at - time.monotonic())
                wake.wait(timeout)
        finally:
            endpoint.remove_watcher(watcher)


class Task:
    """One cooperative continuation scheduled by a reactor.

    A task doubles as an endpoint (``ready``/watchers) so other tasks
    can ``yield wait_done(task)`` to join it cooperatively, and plain
    threads can :meth:`wait` on it.
    """

    __slots__ = ("gen", "name", "sthread", "deadline", "waiting",
                 "result", "error", "wakeups", "steps", "_queued",
                 "_done", "_watchers", "_lock")

    def __init__(self, gen, *, name="", sthread=None, deadline=None):
        self.gen = gen
        self.name = name
        #: Sthread whose compartment context the task's steps run under,
        #: or None for bare (kernel-less) tasks.
        self.sthread = sthread
        #: Ambient Deadline re-entered around every step (captured once
        #: at spawn — cooperative bodies must not hold a deadline_scope
        #: open across a yield, it would leak to whatever runs next).
        self.deadline = deadline
        self.waiting = None
        self.result = None
        self.error = None
        self.wakeups = 0
        self.steps = 0
        self._queued = False
        self._done = threading.Event()
        self._watchers = []
        self._lock = threading.Lock()

    # -- endpoint protocol (so tasks are joinable via wait_done) ----------

    def ready(self):
        return self._done.is_set()

    @property
    def done(self):
        return self._done.is_set()

    def add_watcher(self, cb):
        with self._lock:
            if cb not in self._watchers:
                self._watchers.append(cb)

    def remove_watcher(self, cb):
        with self._lock:
            try:
                self._watchers.remove(cb)
            except ValueError:
                pass

    def _finish(self, result, error):
        self.result = result
        self.error = error
        with self._lock:
            self._done.set()
            watchers = list(self._watchers)
        for cb in watchers:
            cb(self)

    def wait(self, timeout=None):
        """Block a *plain thread* until the task completes."""
        return self._done.wait(timeout)

    def __repr__(self):
        state = ("done" if self.done
                 else "waiting" if self.waiting is not None else "ready")
        return f"<Task {self.name!r} {state} steps={self.steps}>"


class _Gate:
    """One-shot completion endpoint for offloaded (pool) work."""

    __slots__ = ("name", "result", "error", "_event", "_watchers",
                 "_lock")

    def __init__(self, name=""):
        self.name = name
        self.result = None
        self.error = None
        self._event = threading.Event()
        self._watchers = []
        self._lock = threading.Lock()

    def ready(self):
        return self._event.is_set()

    def add_watcher(self, cb):
        with self._lock:
            if cb not in self._watchers:
                self._watchers.append(cb)

    def remove_watcher(self, cb):
        with self._lock:
            try:
                self._watchers.remove(cb)
            except ValueError:
                pass

    def fire(self, result, error):
        self.result = result
        self.error = error
        with self._lock:
            self._event.set()
            watchers = list(self._watchers)
        for cb in watchers:
            cb(self)

    def wait(self, timeout=None):
        return self._event.wait(timeout)


class _Pool:
    """The escape hatch: a bounded pool for genuinely blocking work.

    Size 1 by default, deliberately: one worker drains jobs in FIFO
    order, which reproduces the sequential accept-then-handle serving
    order of the threaded apps — the property chaos determinism rests
    on.
    """

    def __init__(self, size=1, *, name="reactor"):
        self.size = max(1, int(size))
        self.name = name
        self._jobs = queue.SimpleQueue()
        self._threads = []
        self._lock = threading.Lock()
        self.outstanding = 0

    def submit(self, fn, args, kwargs, gate):
        with self._lock:
            self.outstanding += 1
            while len(self._threads) < self.size:
                t = threading.Thread(
                    target=self._worker, daemon=True,
                    name=f"{self.name}-pool-{len(self._threads)}")
                self._threads.append(t)
                t.start()
        self._jobs.put((fn, args, kwargs, gate))

    def _worker(self):
        while True:
            fn, args, kwargs, gate = self._jobs.get()
            if fn is None:
                return
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:  # delivered at the await site
                gate.fire(None, exc)
            else:
                gate.fire(result, None)
            finally:
                with self._lock:
                    self.outstanding -= 1

    def close(self):
        with self._lock:
            threads = list(self._threads)
        for _ in threads:
            self._jobs.put((None, None, None, None))


class Reactor:
    """A per-kernel readiness loop scheduling cooperative continuations.

    Drive it either synchronously (:meth:`run_until_idle` — fully
    deterministic, used by the scale campaign and the property suite) or
    by a background daemon thread (:meth:`ensure_running` — used when
    reactor-scheduled servers must serve threaded clients concurrently,
    e.g. the differential suite and live apps).
    """

    def __init__(self, *, kernel=None, name="reactor", mode="watch",
                 pool_size=1):
        if mode not in ("watch", "scan"):
            raise WedgeError(f"unknown reactor mode {mode!r} "
                             "(expected 'watch' or 'scan')")
        self.kernel = kernel
        self.name = name
        self.mode = mode
        self._ready = deque()          # Tasks runnable now (FIFO)
        self._waiting = {}             # id(endpoint) -> deque[Task]
        self._keep = {}                # id(endpoint) -> endpoint (strong)
        self._notified = deque()       # endpoints poked by watchers
        self._wake = threading.Event()
        self._next_timer = None        # min wake_at over all waiters
        self._pool = _Pool(pool_size, name=name)
        self._thread = None
        self._loop_lock = threading.Lock()
        self._closing = False
        #: instrumentation (the property suite asserts on these)
        self.dispatch_count = 0
        self.double_dispatches = 0
        self.spawned = 0
        self.live = 0
        self.peak_live = 0
        #: tasks that died with a non-Wedge exception (cooperative
        #: bodies handle WedgeError themselves, mirroring run_body)
        self.crashed = []
        #: optional list; when set, (task_name, endpoint_name) wake
        #: pairs are appended — the FIFO-fairness property reads it
        self.trace = None

    # -- spawning ---------------------------------------------------------

    def spawn(self, gen, *, name="", sthread=None, deadline=None):
        """Schedule generator *gen* as a new task; returns the Task."""
        if self._closing:
            raise WedgeError(f"reactor {self.name!r} is closed")
        task = Task(gen, name=name, sthread=sthread, deadline=deadline)
        self.spawned += 1
        self.live += 1
        if self.live > self.peak_live:
            self.peak_live = self.live
        self._enqueue(task)
        self._wake.set()
        return task

    def submit(self, fn, *args, **kwargs):
        """Run blocking *fn* on the pool; returns its completion gate."""
        gate = _Gate(name=getattr(fn, "__name__", "job"))
        self._pool.submit(fn, args, kwargs, gate)
        return gate

    def offload(self, fn, *args, **kwargs):
        """Cooperative escape hatch: run blocking *fn* on the pool and
        wait for it without blocking the loop.  ``yield from`` this."""
        gate = self.submit(fn, *args, **kwargs)
        while not gate.ready():
            yield wait_done(gate)
        if gate.error is not None:
            raise gate.error
        return gate.result

    # -- the scheduling pass ----------------------------------------------

    def _enqueue(self, task):
        if task._queued:
            self.double_dispatches += 1
            return
        task._queued = True
        self._ready.append(task)

    def _on_event(self, endpoint):
        """Watcher callback — runs under the *endpoint's* lock, possibly
        on a foreign thread.  Thread-safe appends only (rule 5)."""
        self._notified.append(endpoint)
        self._wake.set()

    def _register(self, task, wait):
        task.waiting = wait
        endpoint = wait.endpoint
        key = id(endpoint)
        waiters = self._waiting.get(key)
        if waiters is None:
            waiters = self._waiting[key] = deque()
            self._keep[key] = endpoint
            if self.mode == "watch":
                endpoint.add_watcher(self._on_event)
        waiters.append(task)
        if wait.wake_at is not None:
            if self._next_timer is None or wait.wake_at < self._next_timer:
                self._next_timer = wait.wake_at
        # rule 2: close the probe-vs-register race with a final probe
        if wait.ready():
            self._notified.append(endpoint)

    def _wake_endpoint(self, endpoint):
        key = id(endpoint)
        waiters = self._waiting.get(key)
        if not waiters:
            return
        still = deque()
        for task in waiters:
            if task.waiting is not None and task.waiting.ready():
                task.waiting = None
                task.wakeups += 1
                if self.trace is not None:
                    self.trace.append(
                        (task.name, getattr(endpoint, "name", "")))
                self._enqueue(task)
            else:
                still.append(task)
        if still:
            self._waiting[key] = still
        else:
            del self._waiting[key]
            del self._keep[key]
            if self.mode == "watch":
                endpoint.remove_watcher(self._on_event)

    def _fire_timers(self):
        if self._next_timer is None or time.monotonic() < self._next_timer:
            return
        # walk waiters once: wake expired timers, recompute the horizon
        horizon = None
        now = time.monotonic()
        for endpoint in list(self._keep.values()):
            waiters = self._waiting.get(id(endpoint))
            if not waiters:
                continue
            expired = any(
                t.waiting is not None and t.waiting.wake_at is not None
                and t.waiting.wake_at <= now for t in waiters)
            if expired:
                self._wake_timed(endpoint, now)
                waiters = self._waiting.get(id(endpoint))
            if waiters:
                for t in waiters:
                    wa = t.waiting.wake_at if t.waiting is not None \
                        else None
                    if wa is not None and (horizon is None or wa < horizon):
                        horizon = wa
        self._next_timer = horizon

    def _wake_timed(self, endpoint, now):
        """Wake waiters whose wake_at elapsed even though the endpoint is
        not ready — their helper re-checks and raises its timeout."""
        key = id(endpoint)
        waiters = self._waiting.get(key)
        if not waiters:
            return
        still = deque()
        for task in waiters:
            wait = task.waiting
            if wait is not None and wait.wake_at is not None \
                    and wait.wake_at <= now:
                task.waiting = None
                task.wakeups += 1
                self._enqueue(task)
            else:
                still.append(task)
        if still:
            self._waiting[key] = still
        else:
            del self._waiting[key]
            del self._keep[key]
            if self.mode == "watch":
                endpoint.remove_watcher(self._on_event)

    def _scan_all(self):
        """The walk-every-time oracle: probe every waiter, every pass."""
        for endpoint in list(self._keep.values()):
            self._wake_endpoint(endpoint)

    def _drain_notifications(self):
        while True:
            try:
                endpoint = self._notified.popleft()
            except IndexError:
                return
            self._wake_endpoint(endpoint)

    def _dispatch(self, task):
        task._queued = False
        task.steps += 1
        self.dispatch_count += 1
        kernel = self.kernel
        pushed = False
        if task.sthread is not None and kernel is not None:
            kernel._stack().append(task.sthread)
            pushed = True
        finished = False
        result = error = None
        try:
            with deadline_scope(task.deadline):
                try:
                    yielded = task.gen.send(None)
                except StopIteration as stop:
                    finished, result = True, stop.value
                except BaseException as exc:
                    finished, error = True, exc
        finally:
            if pushed:
                kernel._stack().pop()
        if finished:
            self.live -= 1
            if error is not None:
                self.crashed.append((task, error))
            task._finish(result, error)
            return
        if yielded is None:
            self._enqueue(task)            # cooperative reschedule
        elif isinstance(yielded, Wait):
            self._register(task, yielded)
        else:
            self.live -= 1
            err = WedgeError(
                f"task {task.name!r} yielded {yielded!r} "
                "(expected a Wait descriptor or None)")
            task.gen.close()
            self.crashed.append((task, err))
            task._finish(None, err)

    def _poll(self):
        """One scheduling pass; True iff a task was stepped."""
        self._drain_notifications()
        if self.mode == "scan":
            self._scan_all()
        self._fire_timers()
        if not self._ready:
            return False
        self._dispatch(self._ready.popleft())
        return True

    # -- synchronous driver -----------------------------------------------

    def run_until_idle(self, *, max_steps=5_000_000, external=False,
                       raise_crashes=True):
        """Run on the calling thread until no task is live.

        Deterministic when all activity lives on this reactor (the scale
        campaign, the property suite).  With ``external=True``, idle
        moments wait for foreign-thread notifications instead of
        treating a silent waiter set as a deadlock.
        """
        if self._thread is not None and self._thread.is_alive():
            raise WedgeError(
                f"reactor {self.name!r} already runs on a background "
                "thread; run_until_idle would race it")
        steps = 0
        while True:
            if self._poll():
                steps += 1
                if steps > max_steps:
                    raise WedgeError(
                        f"reactor {self.name!r} exceeded {max_steps} "
                        "steps without going idle (livelock?)")
                continue
            if not self._waiting and not self._ready:
                break
            if self._pool.outstanding > 0 or external:
                self._wake.wait(_IDLE_TICK)
                self._wake.clear()
                continue
            if self._next_timer is not None:
                delay = self._next_timer - time.monotonic()
                if delay > 0:
                    self._wake.wait(min(delay, _IDLE_TICK))
                    self._wake.clear()
                continue
            names = [t.name for q in self._waiting.values() for t in q]
            raise WedgeError(
                f"reactor {self.name!r} deadlocked: {len(names)} task(s) "
                f"waiting with nothing runnable: {names[:8]!r}")
        if raise_crashes and self.crashed:
            task, error = self.crashed[0]
            raise error
        return steps

    # -- background driver ------------------------------------------------

    def ensure_running(self):
        """Start (once) the daemon loop thread; idempotent."""
        with self._loop_lock:
            if self._thread is not None and self._thread.is_alive():
                return self._thread
            self._closing = False
            self._thread = threading.Thread(
                target=self._run_forever, daemon=True,
                name=f"{self.name}-loop")
            self._thread.start()
            return self._thread

    def _run_forever(self):
        while not self._closing:
            if self._poll():
                continue
            timeout = _IDLE_TICK
            if self._next_timer is not None:
                timeout = min(
                    timeout,
                    max(0.0, self._next_timer - time.monotonic()))
            self._wake.wait(timeout)
            self._wake.clear()

    def close(self):
        """Stop the loop thread and the pool; waiting tasks are dropped
        (their sthreads' owned fds are reset by ``Kernel.kill``)."""
        self._closing = True
        self._wake.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)
        self._pool.close()

    def __repr__(self):
        return (f"<Reactor {self.name!r} mode={self.mode} "
                f"live={self.live} ready={len(self._ready)} "
                f"waiting={sum(len(q) for q in self._waiting.values())}>")
