"""The serving skeleton: one :class:`Server` base for every app.

In Wedge the trusted master accepts each connection and hands it to
per-connection compartments.  Every server in the tree (three httpd
variants, pop3, three sshd variants, kv and its monolithic contrast,
the lb, the cluster health responder) inherits that master-side
plumbing from :class:`Server`: the listener, the stop event, the
runner and the per-connection wrapper.  An app supplies only
``handle_connection(conn_fd)`` — an ordinary blocking function, or a
*generator* over the kernel's ``co_*`` calls — so the scheduler is only
a driver:

- ``scheduler="threads"``: a dedicated accept thread blocks in
  ``accept(timeout=None)``.  Closing the listener wakes it with the
  typed closed-listener :class:`~repro.core.errors.NetworkError`, so an
  idle server issues no syscall and charges no cycle.  Generator jobs
  run on the calling thread under :func:`repro.core.reactor.run_blocking`.
- ``scheduler="reactor"``: a cooperative acceptor task on the kernel's
  readiness loop.  Generator jobs are driven inline (``yield from``) or
  as their own task; blocking jobs go to the reactor's size-1 offload
  pool, which keeps the threaded runner's accept→handle→accept order,
  so chaos fault ordering and response bytes are identical.

Serving is sequential unless the server sets ``concurrent``, which gives
each connection its own thread (threads) or task/pool slot (reactor).
"""

from __future__ import annotations

import functools
import inspect
import threading

from repro.core.errors import KernelDead, NetworkError, WedgeError
from repro.core.reactor import run_blocking


class Server:
    """Listener, accept loop and per-connection wrapper of an app server.

    A subclass sets ``self.kernel`` and ``self.addr``, calls
    ``super().__init__()`` and implements ``handle_connection``.
    """

    #: serve each connection on its own worker instead of sequentially
    concurrent = False

    def __init__(self):
        self._listen_fd = None
        self._runner = None
        self._stop = threading.Event()
        self.connections_served = 0
        self.errors = []

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Bind the listener and start accepting connections."""
        if self._runner is not None:
            raise WedgeError(f"{self.kernel.name} already started")
        self._listen_fd = self.kernel.listen(self.addr)
        self._runner = _RUNNERS[self.kernel.scheduler](
            self, f"{self.kernel.name}-accept")
        return self

    def stop(self):
        self._stop.set()
        try:
            self.kernel.close(self._listen_fd)
        except WedgeError:
            pass
        if self._runner is not None:
            self._runner.join(5.0)

    # -- per connection ----------------------------------------------------

    def _on_conn(self, conn_fd):
        """The runner's hand-off, called in accept order; returns the job.

        Counting here, before the next accept, is the determinism
        contract: per-connection RNG forks and compartment names read
        ``connections_served``.  A generator ``handle_connection`` gives
        a generator job; a blocking one a zero-argument callable.
        """
        self.connections_served += 1
        job = self._serve(conn_fd)
        if inspect.isgeneratorfunction(self.handle_connection):
            return job
        return functools.partial(run_blocking, job)

    def _serve(self, conn_fd):
        """The wrapper: run the body, record a typed failure, close."""
        try:
            body = self.handle_connection(conn_fd)
            if inspect.isgenerator(body):
                yield from body
        except WedgeError as exc:
            self._record(exc)
        finally:
            try:
                self.kernel.close(conn_fd)
            except WedgeError:
                pass

    def _record(self, exc):
        self.errors.append(f"{type(exc).__name__}: {exc}")

    def handle_connection(self, conn_fd):
        raise NotImplementedError


class _ThreadRunner:
    """A dedicated accept thread, blocked in ``accept`` while idle."""

    def __init__(self, server, name):
        self.server = server
        self.name = name
        self._thread = threading.Thread(target=self._loop, name=name,
                                        daemon=True)
        self._thread.start()

    def _loop(self):
        server = self.server
        while True:
            try:
                conn_fd = server.kernel.accept(server._listen_fd,
                                               timeout=None)
            except (KernelDead, NetworkError):
                return   # the host died or the listener closed
            except WedgeError:
                if server._stop.is_set():
                    return   # the listen fd is already closed
                continue
            job = server._on_conn(conn_fd)
            if inspect.isgenerator(job):
                job = functools.partial(run_blocking, job)
            if server.concurrent:
                threading.Thread(
                    target=job, daemon=True,
                    name=f"{self.name}-conn{server.connections_served}",
                ).start()
            else:
                job()

    def join(self, timeout):
        self._thread.join(timeout)


class _ReactorRunner:
    """The cooperative acceptor: one task, woken by listener readiness."""

    def __init__(self, server, name):
        self.server = server
        self.name = name
        reactor = server.kernel.reactor
        reactor.ensure_running()
        self.task = reactor.spawn(self._loop(reactor), name=name)

    def _loop(self, reactor):
        server = self.server
        while True:
            try:
                conn_fd = yield from server.kernel.co_accept(
                    server._listen_fd, timeout=None)
            except (KernelDead, NetworkError):
                return   # the host died or the listener closed
            except WedgeError:
                if server._stop.is_set():
                    return   # the listen fd is already closed
                continue
            job = server._on_conn(conn_fd)
            if inspect.isgenerator(job):
                # cooperative job: no pool thread at all
                if server.concurrent:
                    reactor.spawn(job, name=f"{self.name}-conn")
                else:
                    yield from job
            elif server.concurrent:
                reactor.submit(job)
            else:
                # pool size 1 → the threaded runner's sequential order,
                # without blocking the readiness loop
                yield from reactor.offload(job)

    def join(self, timeout):
        self.task.wait(timeout)


_RUNNERS = {"threads": _ThreadRunner, "reactor": _ReactorRunner}
