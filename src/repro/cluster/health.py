"""The per-node health endpoint the lb health-checker probes.

One :class:`HealthResponder` runs on every cluster node, answering the
four-byte ``ping`` with ``OK`` over a fresh connection.  It shares the
node's kernel with the app replicas, so its liveness *is* the node's
liveness: a killed kernel closes the responder's listener with
everything else, and the health-checker's next probe maps to the typed
:class:`~repro.core.errors.ConnectionRefused` — never a hang (the
connect-vs-close race fix extends to the probe path).
"""

from __future__ import annotations

from repro.core.errors import KernelDead
from repro.core.kernel import Kernel
from repro.net.serve import Server

PING = b"ping"
PONG = b"OK"


class HealthResponder(Server):
    """Answer ``ping`` with ``OK`` on *addr*; one per cluster node."""

    def __init__(self, network, addr, *, kernel=None, name="health"):
        super().__init__()
        self.network = network
        self.addr = addr
        if kernel is None:
            kernel = Kernel(net=network, name=name)
        self.kernel = kernel
        self.main = (kernel.main if kernel.main is not None
                     else kernel.start_main())
        self.probes_answered = 0

    def handle_connection(self, conn_fd):
        kernel = self.kernel
        if kernel.recv_exact(conn_fd, len(PING), timeout=2.0) == PING:
            kernel.send(conn_fd, PONG)
            self.probes_answered += 1

    def _record(self, exc):
        # the node's own death is its answer, not a responder error
        if not isinstance(exc, KernelDead):
            super()._record(exc)
