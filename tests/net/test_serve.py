"""The serving skeleton (repro.net.serve) and its synchronous driver.

The threaded runner blocks in ``accept(timeout=None)``: an idle server
issues no syscall and charges no model cycle, so wall time spent idle
never reaches the model clock (a poll on a timeout would trap once per
period).  ``run_blocking`` drives ``co_*`` generators on the calling
thread, which is how one generator connection body serves both
schedulers.
"""

import threading
import time

import pytest

from repro.apps.kv.server import MonolithicKv
from repro.core.errors import NetTimeout
from repro.core.kernel import Kernel
from repro.core.reactor import run_blocking
from repro.net import Network


def _wait_until(predicate, timeout=5.0):
    give_up = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < give_up, "condition never held"
        time.sleep(0.01)


class TestIdleAcceptLoop:
    def test_idle_threaded_server_charges_nothing(self):
        with Kernel.scheduler_override("threads"):
            server = MonolithicKv(Network(), "idle-kv:9090")
        traps = []
        server.kernel.syscall_tap = lambda kernel, name: traps.append(name)
        server.start()
        try:
            _wait_until(lambda: "accept" in traps)
            mark = server.kernel.costs.cycles()
            time.sleep(1.2)
            assert server.kernel.costs.cycles() == mark
            assert traps.count("accept") == 1
        finally:
            server.stop()
        # the one blocked accept is the one that fails on the closed
        # listener: no further accept is issued on the way down
        assert traps.count("accept") == 1
        assert not server._runner._thread.is_alive()
        assert server.errors == []


class TestRunBlocking:
    def _pipe_kernel(self):
        kernel = Kernel(net=Network(), name="rb")
        kernel.start_main()
        return kernel, kernel.pipe()

    def test_parks_until_readable_and_returns_the_value(self):
        kernel, (rfd, wfd) = self._pipe_kernel()

        def body():
            data = yield from kernel.co_recv(rfd, 5, timeout=5.0)
            return data.upper()

        writer = threading.Timer(0.1, kernel.send, (wfd, b"hello"))
        writer.start()
        try:
            assert run_blocking(body()) == b"HELLO"
        finally:
            writer.join()

    def test_wait_timeout_is_typed(self):
        kernel, (rfd, _wfd) = self._pipe_kernel()
        start = time.monotonic()
        with pytest.raises(NetTimeout):
            run_blocking(kernel.co_wait_readable(rfd, timeout=0.1))
        assert time.monotonic() - start < 2.0
