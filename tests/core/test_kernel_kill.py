"""Kernel.kill(): the whole-machine fault domain behind the cluster."""

import threading
import time

import pytest

from repro.apps.httpd.monolithic import MonolithicHttpd
from repro.core.errors import ConnectionRefused, KernelDead, PeerReset
from repro.core.kernel import Kernel
from repro.core.reactor import run_blocking
from repro.net import Network


def make_kernel(name="victim"):
    net = Network()
    kernel = Kernel(net=net, name=name)
    kernel.start_main()
    return net, kernel


class TestKill:
    def test_syscalls_refuse_after_kill(self):
        _, kernel = make_kernel()
        kernel.kill()
        with pytest.raises(KernelDead):
            kernel.listen("victim:80")
        with pytest.raises(KernelDead):
            kernel.connect("victim:80")

    def test_kill_is_idempotent(self):
        _, kernel = make_kernel()
        kernel.kill()
        kernel.kill()
        assert not kernel.alive

    def test_kill_unbinds_listeners(self):
        net, kernel = make_kernel()
        kernel.listen("victim:80")
        assert net.connect("victim:80")
        kernel.kill()
        with pytest.raises(ConnectionRefused):
            net.connect("victim:80")

    def test_kill_resets_accepted_peers(self):
        net, kernel = make_kernel()
        listen_fd = kernel.listen("victim:80")
        client = net.connect("victim:80")
        kernel.accept(listen_fd, timeout=2.0)
        kernel.kill()
        with pytest.raises(PeerReset):
            client.recv(1, timeout=2.0)

    def test_kill_resets_pending_peers(self):
        net, kernel = make_kernel()
        kernel.listen("victim:80")
        client = net.connect("victim:80")    # queued, never accepted
        kernel.kill()
        with pytest.raises(PeerReset):
            client.recv(1, timeout=2.0)

    def test_kill_wakes_a_silent_pipe_waiter(self):
        # a co_* wait issues no syscall, so only the teardown can end it
        _, kernel = make_kernel()
        read_fd, _write_fd = kernel.pipe()
        waiting = kernel.co_wait_readable(read_fd, timeout=5.0)
        killer = threading.Timer(0.1, kernel.kill)
        killer.start()
        start = time.monotonic()
        try:
            run_blocking(waiting)
        finally:
            killer.join()
        assert time.monotonic() - start < 2.0
        with pytest.raises(KernelDead):
            kernel.recv(read_fd, 1)


class TestKilledServer:
    def test_httpd_service_threads_exit(self):
        net = Network()
        server = MonolithicHttpd(net, "victim:443").start()
        server.kernel.kill()
        server.stop()     # joins promptly: accept loop saw KernelDead
        with pytest.raises(ConnectionRefused):
            net.connect("victim:443")
