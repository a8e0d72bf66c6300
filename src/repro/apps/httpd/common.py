"""Shared httpd plumbing: configuration, tagged session state, base class.

The interesting piece is :class:`SessionState`: the per-connection SSL
state (master secret, the four channel keys, sequence numbers, the
handshake-complete flag) laid out at fixed offsets in **tagged simulated
memory**.  Which compartments can read or write this block is exactly
what distinguishes the three Apache partitionings — in the Figures-3-5
variant only the callgates hold the tag, so the network-facing handshake
sthread manipulates session keys it can never observe.
"""

from __future__ import annotations

from repro.apps.httpd import content
from repro.core.errors import WedgeError
from repro.core.kernel import Kernel
from repro.net.serve import Server
from repro.crypto.prf import MASTER_SECRET_LEN
from repro.crypto.rng import DetRNG
from repro.crypto.rsa import generate_keypair

# -- SessionState field layout (fixed offsets in the session tag) -----------

_OFF_MASTER = 0
_OFF_CLIENT_MAC = 48
_OFF_SERVER_MAC = 80
_OFF_CLIENT_ENC = 112
_OFF_SERVER_ENC = 144
_OFF_RECV_SEQ = 176
_OFF_SEND_SEQ = 184
_OFF_FLAGS = 192
_OFF_CLIENT_RANDOM = 200
_OFF_SERVER_RANDOM = 232
STATE_SIZE = 264

_FLAG_KEYS_READY = 1
_FLAG_HANDSHAKE_DONE = 2


class SessionState:
    """Typed accessors over the session-state block at *addr*.

    Methods go through ``kernel.mem_read``/``mem_write`` under the
    *current compartment*, so every access is permission-checked: a
    compartment without the session tag faults on the first touch.
    """

    def __init__(self, kernel, addr):
        self.kernel = kernel
        self.addr = addr

    # -- key material --------------------------------------------------------

    def write_keys(self, master, keys):
        k = self.kernel
        k.mem_write(self.addr + _OFF_MASTER, master)
        k.mem_write(self.addr + _OFF_CLIENT_MAC, keys["client_mac"])
        k.mem_write(self.addr + _OFF_SERVER_MAC, keys["server_mac"])
        k.mem_write(self.addr + _OFF_CLIENT_ENC, keys["client_enc"])
        k.mem_write(self.addr + _OFF_SERVER_ENC, keys["server_enc"])
        self._set_flag(_FLAG_KEYS_READY)

    def read_master(self):
        return self.kernel.mem_read(self.addr + _OFF_MASTER,
                                    MASTER_SECRET_LEN)

    def read_keys(self):
        k = self.kernel
        return {
            "client_mac": k.mem_read(self.addr + _OFF_CLIENT_MAC, 32),
            "server_mac": k.mem_read(self.addr + _OFF_SERVER_MAC, 32),
            "client_enc": k.mem_read(self.addr + _OFF_CLIENT_ENC, 32),
            "server_enc": k.mem_read(self.addr + _OFF_SERVER_ENC, 32),
        }

    # -- sequence numbers -------------------------------------------------------

    def _read_u64(self, off):
        return int.from_bytes(self.kernel.mem_read(self.addr + off, 8),
                              "big")

    def _write_u64(self, off, value):
        self.kernel.mem_write(self.addr + off, value.to_bytes(8, "big"))

    def next_send_seq(self):
        seq = self._read_u64(_OFF_SEND_SEQ)
        self._write_u64(_OFF_SEND_SEQ, seq + 1)
        return seq

    def peek_recv_seq(self):
        """Current receive sequence *without* consuming it.

        Gates that verify inbound records (``receive_finished``,
        ``ssl_read``) commit the sequence only when verification
        succeeds: an injected record is dropped without desynchronising
        the channel (paper section 5.1.2, "dropped by SSL read").
        """
        return self._read_u64(_OFF_RECV_SEQ)

    def commit_recv_seq(self, seq):
        self._write_u64(_OFF_RECV_SEQ, seq + 1)

    # -- randoms -------------------------------------------------------------------

    def write_randoms(self, client_random, server_random):
        self.kernel.mem_write(self.addr + _OFF_CLIENT_RANDOM,
                              client_random)
        self.kernel.mem_write(self.addr + _OFF_SERVER_RANDOM,
                              server_random)

    def read_randoms(self):
        return (self.kernel.mem_read(self.addr + _OFF_CLIENT_RANDOM, 32),
                self.kernel.mem_read(self.addr + _OFF_SERVER_RANDOM, 32))

    # -- flags ----------------------------------------------------------------------

    def _set_flag(self, flag):
        flags = self.kernel.mem_read(self.addr + _OFF_FLAGS, 1)[0]
        self.kernel.mem_write(self.addr + _OFF_FLAGS,
                              bytes([flags | flag]))

    def keys_ready(self):
        return bool(self.kernel.mem_read(self.addr + _OFF_FLAGS, 1)[0]
                    & _FLAG_KEYS_READY)

    def mark_handshake_done(self):
        self._set_flag(_FLAG_HANDSHAKE_DONE)

    def handshake_done(self):
        return bool(self.kernel.mem_read(self.addr + _OFF_FLAGS, 1)[0]
                    & _FLAG_HANDSHAKE_DONE)


class HttpdBase(Server):
    """Common scaffolding for the three Apache variants.

    Owns the kernel, the server RSA key, and per-variant statistics the
    benchmarks read; the listener and accept loop come from
    :class:`~repro.net.serve.Server`.
    """

    variant = "base"

    def __init__(self, network, addr, *, pages=None, seed="httpd",
                 tag_cache=True, key_bits=512, concurrent=False,
                 supervise=None, kernel=None, instance=None):
        super().__init__()
        self.network = network
        self.addr = addr
        self.pages = dict(pages or content.DEFAULT_PAGES)
        self.rng = DetRNG(seed)
        #: per-replica entropy label: cluster replicas share *seed* (one
        #: RSA identity for the whole cluster) but must not mint
        #: colliding TLS session ids — a failover resumption against a
        #: twin's cache would pair the wrong master secret with a known
        #: session id and die in the Finished check
        self.instance = instance
        #: serve connections concurrently (one master-side dispatcher
        #: per connection, like the paper's per-connection workers); the
        #: default stays sequential for deterministic tests
        self.concurrent = concurrent
        #: optional RestartPolicy applied to per-connection compartments
        self.supervise = supervise
        if kernel is not None:
            # cluster mode: several replicas share one host kernel
            self.kernel = kernel
            self.main = (kernel.main if kernel.main is not None
                         else kernel.start_main())
        else:
            self.kernel = Kernel(net=network, tag_cache=tag_cache,
                                 name=f"httpd-{self.variant}")
            self.main = self.kernel.start_main()
        # the server's long-lived RSA key pair, generated at startup
        self.private_key = generate_keypair(self.rng.fork("rsa"),
                                            key_bits)
        self.public_key = self.private_key.public()
        self.requests_served = 0

    # -- serving -----------------------------------------------------------------

    def _on_conn(self, conn_fd):
        job = super()._on_conn(conn_fd)
        if self.concurrent:
            return job
        return self._after_first_byte(conn_fd, job)

    def _after_first_byte(self, conn_fd, job):
        """Sequential serving: park until the client speaks, then serve.

        The acceptor waits for the client's first bytes (a connection
        that never speaks costs no pool thread while it dawdles), then
        runs the blocking handler inline: first-byte readiness means its
        opening read returns at once, and the accept, wait, serve,
        accept order is the same under either scheduler.
        """
        try:
            yield from self.kernel.co_wait_readable(conn_fd)
        except WedgeError:
            pass    # timed out or reset: the handler's read reports it
        job()

    def _serve_cycle(self):
        """Analysis root: one accept-serve cycle.

        This is the privilege envelope of the accept loop — the accept
        the threaded runner blocks in, then the per-connection wrapper
        of :class:`repro.net.serve.Server`; the policy verifier analyzes
        this instead of the scheduler-specific runners.
        """
        conn_fd = self.kernel.accept(self._listen_fd, timeout=None)
        self.connections_served += 1
        self._serve(conn_fd)

    # -- shared helpers ----------------------------------------------------------

    def conn_rng(self):
        """The per-connection RNG fork (instance-salted in a cluster)."""
        label = f"conn{self.connections_served}"
        if self.instance is not None:
            label = f"{self.instance}-{label}"
        return self.rng.fork(label)

    def respond_to(self, request_bytes):
        """Parse a complete request and build its response."""
        path = content.parse_request(request_bytes)
        self.requests_served += 1
        return content.build_response(self.pages, path)
