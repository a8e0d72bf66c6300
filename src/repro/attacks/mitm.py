"""The man-in-the-middle attacker (paper section 5.1.2's threat model).

Installed on a network address via
:meth:`repro.net.network.Network.interpose`, the attacker receives every
new connection to the server, opens its own upstream connection, and
pumps *frames* between the two — eavesdropping on, rewriting, or
injecting records in either direction.

The canonical campaign against the Figure-2 partitioning:

1. rewrite the legitimate client's ClientHello in flight, embedding an
   exploit blob in the extensions field (keeping the original hello bytes
   inside the blob so the hijacked worker can keep the transcript
   consistent);
2. pass everything else through untouched, so the handshake completes;
3. collect the session key the hijacked worker exfiltrates as a
   cleartext alert frame, then read or inject into the "protected"
   session at will.

Against the Figures-3-5 partitioning the same campaign fails at step 3:
the hijacked handshake sthread cannot read the session key, and the
``receive_finished`` / ``send_finished`` callgates give it neither the
key nor an encryption/decryption oracle.
"""

from __future__ import annotations

import threading

from repro.attacks.exploit import LOOT_PREFIX, Loot
from repro.core.errors import NetworkError, ProtocolError, WedgeError
from repro.net.stream import DuplexStream
from repro.tls import records as tls_records
from repro.tls.records import RT_ALERT, StreamTransport


class MitmAttacker:
    """Frame-level interposer with per-direction rewrite hooks.

    *client_to_server* / *server_to_client* are callables
    ``hook(rtype, body, session) -> (rtype, body) | None`` — return the
    (possibly rewritten) frame to forward, or ``None`` to drop it.
    """

    def __init__(self, *, client_to_server=None, server_to_client=None,
                 loot=None):
        self.network = None   # set by Network.interpose
        self.client_to_server = client_to_server
        self.server_to_client = server_to_client
        self.loot = loot if loot is not None else Loot()
        self.sessions = []
        self._lock = threading.Lock()

    # -- Network integration ------------------------------------------------

    def _client_connected(self, addr):
        """Called by the network for each victim connection."""
        victim_end, attacker_end = DuplexStream.pipe_pair(f"mitm:{addr}")
        upstream = self.network.connect_direct(addr)
        session = MitmSession(self, attacker_end, upstream, addr)
        with self._lock:
            self.sessions.append(session)
        session.start()
        return victim_end

    def collect_loot_frame(self, body):
        """Record an exfiltrated secret found on the wire."""
        secret = body[len(LOOT_PREFIX):]
        with self._lock:
            n = len([k for k in self.loot.items if k.startswith("exfil")])
            self.loot.grab(f"exfil{n}", secret)

    def exfiltrated(self):
        """All secrets collected off the wire so far."""
        with self._lock:
            return [v for k, v in sorted(self.loot.items.items())
                    if k.startswith("exfil")]


class MitmSession:
    """One interposed connection: two pump threads plus a transcript."""

    def __init__(self, attacker, client_side, server_side, addr):
        self.attacker = attacker
        self.client_side = client_side
        self.server_side = server_side
        self.addr = addr
        self.transcript = []   # (direction, rtype, body) as forwarded
        self._threads = []

    def start(self):
        for direction, src, dst, hook in (
                ("c2s", self.client_side, self.server_side,
                 self.attacker.client_to_server),
                ("s2c", self.server_side, self.client_side,
                 self.attacker.server_to_client)):
            thread = threading.Thread(
                target=self._pump, args=(direction, src, dst, hook),
                name=f"mitm-{direction}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def _pump(self, direction, src, dst, hook):
        transport = StreamTransport(src, timeout=10.0)
        while True:
            try:
                rtype, body = tls_records.read_frame(transport)
            except (WedgeError, ProtocolError, NetworkError):
                try:
                    dst.shutdown_write()
                except WedgeError:
                    pass
                return
            if rtype == RT_ALERT and body.startswith(LOOT_PREFIX):
                # a hijacked compartment is talking to us: swallow it
                self.attacker.collect_loot_frame(body)
                continue
            if hook is not None:
                result = hook(rtype, body, self)
                if result is None:
                    continue
                rtype, body = result
            self.transcript.append((direction, rtype, body))
            try:
                dst.send(tls_records.frame(rtype, body))
            except WedgeError:
                return

    def join(self, timeout=10.0):
        for thread in self._threads:
            thread.join(timeout)


def passive_tap(loot=None):
    """An attacker that only eavesdrops (and picks up exfiltration)."""
    return MitmAttacker(loot=loot)


def hello_exploit_rewriter(payload_id):
    """A client→server hook that arms the ClientHello with an exploit.

    The first handshake frame of each session is rewritten: the exploit
    blob goes into the extensions field, and the *original* hello bytes
    ride inside the blob so the hijacked worker can keep the legitimate
    client's transcript consistent (see
    :func:`repro.attacks.payloads.steal_session_key`).
    """
    from repro.attacks.exploit import make_exploit_blob
    from repro.tls.handshake import (HS_CLIENT_HELLO, ClientHello,
                                     parse_handshake)
    from repro.tls.records import RT_HANDSHAKE

    def hook(rtype, body, session):
        if rtype != RT_HANDSHAKE or getattr(session, "_armed", False):
            return rtype, body
        try:
            hello = parse_handshake(body, expect=HS_CLIENT_HELLO)
        except Exception:
            return rtype, body
        session._armed = True
        armed = ClientHello(hello.client_random, hello.session_id,
                            make_exploit_blob(payload_id, data=body))
        return rtype, armed.pack()

    return hook
