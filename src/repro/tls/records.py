"""The record layer: framing, MAC-then-encrypt, sequence numbers.

Two layers of API, because the partitioned server needs to split them:

* **Stateless sealing** — :func:`seal_record` / :func:`open_record` take
  explicit keys and a sequence number and process one record.  This is
  what runs *inside callgates*: the SSL handshake sthread hands the
  opaque wire bytes to ``receive_finished``; ``ssl_read``/``ssl_write``
  keep their sequence numbers in tagged memory.  The per-record cipher
  nonce is the sequence number, so no cipher state crosses records.

* **A stateful channel** — :class:`RecordChannel` wraps a transport and
  tracks sequence numbers and keys for both directions.  The monolithic
  servers and the client use it directly.

Injected or replayed records fail the MAC (which covers the sequence
number, record type and length) and raise
:class:`~repro.core.errors.MacFailure` — the property the client-handler
phase's security rests on (paper section 5.1.2).
"""

from __future__ import annotations

from repro.core.errors import ConnectionClosed, MacFailure, ProtocolError
from repro.crypto.mac import DIGEST_SIZE, constant_time_eq, hmac_sha256
from repro.crypto.stream import StreamCipher

#: Record types (TLS numbering where it exists).
RT_ALERT = 21
RT_HANDSHAKE = 22
RT_APPDATA = 23
RT_CHANGE_CIPHER = 20

_HEADER_LEN = 5
MAX_RECORD = 1 << 20


def _mac_input(seq, rtype, payload):
    return (seq.to_bytes(8, "big") + bytes([rtype]) +
            len(payload).to_bytes(4, "big") + payload)


def seal_record(enc_key, mac_key, seq, rtype, payload):
    """MAC-then-encrypt one record body; returns the wire body bytes."""
    mac = hmac_sha256(mac_key, _mac_input(seq, rtype, payload))
    cipher = StreamCipher(enc_key, nonce=seq.to_bytes(8, "big"))
    return cipher.encrypt(payload + mac)


def open_record(enc_key, mac_key, seq, rtype, wire):
    """Decrypt and verify one record body; raises MacFailure on tamper."""
    if len(wire) < DIGEST_SIZE:
        raise MacFailure("record shorter than its MAC")
    cipher = StreamCipher(enc_key, nonce=seq.to_bytes(8, "big"))
    plain = cipher.decrypt(wire)
    payload, mac = plain[:-DIGEST_SIZE], plain[-DIGEST_SIZE:]
    expected = hmac_sha256(mac_key, _mac_input(seq, rtype, payload))
    if not constant_time_eq(mac, expected):
        raise MacFailure(
            f"record MAC verification failed (seq={seq}, type={rtype})")
    return payload


def frame(rtype, body):
    """Wire framing: type(1) | length(4) | body."""
    if len(body) > MAX_RECORD:
        raise ProtocolError("record too large")
    return bytes([rtype]) + len(body).to_bytes(4, "big") + body


def read_frame(transport):
    """Read one framed record from *transport*; returns (type, body)."""
    header = transport.recv_exact(_HEADER_LEN)
    rtype = header[0]
    length = int.from_bytes(header[1:5], "big")
    if length > MAX_RECORD:
        raise ProtocolError(f"oversized record ({length} bytes)")
    body = transport.recv_exact(length) if length else b""
    return rtype, body


class Directions:
    """Key material for one direction of a channel."""

    __slots__ = ("enc_key", "mac_key", "seq")

    def __init__(self, enc_key, mac_key):
        self.enc_key = enc_key
        self.mac_key = mac_key
        self.seq = 0


class RecordChannel:
    """Stateful record channel over a transport.

    Starts in cleartext; :meth:`activate_send` / :meth:`activate_recv`
    switch a direction to sealed records (the ChangeCipherSpec moment).
    """

    def __init__(self, transport):
        self.transport = transport
        self._send = None
        self._recv = None

    def activate_send(self, enc_key, mac_key):
        self._send = Directions(enc_key, mac_key)

    def activate_recv(self, enc_key, mac_key):
        self._recv = Directions(enc_key, mac_key)

    def send_record(self, rtype, payload):
        if self._send is None:
            body = payload
        else:
            body = seal_record(self._send.enc_key, self._send.mac_key,
                               self._send.seq, rtype, payload)
            self._send.seq += 1
        self.transport.send(frame(rtype, body))

    def recv_record(self, expect=None):
        rtype, body = read_frame(self.transport)
        if self._recv is None:
            payload = body
        else:
            payload = open_record(self._recv.enc_key, self._recv.mac_key,
                                  self._recv.seq, rtype, body)
            self._recv.seq += 1
        if expect is not None and rtype != expect:
            raise ProtocolError(
                f"expected record type {expect}, got {rtype}")
        return rtype, payload

    def close(self):
        close = getattr(self.transport, "close", None)
        if close is not None:
            close()


class KernelSocketTransport:
    """Transport over a kernel fd — every byte obeys the compartment's
    fd permissions (how "no network write for client_handler" is real)."""

    def __init__(self, kernel, fd, timeout=30.0):
        self.kernel = kernel
        self.fd = fd
        self.timeout = timeout

    def send(self, data):
        self.kernel.send(self.fd, data)

    def recv_exact(self, size):
        return self.kernel.recv_exact(self.fd, size, self.timeout)

    def close(self):
        try:
            self.kernel.close(self.fd)
        except Exception:
            pass


class StreamTransport:
    """Transport directly over a DuplexStream (clients, attackers)."""

    def __init__(self, sock, timeout=30.0):
        self.sock = sock
        self.timeout = timeout

    def send(self, data):
        self.sock.send(data)

    def recv_exact(self, size):
        return self.sock.recv_exact(size, self.timeout)

    def close(self):
        self.sock.close()


class ChannelClosed(ConnectionClosed):
    """Convenience re-export for callers catching channel EOF."""
