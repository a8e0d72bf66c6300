"""Server-side SSL logic: privileged pieces plus a monolithic driver.

The privileged operations are exposed as *pure functions over bytes* so
the partitioned Apache variants can run each inside exactly the callgate
the paper assigns it (Figures 2 and 4): nothing here touches the network
or global state, and key material goes in and out as byte strings that
the applications keep in tagged memory.

:class:`ServerHandshake` then composes those functions into the complete
monolithic handshake used by vanilla httpd — the baseline in which every
one of these operations runs with full privilege in one compartment.
"""

from __future__ import annotations

from repro.core.errors import HandshakeFailure
from repro.crypto.mac import constant_time_eq
from repro.crypto.prf import (derive_key_block, derive_master_secret,
                              finished_verify_data)
from repro.crypto.rsa import RsaPrivateKey, generate_keypair
from repro.tls import records
from repro.tls.handshake import (CERT_FLAG_EPHEMERAL, HS_CLIENT_HELLO,
                                 HS_CLIENT_KEY_EXCHANGE, HS_FINISHED,
                                 RANDOM_LEN, SESSION_ID_LEN, Certificate,
                                 Finished, ServerHello, ServerKeyExchange,
                                 Transcript, parse_handshake)
from repro.tls.records import RT_CHANGE_CIPHER, RT_HANDSHAKE, RecordChannel

# ---------------------------------------------------------------------------
# privileged primitives (callgate bodies call these)
# ---------------------------------------------------------------------------


def gen_server_random(rng):
    """The server's contribution to session-key generation.

    In the partitioned servers this runs *inside* the setup-session-key
    callgate, never in the worker: an exploited worker must not dictate
    the server random, or it could force session-key reuse (paper
    section 5.1.1).
    """
    return rng.bytes(RANDOM_LEN)


def make_session_id(rng):
    return rng.bytes(SESSION_ID_LEN)


def setup_master_secret(private_key_bytes, encrypted_premaster,
                        client_random, server_random):
    """Decrypt the premaster under the RSA key; derive the master secret.

    The only function in the SSL path that reads the private key.
    Raises :class:`HandshakeFailure` on bad padding — deliberately the
    same failure as any other malformed handshake, leaking nothing about
    the key.
    """
    key = RsaPrivateKey.from_bytes(private_key_bytes)
    try:
        premaster = key.decrypt(encrypted_premaster)
    except Exception as exc:
        raise HandshakeFailure("client key exchange failed") from exc
    return derive_master_secret(premaster, client_random, server_random)


def session_keys(master, client_random, server_random):
    """Expand the master secret into the four channel keys."""
    return derive_key_block(master, client_random, server_random)


def check_client_finished(master, transcript_hash, verify_data):
    """Validate the client's Finished payload; returns bool only.

    Returning a bare boolean is the point: when this runs in the
    ``receive_finished`` callgate, an exploited handshake sthread that
    feeds it arbitrary ciphertext learns success/failure and nothing else
    (paper section 5.1.2).
    """
    expected = finished_verify_data(master, "client finished",
                                    transcript_hash)
    return constant_time_eq(expected, verify_data)


def make_server_finished(master, transcript_hash):
    return finished_verify_data(master, "server finished", transcript_hash)


def open_finished_record(keys, seq, wire_body):
    """Decrypt the client's Finished record and parse its verify data.

    Used inside ``receive_finished``: the handshake sthread passes the
    sealed wire bytes it cannot read.  Raises
    :class:`~repro.core.errors.MacFailure` or ProtocolError on tampering.
    """
    payload = records.open_record(keys["client_enc"], keys["client_mac"],
                                  seq, RT_HANDSHAKE, wire_body)
    finished = parse_handshake(payload, expect=HS_FINISHED)
    return finished.verify_data


def seal_server_finished(keys, seq, verify_data):
    """Seal the server's Finished message into wire bytes.

    Used inside ``send_finished``; the handshake sthread transmits the
    result without being able to forge a different one.
    """
    payload = Finished(verify_data).pack()
    return records.seal_record(keys["server_enc"], keys["server_mac"],
                               seq, RT_HANDSHAKE, payload)


# ---------------------------------------------------------------------------
# the monolithic driver (vanilla httpd baseline)
# ---------------------------------------------------------------------------


class ServerHandshake:
    """Complete server-side handshake in one privileged compartment."""

    def __init__(self, transport, private_key, rng, *, session_cache=None,
                 server_name=b"wedge-httpd", on_client_hello=None,
                 ephemeral=False, ephemeral_bits=512):
        self.channel = RecordChannel(transport)
        self.private_key = private_key
        self.rng = rng
        self.session_cache = session_cache
        self.server_name = server_name
        #: forward secrecy: mint a per-connection RSA key (paper
        #: §5.1.1 presumes this off — "high computational cost")
        self.ephemeral = ephemeral
        self.ephemeral_bits = ephemeral_bits
        #: hook run on the parsed ClientHello — the monolithic server's
        #: untrusted-input surface (carries the simulated vulnerability)
        self.on_client_hello = on_client_hello
        self.resumed = None   # set by run()
        self.master = None
        self.client_random = None
        self.server_random = None

    def run(self):
        """Execute the handshake; returns the protected RecordChannel."""
        channel = self.channel
        transcript = Transcript()

        rtype, body = channel.recv_record(expect=RT_HANDSHAKE)
        hello = parse_handshake(body, expect=HS_CLIENT_HELLO)
        if self.on_client_hello is not None:
            self.on_client_hello(hello)
        transcript.add(body)
        self.client_random = hello.client_random

        cached = (self.session_cache.lookup(hello.session_id)
                  if self.session_cache is not None else None)
        self.resumed = cached is not None
        session_id = (hello.session_id if self.resumed
                      else make_session_id(self.rng))
        self.server_random = gen_server_random(self.rng)

        server_hello = ServerHello(self.server_random, session_id,
                                   self.resumed).pack()
        channel.send_record(RT_HANDSHAKE, server_hello)
        transcript.add(server_hello)

        if self.resumed:
            self.master = cached
        else:
            flags = CERT_FLAG_EPHEMERAL if self.ephemeral else 0
            cert = Certificate(self.private_key.public().to_bytes(),
                               self.server_name, flags).pack()
            channel.send_record(RT_HANDSHAKE, cert)
            transcript.add(cert)

            decrypting_key = self.private_key
            if self.ephemeral:
                # per-connection key pair: the dominant cost of this
                # mode, and the reason it is rarely enabled
                ephemeral_key = generate_keypair(self.rng,
                                                 self.ephemeral_bits)
                pub_bytes = ephemeral_key.public().to_bytes()
                signature = self.private_key.sign(
                    ServerKeyExchange.signed_payload(
                        pub_bytes, self.client_random,
                        self.server_random))
                ske = ServerKeyExchange(pub_bytes, signature).pack()
                channel.send_record(RT_HANDSHAKE, ske)
                transcript.add(ske)
                decrypting_key = ephemeral_key

            rtype, body = channel.recv_record(expect=RT_HANDSHAKE)
            cke = parse_handshake(body, expect=HS_CLIENT_KEY_EXCHANGE)
            transcript.add(body)
            self.master = setup_master_secret(
                decrypting_key.to_bytes(), cke.encrypted_premaster,
                self.client_random, self.server_random)

        keys = session_keys(self.master, self.client_random,
                            self.server_random)

        channel.recv_record(expect=RT_CHANGE_CIPHER)
        channel.activate_recv(keys["client_enc"], keys["client_mac"])

        rtype, body = channel.recv_record(expect=RT_HANDSHAKE)
        finished = parse_handshake(body, expect=HS_FINISHED)
        if not check_client_finished(self.master, transcript.digest(),
                                     finished.verify_data):
            raise HandshakeFailure("client Finished verification failed")
        transcript.add(Finished(finished.verify_data).pack())

        channel.send_record(RT_CHANGE_CIPHER, b"")
        channel.activate_send(keys["server_enc"], keys["server_mac"])
        verify = make_server_finished(self.master, transcript.digest())
        channel.send_record(RT_HANDSHAKE, Finished(verify).pack())

        if self.session_cache is not None and not self.resumed:
            self.session_cache.store(session_id, self.master)
        return channel

