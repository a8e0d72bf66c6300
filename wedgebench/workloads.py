"""The benchmark's three closed-loop workloads.

Each workload is one client on the caller's thread with one request in
flight, against a shipped Wedge-partitioned server.  The seed drives
only the load generator (which op comes next, which key, which value);
the servers keep their fixed seeds.

* ``web_tls`` — :class:`~repro.apps.httpd.MitmPartitionHttpd` with
  recycled callgates (paper Figs 3-5, the Table 2 "Recycled" column),
  one HTTP/1.0 GET per TLS connection.  Loads crypto, tls, callgate
  crossings and per-connection sthread creation; no disk, no kv codec.
* ``kv_read`` — :class:`~repro.apps.kv.KvServer` (concurrent,
  cache-aside, volatile) under Zipf-skewed lookups over fewer keys than
  the cache holds, filling on a miss as httpd does: almost every op is
  a read hit paying whole-region bus reads, codec decode, two
  recycled-gate hops and three cross-thread hand-offs.
* ``kv_write`` — a durable ``KvServer`` under 60% SET / 40% GET over
  four times more keys than the cache holds: every admission evicts,
  every write re-packs the store and appends to the WAL, and fsyncs
  and checkpoints recur.

Every reply is checked: page bytes and resumption for ``web_tls``, a
shadow map of the last value stored per key for the kv workloads.
"""

from __future__ import annotations

import bisect
import itertools
import random
import time

from repro.apps.httpd import MitmPartitionHttpd
from repro.apps.httpd.content import (DEFAULT_PAGES, build_request,
                                      response_body)
from repro.apps.kv import store as kv_store
from repro.apps.kv.client import KvCacheClient
from repro.apps.kv.server import DEFAULT_CAPACITY, KvServer
from repro.core.kernel import Kernel
from repro.crypto import DetRNG
from repro.net import Network
from repro.tls import TlsClient

#: The added large page of ``web_tls`` (a server-side constant).
BIG_PATH = "/big.html"
BIG_PAGE = (b"<html><body>" +
            bytes(range(32, 127)) * 173)[:16 * 1024]
SMALL_PATHS = tuple(sorted(DEFAULT_PAGES))

#: Approximate kv value size (bytes); values carry key and version.
VALUE_BYTES = 100


def _value(key, version, rng):
    head = b"%s#%d#" % (key.encode(), version)
    return head + rng.randbytes(VALUE_BYTES - len(head))


class Workload:
    """One server, one client, a seeded op stream.

    Subclasses set :attr:`MIX` (op type -> weight) and implement
    :meth:`setup`, :meth:`run_op`, :meth:`counters` and :meth:`finish`.
    """

    name = ""
    MIX = {}
    #: Longest ``--seconds`` the workload can measure (None: no limit).
    MAX_SECONDS = None

    def __init__(self, seed, instance=0):
        self.seed = seed
        self.instance = instance
        self.rng = random.Random(f"{self.name}:{seed}")
        self._kinds = list(self.MIX)
        self._cum = list(itertools.accumulate(self.MIX.values()))

    def next_kind(self):
        roll = self.rng.random() * self._cum[-1]
        return self._kinds[bisect.bisect_right(self._cum, roll)]

    def kernels(self):
        """Every kernel the workload built (for model cycles)."""
        raise NotImplementedError

    def begin_phase(self):
        """Called untimed before each measured phase."""

    def shape(self):
        """The generated input's fixed shape, recorded with every run."""
        raise NotImplementedError


class WebTls(Workload):
    name = "web_tls"
    MIX = {"resumed_small": 70, "resumed_16k": 10, "full_small": 20}

    def setup(self):
        """Boot the server; returns after the first correct reply."""
        self.network = Network()
        pages = dict(DEFAULT_PAGES)
        pages[BIG_PATH] = BIG_PAGE
        self.pages = pages
        self.server = MitmPartitionHttpd(
            self.network, f"web-{self.instance}:443",
            gate_mode="recycled", pages=pages).start()
        self.client = TlsClient(DetRNG(f"wedgebench-client:{self.seed}"),
                                expected_server_key=self.server.public_key)
        if not self._get("/", resume=False):
            raise RuntimeError("web_tls: first reply incorrect")

    def _get(self, path, *, resume):
        conn = self.client.connect(self.network, self.server.addr,
                                   resume=resume)
        try:
            reply = conn.request(build_request(path))
        finally:
            conn.close()
        return (conn.resumed == resume
                and reply.startswith(b"HTTP/1.0 200 OK\r\n")
                and response_body(reply) == self.pages[path])

    def run_op(self):
        kind = self.next_kind()
        if kind == "resumed_16k":
            path = BIG_PATH
        else:
            path = SMALL_PATHS[self.rng.randrange(len(SMALL_PATHS))]
        return kind, lambda: self._get(
            path, resume=kind != "full_small")

    def kernels(self):
        return [self.server.kernel]

    def counters(self):
        return {}

    def finish(self):
        problems = []
        if self.server.errors:
            problems.append(f"server errors: {self.server.errors[:3]}")
        return problems, {}

    def stop(self):
        self.server.stop()

    def shape(self):
        return {"page_bytes": {path: len(body)
                               for path, body in self.pages.items()}}


class _KvWorkload(Workload):
    """Shared kv plumbing: one persistent cache-aside client."""

    KEYS = 0
    #: Longest phase whose connection stays inside the server's 30 s
    #: parser join timeout (see :meth:`begin_phase`), with room for the
    #: warm-up ops and the last window.
    MAX_SECONDS = 25.0
    SERVER_KWARGS = {}

    def setup(self):
        self.network = Network()
        self.server = KvServer(self.network, f"kv-{self.instance}:11211",
                               **self.SERVER_KWARGS).start()
        self.client_kernel = Kernel(net=self.network,
                                    name=f"kv-client-{self.instance}")
        self.client_kernel.start_main()
        self.client = KvCacheClient(self.client_kernel, self.server.addr)
        self.keys = [f"/kv/{i:03d}" for i in range(self.KEYS)]
        self.shadow = {}
        self.versions = itertools.count(1)
        self.value_bytes = 0
        key = self.keys[0]
        if not (self._set(key)
                and self.client.lookup(key) == self.shadow[key]):
            raise RuntimeError(f"{self.name}: first reply incorrect")

    def _set(self, key):
        value = _value(key, next(self.versions), self.rng)
        errors = self.client.store_errors
        self.client.store(key, value)
        self.shadow[key] = value
        self.value_bytes += len(value)
        return self.client.store_errors == errors

    def _get(self, key):
        """A lookup; a hit must return the last value stored."""
        value = self.client.lookup(key)
        return value is None or value == self.shadow.get(key)

    def begin_phase(self):
        # A fresh connection per phase, opened by the warm-up ops.  This
        # works round a server defect: KvServer.handle_connection joins
        # the parser island with a 30 s timeout, so a connection that
        # lives longer loses its reply pipe and lands in server.errors.
        self.client.close()

    def kernels(self):
        return [self.server.kernel, self.client_kernel]

    def counters(self):
        out = {f"server.{k}": v for k, v in self.server.stats.items()}
        out["client.hits"] = self.client.hits
        out["client.misses"] = self.client.misses
        out["value_bytes"] = self.value_bytes
        wal = self.server.wal
        out["wal.checkpoints"] = wal.checkpoints if wal is not None else 0
        return out

    def finish(self):
        problems = []
        if self.server.errors:
            problems.append(f"server errors: {self.server.errors[:3]}")
        if self.client.store_errors:
            problems.append(f"{self.client.store_errors} dropped fills")
        stats = self.server.stats
        if (self.client.hits, self.client.misses) != (stats["hits"],
                                                      stats["misses"]):
            # a lookup that failed open reads as a miss on the client
            # but never reached the storage engine
            problems.append(
                f"client hits/misses {self.client.hits}/"
                f"{self.client.misses} != server {stats['hits']}/"
                f"{stats['misses']}")
        return problems, {}

    def stop(self):
        self.client.close()
        self.server.stop()

    def shape(self):
        return {"keys": self.KEYS, "value_bytes": VALUE_BYTES,
                "capacity": self.server.capacity}


class KvRead(_KvWorkload):
    name = "kv_read"
    KEYS = 48                 # fewer than DEFAULT_CAPACITY (64)
    ZIPF_S = 1.1
    SERVER_KWARGS = {"concurrent": True}

    def setup(self):
        super().setup()
        weights = [1.0 / (rank ** self.ZIPF_S)
                   for rank in range(1, self.KEYS + 1)]
        self._zipf_cum = list(itertools.accumulate(weights))
        self._ranked = list(self.keys)
        self.rng.shuffle(self._ranked)

    def _zipf_key(self):
        roll = self.rng.random() * self._zipf_cum[-1]
        return self._ranked[bisect.bisect_right(self._zipf_cum, roll)]

    def run_op(self):
        key = self._zipf_key()

        def op():
            # cache-aside, as httpd does it: a miss renders and fills
            hits = self.client.hits
            ok = self._get(key)
            if self.client.hits == hits:
                ok = self._set(key) and ok
            return ok
        return "get", op


class KvWrite(_KvWorkload):
    name = "kv_write"
    MIX = {"set": 60, "get": 40}
    KEYS = 4 * DEFAULT_CAPACITY
    SERVER_KWARGS = {"durable": True}

    def run_op(self):
        kind = self.next_kind()
        key = self.keys[self.rng.randrange(self.KEYS)]
        if kind == "set":
            return kind, lambda: self._set(key)
        return kind, lambda: self._get(key)

    def finish(self):
        """Also remount the platter and compare the recovered store.

        Runs after the measured phases: barrier the log, snapshot the
        live store, stop, and mount the same disk in a fresh server.
        After a full barrier the recovered store must equal the live
        one byte for byte.
        """
        problems, extra = super().finish()
        self.client.close()
        self.server.wal.sync()
        live = self.server.store_bytes()
        self.server.stop()
        start = time.perf_counter()
        remount = KvServer(Network(), f"kv-remount-{self.instance}:1",
                           durable=True, disk=self.server.disk)
        extra["recovery_s"] = time.perf_counter() - start
        extra["recovery_cycles"] = remount.recovery_cycles
        extra["replayed"] = remount.last_recovery["replayed"]
        recovered = remount.store_bytes()
        extra["remount_key_diff"] = remount_key_diff(live, recovered)
        if recovered != live:
            problems.append(
                f"remounted store differs from the live store "
                f"({extra['remount_key_diff']} live cache keys missing)")
        return problems, extra


def remount_key_diff(live, recovered):
    """Cache keys of the live store that the remount does not hold.

    Zero means the remount kept the same keys as the live server: replay
    chose the same eviction victims.
    """
    def keys(blob):
        return {entry[0] for entry in kv_store.unpack_store(blob)["cache"]}
    return len(keys(live) - keys(recovered))


WORKLOADS = {cls.name: cls for cls in (WebTls, KvRead, KvWrite)}
