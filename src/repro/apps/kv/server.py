"""The ``kv`` app: a Wedge-partitioned key-value/cache tier.

Three privilege islands, mirroring the balancer's discipline:

* the **parser** (one ``kv-parser`` sthread per connection) reads the
  untrusted command stream off the client socket.  It is the exploit
  surface and holds nothing: read access to the client fd plus the
  right to invoke the storage gate.  It can never map ``kv-store`` or
  ``kv-meta``, and it does not hold the eviction gate — a hijacked
  parser cannot even *reach* the recency metadata.
* the **storage engine** (the ``store_gate`` callgate) owns the cache
  entries, the bounded write-behind queue and the backing rows, all in
  the private ``kv-store`` tag.  It prices TTLs off the deterministic
  cost model (``kernel.costs.cycles()`` is the clock) and implements
  cache-aside, write-through and write-behind policies; when the
  write-behind queue is at its bound a write degrades *typed* — a
  ``SHED`` reply, the PR-5 backpressure contract — instead of growing
  without bound.
* the **eviction engine** (the standing ``evict_gate`` callgate) is the
  sole writer of the ``kv-meta`` recency tag (LRU stamps or a clock
  hand).  The storage gate reaches it by *delegation*: main creates the
  gate once and re-grants its id inside the storage gate's context
  (``sc_cgate_add(store_sc, gate_id)``), so even the storage engine
  never maps the metadata pages.

Replies flow back through a fourth, trivially-privileged island: a
``kv-writer`` sthread that pumps a reply pipe out to the client fd
(write-only).  The parser's *client* fd grant stays read-only end to
end — it writes each burst of replies into the pipe as it parses, so
one long-lived connection (httpd's cache-aside client keeps one open) pays
the two-sthread setup once and then costs a few syscalls plus two gate
hops per operation.  Both gates are *standing*: main creates them at
boot and delegates their ids, so no per-connection gate instantiation
(an ``mm_create`` apiece) sits on the data path.

:class:`MonolithicKv` is the contrast build: same wire protocol, but
the command parser runs in main with the store in plain heap pages —
the configuration the attack corpus proves loses the whole store to
one bad command line.
"""

from __future__ import annotations

from repro.apps.kv import store
from repro.apps.kv.wal import WalLayout, WriteAheadLog
from repro.attacks.exploit import maybe_trigger_exploit
from repro.core.errors import (CallgateError, CompartmentDown,
                               NetworkError, SthreadFaulted, WedgeError)
from repro.core.kernel import Kernel
from repro.core.memory import PROT_RW
from repro.core.policy import (FD_READ, FD_RW, FD_WRITE, SecurityContext,
                               sc_cgate_add, sc_fd_add, sc_mem_add)
from repro.core.reactor import run_blocking
from repro.net.serve import Server

#: Cache policies (ROADMAP item 3's scalability-pattern triple).
CACHE_ASIDE = "cache-aside"
WRITE_THROUGH = "write-through"
WRITE_BEHIND = "write-behind"
POLICIES = (CACHE_ASIDE, WRITE_THROUGH, WRITE_BEHIND)

#: Region sizes (bytes) and structural bounds.
DEFAULT_STORE_REGION = 1 << 15
DEFAULT_META_REGION = 1 << 14
DEFAULT_CAPACITY = 64
DEFAULT_QUEUE_BOUND = 8

_STAT_KEYS = ("hits", "misses", "fills", "sets", "deletes", "evictions",
              "shed", "flushes")


def _new_stats():
    return {key: 0 for key in _STAT_KEYS}


# -- wire protocol -----------------------------------------------------------

def parse_command(line):
    """One command line -> (op dict, None) or (None, error bytes).

    The grammar is memcached-flavoured but hex-armoured so values never
    collide with the framing::

        GET <key> | SET <key> <ttl> <hexval> | DEL <key>
        CAS <key> <ttl> <hexold> <hexnew> | STAT | FLUSH | QUIT
    """
    parts = line.split()
    if not parts:
        return None, b"empty command"
    cmd = parts[0].upper()
    if cmd == b"STAT" and len(parts) == 1:
        return {"op": "stat"}, None
    if cmd == b"FLUSH" and len(parts) == 1:
        return {"op": "flush"}, None
    if cmd in (b"GET", b"DEL") and len(parts) == 2:
        key, err = _check_key(parts[1])
        if err:
            return None, err
        return {"op": "get" if cmd == b"GET" else "delete",
                "key": key}, None
    if cmd == b"SET" and len(parts) == 4:
        key, err = _check_key(parts[1])
        if err:
            return None, err
        ttl, value = _check_ttl(parts[2]), _check_hex(parts[3])
        if ttl is None:
            return None, b"bad ttl"
        if value is None:
            return None, b"bad value"
        return {"op": "set", "key": key, "ttl": ttl, "value": value}, None
    if cmd == b"CAS" and len(parts) == 5:
        key, err = _check_key(parts[1])
        if err:
            return None, err
        ttl = _check_ttl(parts[2])
        old, new = _check_hex(parts[3]), _check_hex(parts[4])
        if ttl is None:
            return None, b"bad ttl"
        if old is None or new is None:
            return None, b"bad value"
        return {"op": "cas", "key": key, "ttl": ttl,
                "old": old, "value": new}, None
    return None, b"unknown command"


def _check_key(token):
    if not token or len(token) > store.MAX_KEY:
        return None, b"bad key"
    return bytes(token), None


def _check_ttl(token):
    try:
        ttl = int(token)
    except ValueError:
        return None
    return ttl if ttl >= 0 else None


def _check_hex(token):
    try:
        value = bytes.fromhex(token.decode("ascii"))
    except (ValueError, UnicodeDecodeError):
        return None
    return value if len(value) <= store.MAX_VALUE else None


def format_reply(op, reply):
    """Storage-gate reply dict -> one wire line."""
    if reply.get("shed"):
        return b"SHED"
    if not reply.get("ok"):
        return b"ERR " + reply.get("error", "failed").encode()
    if op == "get":
        if reply["value"] is None:
            return b"MISS"
        return b"VALUE " + reply["value"].hex().encode()
    if op == "set":
        return b"STORED"
    if op == "delete":
        return b"DELETED" if reply["existed"] else b"NOTFOUND"
    if op == "cas":
        return b"CASOK" if reply["swapped"] else b"CASMISS"
    if op == "flush":
        return b"FLUSHED %d" % reply["flushed"]
    if op == "stat":
        fields = [b"%s=%d" % (k.encode(), reply["stats"][k])
                  for k in _STAT_KEYS]
        fields.append(b"entries=%d" % reply["entries"])
        fields.append(b"queue=%d" % reply["queue"])
        return b"STAT " + b" ".join(fields)
    return b"ERR unmapped reply"


# -- storage semantics (shared by the gate and the monolithic build) ---------

def _cache_index(state, key):
    for i, (k, _, _) in enumerate(state["cache"]):
        if k == key:
            return i
    return -1


def _backing_get(state, key):
    for k, v in state["backing"]:
        if k == key:
            return v
    return None


def _backing_set(state, key, value):
    for i, (k, _) in enumerate(state["backing"]):
        if k == key:
            state["backing"][i] = (key, value)
            return
    state["backing"].append((key, value))


def _backing_del(state, key):
    for i, (k, _) in enumerate(state["backing"]):
        if k == key:
            state["backing"].pop(i)
            return True
    return False


def _expired(entry, now):
    return entry[2] != 0 and now >= entry[2]


def _evict_to_capacity(state, evict, stats, capacity):
    """Make room for one admission; the eviction gate picks victims."""
    while len(state["cache"]) >= capacity:
        victim = evict("pick")
        keys = [k for k, _, _ in state["cache"]]
        if victim is None or victim not in keys:
            # degraded (eviction gate down or freshly restarted):
            # deterministic fallback to the oldest insertion
            victim = keys[0]
        state["cache"].pop(_cache_index(state, victim))
        evict("remove", victim)
        stats["evictions"] += 1


def apply_op(state, evict, op, *, policy, capacity, queue_bound, stats,
             now):
    """Apply one parsed command to the unpacked store state.

    Returns ``(reply dict, dirty)``; *evict* is
    ``callable(action, key=None) -> victim-or-None`` — the partitioned
    build routes it through the delegated eviction gate, the monolithic
    build calls the oracle in-process.  Degradation is typed: a full
    write-behind queue rejects the write with ``{"shed": True}`` before
    any state is touched.
    """
    kind = op["op"]
    if kind == "stat":
        return {"ok": True, "stats": dict(stats),
                "entries": len(state["cache"]),
                "queue": len(state["queue"])}, False
    if kind == "flush":
        flushed = len(state["queue"])
        for qkind, key, value in state["queue"]:
            if qkind == store.Q_SET:
                _backing_set(state, key, value)
            else:
                _backing_del(state, key)
        state["queue"] = []
        stats["flushes"] += 1
        return {"ok": True, "flushed": flushed}, flushed > 0
    key = op["key"]
    if kind == "get":
        dirty = False
        i = _cache_index(state, key)
        if i >= 0:
            entry = state["cache"][i]
            if _expired(entry, now):
                state["cache"].pop(i)
                evict("remove", key)
                dirty = True
            else:
                stats["hits"] += 1
                evict("touch", key)
                return {"ok": True, "hit": True,
                        "value": entry[1]}, dirty
        stats["misses"] += 1
        if policy != CACHE_ASIDE:
            value = _backing_get(state, key)
            if value is not None:    # read-through fill
                _evict_to_capacity(state, evict, stats, capacity)
                state["cache"].append((key, value, 0))
                evict("admit", key)
                stats["fills"] += 1
                return {"ok": True, "hit": False, "value": value}, True
        return {"ok": True, "hit": False, "value": None}, dirty
    queue_write = policy == WRITE_BEHIND and kind in ("set", "delete",
                                                      "cas")
    if kind == "set":
        if queue_write and len(state["queue"]) >= queue_bound:
            stats["shed"] += 1
            return {"ok": False, "shed": True}, False
        _store_value(state, evict, stats, key, op["value"],
                     op["ttl"], now, capacity)
        if policy == WRITE_THROUGH:
            _backing_set(state, key, op["value"])
        elif policy == WRITE_BEHIND:
            state["queue"].append((store.Q_SET, key, op["value"]))
        stats["sets"] += 1
        return {"ok": True, "stored": True}, True
    if kind == "delete":
        if queue_write and len(state["queue"]) >= queue_bound:
            stats["shed"] += 1
            return {"ok": False, "shed": True}, False
        existed = False
        i = _cache_index(state, key)
        if i >= 0:
            state["cache"].pop(i)
            evict("remove", key)
            existed = True
        if policy == WRITE_THROUGH:
            existed = _backing_del(state, key) or existed
        elif policy == WRITE_BEHIND:
            existed = existed or _backing_get(state, key) is not None
            state["queue"].append((store.Q_DEL, key, b""))
        stats["deletes"] += 1
        return {"ok": True, "existed": existed}, True
    if kind == "cas":
        current = None
        i = _cache_index(state, key)
        if i >= 0 and not _expired(state["cache"][i], now):
            current = state["cache"][i][1]
        elif policy != CACHE_ASIDE:
            current = _backing_get(state, key)
        if current is None or current != op["old"]:
            return {"ok": True, "swapped": False}, False
        if queue_write and len(state["queue"]) >= queue_bound:
            stats["shed"] += 1
            return {"ok": False, "shed": True}, False
        _store_value(state, evict, stats, key, op["value"],
                     op["ttl"], now, capacity)
        if policy == WRITE_THROUGH:
            _backing_set(state, key, op["value"])
        elif policy == WRITE_BEHIND:
            state["queue"].append((store.Q_SET, key, op["value"]))
        stats["sets"] += 1
        return {"ok": True, "swapped": True}, True
    return {"ok": False, "error": f"unknown op {kind!r}"}, False


def _store_value(state, evict, stats, key, value, ttl, now, capacity):
    expires = now + ttl if ttl else 0
    i = _cache_index(state, key)
    if i >= 0:
        state["cache"][i] = (key, value, expires)
        evict("touch", key)
    else:
        _evict_to_capacity(state, evict, stats, capacity)
        state["cache"].append((key, value, expires))
        evict("admit", key)


# -- callgate entry points ---------------------------------------------------

def evict_gate(trusted, arg):
    """The sole writer of ``kv-meta``: recency in, victims out.

    Reads the metadata region whole, applies one step of the eviction
    algebra (:mod:`repro.apps.kv.store`), writes the region whole.  The
    storage engine invokes it by delegated id — no other compartment
    ever holds write access to these pages.
    """
    kernel = trusted["kernel"]
    state = store.unpack_meta(
        kernel.mem_read(trusted["meta_addr"], trusted["meta_len"]))
    op = arg.get("op")
    key = arg.get("key")
    victim = None
    if op == "admit":
        store.meta_admit(state, key)
    elif op == "touch":
        store.meta_touch(state, key)
    elif op == "remove":
        store.meta_remove(state, key)
    elif op == "pick":
        victim = store.meta_pick(state)
    elif op == "reset":
        store.meta_reset(state)
    else:
        return {"ok": False, "error": f"unknown evict op {op!r}"}
    kernel.mem_write(trusted["meta_addr"],
                     store.pack_meta(state, trusted["meta_len"]))
    return {"ok": True, "victim": victim}


def _evict_caller(kernel):
    """The storage gate's handle on its delegated eviction gate.

    Resolution is by entry-point name over ``current().gates`` (the lb
    idiom); a dead or restarting eviction gate degrades to ``None`` —
    recency updates are then skipped and :func:`_evict_to_capacity`
    falls back to oldest-insertion, keeping the data path alive.
    """
    evict_id = None
    for gate_id in kernel.current().gates:
        if kernel.gate_record(gate_id).entry.__name__ == "evict_gate":
            evict_id = gate_id

    def call(action, key=None):
        if evict_id is None:
            return None
        try:
            reply = kernel.cgate(evict_id, None,
                                 {"op": action, "key": key})
        except (CallgateError, CompartmentDown):
            return None
        return reply.get("victim")

    return call


def store_gate(trusted, arg):
    """The storage engine: every byte of ``kv-store`` lives behind this.

    Whole-region read, python-side mutation, whole-region write (only
    when dirty — a pure cache hit leaves the store bytes untouched,
    which is what makes the chaos campaign's byte-identical check
    sharp).  TTLs are priced off the deterministic cost model: *now* is
    the kernel's model-cycle clock, so expiry is reproducible under any
    seed.

    In durable mode (``trusted["wal"]`` present) this gate is also the
    *only* compartment holding the disk fd: every dirty op appends a
    redo record before the reply leaves the gate, and the ``recover``
    op mounts the device into a fresh incarnation.  The parser, the
    eviction engine and the writer can never name the platter —
    ``repro lint --app kv --strict`` proves it.
    """
    kernel = trusted["kernel"]
    wal = trusted.get("wal")
    if wal is not None and arg.get("op") == "recover":
        return _recover_store(kernel, trusted, wal)
    state = store.unpack_store(
        kernel.mem_read(trusted["store_addr"], trusted["store_len"]))
    now = kernel.costs.cycles()
    reply, dirty = apply_op(
        state, _evict_caller(kernel), arg,
        policy=trusted["policy"], capacity=trusted["capacity"],
        queue_bound=trusted["queue_bound"], stats=trusted["stats"],
        now=now)
    if dirty:
        packed = store.pack_store(state, trusted["store_len"])
        kernel.mem_write(trusted["store_addr"], packed)
        if wal is not None:
            # log-before-reply: the record (and, at a group-commit
            # boundary, its barrier) lands before the gate returns, so
            # a reply the client saw acked is at worst group_commit-1
            # records past the last barrier — never silently ahead of
            # the log
            wal.append(arg, now)
            wal.maybe_sync()
            if wal.checkpoint_due():
                wal.checkpoint(packed)
    return reply


def _recover_store(kernel, trusted, wal):
    """Mount the device inside the storage gate (op ``recover``).

    Loads the active checkpoint, replays the intact log prefix with
    each record's *logged* clock (so TTL expiry replays bit-for-bit),
    rebuilds the recency metadata through the delegated eviction gate,
    and writes the recovered image over the store region.  A virgin
    device instead adopts the region's current contents (the preload)
    as checkpoint zero.  Runs entirely inside the gate so recovery I/O
    is covered by the same rights the analyzer certifies for live
    traffic.
    """
    payload, records = wal.recover()
    if payload is None:
        # virgin (or formatted-but-never-checkpointed) device: seal the
        # preloaded region as the first checkpoint
        wal.checkpoint(kernel.mem_read(trusted["store_addr"],
                                       trusted["store_len"]))
        return {"ok": True, "fresh": True, "replayed": 0,
                "checkpoints": wal.checkpoints}
    evict = _evict_caller(kernel)
    state = store.unpack_store(payload)
    evict("reset")
    for key, _value, _expires in state["cache"]:
        evict("admit", key)
    # replay mutates a throwaway stats dict: the server's live counters
    # describe traffic served, not crash repair
    stats = _new_stats()
    for op, logged_now in records:
        apply_op(state, evict, op, policy=trusted["policy"],
                 capacity=trusted["capacity"],
                 queue_bound=trusted["queue_bound"], stats=stats,
                 now=logged_now)
    kernel.mem_write(trusted["store_addr"],
                     store.pack_store(state, trusted["store_len"]))
    return {"ok": True, "fresh": False, "replayed": len(records),
            "checkpoints": wal.checkpoints}


# -- the partitioned server --------------------------------------------------

class KvServer(Server):
    """Parser / storage engine / eviction engine, one island each."""

    variant = "kv"

    def __init__(self, network, addr, *, policy=CACHE_ASIDE,
                 mode=store.MODE_LRU, capacity=DEFAULT_CAPACITY,
                 queue_bound=DEFAULT_QUEUE_BOUND, preload=None,
                 supervise=None, name="kv", concurrent=False,
                 store_region=DEFAULT_STORE_REGION,
                 meta_region=DEFAULT_META_REGION, durable=False,
                 disk=None, group_commit=8, checkpoint_every=64,
                 tap=None):
        if policy not in POLICIES:
            raise WedgeError(f"unknown cache policy {policy!r}")
        super().__init__()
        self.network = network
        self.addr = addr
        self.policy = policy
        #: serve connections concurrently — required when clients keep
        #: persistent cache connections open (the httpd tier); the
        #: default stays sequential for deterministic chaos/overload
        self.concurrent = concurrent
        self.capacity = int(capacity)
        self.queue_bound = int(queue_bound)
        self.supervise = supervise
        self.kernel = Kernel(net=network, name=name)
        # installed before the first trap so a kill-at-any-point sweep
        # can crash the server at *every* syscall index, boot and
        # recovery included
        self.kernel.syscall_tap = tap
        self.main = self.kernel.start_main()
        kernel = self.kernel

        state = store.empty_store()
        meta = store.empty_meta(mode)
        for key, value in sorted((preload or {}).items()):
            key, value = bytes(key), bytes(value)
            state["cache"].append((key, value, 0))
            state["backing"].append((key, value))
            store.meta_admit(meta, key)
        self._store_tag = kernel.tag_new(store_region + 4096,
                                         name="kv-store")
        self._store_buf = kernel.alloc_buf(
            store_region, tag=self._store_tag,
            init=store.pack_store(state, store_region))
        self._meta_tag = kernel.tag_new(meta_region + 4096,
                                        name="kv-meta")
        self._meta_buf = kernel.alloc_buf(
            meta_region, tag=self._meta_tag,
            init=store.pack_meta(meta, meta_region))

        #: python-side diagnostics (the lb audit-list precedent): not
        #: part of the store bytes, not part of the chaos snapshot
        self.stats = _new_stats()
        self._store_trusted = {
            "kernel": kernel,
            "store_addr": self._store_buf.addr,
            "store_len": self._store_buf.size,
            "policy": policy,
            "capacity": self.capacity,
            "queue_bound": self.queue_bound,
            "stats": self.stats,
        }
        self._evict_trusted = {
            "kernel": kernel,
            "meta_addr": self._meta_buf.addr,
            "meta_len": self._meta_buf.size,
        }
        evict_sc = SecurityContext()
        sc_mem_add(evict_sc, self._meta_tag, PROT_RW)
        self._evict_gate = kernel.create_gate(
            evict_gate, evict_sc, self._evict_trusted,
            recycled=True, supervise=supervise)
        # the storage gate is standing too, with the eviction gate
        # *delegated by id* into its context — a callgate may re-grant
        # gates it holds but never define new ones (kernel rule), and
        # delegation keeps the metadata pages out of even this gate.
        # Both gates are *recycled* (paper §3.3): a cache op then costs
        # one futex round trip instead of a full compartment build, and
        # the trade-off the paper warns about (the persistent heap is
        # never scrubbed) is moot here because every byte of gate state
        # lives in the tagged regions, re-read whole on each entry.
        store_sc = SecurityContext()
        sc_mem_add(store_sc, self._store_tag, PROT_RW)
        sc_cgate_add(store_sc, self._evict_gate.id)
        # durable mode: the storage gate — and only the storage gate —
        # is granted the disk fd.  The write-ahead log lives in its
        # trusted arg, so every append/barrier/checkpoint happens with
        # exactly the rights the analyzer certifies.
        self.durable = bool(durable) or disk is not None
        self.disk = None
        self._disk_fd = None
        self._wal = None
        self.last_recovery = None
        self.recovery_cycles = 0
        if self.durable:
            layout = WalLayout(self._store_buf.size)
            self.disk = disk if disk is not None else layout.disk(
                name=f"{name}-disk")
            if self.disk.size < layout.size:
                raise WedgeError(
                    f"disk {self.disk.name!r} is {self.disk.size}B; the "
                    f"kv layout needs {layout.size}B")
            self._disk_fd = kernel.disk_open(self.disk)
            sc_fd_add(store_sc, self._disk_fd, FD_RW)
            self._wal = WriteAheadLog(
                kernel, self._disk_fd, layout,
                group_commit=group_commit,
                checkpoint_every=checkpoint_every)
            self._store_trusted["wal"] = self._wal
        self._store_gate = kernel.create_gate(
            store_gate, store_sc, self._store_trusted,
            recycled=True, supervise=supervise)
        if self._wal is not None:
            # mount before the listener exists: recovered disk state
            # (checkpoint + replayed log) wins over the preload
            mark = kernel.costs.checkpoint()
            self.last_recovery = kernel.cgate(
                self._store_gate.id, None, {"op": "recover"})
            self.recovery_cycles = kernel.costs.delta(mark)

    # -- state -------------------------------------------------------------

    def store_bytes(self):
        """The full ``kv-store`` region (main created the tag)."""
        return bytes(self._store_buf.read())

    @property
    def wal(self):
        """The storage gate's write-ahead log (``None`` unless durable)."""
        return self._wal

    # -- data plane --------------------------------------------------------

    def _spawn_islands(self, conn_fd):
        """Build one connection's compartments: parser, writer, pipe.

        The parser's client-fd grant is read-only; the writer's is
        write-only.  Replies cross between them over a pipe so one
        persistent connection can carry any number of pipelined
        commands without re-paying compartment setup.  The parser is
        created last, so every setup charge lands on the cycle clock
        before its first TTL stamp.
        """
        kernel = self.kernel
        n = self.connections_served
        pipe_r, pipe_w = kernel.pipe()
        sc = SecurityContext()
        sc_fd_add(sc, conn_fd, FD_READ)
        sc_fd_add(sc, pipe_w, FD_WRITE)
        sc_cgate_add(sc, self._store_gate.id)
        writer_sc = SecurityContext()
        sc_fd_add(writer_sc, pipe_r, FD_READ)
        sc_fd_add(writer_sc, conn_fd, FD_WRITE)
        writer = kernel.sthread_create(
            writer_sc, self._writer_body,
            {"src": pipe_r, "dst": conn_fd},
            name=f"kv-writer{n}", spawn="thread",
            supervise=self.supervise)
        parser = kernel.sthread_create(
            sc, self._parser_body, {"fd": conn_fd, "out": pipe_w},
            name=f"kv-parser{n}", spawn="thread",
            supervise=self.supervise)
        return parser, writer, pipe_r, pipe_w

    def handle_connection(self, conn_fd):
        """Parser streams replies into a pipe; a writer pumps them out.

        One body for both schedulers, written over ``co_*``.  The httpd
        tier parks one *persistent* pipelined connection per replica
        here, so a connection is long-lived by design: it waits for the
        client's first bytes, builds the islands, then parks on
        ``co_sthread_join`` until they exit (the islands themselves are
        OS threads; their bodies block on the client fd).  Under the
        reactor N connections cost N parked continuations, not N pool
        threads; under threads the same waits block this connection's
        thread.
        """
        kernel = self.kernel
        try:
            yield from kernel.co_wait_readable(conn_fd)
        except WedgeError:
            pass    # timed out or reset: the parser's read reports it
        parser, writer, pipe_r, pipe_w = self._spawn_islands(conn_fd)
        try:
            yield from kernel.co_sthread_join(parser, timeout=30.0)
        except (SthreadFaulted, CompartmentDown) as exc:
            # contained: this connection drops, the store and the
            # metadata are untouched and the listener lives on
            self.errors.append(f"parser faulted: {exc}")
        finally:
            # half-close the reply pipe so the writer drains and exits
            try:
                kernel.close(pipe_w)
            except WedgeError:
                pass
        try:
            yield from kernel.co_sthread_join(writer, timeout=30.0)
        except (SthreadFaulted, CompartmentDown) as exc:
            self.errors.append(f"writer faulted: {exc}")
        try:
            kernel.close(pipe_r)
        except WedgeError:
            pass

    # -- compartment bodies ------------------------------------------------

    def _parser_body(self, arg):
        """The parser compartment: untrusted lines -> storage gate.

        Replies to a burst of pipelined commands go into the pipe
        (``out``) as one write, made before the parser next waits for
        input, so a long-lived connection is answered burst by burst
        and the writer's syscall count does not depend on how it races
        the parser.
        """
        kernel = self.kernel
        fd = arg["fd"]
        out = arg["out"]
        store_id = None
        for gate_id in kernel.current().gates:
            if kernel.gate_record(gate_id).entry.__name__ == "store_gate":
                store_id = gate_id
        buf = bytearray()
        replies = []
        while True:
            while b"\r\n" not in buf:
                if replies:
                    kernel.send(out, b"".join(replies))
                    replies = []
                try:
                    chunk = kernel.recv(fd, 4096, timeout=10.0)
                except NetworkError:
                    chunk = None
                if not chunk:
                    break
                buf += chunk
            if b"\r\n" not in buf:
                break
            line, _, rest = bytes(buf).partition(b"\r\n")
            buf = bytearray(rest)
            # the untrusted-input surface of the cache tier
            maybe_trigger_exploit(kernel, line, context={
                "variant": self.variant,
                "kernel": kernel,
                "fd": fd,
                "store_tag": "kv-store",
                "meta_tag": "kv-meta",
                "evict_gate_id": self._evict_gate.id,
            })
            if line.strip().upper() == b"QUIT":
                replies.append(b"BYE\r\n")
                break
            op, err = parse_command(line)
            if err is not None:
                replies.append(b"ERR " + err + b"\r\n")
                continue
            try:
                reply = kernel.cgate(store_id, None, op)
            except (CallgateError, CompartmentDown):
                replies.append(b"ERR storage unavailable\r\n")
                continue
            replies.append(format_reply(op["op"], reply) + b"\r\n")
        if replies:
            kernel.send(out, b"".join(replies))
        return None

    def _writer_body(self, arg):
        """The reply pump: pipe in, client fd out, half-close at EOF.

        It parks without a syscall until the parser's first burst
        lands, so its first charge cannot race the parser's first TTL
        stamp.  Later it re-enters ``recv`` as soon as it has forwarded
        a reply — in practice ahead of the client's next command, but
        not by construction (parking on every burst would cost a thread
        hand-off per operation).
        """
        kernel = self.kernel
        src = arg["src"]
        dst = arg["dst"]
        try:
            run_blocking(kernel.co_wait_readable(src))
        except WedgeError:
            pass    # timed out or reset: the recv below reports it
        while True:
            try:
                data = kernel.recv(src, 4096, timeout=30.0)
            except WedgeError:
                break
            if not data:
                break
            try:
                kernel.send(dst, data)
            except WedgeError:
                break
        try:
            kernel.shutdown(dst)
        except WedgeError:
            pass
        return None


# -- the monolithic contrast -------------------------------------------------

class MonolithicKv(Server):
    """Same protocol, no islands: parser and store share main's pages."""

    variant = "kv-mono"

    def __init__(self, network, addr, *, policy=CACHE_ASIDE,
                 mode=store.MODE_LRU, capacity=DEFAULT_CAPACITY,
                 queue_bound=DEFAULT_QUEUE_BOUND, preload=None,
                 supervise=None, name="kv-mono",
                 store_region=DEFAULT_STORE_REGION):
        if policy not in POLICIES:
            raise WedgeError(f"unknown cache policy {policy!r}")
        super().__init__()
        self.network = network
        self.addr = addr
        self.policy = policy
        self.capacity = int(capacity)
        self.queue_bound = int(queue_bound)
        self.supervise = supervise
        self.kernel = Kernel(net=network, name=name)
        self.main = self.kernel.start_main()

        state = store.empty_store()
        self._oracle = store.EvictionOracle(mode)
        for key, value in sorted((preload or {}).items()):
            key, value = bytes(key), bytes(value)
            state["cache"].append((key, value, 0))
            state["backing"].append((key, value))
            self._oracle.admit(key)
        # the whole store sits in main's ordinary heap: one hijacked
        # command line away from any reader
        self._store_buf = self.kernel.alloc_buf(
            store_region, init=store.pack_store(state, store_region))
        self._store_region = store_region
        self.stats = _new_stats()

    def store_bytes(self):
        return bytes(self._store_buf.read())

    def handle_connection(self, conn_fd):
        """Everything in main: parse, mutate the store, reply."""
        kernel = self.kernel
        buf = bytearray()
        out = []
        while True:
            while b"\r\n" not in buf:
                try:
                    chunk = kernel.recv(conn_fd, 4096, timeout=10.0)
                except NetworkError:
                    chunk = None
                if not chunk:
                    break
                buf += chunk
            if b"\r\n" not in buf:
                break
            line, _, rest = bytes(buf).partition(b"\r\n")
            buf = bytearray(rest)
            maybe_trigger_exploit(kernel, line, context={
                "variant": self.variant,
                "kernel": kernel,
                "fd": conn_fd,
            })
            if line.strip().upper() == b"QUIT":
                out.append(b"BYE")
                break
            op, err = parse_command(line)
            if err is not None:
                out.append(b"ERR " + err)
                continue
            out.append(format_reply(op["op"], self._dispatch(op)))
        if out:
            kernel.send(conn_fd, b"\r\n".join(out) + b"\r\n")
            try:
                kernel.shutdown(conn_fd)
            except WedgeError:
                pass

    def _dispatch(self, op):
        state = store.unpack_store(self._store_buf.read())

        def evict(action, key=None):
            if action == "pick":
                return self._oracle.pick()
            getattr(self._oracle, action)(key)
            return None

        reply, dirty = apply_op(
            state, evict, op, policy=self.policy,
            capacity=self.capacity, queue_bound=self.queue_bound,
            stats=self.stats, now=self.kernel.costs.cycles())
        if dirty:
            self._store_buf.write(
                store.pack_store(state, self._store_region))
        return reply


# -- lint/verify wiring ------------------------------------------------------

def analysis_compartments(server, conn_fd=3):
    """CompartmentSpecs for ``python -m repro lint`` (repro.analysis).

    ``conn_fd`` models the client socket; ``conn_fd+1``/``conn_fd+2``
    model the reply pipe's read/write ends.
    """
    from repro.analysis.lint import (CompartmentSpec,
                                     gate_compartment_specs)
    kernel = server.kernel
    app = "kv"
    pipe_r, pipe_w = conn_fd + 1, conn_fd + 2
    sc = SecurityContext()
    sc_fd_add(sc, conn_fd, FD_READ)
    sc_fd_add(sc, pipe_w, FD_WRITE)
    sc_cgate_add(sc, server._store_gate.id)
    specs = [CompartmentSpec(
        "parser", app, kernel, sc,
        [(KvServer._parser_body,
          {"self": server, "arg": {"fd": conn_fd, "out": pipe_w}})],
        sthread_prefix="kv-parser", exploit_facing=True,
        sensitive_tags=("kv-store", "kv-meta"))]
    # both gates are standing (main-owned): the parser's context pulls
    # in the storage gate by delegated id, and a synthetic holder does
    # the same for the eviction gate so the linter diffs it too
    specs += gate_compartment_specs(sc, kernel, app=app)
    holder = SecurityContext()
    sc_cgate_add(holder, server._evict_gate.id)
    specs += gate_compartment_specs(holder, kernel, app=app)
    writer_sc = SecurityContext()
    sc_fd_add(writer_sc, pipe_r, FD_READ)
    sc_fd_add(writer_sc, conn_fd, FD_WRITE)
    specs.append(CompartmentSpec(
        "writer", app, kernel, writer_sc,
        [(KvServer._writer_body,
          {"self": server, "arg": {"src": pipe_r, "dst": conn_fd}})],
        sthread_prefix="kv-writer"))
    return specs
