"""Layer map and outside-in span tracer for the Wedge benchmark.

Two views of where a request's cost goes, both keyed by the module
names of ``src/repro``:

* **Model cycles** come from the public ``kernel.costs.checkpoint()``
  counters.  :data:`KIND_LAYER` assigns every cost kind in
  :data:`repro.core.costs.WEIGHTS` to exactly one layer, so the
  per-layer cycles of a run sum to its end-to-end model cycles.
* **Host time** comes from :class:`Tracer`, which wraps each layer's
  public boundary functions (:data:`BOUNDARIES`) from the outside — no
  file under ``src/`` changes.  A span is one call *into* a layer: a
  call made while the innermost open span on the same thread already
  belongs to that layer is part of that span, not a new one.  A span's
  self time is its duration minus the time of the child spans it
  encloses on the same thread (except :data:`SIDE_LAYERS` spans, which
  stay in their parent's self time too); self CPU comes from the
  per-thread CPU clock, and self wall minus self CPU is time the layer
  spent waiting.

Spans are attributed to the operation in flight when they open (the
load generator keeps one operation in flight and names it in
:attr:`Tracer.op`); spans opened between operations land in the
``None`` bucket and are never divided into per-operation numbers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

from repro.core.costs import WEIGHTS

#: Every cost kind of the model, mapped to the one layer that pays it.
KIND_LAYER = {
    "syscall": "core.kernel",
    "policy_check": "core.sthread",     # smalloc's tag-permission check
    "verified_syscall": "core.kernel",
    "task_create": "core.sthread",
    "task_destroy": "core.sthread",
    "mm_create": "core.sthread",
    "mm_destroy": "core.sthread",
    "pte_copy": "core.sthread",
    "cow_mark": "core.sthread",
    "fd_copy": "core.sthread",
    "segment_create": "core.sthread",
    "segment_destroy": "core.sthread",
    "alloc_init_byte": "core.sthread",
    "scrub_page": "core.sthread",
    "alloc_op": "core.sthread",
    "cert_bind": "core.sthread",
    "futex_roundtrip": "core.callgate",
    "cgate_lookup": "core.callgate",
    "page_copy": "core.memory",         # copy-on-write break on a store
    "tlb_hit": "core.memory",
    "pt_walk": "core.memory",
    "tlb_shootdown": "core.memory",
    "verified_access": "core.memory",
    "observe_emit": "observe",
    "disk_sector_read": "disk",
    "disk_sector_write": "disk",
    "disk_fsync": "disk",
}

#: Layers that model cycles are split into (the values of KIND_LAYER).
CYCLE_LAYERS = ("core.memory", "core.kernel", "core.callgate",
                "core.sthread", "disk", "observe")


def _len_arg(index, name):
    """Byte count of positional argument *index* (or keyword *name*)."""
    def count(args, kwargs, result):
        value = args[index] if len(args) > index else kwargs[name]
        return value if isinstance(value, int) else len(value)
    return count


_KERNEL = "repro.core.kernel:Kernel."

#: layer -> [(target, byte counter or None)].  A target is
#: ``module:attr`` for a function or ``module:Class.method``.  The byte
#: counters feed the layers' ``bytes_per_op`` metrics.
BOUNDARIES = {
    "core.memory": [(_KERNEL + "mem_read", _len_arg(2, "size")),
                    (_KERNEL + "mem_write", _len_arg(2, "data"))],
    "core.kernel": [(_KERNEL + name, None) for name in (
        "send", "recv", "recv_exact", "connect", "accept", "close",
        "pipe", "shutdown", "open", "read", "write")],
    "core.callgate": [(_KERNEL + "cgate", None)],
    "core.sthread": [(_KERNEL + name, None) for name in (
        "sthread_create", "sthread_join", "fork", "pthread_create",
        "tag_new", "tag_delete", "smalloc", "malloc", "sfree")],
    "net.stream": [("repro.net.stream:ByteStream.send", _len_arg(1, "data")),
                   ("repro.net.stream:ByteStream.recv", None),
                   ("repro.net.stream:ByteStream.recv_exact", None)],
    "crypto": [("repro.crypto.mac:hmac_sha256", _len_arg(1, "message")),
               ("repro.crypto.stream:StreamCipher.process",
                _len_arg(1, "data")),
               ("repro.crypto.prf:p_sha256", _len_arg(2, "length")),
               ("repro.crypto.rsa:RsaPublicKey.encrypt",
                _len_arg(1, "message")),
               ("repro.crypto.rsa:RsaPrivateKey.decrypt",
                _len_arg(1, "ciphertext"))],
    "tls": [("repro.tls.records:seal_record", None),
            ("repro.tls.records:open_record", None)],
    "disk": [(_KERNEL + "disk_read", None),
             (_KERNEL + "disk_write", _len_arg(3, "data")),
             (_KERNEL + "disk_fsync", None)],
    "apps.kv.store": [("repro.apps.kv.store:" + name, None) for name in (
        "pack_store", "unpack_store", "pack_meta", "unpack_meta")],
    "apps.kv.wal": [("repro.apps.kv.wal:WriteAheadLog." + name, None)
                    for name in ("append", "maybe_sync", "checkpoint",
                                 "recover")],
    "observe": [("repro.observe.bus:EventBus.emit", None)],
    # stdlib hand-offs: where net.serve, core.sthread and net.stream
    # start threads and block on each other
    "sched": [("threading:Thread.start", None),
              ("threading:Condition.wait", None),
              ("threading:Event.wait", None)],
}

#: Layers counted beside the program's layers, not carved out of them:
#: a stdlib wait inside ``ByteStream.recv`` is time net.stream waited,
#: so a sched span stays in its parent's self time as well.
SIDE_LAYERS = ("sched",)

#: The layers that report the generic calls/self/wait metrics.
SPAN_LAYERS = tuple(layer for layer in BOUNDARIES if layer != "sched")


def cycles_by_layer(before, after):
    """Model cycles per layer between two summed cost checkpoints."""
    out = dict.fromkeys(CYCLE_LAYERS, 0)
    for kind, units in after.items():
        delta = units - before.get(kind, 0)
        if delta:
            out[KIND_LAYER[kind]] += WEIGHTS[kind] * delta
    return out


def _resolve(target):
    """``module:Class.attr`` -> (owner object, value)."""
    modname, _, path = target.partition(":")
    owner = importlib.import_module(modname)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, owner.__dict__[attr]


class Tracer:
    """Wraps the :data:`BOUNDARIES` and records spans per OS thread.

    Each thread keeps its own open-span stack and its own table of
    closed-span totals keyed ``(op bucket, layer, function)`` ->
    ``[calls, self CPU ns, self wall ns, bytes]``, so recording takes
    no lock.  :meth:`threads` hands the tables out at the end.
    """

    def __init__(self):
        #: the operation in flight (its type name), or None between ops
        self.op = None
        self._local = threading.local()
        self._tables = []     # (thread name, thread ident, table)
        self._tables_lock = threading.Lock()
        self._patches = []    # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack, local.table = [], {}
            current = threading.current_thread()
            with self._tables_lock:
                self._tables.append((current.name, current.ident,
                                     local.table))
            return local.stack, local.table

    def wrap(self, layer, name, fn, nbytes=None):
        """*fn* with a span around each call into *layer*."""
        clock = time.perf_counter_ns
        cpu_clock = time.thread_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = self._thread_state()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            # The CPU clock is a system call, so a span's wall edges are
            # taken at the midpoint of each CPU-clock read: a span that
            # never blocks then reads as much wall as CPU, and the read's
            # cost outside the span stays with the parent in both clocks.
            # span = [layer, op bucket, 2 * wall0, cpu0, child wall,
            #         child cpu]
            before = clock()
            cpu0 = cpu_clock()
            span = [layer, self.op, before + clock(), cpu0, 0, 0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                before = clock()
                cpu = cpu_clock() - span[3]
                wall = (before + clock() - span[2]) // 2
                stack.pop()
                if stack and layer not in SIDE_LAYERS:
                    stack[-1][4] += wall
                    stack[-1][5] += cpu
                key = (span[1], layer, name)
                totals = table.get(key)
                if totals is None:
                    totals = table[key] = [0, 0, 0, 0]
                totals[0] += 1
                totals[1] += cpu - span[5]
                totals[2] += wall - span[4]
            if nbytes is not None:
                totals[3] += nbytes(args, kwargs, result)
            return result
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every boundary, including ``from x import f`` aliases in
        loaded ``repro`` modules and same-object class aliases (such as
        ``StreamCipher.encrypt = process``)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, targets in BOUNDARIES.items():
            for target, nbytes in targets:
                owner, original = _resolve(target)
                name = target.partition(":")[2]
                wrapper = self.wrap(layer, name, original, nbytes)
                if isinstance(owner, type):
                    aliases = [(owner, key) for key, value
                               in list(owner.__dict__.items())
                               if value is original]
                else:
                    aliases = [(module, key)
                               for modname, module in list(
                                   sys.modules.items())
                               if modname.split(".")[0] == "repro"
                               and module is not None
                               for key, value in list(vars(module).items())
                               if value is original]
                for holder, key in aliases:
                    setattr(holder, key, wrapper)
                    self._patches.append((holder, key, original))
        return self

    def uninstall(self):
        """Restore every wrapped attribute."""
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def threads(self):
        """``[(thread name, ident, {key: totals})]`` recorded so far."""
        with self._tables_lock:
            return [(name, ident, dict(table))
                    for name, ident, table in self._tables]
