"""Static policy inference over the call graph.

:func:`infer_policy` runs :class:`~repro.analysis.callgraph.CallGraphAnalysis`
over one compartment's body functions and collects the privileges any
path could exercise, in all four dimensions of a ``SecurityContext``:

* **memory** — every ``kernel.mem_read``/``mem_write``/``smalloc``/
  ``sfree``/``alloc_buf`` and every ``Buffer.read``/``write`` whose
  target resolves to tagged memory becomes a tag grant (``r`` joins to
  ``rw``);
* **file descriptors** — ``send``/``write`` demand ``FD_WRITE``,
  ``recv``/``recv_exact``/``read``/``accept`` demand ``FD_READ`` on the
  descriptor they name.  Descriptors the compartment opens *itself*
  (``open``/``pipe``/``listen``/``connect``) are marked and need no
  declared grant;
* **callgates** — ``kernel.cgate`` targets resolve through the
  :class:`GateRef` values handed out for ``kernel.current().gates`` and
  ``kernel.gate_record``;
* **syscalls** — every syscall-gated kernel entry point reached is
  recorded, to be checked against the compartment's SELinux allow-set.

Anything a grant-carrying operation targets that the analysis cannot
resolve lands in ``unresolved`` — the module keeps crowbar/static.py's
contract that an unsound "static" tool would be worse than none.
"""

from __future__ import annotations

import ast
import functools
import inspect

from repro.analysis.callgraph import (AbstractInstance, CallGraphAnalysis,
                                      ValueSet, _CallSite)
from repro.core.errors import WedgeError
from repro.core.kernel import Buffer, Kernel
from repro.core.policy import FD_READ, FD_WRITE
from repro.core.tags import Tag
from repro.resilience.retry import call_with_retry


class _Marker:
    __slots__ = ("label",)

    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return f"<{self.label}>"


#: Result of ``kernel.malloc``/``stack_alloc``/untagged ``alloc_buf``:
#: private memory that needs no grant.
PRIVATE_ALLOC = _Marker("private-alloc")
#: Result of ``open``/``pipe``/``listen``/``connect``/``accept``: a
#: descriptor the compartment created itself, not a granted one.
OPENED_FD = _Marker("opened-fd")


class BoundCall:
    """``functools.partial`` modelled abstractly: target + frozen args.

    ``functools.partial`` is a class in a module the analysis never
    follows, so without this model a wrapped call site would evaluate to
    an opaque value and the wrapped operation — often a kernel method or
    a callgate invocation hidden behind a resilience wrapper — would
    silently vanish from the inferred policy.  One ``BoundCall`` exists
    per ``partial(...)`` call expression; its value sets grow
    monotonically across fixpoint rounds.
    """

    __slots__ = ("targets", "args", "kwargs")

    def __init__(self):
        self.targets = ValueSet()
        self.args = []      # per-position ValueSets, left to right
        self.kwargs = {}    # keyword -> ValueSet

    def __repr__(self):
        return f"<BoundCall {list(self.targets)!r}>"


class GateRef:
    """Symbolic handle for one callgate grant (entry + gate context)."""

    __slots__ = ("entry", "gate_sc", "trusted", "gate_id", "recycled")

    def __init__(self, entry, gate_sc=None, trusted=None, gate_id=None,
                 recycled=False):
        self.entry = entry
        self.gate_sc = gate_sc
        self.trusted = trusted
        self.gate_id = gate_id
        self.recycled = recycled

    @property
    def name(self):
        return getattr(self.entry, "__name__", f"gate{self.gate_id}")

    def __repr__(self):
        return f"<GateRef {self.name}>"


class InferredPolicy:
    """The statically required privilege set of one compartment."""

    def __init__(self):
        self.mem = {}          # tag id -> "r" | "rw"
        self.mem_names = {}    # tag id -> tag name (when known)
        self.fds = {}          # fd -> FD_* bits
        self.gates = set()     # callgate entry names
        self.syscalls = set()
        self.unresolved = []   # (context, source expression)
        self.visited = []      # qualnames walked
        self.rounds = 0
        self.converged = True

    def add_mem(self, tag_id, mode, name=None):
        previous = self.mem.get(tag_id)
        self.mem[tag_id] = "rw" if "rw" in (previous, mode) else mode
        if name:
            self.mem_names.setdefault(tag_id, name)

    def add_fd(self, fd, bits):
        self.fds[fd] = self.fds.get(fd, 0) | bits

    def __repr__(self):
        return (f"<InferredPolicy mem={self.mem} fds={self.fds} "
                f"gates={sorted(self.gates)} "
                f"unresolved={len(self.unresolved)}>")


#: kernel method -> (syscall name or None, handler key)
_MEM_MODES = {"mem_read": "r", "mem_write": "rw"}
_FD_OPS = {"send": ("send", FD_WRITE), "write": ("write", FD_WRITE),
           "recv": ("recv", FD_READ), "recv_exact": ("recv", FD_READ),
           "read": ("read", FD_READ), "accept": ("accept", FD_READ),
           "shutdown": ("shutdown", FD_WRITE),
           "disk_read": ("disk_read", FD_READ),
           "disk_write": ("disk_write", FD_WRITE),
           "disk_fsync": ("disk_fsync", FD_WRITE)}
_FD_MAKERS = {"open": "open", "listen": "listen", "connect": "connect",
              "disk_open": "disk_open"}
_SYSCALL_ONLY = {"close": "close", "tag_new": "tag_new",
                 "tag_delete": "tag_delete",
                 "sthread_create": "sthread_create", "fork": "fork",
                 "pthread_create": "pthread_create", "setuid": "setuid",
                 "chroot": "chroot"}

#: method names that imply a privileged operation: a call to one of
#: these on an *unresolved* receiver is reported rather than dropped
_WATCHLIST = frozenset(["mem_read", "mem_write", "smalloc", "sfree",
                        "alloc_buf", "smalloc_on", "send", "recv",
                        "recv_exact", "cgate"])


class KernelModel:
    """Intrinsics: the abstract meaning of substrate operations.

    Intercepts calls whose receiver is the (real) :class:`Kernel`, a
    (real) :class:`Buffer`, a :class:`Tag` standing in for a buffer the
    analysed code would allocate, or a :class:`GateRef`, and records
    their privilege demands into an :class:`InferredPolicy`.
    """

    def __init__(self, kernel, policy, gates=()):
        self.kernel = kernel
        self.policy = policy
        self.gate_refs = tuple(gates)
        sthread = AbstractInstance("sthread", label="current-sthread")
        sthread.attr_set("gates").add(tuple(self.gate_refs))
        self.sthread = sthread
        self._partials = {}   # id(call node) -> BoundCall

    # -- engine hooks ------------------------------------------------------

    def attribute(self, base, attr):
        if isinstance(base, Buffer) and attr == "addr":
            return ValueSet([base])   # offset math keeps the tag
        if base is PRIVATE_ALLOC and attr == "addr":
            return ValueSet([base])   # an untagged buffer's pages
        if isinstance(base, GateRef):
            if attr == "entry":
                return ValueSet([base.entry])
            if attr in ("name", "__name__"):
                return ValueSet([base.name])
            if attr in ("id", "gate_id"):
                return ValueSet([base])
            return ValueSet()
        return None

    def method_call(self, base, attr, call, walker):
        if inspect.ismodule(base):
            # attribute-style spellings of the intercepted callables
            # (``functools.partial(...)``) arrive here, not plain_call
            target = getattr(base, attr, None)
            if target is functools.partial or target is call_with_retry:
                return self.plain_call(target, call, walker)
            return None
        if isinstance(base, Kernel):
            return self._kernel_call(attr, call)
        if isinstance(base, Buffer):
            if attr == "read":
                self._record_mem(ValueSet([base]), "r",
                                 "Buffer.read", call.node)
                return ValueSet()
            if attr == "write":
                self._record_mem(ValueSet([base]), "rw",
                                 "Buffer.write", call.node)
                return ValueSet()
            return None
        if isinstance(base, Tag):
            # a Tag models a buffer allocated inside it at runtime
            if attr == "read":
                self.policy.add_mem(base.id, "r", base.name)
                return ValueSet()
            if attr == "write":
                self.policy.add_mem(base.id, "rw", base.name)
                return ValueSet()
            return None
        return None

    def plain_call(self, callee, call, walker):
        # the PR-5 resilience wrappers: resolve *through* them so a
        # retry- or partial-wrapped kernel operation still lands in the
        # policy instead of vanishing behind an opaque value
        if callee is call_with_retry:
            fns = call.arg(0, "fn")
            if fns:
                return self._dispatch_thunks(fns, call, walker)
            return None   # unresolved fn: fall through to source walk
        if callee is functools.partial:
            return self._partial_value(call, walker)
        if isinstance(callee, BoundCall):
            return self._bound_dispatch(callee, call, walker)
        if inspect.ismethod(callee):
            # a bound kernel/buffer method passed around as a value
            # (e.g. through functools.partial) and called plainly
            base = callee.__self__
            if isinstance(base, (Kernel, Buffer, Tag)):
                return self.method_call(base, callee.__name__, call,
                                        walker)
        return None

    def _dispatch_thunks(self, fns, call, walker):
        """Call every value in *fns* with no arguments."""
        inner = _CallSite(call.node, [], [], {}, ValueSet())
        out = ValueSet()
        for fn in fns:
            result = walker.dispatch_value(fn, inner)
            if result is not None:
                out.update(result)
        return out

    def _partial_value(self, call, walker):
        """``functools.partial(f, ...)`` — build/grow the BoundCall."""
        bound = self._partials.get(id(call.node))
        if bound is None:
            bound = self._partials[id(call.node)] = BoundCall()
        if call.args:
            walker.mark(bound.targets.update(call.args[0]))
            for i, values in enumerate(call.args[1:]):
                while len(bound.args) <= i:
                    bound.args.append(ValueSet())
                walker.mark(bound.args[i].update(values))
        for name, values in call.kwargs.items():
            slot = bound.kwargs.setdefault(name, ValueSet())
            walker.mark(slot.update(values))
        return ValueSet([bound])

    def _bound_dispatch(self, bound, call, walker):
        """Calling a BoundCall: frozen args first, then the site's."""
        merged = _CallSite(
            call.node,
            [vs.copy() for vs in bound.args] + list(call.args),
            list(call.star_args),
            {**{name: vs.copy() for name, vs in bound.kwargs.items()},
             **call.kwargs},
            call.kw_rest)
        out = ValueSet()
        for target in bound.targets:
            result = walker.dispatch_value(target, merged)
            if result is not None:
                out.update(result)
        return out

    def unknown_call(self, name, node, walker, *, had_target):
        if name in _WATCHLIST:
            self.policy.unresolved.append(
                (name, ast.unparse(node)))

    # -- kernel methods ----------------------------------------------------

    def _kernel_call(self, attr, call):
        policy = self.policy
        if attr in _MEM_MODES:
            self._record_mem(call.arg(0, "addr"), _MEM_MODES[attr],
                             attr, call.node)
            return ValueSet()
        if attr == "smalloc":
            tags = call.arg(1, "tag")
            self._record_mem(tags, "rw", attr, call.node)
            return tags.copy() if tags else ValueSet()
        if attr == "smalloc_on":
            self._record_mem(call.arg(0, "tag"), "rw", attr, call.node)
            return ValueSet()
        if attr == "sfree":
            self._record_mem(call.arg(0, "addr"), "rw", attr, call.node)
            return ValueSet()
        if attr == "alloc_buf":
            tags = call.arg(1, "tag")
            if tags:
                self._record_mem(tags, "rw", attr, call.node)
                return tags.copy()
            return ValueSet([PRIVATE_ALLOC])
        if attr in ("malloc", "stack_alloc"):
            return ValueSet([PRIVATE_ALLOC])
        if attr in _FD_OPS:
            syscall, bits = _FD_OPS[attr]
            policy.syscalls.add(syscall)
            self._record_fd(call.arg(0, "fd" if attr != "accept"
                                     else "listen_fd"),
                            bits, attr, call.node)
            if attr == "accept":
                return ValueSet([OPENED_FD])
            return ValueSet()
        if attr in _FD_MAKERS:
            policy.syscalls.add(_FD_MAKERS[attr])
            return ValueSet([OPENED_FD])
        if attr == "pipe":
            policy.syscalls.add("pipe")
            return ValueSet([(OPENED_FD, OPENED_FD)])
        if attr in _SYSCALL_ONLY:
            policy.syscalls.add(_SYSCALL_ONLY[attr])
            return ValueSet()
        if attr == "cgate":
            policy.syscalls.add("cgate")
            self._record_gate(call.arg(0, "gate_id"), call.node)
            return ValueSet()
        if attr == "current":
            return ValueSet([self.sthread])
        if attr == "gate_record":
            return self._gate_refs_from(call.arg(0, "gate_id"))
        # caller/promote/getuid/sthread_join/smalloc_off/...: opaque,
        # no privilege demanded from the calling compartment
        return ValueSet()

    # -- resolution --------------------------------------------------------

    def _tag_of(self, value):
        if isinstance(value, Tag):
            return value
        addr = None
        if isinstance(value, Buffer):
            addr = value.addr
        elif isinstance(value, int) and not isinstance(value, bool):
            addr = value
        if addr is None:
            return None
        try:
            segment, _ = self.kernel.space.find(addr)
        except WedgeError:
            return None
        if segment.tag_id is None:
            return PRIVATE_ALLOC   # untagged segment: no grant needed
        tag = self.kernel.tags.get(segment.tag_id)
        if tag is not None:
            return tag
        return Tag(segment.tag_id, segment, None,
                   name=segment.name)   # deleted tag: keep the identity

    def _record_mem(self, values, mode, context, node):
        if not values:
            self.policy.unresolved.append((context, ast.unparse(node)))
            return
        resolved = False
        for value in values:
            if value is PRIVATE_ALLOC:
                resolved = True
                continue
            if value is OPENED_FD:
                continue
            tag = self._tag_of(value)
            if tag is PRIVATE_ALLOC:
                resolved = True
            elif tag is not None:
                self.policy.add_mem(tag.id, mode, tag.name)
                resolved = True
        if not resolved:
            self.policy.unresolved.append((context, ast.unparse(node)))

    def _record_fd(self, values, bits, context, node):
        if not values:
            self.policy.unresolved.append((context, ast.unparse(node)))
            return
        resolved = False
        for value in values:
            if value is OPENED_FD:
                resolved = True
            elif isinstance(value, int) and not isinstance(value, bool):
                self.policy.add_fd(value, bits)
                resolved = True
        if not resolved:
            self.policy.unresolved.append((context, ast.unparse(node)))

    def _gate_refs_from(self, values):
        out = ValueSet()
        for value in values or ():
            if isinstance(value, GateRef):
                out.add(value)
            elif isinstance(value, int) and not isinstance(value, bool):
                try:
                    record = self.kernel.gate_record(value)
                except WedgeError:
                    continue
                out.add(GateRef(record.entry, gate_id=value,
                                recycled=record.recycled))
        return out

    def _record_gate(self, values, node):
        refs = self._gate_refs_from(values)
        if not refs:
            self.policy.unresolved.append(("cgate", ast.unparse(node)))
            return
        for ref in refs:
            self.policy.gates.add(ref.name)


def infer_policy(roots, kernel, *, gates=(), follow=None,
                 max_rounds=None):
    """Infer the static policy for a compartment.

    *roots* is a list of ``(function, bindings)`` pairs — the
    compartment's body functions with the concrete objects their free
    names are bound to at ``sthread_create`` time.  *gates* lists the
    :class:`GateRef` values ``kernel.current().gates`` should expose
    (i.e. what the declared context would hand the compartment).
    """
    policy = InferredPolicy()
    model = KernelModel(kernel, policy, gates=gates)
    kwargs = {}
    if max_rounds is not None:
        kwargs["max_rounds"] = max_rounds
    analysis = CallGraphAnalysis(intrinsics=model, follow=follow,
                                 **kwargs)
    for fn, bindings in roots:
        analysis.add_root(fn, bindings)
    analysis.run()
    # early fixpoint rounds report operands that later rounds resolve;
    # rebuild the unresolved list from one pass over the final state
    policy.unresolved = []
    analysis.walk_once()
    policy.visited = sorted({n.qualname for n in
                             analysis.nodes.values()})
    policy.rounds = analysis.rounds
    policy.converged = analysis.converged
    # deduplicate unresolved entries accumulated across rounds
    policy.unresolved = sorted(set(policy.unresolved))
    return policy
