"""The ``lb`` app: a load balancer that is itself Wedge-partitioned.

The balancer fronting the cluster is infrastructure — and privileged
infrastructure is exactly what the paper says to split.  Three
compartments, three privilege islands:

* the **listener** (one ``lb-listener`` sthread per connection) reads
  the untrusted 8-byte routing preamble off the client socket.  It is
  the exploit surface, and it holds *nothing*: read access to the
  client fd plus the right to invoke the route gate.  It can never see
  the ring or the health table.
* the **router** (the ``route_gate`` callgate) owns the consistent-hash
  ring and the replica health table, both in private tagged memory
  (``lb-ring``, ``lb-health``, read-only even to the gate).  Given a
  key it returns a preference order over *alive* replicas — and logs
  every decision to an audit trail the campaign replays to prove no
  request was ever routed to a dead kernel after its breaker opened.
* the **health-checker** (the ``health_gate`` callgate) holds the only
  inter-kernel probe fds, opened per sweep inside the gate's own
  fd-table and closed before it returns.  It drives one
  :class:`~repro.resilience.CircuitBreaker` per replica: consecutive
  probe failures trip the breaker and zero the replica's health byte
  (ejection); once the cooldown elapses a single half-open probe
  re-admits it.  It is the only writer of ``lb-health``.

Traffic never transits a privileged compartment: after routing, the
main loop spawns two ``lb-fwd`` splice sthreads per connection, each
holding exactly one readable fd and one writable fd, which copy bytes
until EOF and propagate the half-close (``kernel.shutdown``).  TLS runs
end-to-end between client and replica — the balancer cannot read the
plaintext it forwards.
"""

from __future__ import annotations

import time

from repro.attacks.exploit import maybe_trigger_exploit
from repro.cluster.health import PING, PONG
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.core.errors import (CallgateError, CompartmentDown,
                               ConnectionShed, NetworkError,
                               SthreadFaulted, WedgeError)
from repro.core.kernel import Kernel
from repro.core.memory import PROT_READ, PROT_RW
from repro.core.policy import (FD_READ, FD_WRITE, SecurityContext,
                               sc_cgate_add, sc_fd_add, sc_mem_add)
from repro.net.serve import Server
from repro.observe.events import (CLUSTER_EJECTED, CLUSTER_FAILOVER,
                                  CLUSTER_RECOVERED)
from repro.resilience import CLOSED, OPEN, CircuitBreaker

#: The routing key: the first this-many bytes of the preamble payload.
ROUTE_KEY_LEN = 8
#: Preamble payloads above this are rejected without reading further.
MAX_PREAMBLE = 512
#: Splice read size.
FORWARD_CHUNK = 4096


def encode_preamble(key):
    """The client-side wire form: ``u16 length || payload``.

    The payload is normally exactly the 8-byte routing key, but the
    length prefix makes the preamble *parser* — the balancer's
    untrusted-input surface — accept attacker-sized input, which is
    precisely what the listener compartment is sized for.
    """
    payload = bytes(key)
    if not payload or len(payload) > MAX_PREAMBLE:
        raise WedgeError(f"preamble must be 1..{MAX_PREAMBLE} bytes")
    return len(payload).to_bytes(2, "big") + payload


# -- the health-checker's probe (runs inside the health gate) ---------------

def probe_backend(kernel, addr, timeout=2.0):
    """One liveness probe: connect, ``ping``, expect ``OK``.

    The probe fd exists only in the invoking gate compartment's
    fd-table.  Every failure mode is typed and prompt: a refused or
    mid-close connect is :class:`~repro.core.errors.ConnectionRefused`
    (never a hang), a reset or timed-out exchange just reports the
    replica down.  A shed connect means the node is up but saturated —
    that is overload, not death, so it counts as alive.
    """
    try:
        fd = kernel.connect(addr)
    except ConnectionShed:
        return True
    except NetworkError:
        return False
    try:
        kernel.send(fd, PING)
        return kernel.recv_exact(fd, len(PONG), timeout=timeout) == PONG
    except NetworkError:
        return False
    finally:
        try:
            kernel.close(fd)
        except WedgeError:
            pass


# -- callgate entry points --------------------------------------------------

def route_gate(trusted, arg):
    """Pick replicas for a routing key; ring and health stay in here.

    Reads the serialized ring and the health table whole (the gate's
    only two memory grants, both read-only) and returns the key's
    preference order filtered to alive replicas.  Every decision lands
    on the audit trail: the proof obligation "no request is ever routed
    to a dead kernel after its breaker opens" is a replay of this log.
    """
    kernel = trusted["kernel"]
    ring = HashRing.deserialize(
        kernel.mem_read(trusted["ring_addr"], trusted["ring_len"]))
    alive = list(kernel.mem_read(trusted["health_addr"],
                                 trusted["health_len"]))
    key = bytes(arg["key"])
    primary = ring.route(key)
    order = ring.order(key, alive=alive)
    decision = {"key": key, "primary": primary, "order": order,
                "alive": alive}
    trusted["audit"].append(decision)
    if order and order[0] != primary:
        obs = trusted["obs"]
        if obs is not None and obs.enabled:
            obs.emit(CLUSTER_FAILOVER, comp=kernel.current().name,
                     key=key.hex(), primary=primary, chosen=order[0],
                     reason="primary-ejected")
    return decision


def _set_health(kernel, trusted, index, value):
    """Flip one replica's health byte (whole-block read-modify-write)."""
    health = bytearray(kernel.mem_read(trusted["health_addr"],
                                       trusted["health_len"]))
    health[index] = value
    kernel.mem_write(trusted["health_addr"], bytes(health))


def _mark_failure(kernel, trusted, index):
    """Count one failure; at the threshold, trip the breaker and eject."""
    counts = trusted["fail_counts"]
    counts[index] += 1
    if counts[index] < trusted["threshold"]:
        return {"ok": True, "ejected": False}
    breaker = trusted["breakers"][index]
    breaker.trip()
    _set_health(kernel, trusted, index, 0)
    obs = trusted["obs"]
    if obs is not None and obs.enabled:
        obs.emit(CLUSTER_EJECTED, comp=kernel.current().name,
                 backend=trusted["backends"][index]["name"],
                 fails=counts[index])
    return {"ok": True, "ejected": True}


def health_gate(trusted, arg):
    """Sweep every replica, or record one reported failure.

    ``op="report"`` is the data path telling on a replica it could not
    reach; ``op="sweep"`` probes each replica according to its breaker
    state — closed replicas get a liveness check (failures count toward
    ejection), open ones get at most the single half-open probe their
    cooldown admits (success re-admits, failure re-opens with escalated
    cooldown).
    """
    kernel = trusted["kernel"]
    if arg.get("op") == "report":
        return _mark_failure(kernel, trusted, int(arg["index"]))
    ejected = []
    recovered = []
    for entry in trusted["backends"]:
        index = entry["index"]
        breaker = trusted["breakers"][index]
        if breaker.state == OPEN and not breaker.try_probe():
            continue             # cooling down: no probe this sweep
        up = probe_backend(kernel, entry["health"],
                           timeout=trusted["probe_timeout"])
        if breaker.state == CLOSED:
            if up:
                trusted["fail_counts"][index] = 0
            elif _mark_failure(kernel, trusted, index)["ejected"]:
                ejected.append(entry["name"])
        elif up:
            # the single admitted half-open probe succeeded (or we are
            # resolving one a crashed incarnation left behind)
            breaker.probe_succeeded()
            trusted["fail_counts"][index] = 0
            _set_health(kernel, trusted, index, 1)
            recovered.append(entry["name"])
            obs = trusted["obs"]
            if obs is not None and obs.enabled:
                obs.emit(CLUSTER_RECOVERED, comp=kernel.current().name,
                         backend=entry["name"],
                         recoveries=breaker.recoveries)
        else:
            breaker.probe_failed()
    health = kernel.mem_read(trusted["health_addr"],
                             trusted["health_len"])
    return {"ok": True, "health": list(health), "ejected": ejected,
            "recovered": recovered}


# -- the server --------------------------------------------------------------


class LbServer(Server):
    """The partitioned balancer: listener / router / health-checker."""

    variant = "lb"

    def __init__(self, network, addr, backends, *, vnodes=DEFAULT_VNODES,
                 failure_threshold=1, breaker_policy=None,
                 probe_timeout=2.0, clock=time.monotonic, supervise=None,
                 managed=(), name="lb"):
        super().__init__()
        self.network = network
        self.addr = addr
        #: list of {"name", "addr", "health"} dicts, index == ring index
        self.backends = [dict(b) for b in backends]
        if not self.backends:
            raise WedgeError("lb needs at least one backend")
        self.supervise = supervise
        #: sub-servers (replicas, responders) whose lifecycle this
        #: server owns — the chaos/lint builders hand the harness one
        #: object to start and stop
        self.managed = list(managed)
        self.kernel = Kernel(net=network, name=name)
        self.main = self.kernel.start_main()
        #: the fronted httpd's public key, set by builders so TLS
        #: clients can pin it (the balancer itself never holds a key)
        self.public_key = None

        kernel = self.kernel
        n = len(self.backends)
        self.ring = HashRing([b["name"] for b in self.backends],
                             vnodes=vnodes)
        blob = self.ring.serialize()
        self._ring_tag = kernel.tag_new(len(blob) + 1024, name="lb-ring")
        self._ring_buf = kernel.alloc_buf(len(blob), tag=self._ring_tag,
                                          init=blob)
        self._health_tag = kernel.tag_new(n + 1024, name="lb-health")
        self._health_buf = kernel.alloc_buf(n, tag=self._health_tag,
                                            init=b"\x01" * n)
        self.breakers = [CircuitBreaker(breaker_policy, clock=clock)
                         for _ in range(n)]
        #: routing decisions, in order (the no-dead-routing proof)
        self.audit = []
        self._route_trusted = {
            "kernel": kernel,
            "ring_addr": self._ring_buf.addr,
            "ring_len": self._ring_buf.size,
            "health_addr": self._health_buf.addr,
            "health_len": n,
            "audit": self.audit,
            "obs": kernel.observe,
        }
        self._health_trusted = {
            "kernel": kernel,
            "health_addr": self._health_buf.addr,
            "health_len": n,
            "backends": [{"index": i, "name": b["name"],
                          "health": b["health"]}
                         for i, b in enumerate(self.backends)],
            "breakers": self.breakers,
            "fail_counts": [0] * n,
            "threshold": int(failure_threshold),
            "probe_timeout": float(probe_timeout),
            "obs": kernel.observe,
        }
        health_sc = SecurityContext()
        sc_mem_add(health_sc, self._health_tag, PROT_RW)
        self._health_gate = kernel.create_gate(
            health_gate, health_sc, self._health_trusted,
            supervise=supervise)

        self.requests_forwarded = 0
        self.last_backend = None
        self.workers = []

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        for server in self.managed:
            server.start()
        return super().start()

    def stop(self):
        super().stop()
        for server in self.managed:
            server.stop()

    # -- control plane (invoked from main, the trusted master) -------------

    def health_sweep(self):
        """Run one health-checker sweep; returns its report."""
        return self.kernel.cgate(self._health_gate.id, None,
                                 {"op": "sweep"})

    def report_backend_failure(self, index):
        """Data path telling on a replica the splice could not reach."""
        return self.kernel.cgate(self._health_gate.id, None,
                                 {"op": "report", "index": int(index)})

    def health_bytes(self):
        """The current health table (main holds the tag read-write)."""
        return bytes(self._health_buf.read())

    # -- data plane --------------------------------------------------------

    def handle_connection(self, conn_fd):
        """Listener sthread for the preamble, then splice to a replica."""
        kernel = self.kernel
        n = self.connections_served
        sc = SecurityContext()
        sc_fd_add(sc, conn_fd, FD_READ)
        route_sc = SecurityContext()
        sc_mem_add(route_sc, self._ring_tag, PROT_READ)
        sc_mem_add(route_sc, self._health_tag, PROT_READ)
        sc_cgate_add(sc, route_gate, route_sc, self._route_trusted,
                     supervise=self.supervise)
        worker = kernel.sthread_create(
            sc, self._worker_body, {"fd": conn_fd},
            name=f"lb-listener{n}", spawn="thread",
            supervise=self.supervise)
        self.workers.append(worker)
        try:
            decision = kernel.sthread_join(worker, timeout=20.0)
        except (SthreadFaulted, CompartmentDown) as exc:
            # contained: this connection drops, the ring and health
            # table are untouched and the listener socket lives on
            self.errors.append(f"listener faulted: {exc}")
            return
        if not decision or not decision.get("order"):
            return
        self._splice(conn_fd, decision)

    def _splice(self, conn_fd, decision):
        """Connect to the first reachable replica and pump bytes."""
        kernel = self.kernel
        backend_fd = None
        chosen = None
        for index in decision["order"]:
            try:
                backend_fd = kernel.connect(self.backends[index]["addr"])
                chosen = index
                break
            except NetworkError:
                # the router thought it was alive; tell the checker and
                # fail over to the next replica in preference order
                self.report_backend_failure(index)
                obs = kernel.observe
                if obs.enabled:
                    obs.emit(CLUSTER_FAILOVER, comp=self.main.name,
                             backend=self.backends[index]["name"],
                             reason="connect-failed")
        if backend_fd is None:
            return
        n = self.connections_served
        up_sc = SecurityContext()
        sc_fd_add(up_sc, conn_fd, FD_READ)
        sc_fd_add(up_sc, backend_fd, FD_WRITE)
        down_sc = SecurityContext()
        sc_fd_add(down_sc, backend_fd, FD_READ)
        sc_fd_add(down_sc, conn_fd, FD_WRITE)
        up = kernel.sthread_create(
            up_sc, self._forward_body,
            {"src": conn_fd, "dst": backend_fd},
            name=f"lb-fwd{n}u", spawn="thread", supervise=self.supervise)
        down = kernel.sthread_create(
            down_sc, self._forward_body,
            {"src": backend_fd, "dst": conn_fd},
            name=f"lb-fwd{n}d", spawn="thread", supervise=self.supervise)
        for st in (up, down):
            try:
                kernel.sthread_join(st, timeout=30.0)
            except (SthreadFaulted, CompartmentDown) as exc:
                self.errors.append(f"forwarder faulted: {exc}")
        try:
            kernel.close(backend_fd)
        except WedgeError:
            pass
        self.requests_forwarded += 1
        self.last_backend = chosen

    # -- compartment bodies ------------------------------------------------

    def _worker_body(self, arg):
        """The listener compartment: untrusted preamble -> route gate."""
        kernel = self.kernel
        fd = arg["fd"]
        length = int.from_bytes(
            kernel.recv_exact(fd, 2, timeout=10.0), "big")
        if not 0 < length <= MAX_PREAMBLE:
            return None            # oversized preamble: drop, unread
        preamble = kernel.recv_exact(fd, length, timeout=10.0)
        # the untrusted-input surface of the balancer
        maybe_trigger_exploit(kernel, preamble, context={
            "variant": self.variant,
            "kernel": kernel,
            "fd": fd,
            "ring_tag": "lb-ring",
            "health_tag": "lb-health",
        })
        key = bytes(preamble[:ROUTE_KEY_LEN]).ljust(ROUTE_KEY_LEN, b"\0")
        gates = {}
        for gate_id in kernel.current().gates:
            gates[kernel.gate_record(gate_id).entry.__name__] = gate_id
        try:
            return kernel.cgate(gates["route_gate"], None, {"key": key})
        except (CallgateError, CompartmentDown):
            return None   # a dead router routes nowhere

    def _forward_body(self, arg):
        """One splice direction: copy until EOF, propagate half-close."""
        kernel = self.kernel
        src = arg["src"]
        dst = arg["dst"]
        while True:
            try:
                data = kernel.recv(src, FORWARD_CHUNK, timeout=10.0)
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


def analysis_compartments(server, conn_fd=3):
    """CompartmentSpecs for ``python -m repro lint`` (repro.analysis)."""
    from repro.analysis.lint import (CompartmentSpec,
                                     gate_compartment_specs)
    kernel = server.kernel
    app = "lb"
    sc = SecurityContext()
    sc_fd_add(sc, conn_fd, FD_READ)
    route_sc = SecurityContext()
    sc_mem_add(route_sc, server._ring_tag, PROT_READ)
    sc_mem_add(route_sc, server._health_tag, PROT_READ)
    sc_cgate_add(sc, route_gate, route_sc, server._route_trusted,
                 supervise=server.supervise)
    specs = [CompartmentSpec(
        "listener", app, kernel, sc,
        [(LbServer._worker_body, {"self": server, "arg": {"fd": conn_fd}})],
        sthread_prefix="lb-listener", exploit_facing=True,
        sensitive_tags=("lb-ring", "lb-health"))]
    specs += gate_compartment_specs(sc, kernel, app=app)
    # the health gate belongs to main; a synthetic holder context gives
    # the linter the same declared-vs-static diff for it
    holder = SecurityContext()
    health_sc = SecurityContext()
    sc_mem_add(health_sc, server._health_tag, PROT_RW)
    sc_cgate_add(holder, health_gate, health_sc, server._health_trusted,
                 supervise=server.supervise)
    specs += gate_compartment_specs(holder, kernel, app=app)
    # one splice direction stands for both (identical shape, fds swapped)
    fwd_sc = SecurityContext()
    sc_fd_add(fwd_sc, conn_fd, FD_READ)
    sc_fd_add(fwd_sc, conn_fd + 1, FD_WRITE)
    specs.append(CompartmentSpec(
        "forwarder", app, kernel, fwd_sc,
        [(LbServer._forward_body,
          {"self": server, "arg": {"src": conn_fd, "dst": conn_fd + 1}})],
        sthread_prefix="lb-fwd"))
    return specs
