"""The POP3 server of paper section 2, monolithic and partitioned.

The partitioned layout is exactly Figure 1:

* the **client handler** sthread parses POP3 commands — it is "a target
  for exploits because it processes untrusted network input" and runs
  with *no* access to passwords or mail;
* the **login** callgate reads the password database and, on success,
  writes the authenticated uid into a small shared memory region it
  alone can write;
* the **e-mail retriever** callgate reads the mail spool and the uid
  region, and returns only the e-mails of the uid that *login* recorded
  — "authentication cannot be skipped since the e-mail retriever will
  only read e-mails of the user id specified in uid, and this can only
  be set by the login component."

The monolithic variant runs the same command loop with everything
readable in one compartment — an exploit there yields all passwords and
all mail.
"""

from __future__ import annotations

from repro.apps.pop3 import store
from repro.attacks.exploit import maybe_trigger_exploit
from repro.core.errors import (CallgateError, CompartmentDown,
                               ProtocolError, SthreadFaulted)
from repro.core.kernel import Kernel
from repro.core.memory import PROT_READ, PROT_RW
from repro.net.serve import Server
from repro.core.policy import (FD_RW, SecurityContext, sc_cgate_add,
                               sc_fd_add, sc_mem_add)

GREETING = b"+OK wedge-pop3 ready\r\n"
UID_REGION_SIZE = 8


# -- callgate entry points ----------------------------------------------------

def login_gate(trusted, arg):
    """Authenticate; record the uid in the shared uid region."""
    kernel = trusted["kernel"]
    accounts = store.parse_passwords(
        kernel.mem_read(trusted["pw_addr"], trusted["pw_len"]))
    entry = accounts.get(str(arg["user"]))
    if entry is None or entry[1] != bytes(arg["password"]):
        return {"ok": False}
    uid = entry[0]
    kernel.mem_write(trusted["uid_addr"], uid.to_bytes(UID_REGION_SIZE,
                                                       "big"))
    return {"ok": True}


def retrieve_gate(trusted, arg):
    """List or fetch mail — only for the uid the login gate recorded."""
    kernel = trusted["kernel"]
    uid = int.from_bytes(kernel.mem_read(trusted["uid_addr"],
                                         UID_REGION_SIZE), "big")
    if uid == 0:
        return {"ok": False, "error": "not authenticated"}
    spool = store.parse_spool(
        kernel.mem_read(trusted["mail_addr"], trusted["mail_len"]))
    messages = spool.get(uid, [])
    if arg.get("op") == "list":
        return {"ok": True, "sizes": [len(m) for m in messages]}
    if arg.get("op") == "retr":
        index = int(arg["index"])
        if not 1 <= index <= len(messages):
            return {"ok": False, "error": "no such message"}
        return {"ok": True, "message": messages[index - 1]}
    return {"ok": False, "error": "bad op"}


# -- the command loop (shared by both variants) ----------------------------------


class Pop3CommandLoop:
    """Line-oriented POP3 over a kernel fd; auth/mail via an adapter."""

    def __init__(self, kernel, fd, adapter, exploit_context):
        self.kernel = kernel
        self.fd = fd
        self.adapter = adapter
        self.exploit_context = exploit_context
        self._buf = bytearray()
        self.pending_user = None

    def _readline(self):
        while b"\r\n" not in self._buf:
            self._buf += self.kernel.recv(self.fd, 4096, timeout=10.0)
        line, _, rest = bytes(self._buf).partition(b"\r\n")
        self._buf = bytearray(rest)
        return line

    def _send(self, line):
        self.kernel.send(self.fd, line + b"\r\n")

    def run(self):
        self._send(GREETING.rstrip(b"\r\n"))
        while True:
            line = self._readline()
            # the untrusted-input surface of Figure 1's client handler
            maybe_trigger_exploit(self.kernel, line,
                                  context=self.exploit_context)
            try:
                if not self._dispatch(line):
                    return "closed"
            except ProtocolError as exc:
                self._send(b"-ERR " + str(exc).encode())

    def _dispatch(self, line):
        parts = line.decode("latin-1").split(" ", 1)
        cmd = parts[0].upper()
        rest = parts[1] if len(parts) > 1 else ""
        if cmd == "USER":
            self.pending_user = rest
            self._send(b"+OK send PASS")
        elif cmd == "PASS":
            if self.pending_user is None:
                self._send(b"-ERR send USER first")
            elif self.adapter.login(self.pending_user, rest.encode()):
                self._send(b"+OK mailbox open")
            else:
                self._send(b"-ERR authentication failed")
        elif cmd == "LIST":
            ok, sizes_or_err = self.adapter.list_messages()
            if not ok:
                self._send(b"-ERR " + sizes_or_err.encode())
            else:
                self._send(f"+OK {len(sizes_or_err)} messages".encode())
                for i, size in enumerate(sizes_or_err, 1):
                    self._send(f"{i} {size}".encode())
                self._send(b".")
        elif cmd == "RETR":
            ok, msg_or_err = self.adapter.fetch(rest)
            if not ok:
                self._send(b"-ERR " + msg_or_err.encode())
            else:
                self._send(b"+OK message follows")
                self.kernel.send(self.fd, msg_or_err + b"\r\n.\r\n")
        elif cmd == "QUIT":
            self._send(b"+OK bye")
            return False
        else:
            self._send(b"-ERR unknown command")
        return True


class GateAdapter:
    """Client-handler-side adapter: everything goes through the gates."""

    def __init__(self, kernel, login_id, retrieve_id):
        self.kernel = kernel
        self.login_id = login_id
        self.retrieve_id = retrieve_id

    def login(self, user, password):
        try:
            reply = self.kernel.cgate(self.login_id, None,
                                      {"user": user, "password": password})
        except (CallgateError, CompartmentDown):
            return False   # a dead login gate denies, it never grants
        return reply["ok"]

    def list_messages(self):
        try:
            reply = self.kernel.cgate(self.retrieve_id, None,
                                      {"op": "list"})
        except (CallgateError, CompartmentDown):
            return False, "service unavailable"
        if not reply["ok"]:
            return False, reply.get("error", "failed")
        return True, reply["sizes"]

    def fetch(self, index_str):
        try:
            index = int(index_str)
        except ValueError:
            return False, "bad message number"
        try:
            reply = self.kernel.cgate(self.retrieve_id, None,
                                      {"op": "retr", "index": index})
        except (CallgateError, CompartmentDown):
            return False, "service unavailable"
        if not reply["ok"]:
            return False, reply.get("error", "failed")
        return True, reply["message"]


class DirectAdapter:
    """Monolithic adapter: reads the blobs with its own privileges."""

    def __init__(self, kernel, pw_buf, mail_buf):
        self.kernel = kernel
        self.pw_buf = pw_buf
        self.mail_buf = mail_buf
        self.uid = 0

    def login(self, user, password):
        accounts = store.parse_passwords(self.pw_buf.read())
        entry = accounts.get(user)
        if entry is None or entry[1] != password:
            return False
        self.uid = entry[0]
        return True

    def _spool(self):
        return store.parse_spool(self.mail_buf.read()).get(self.uid, [])

    def list_messages(self):
        if self.uid == 0:
            return False, "not authenticated"
        return True, [len(m) for m in self._spool()]

    def fetch(self, index_str):
        if self.uid == 0:
            return False, "not authenticated"
        messages = self._spool()
        try:
            index = int(index_str)
        except ValueError:
            return False, "bad message number"
        if not 1 <= index <= len(messages):
            return False, "no such message"
        return True, messages[index - 1]


# -- the servers ---------------------------------------------------------------------


class Pop3Base(Server):
    variant = "base"

    def __init__(self, network, addr, *, accounts=None, mail=None,
                 partitioned=True, supervise=None):
        super().__init__()
        self.network = network
        self.addr = addr
        #: optional RestartPolicy applied to per-connection handlers
        self.supervise = supervise
        self.kernel = Kernel(net=network, name=f"pop3-{self.variant}")
        self.main = self.kernel.start_main()
        self.accounts = dict(accounts or store.DEFAULT_ACCOUNTS)
        self.mail = dict(mail or store.DEFAULT_MAIL)
        self._install_data()

    def _install_data(self):
        raise NotImplementedError


class MonolithicPop3(Pop3Base):
    """All three roles in one compartment; blobs in plain heap memory."""

    variant = "monolithic"

    def _install_data(self):
        pw = store.serialize_passwords(self.accounts)
        spool = store.serialize_spool(self.mail)
        self.pw_buf = self.kernel.alloc_buf(len(pw), init=pw)
        self.mail_buf = self.kernel.alloc_buf(len(spool), init=spool)

    def handle_connection(self, conn_fd):
        adapter = DirectAdapter(self.kernel, self.pw_buf, self.mail_buf)
        loop = Pop3CommandLoop(self.kernel, conn_fd, adapter, {
            "variant": self.variant,
            "kernel": self.kernel,
            "fd": conn_fd,
            "pw_buf": self.pw_buf,
            "mail_buf": self.mail_buf,
        })
        loop.run()


class PartitionedPop3(Pop3Base):
    """Figure 1: client handler sthread + login and retrieve callgates."""

    variant = "partitioned"

    def _install_data(self):
        kernel = self.kernel
        pw = store.serialize_passwords(self.accounts)
        spool = store.serialize_spool(self.mail)
        self.pw_tag = kernel.tag_new(name="pop3-passwords")
        self.mail_tag = kernel.tag_new(name="pop3-mail")
        self.pw_buf = kernel.alloc_buf(len(pw), tag=self.pw_tag, init=pw)
        self.mail_buf = kernel.alloc_buf(len(spool), tag=self.mail_tag,
                                         init=spool)
        self.handlers = []

    def _connection_contexts(self, conn_fd):
        """Per-connection uid region + the handler's SecurityContext."""
        kernel = self.kernel
        # per-connection uid region, writable only by the login gate
        uid_tag = kernel.tag_new(name=f"pop3-uid{self.connections_served}")
        uid_buf = kernel.alloc_buf(UID_REGION_SIZE, tag=uid_tag,
                                   init=bytes(UID_REGION_SIZE))
        trusted = {
            "kernel": kernel,
            "pw_addr": self.pw_buf.addr, "pw_len": self.pw_buf.size,
            "mail_addr": self.mail_buf.addr,
            "mail_len": self.mail_buf.size,
            "uid_addr": uid_buf.addr,
        }
        sc = SecurityContext()
        sc_fd_add(sc, conn_fd, FD_RW)
        login_sc = SecurityContext()
        sc_mem_add(login_sc, self.pw_tag, PROT_READ)
        sc_mem_add(login_sc, uid_tag, PROT_RW)
        sc_cgate_add(sc, login_gate, login_sc, trusted,
                     supervise=self.supervise)
        retr_sc = SecurityContext()
        sc_mem_add(retr_sc, self.mail_tag, PROT_READ)
        sc_mem_add(retr_sc, uid_tag, PROT_READ)
        sc_cgate_add(sc, retrieve_gate, retr_sc, trusted,
                     supervise=self.supervise)
        return sc, uid_tag, uid_buf

    def handle_connection(self, conn_fd):
        kernel = self.kernel
        sc, uid_tag, uid_buf = self._connection_contexts(conn_fd)

        handler = kernel.sthread_create(
            sc, self._handler_body,
            {"fd": conn_fd, "uid_addr": uid_buf.addr},
            name=f"pop3-handler{self.connections_served}", spawn="thread",
            supervise=self.supervise)
        self.handlers.append(handler)
        try:
            kernel.sthread_join(handler, timeout=20.0)
        except (SthreadFaulted, CompartmentDown) as exc:
            # contained: this session's connection drops; the mailbox
            # and password blobs are untouched and the listener lives
            self.errors.append(f"handler faulted: {exc}")
        finally:
            kernel.tag_delete(uid_tag)

    # -- runs inside the client handler sthread ------------------------------

    def _handler_body(self, arg):
        kernel = self.kernel
        gates = {}
        for gate_id in kernel.current().gates:
            gates[kernel.gate_record(gate_id).entry.__name__] = gate_id
        adapter = GateAdapter(kernel, gates["login_gate"],
                              gates["retrieve_gate"])
        loop = Pop3CommandLoop(kernel, arg["fd"], adapter, {
            "variant": self.variant,
            "kernel": kernel,
            "fd": arg["fd"],
            "gates": gates,
            "uid_addr": arg["uid_addr"],
            "pw_addr": self.pw_buf.addr,
            "mail_addr": self.mail_buf.addr,
        })
        return loop.run()


def analysis_compartments(server, conn_fd=3):
    """CompartmentSpecs for ``python -m repro lint`` (repro.analysis)."""
    from repro.analysis.lint import (CompartmentSpec,
                                     gate_compartment_specs)
    sc, uid_tag, uid_buf = server._connection_contexts(conn_fd)
    app = f"pop3.{server.variant}"
    specs = [CompartmentSpec(
        "handler", app, server.kernel, sc,
        [(PartitionedPop3._handler_body,
          {"self": server,
           "arg": {"fd": conn_fd, "uid_addr": uid_buf.addr}})],
        sthread_prefix="pop3-handler", exploit_facing=True,
        sensitive_tags=("pop3-passwords", "pop3-mail"))]
    specs += gate_compartment_specs(sc, server.kernel, app=app)
    return specs
