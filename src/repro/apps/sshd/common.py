"""Shared sshd plumbing: the simulated host environment and server base.

:class:`SshdEnvironment` builds everything a login server needs on the
simulated machine: user accounts with passwords, DSA user keys and S/Key
enrollments; ``/etc/shadow`` (root-only), ``authorized_keys`` files,
the S/Key database, per-user home directories with private files, the
empty chroot directory, and the server's DSA host key pair.
"""

from __future__ import annotations

from repro.core.kernel import Kernel
from repro.net.serve import Server
from repro.crypto import skey as skeymod
from repro.crypto.dsa import generate_keypair
from repro.crypto.rng import DetRNG
from repro.sshlib import userauth

#: The unprivileged uid pre-auth workers run as (like the sshd user).
SSHD_UID = 22
EMPTY_DIR = "/var/empty"

DEFAULT_USERS = {
    "alice": {"password": b"wonderland", "uid": 1000, "skey": True,
              "pubkey": True},
    "bob": {"password": b"builder", "uid": 1001, "skey": False,
            "pubkey": False},
}

DEFAULT_CONFIG = (b"protocol ssh-sim-1.0\n"
                  b"password_authentication yes\n"
                  b"pubkey_authentication yes\n"
                  b"skey_authentication yes\n"
                  b"permit_empty_passwords no\n")


class SshdEnvironment:
    """Key material plus the VFS population for one sshd instance."""

    def __init__(self, rng, users=None, config=DEFAULT_CONFIG):
        self.rng = rng
        self.users = {name: dict(spec)
                      for name, spec in (users or DEFAULT_USERS).items()}
        self.config = config
        self.host_key = generate_keypair(rng.fork("hostkey"))
        self.user_keys = {}
        self.skey_entries = {}
        for name, spec in self.users.items():
            if spec.get("pubkey"):
                self.user_keys[name] = generate_keypair(
                    rng.fork(f"userkey-{name}"))
            if spec.get("skey"):
                self.skey_entries[name] = skeymod.SkeyEntry.enroll(
                    spec["password"], f"seed-{name}".encode())

    def populate(self, vfs):
        """Write the environment into a kernel's VFS."""
        shadow_lines = []
        for name, spec in self.users.items():
            salt = f"salt-{name}".encode()
            home = f"/home/{name}"
            shadow_lines.append(userauth.shadow_line(
                name, salt, spec["password"], spec["uid"], home))
            vfs.mkdir(home)
            vfs.write_file(f"{home}/secret.txt",
                           f"{name}'s private notes\n".encode(),
                           owner=spec["uid"], mode=0o600)
            vfs.write_file(f"{home}/README",
                           b"welcome\n", owner=spec["uid"], mode=0o644)
            key = self.user_keys.get(name)
            if key is not None:
                vfs.write_file(
                    f"{home}/.ssh/authorized_keys",
                    userauth.authorized_keys_line(key.public()) + b"\n",
                    owner=spec["uid"], mode=0o600)
        vfs.write_file("/etc/shadow", b"\n".join(shadow_lines) + b"\n",
                       owner=0, mode=0o600)
        vfs.write_file("/etc/sshd_config", self.config, owner=0,
                       mode=0o644)
        vfs.write_file("/etc/skeykeys",
                       userauth.serialize_skey_db(self.skey_entries),
                       owner=0, mode=0o600)
        vfs.mkdir(EMPTY_DIR)


class SshdBase(Server):
    """Host environment and kernel shared by the three sshd variants."""

    variant = "base"

    def __init__(self, network, addr, *, seed="sshd", env=None,
                 tag_cache=True, supervise=None):
        super().__init__()
        self.network = network
        self.addr = addr
        self.rng = DetRNG(seed)
        #: optional RestartPolicy applied to per-connection compartments
        self.supervise = supervise
        self.env = env or SshdEnvironment(self.rng.fork("env"))
        self.kernel = Kernel(net=network, name=f"sshd-{self.variant}")
        self.main = self.kernel.start_main()
        self.env.populate(self.kernel.vfs)
        self.host_pub_bytes = self.env.host_key.public().to_bytes()
        self.logins = 0
