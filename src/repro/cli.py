"""Command-line interface: ``python -m repro <command>``.

Quick access to the reproduction's headline results without pytest:

=================  ====================================================
command            prints
=================  ====================================================
``fig7``           primitive-creation costs (Figure 7 shape)
``fig8``           malloc / tag_new / mmap costs (Figure 8 shape)
``fig9``           native / Pin / cb-log table (Figure 9 shape)
``table2-apache``  requests/s for vanilla / wedge / recycled
``table2-ssh``     login and scp latency, vanilla vs wedge
``metrics``        partitioning LoC accounting (§5.1/§5.2)
``trace``          run a workload under Crowbar's cb-log and print the
                   cb-analyze memory report (NOT the observability
                   tracer — that is ``observe``)
``lint``           three-way least-privilege lint (declared vs
                   static vs traced) over the shipped compartments
``attack``         run the MITM or sshd attack scenario end to end
``chaos``          seeded fault-injection campaign against the shipped
                   apps; proves crash containment end to end
``overload``       seeded connection surge against the shipped apps;
                   proves bounded backlogs, deterministic shedding,
                   stream backpressure, and byte-identical admitted
                   responses (writes/checks ``BENCH_overload.json``)
``observe``        serve demo sessions under the kernel event bus and
                   span tracer; top-style summary, Chrome trace export
``cluster``        sharded multi-kernel cluster campaign behind the
                   Wedge-partitioned lb: goodput-vs-replica scaling and
                   (``--kill-kernel``) a seeded whole-kernel kill with
                   byte-identical failover (``BENCH_cluster.json``)
``recovery``       kill-at-any-point durability campaign for the kv
                   tier: seeded power loss at every syscall index, WAL
                   + checkpoint recovery, prefix-consistency proof
                   (writes/checks ``BENCH_recovery.json``)
=================  ====================================================
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _meter(kernel, fn):
    checkpoint = kernel.costs.checkpoint()
    fn()
    return kernel.costs.delta(checkpoint)


def cmd_fig7(args):
    from repro.core.kernel import Kernel
    from repro.core.policy import SecurityContext
    kernel = Kernel()
    kernel.start_main()
    gate = kernel.create_gate(lambda t, a: None, SecurityContext())
    recycled = kernel.create_gate(lambda t, a: None, SecurityContext(),
                                  recycled=True)
    kernel.cgate(recycled.id)
    rows = {
        "pthread": lambda: kernel.sthread_join(
            kernel.pthread_create(lambda a: None, spawn="inline")),
        "recycled": lambda: kernel.cgate(recycled.id),
        "sthread": lambda: kernel.sthread_join(kernel.sthread_create(
            SecurityContext(), lambda a: None, spawn="inline")),
        "callgate": lambda: kernel.cgate(gate.id),
        "fork": lambda: kernel.sthread_join(
            kernel.fork(lambda a: None, spawn="inline")),
    }
    cycles = {name: _meter(kernel, op) for name, op in rows.items()}
    base = cycles["pthread"]
    print("Figure 7 — primitive creation (model cycles):")
    for name, value in cycles.items():
        print(f"  {name:9s} {value:8,d}  {value / base:5.2f}x pthread")
    return 0


def cmd_fig8(args):
    from repro.core.kernel import Kernel
    kernel = Kernel()
    kernel.start_main()
    tag = kernel.tag_new()
    malloc = _meter(kernel, lambda: kernel.free(kernel.malloc(64)))
    smalloc = _meter(kernel,
                     lambda: kernel.sfree(kernel.smalloc(64, tag)))
    seed = kernel.tag_new()
    kernel.tag_delete(seed)
    reuse = _meter(kernel, lambda: kernel.tag_delete(kernel.tag_new()))
    nocache = Kernel(tag_cache=False)
    nocache.start_main()
    nocache.tag_delete(nocache.tag_new())
    fresh = _meter(nocache,
                   lambda: nocache.tag_delete(nocache.tag_new()))
    print("Figure 8 — memory calls (model cycles):")
    for name, value in (("malloc", malloc), ("smalloc", smalloc),
                        ("tag_new (reused)", reuse),
                        ("tag_new (fresh) / mmap", fresh)):
        print(f"  {name:24s} {value:7,d}  {value / malloc:5.1f}x malloc")
    return 0


def cmd_fig9(args):
    from repro.workloads import run_workload
    from repro.workloads.runner import FIGURE9_ORDER, MODES
    print("Figure 9 — instrumentation overhead (wall seconds):")
    print(f"  {'app':8s} {'native':>9s} {'pin':>9s} {'crowbar':>9s} "
          f"{'ratio':>7s}")
    for name in FIGURE9_ORDER:
        times = {}
        for mode in MODES:
            elapsed, _, _ = run_workload(name, mode, args.scale)
            times[mode] = elapsed
        ratio = times["crowbar"] / times["pin"]
        print(f"  {name:8s} {times['native']:9.4f} {times['pin']:9.4f} "
              f"{times['crowbar']:9.4f} {ratio:6.1f}x")
    return 0


def cmd_table2_apache(args):
    from repro.apps.httpd import MitmPartitionHttpd, MonolithicHttpd
    from repro.apps.httpd.content import build_request
    from repro.crypto import DetRNG
    from repro.net import Network
    from repro.tls import TlsClient

    flavors = {
        "vanilla": (MonolithicHttpd, {}),
        "wedge": (MitmPartitionHttpd, {"gate_mode": "fresh"}),
        "recycled": (MitmPartitionHttpd, {"gate_mode": "recycled"}),
    }
    print("Table 2 (top) — Apache throughput (requests/s):")
    print(f"  {'workload':12s} " +
          " ".join(f"{name:>9s}" for name in flavors))
    for workload in ("cached", "not-cached"):
        cells = []
        for flavor, (cls, kwargs) in flavors.items():
            server = cls(Network(), f"cli-{workload}-{flavor}:443",
                         **kwargs).start()
            try:
                client = TlsClient(
                    DetRNG("cli"),
                    expected_server_key=server.public_key)
                client.connect(server.network,
                               server.addr).request(build_request("/"))

                def op(index):
                    if workload == "cached":
                        conn = client.connect(server.network,
                                              server.addr)
                    else:
                        fresh_client = TlsClient(
                            DetRNG(f"cli{index}"),
                            expected_server_key=server.public_key)
                        conn = fresh_client.connect(
                            server.network, server.addr, resume=False)
                    conn.request(build_request("/"))

                op(0)
                start = time.perf_counter()
                for i in range(args.requests):
                    op(i + 1)
                cells.append(args.requests /
                             (time.perf_counter() - start))
            finally:
                server.stop()
        print(f"  {workload:12s} " +
              " ".join(f"{cell:9.1f}" for cell in cells))
    return 0


def cmd_table2_ssh(args):
    from repro.apps.sshd import MonolithicSshd, WedgeSshd
    from repro.crypto import DetRNG
    from repro.net import Network
    from repro.sshlib import SshClient

    payload = bytes(range(256)) * (512 * 1024 // 256)
    print("Table 2 (bottom) — OpenSSH latency (seconds, 512 KiB scp):")
    for flavor, cls in (("vanilla", MonolithicSshd),
                        ("wedge", WedgeSshd)):
        server = cls(Network(), f"cli-ssh-{flavor}:22").start()
        try:
            def login(index):
                client = SshClient(
                    DetRNG(f"cli{index}"),
                    expected_host_key=server.env.host_key.public())
                conn = client.connect(server.network, server.addr)
                conn.auth_password("alice", b"wonderland")
                return conn

            login(0).close()
            start = time.perf_counter()
            conn = login(1)
            login_delay = time.perf_counter() - start
            start = time.perf_counter()
            conn.scp_upload("/home/alice/cli.bin", payload)
            scp_delay = time.perf_counter() - start
            conn.close()
            print(f"  {flavor:9s} login={login_delay:7.4f}  "
                  f"scp={scp_delay:7.4f}")
        finally:
            server.stop()
    return 0


def cmd_metrics(args):
    from repro.metrics import full_report
    print("Partitioning metrics (§5.1/§5.2):")
    for app, numbers in full_report().items():
        print(f"  {app}:")
        print(f"    callgate LoC        : {numbers['callgate_loc']}")
        print(f"    sthread LoC         : {numbers['sthread_loc']}")
        print(f"    privileged fraction : "
              f"{numbers['privileged_fraction']:.0%}")
        print(f"    changed LoC         : {numbers['changed_loc']} "
              f"({numbers['changed_fraction']:.1%} of "
              f"{numbers['total_loc']})")
    return 0


def cmd_trace(args):
    from repro.crowbar import CbLog, format_report, memory_for_procedure
    from repro.workloads import ALL_KERNELS
    from repro.workloads.memlib import make_kernel
    if args.workload not in ALL_KERNELS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(ALL_KERNELS)}", file=sys.stderr)
        return 2
    kernel = make_kernel(f"cli-{args.workload}")
    with CbLog(kernel, label=args.workload) as log:
        checksum = ALL_KERNELS[args.workload](kernel, "quick")
    print(f"traced {args.workload}: {len(log.trace)} accesses, "
          f"checksum {checksum}")
    procedure = args.procedure or args.workload
    print(format_report(memory_for_procedure(log.trace, procedure),
                        title=f"{procedure} + descendants"))
    return 0


def cmd_lint(args):
    from repro.analysis import APP_NAMES, format_report, lint_app
    from repro.analysis.report import results_json
    names = [args.app] if args.app else list(APP_NAMES)
    unknown = [name for name in names if name not in APP_NAMES]
    if unknown:
        print(f"unknown app {unknown[0]!r}; choose from "
              f"{sorted(APP_NAMES)}", file=sys.stderr)
        return 2
    results = []
    for name in names:
        results.extend(lint_app(name, with_trace=not args.no_trace))
    payload = results_json(results)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_report(results))
    # unresolved operands always fail: an operand the analyzer cannot
    # resolve is a privilege demand the lint cannot see
    if payload["errors"] or payload["unresolved"] \
            or (args.strict and payload["warnings"]):
        return 1
    return 0


def cmd_verify(args):
    from repro.analysis import APP_NAMES, verify_app
    from repro.analysis.report import verification_json
    names = [args.app] if args.app else list(APP_NAMES)
    unknown = [name for name in names if name not in APP_NAMES]
    if unknown:
        print(f"unknown app {unknown[0]!r}; choose from "
              f"{sorted(APP_NAMES)}", file=sys.stderr)
        return 2
    reports = []
    for name in names:
        _, app_reports = verify_app(name)
        reports.extend(app_reports)
    payload = verification_json(reports)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for entry in payload["compartments"]:
            state = "verified" if entry["verified"] else "REJECTED"
            print(f"[{entry['app']}/{entry['compartment']}] {state}")
            for reason in entry["reasons"]:
                print(f"    {reason}")
        print(f"{payload['verified']} verified, "
              f"{payload['rejected']} rejected")
    return 0 if payload["rejected"] == 0 else 1


def cmd_attack(args):
    if args.scenario == "mitm":
        print("running the MITM campaign against both partitionings "
              "(the compact form of examples/mitm_attack_demo.py)...")
        from repro.apps.httpd import (MitmPartitionHttpd,
                                      SimplePartitionHttpd)
        from repro.apps.httpd.content import build_request
        from repro.attacks import payloads
        from repro.attacks.exploit import start_campaign
        from repro.attacks.mitm import (MitmAttacker,
                                        hello_exploit_rewriter)
        from repro.crypto import DetRNG
        from repro.net import Network
        from repro.tls import TlsClient
        for title, cls, payload in (
                ("Figure 2", SimplePartitionHttpd,
                 payloads.PAYLOAD_STEAL_SESSION_KEY),
                ("Figures 3-5", MitmPartitionHttpd,
                 payloads.PAYLOAD_PROBE_FINE_PARTITION)):
            net = Network()
            server = cls(net, f"cli-atk-{cls.variant}:443").start()
            loot = start_campaign()
            attacker = MitmAttacker(
                client_to_server=hello_exploit_rewriter(payload),
                loot=loot)
            net.interpose(server.addr, attacker)
            victim = TlsClient(DetRNG("victim"),
                               expected_server_key=server.public_key)
            conn = victim.connect(net, server.addr)
            conn.request(build_request("/account"))
            time.sleep(0.3)
            stolen = loot.get("session_master") == conn.master
            print(f"  vs {title}: session key "
                  f"{'STOLEN' if stolen else 'safe'} "
                  f"({len(loot.attempts)} denials)")
            server.stop()
        return 0
    print(f"unknown scenario {args.scenario!r}; choose 'mitm'",
          file=sys.stderr)
    return 2


def cmd_chaos(args):
    from repro.faults.chaos import (CHAOS_APP_NAMES, cow_freshness_probe,
                                    run_chaos)
    names = [args.app] if args.app else list(CHAOS_APP_NAMES)
    unknown = [name for name in names if name not in CHAOS_APP_NAMES]
    if unknown:
        print(f"unknown app {unknown[0]!r}; choose from "
              f"{sorted(CHAOS_APP_NAMES)}", file=sys.stderr)
        return 2
    failed = False
    tlb = False if args.no_tlb else None
    for name in names:
        report = run_chaos(name, seed=args.seed, faults=args.faults,
                           tlb=tlb, scheduler=args.scheduler,
                           power_loss=args.power_loss,
                           breaker_cooldown=args.breaker_cooldown)
        print(report.format(flight_dump=args.flight_dump))
        failed = failed or not report.passed
    probe = cow_freshness_probe()
    print(f"cow freshness probe: "
          f"{'ok' if probe['fresh'] else 'FAILED'} "
          f"(observations={probe['observations']})")
    failed = failed or not probe["fresh"]
    return 1 if failed else 0


def _emit_and_check(report, args, name, measure, **check):
    """Write ``BENCH_<name>.json`` to ``--out``, gate it on ``--check``.

    Returns the command's exit code: 2 when the baseline is missing, 1
    when the run failed or regressed, else 0.  *measure* names what a
    clean check found within tolerance; *check* goes to
    :func:`~repro.resilience.overload.check_artifact`.
    """
    import json
    import os

    from repro.resilience.overload import check_artifact, write_artifact
    failed = not report.passed
    filename = f"BENCH_{name}.json"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, filename)
        write_artifact(report, path)
        print(f"wrote {path}")
    if args.check:
        baseline_path = os.path.join(args.check, filename)
        if not os.path.exists(baseline_path):
            print(f"no baseline at {baseline_path}", file=sys.stderr)
            return 2
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        problems = check_artifact(report.artifact(), baseline, **check)
        if problems:
            print(f"REGRESSION vs {baseline_path}:")
            for problem in problems:
                print(f"  {problem}")
            failed = True
        else:
            print(f"{measure} within tolerance of {baseline_path}")
    return 1 if failed else 0


def cmd_overload(args):
    from repro.resilience.overload import (SCALE_METRICS,
                                           overload_app_names,
                                           run_overload)
    app_names = overload_app_names()
    names = [args.app] if args.app else list(app_names)
    unknown = [name for name in names if name not in app_names]
    if unknown:
        print(f"unknown app {unknown[0]!r}; choose from "
              f"{sorted(app_names)}", file=sys.stderr)
        return 2
    report = run_overload(names, clients=args.clients,
                          backlog=args.backlog, seed=args.seed,
                          high_water=args.high_water,
                          compare=not args.no_compare,
                          scheduler=args.scheduler,
                          connections=args.connections)
    print(report.format())
    return _emit_and_check(
        report, args, "overload", "goodput",
        optional=() if args.connections else SCALE_METRICS)


def cmd_cluster(args):
    from repro.cluster.campaign import run_cluster
    from repro.core.kernel import Kernel
    with Kernel.scheduler_override(args.scheduler):
        report = run_cluster(kernels=args.kernels,
                             replicas=args.replicas,
                             requests=args.requests, rounds=args.rounds,
                             seed=args.seed, kill=args.kill_kernel)
    print(report.format())
    return _emit_and_check(report, args, "cluster", "goodput")


def cmd_kv(args):
    from repro.apps.kv.campaign import run_kv
    from repro.core.kernel import Kernel
    with Kernel.scheduler_override(args.scheduler):
        report = run_kv(ops=args.ops, seed=args.seed,
                        httpd=not args.no_httpd)
    print(report.format())
    return _emit_and_check(report, args, "kv", "model cycles")


def cmd_recovery(args):
    from repro.apps.kv.recovery import run_recovery
    report = run_recovery(seed=args.seed, ops=args.ops,
                          stride=args.stride)
    print(report.format())
    return _emit_and_check(report, args, "recovery", "model cycles")


def cmd_observe(args):
    from repro.observe.export import validate_file
    if args.validate:
        problems = validate_file(args.validate)
        if problems:
            print(f"{args.validate}: INVALID Chrome trace JSON:")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(f"{args.validate}: valid Chrome trace-event JSON")
        return 0

    from repro.observe.session import (OBSERVE_APP_NAMES, observed_session,
                                       resolve_app)
    try:
        resolve_app(args.app)
    except KeyError:
        print(f"unknown app {args.app!r}; choose from "
              f"{sorted(OBSERVE_APP_NAMES)}", file=sys.stderr)
        return 2
    observer = observed_session(args.app, requests=args.requests,
                                tlb_events=args.tlb_events)
    print(observer.summary())
    if args.export:
        from repro.observe.export import validate_chrome_trace
        trace = observer.chrome_trace()
        problems = validate_chrome_trace(trace)
        observer.export(args.export)
        if problems:
            print(f"wrote {args.export} — but it FAILED validation:")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(f"wrote {args.export} "
              f"({len(trace['traceEvents'])} trace events; load it in "
              f"ui.perfetto.dev or chrome://tracing)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wedge (NSDI 2008) reproduction — quick results")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig7", help="Figure 7 shape").set_defaults(
        fn=cmd_fig7)
    sub.add_parser("fig8", help="Figure 8 shape").set_defaults(
        fn=cmd_fig8)
    p9 = sub.add_parser("fig9", help="Figure 9 table")
    p9.add_argument("--scale", default="quick",
                    choices=["quick", "bench"])
    p9.set_defaults(fn=cmd_fig9)
    pa = sub.add_parser("table2-apache", help="Apache throughput")
    pa.add_argument("-n", "--requests", type=int, default=10)
    pa.set_defaults(fn=cmd_table2_apache)
    sub.add_parser("table2-ssh", help="OpenSSH latency").set_defaults(
        fn=cmd_table2_ssh)
    sub.add_parser("metrics",
                   help="partitioning metrics").set_defaults(
        fn=cmd_metrics)
    pt = sub.add_parser(
        "trace",
        help="Crowbar cb-log + cb-analyze a memory workload (for the "
             "kernel event/span tracer, see 'observe')")
    pt.add_argument("workload")
    pt.add_argument("--procedure", default=None)
    pt.set_defaults(fn=cmd_trace)
    pl = sub.add_parser("lint",
                        help="three-way least-privilege lint")
    pl.add_argument("--app", default=None,
                    help="lint one app instead of all")
    pl.add_argument("--strict", action="store_true",
                    help="exit non-zero on warnings too")
    pl.add_argument("--no-trace", action="store_true",
                    help="skip the dynamic (Crowbar-traced) leg")
    pl.add_argument("--json", action="store_true",
                    help="emit the machine-readable report")
    pl.set_defaults(fn=cmd_lint)
    pvf = sub.add_parser(
        "verify",
        help="prove static ⊆ granted; compile certificate templates")
    pvf.add_argument("--app", default=None,
                     help="verify one app instead of all")
    pvf.add_argument("--json", action="store_true",
                     help="emit the machine-readable report")
    pvf.set_defaults(fn=cmd_verify)
    pk = sub.add_parser("attack", help="run an attack scenario")
    pk.add_argument("scenario", nargs="?", default="mitm")
    pk.set_defaults(fn=cmd_attack)
    pc = sub.add_parser("chaos",
                        help="fault-injection campaign (containment)")
    pc.add_argument("--seed", type=int, default=0,
                    help="FaultPlan seed (campaigns are reproducible)")
    pc.add_argument("--faults", type=int, default=50,
                    help="injections to reach per app")
    pc.add_argument("--app", default=None,
                    help="chaos one app instead of all")
    pc.add_argument("--no-tlb", action="store_true",
                    help="run with the simulated TLB disabled "
                         "(differential ablation)")
    pc.add_argument("--scheduler", default=None,
                    choices=["threads", "reactor"],
                    help="kernel scheduling mode for the campaign "
                         "(default: the kernel default, threads)")
    pc.add_argument("--flight-dump", action="store_true",
                    help="print the newest flight-recorder dump even "
                         "when the campaign passed")
    pc.add_argument("--power-loss", action="store_true",
                    help="finish each kv campaign with a seeded "
                         "power-loss kill and a WAL recovery drill "
                         "(kv app only; requires a durable store)")
    pc.add_argument("--breaker-cooldown", type=float, default=0.005,
                    help="circuit-breaker cooldown (seconds) for the "
                         "breaker recovery drill (default: 0.005)")
    pc.set_defaults(fn=cmd_chaos)
    pv = sub.add_parser(
        "overload",
        help="connection-surge campaign (overload resilience)")
    pv.add_argument("-n", "--clients", type=int, default=200,
                    help="surge size per app (default: 200)")
    pv.add_argument("--backlog", type=int, default=32,
                    help="listener accept-queue cap (default: 32)")
    pv.add_argument("--seed", type=int, default=0,
                    help="client seed (campaigns are reproducible)")
    pv.add_argument("--high-water", type=int, default=64 * 1024,
                    help="per-stream buffer cap in bytes "
                         "(default: 65536)")
    pv.add_argument("--app", default=None,
                    help="surge one app instead of all")
    pv.add_argument("--no-compare", action="store_true",
                    help="skip the resilience on-vs-off comparison leg")
    pv.add_argument("--scheduler", default=None,
                    choices=["threads", "reactor"],
                    help="kernel scheduling mode for the app surges "
                         "(default: the kernel default, threads)")
    pv.add_argument("--connections", type=int, default=0,
                    help="also run the reactor scale leg at this "
                         "connection count (0 = skip; try 10000)")
    pv.add_argument("--out", default=None, metavar="DIR",
                    help="write BENCH_overload.json into DIR")
    pv.add_argument("--check", default=None, metavar="DIR",
                    help="compare goodput against DIR/"
                         "BENCH_overload.json (fail on >10%% drop)")
    pv.set_defaults(fn=cmd_overload)
    pcl = sub.add_parser(
        "cluster",
        help="sharded multi-kernel cluster campaign (failover)")
    pcl.add_argument("--kernels", type=int, default=3,
                     help="simulated kernels to boot (default: 3)")
    pcl.add_argument("--replicas", type=int, default=2,
                     help="httpd replicas per kernel (default: 2)")
    pcl.add_argument("-n", "--requests", type=int, default=8,
                     help="distinct routing keys per leg (default: 8)")
    pcl.add_argument("--rounds", type=int, default=7,
                     help="kill-leg scheduling rounds (default: 7)")
    pcl.add_argument("--seed", type=int, default=0,
                     help="KernelFailure seed (victim and kill round)")
    pcl.add_argument("--kill-kernel", action="store_true",
                     help="run the seeded whole-kernel kill leg too")
    pcl.add_argument("--scheduler", default=None,
                     choices=["threads", "reactor"],
                     help="kernel scheduling mode for every cluster "
                          "node (default: the kernel default, threads)")
    pcl.add_argument("--out", default=None, metavar="DIR",
                     help="write BENCH_cluster.json into DIR")
    pcl.add_argument("--check", default=None, metavar="DIR",
                     help="compare against DIR/BENCH_cluster.json "
                          "(fail on >10%% goodput drop)")
    pcl.set_defaults(fn=cmd_cluster)
    pkv = sub.add_parser(
        "kv",
        help="kv/cache-tier campaign: op costs, cached-vs-uncached "
             "httpd, write-behind shed")
    pkv.add_argument("-n", "--ops", type=int, default=8,
                     help="distinct keys/paths per leg (default: 8)")
    pkv.add_argument("--seed", type=int, default=0,
                     help="TTL-jitter seed for the cache clients")
    pkv.add_argument("--no-httpd", action="store_true",
                     help="skip the cluster-backed httpd comparison leg")
    pkv.add_argument("--scheduler", default=None,
                     choices=["threads", "reactor"],
                     help="kernel scheduling mode for every kernel "
                          "(default: the kernel default, threads)")
    pkv.add_argument("--out", default=None, metavar="DIR",
                     help="write BENCH_kv.json into DIR")
    pkv.add_argument("--check", default=None, metavar="DIR",
                     help="compare against DIR/BENCH_kv.json "
                          "(fail on >10%% model-cycle rise)")
    pkv.set_defaults(fn=cmd_kv)
    pr = sub.add_parser(
        "recovery",
        help="kv durability campaign: power loss at every syscall "
             "index, WAL + checkpoint recovery, prefix consistency")
    pr.add_argument("--seed", type=int, default=0,
                    help="workload and power-loss tear seed")
    pr.add_argument("-n", "--ops", type=int, default=24,
                    help="logged mutations in the workload "
                         "(default: 24)")
    pr.add_argument("--stride", type=int, default=1,
                    help="kill every Nth syscall index instead of all "
                         "(default: 1 = exhaustive)")
    pr.add_argument("--out", default=None, metavar="DIR",
                    help="write BENCH_recovery.json into DIR")
    pr.add_argument("--check", default=None, metavar="DIR",
                    help="compare against DIR/BENCH_recovery.json "
                         "(fail on >10%% model-cycle rise)")
    pr.set_defaults(fn=cmd_recovery)
    po = sub.add_parser(
        "observe",
        help="event bus + span tracing over one app's demo sessions")
    po.add_argument("--app", default="httpd",
                    help="which app to observe (default: httpd)")
    po.add_argument("-n", "--requests", type=int, default=1,
                    help="client sessions to serve under observation")
    po.add_argument("--export", default=None, metavar="PATH",
                    help="write a Chrome trace-event JSON "
                         "(ui.perfetto.dev / chrome://tracing)")
    po.add_argument("--tlb-events", action="store_true",
                    help="also record the high-volume tlb.hit/tlb.miss "
                         "stream")
    po.add_argument("--validate", default=None, metavar="PATH",
                    help="validate an exported trace JSON instead of "
                         "running anything")
    po.set_defaults(fn=cmd_observe)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
