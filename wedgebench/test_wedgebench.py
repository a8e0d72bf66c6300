"""Tests of the benchmark itself: layer table, cycle split, tracer."""

import functools

import pytest

import layers
import run
import workloads
from repro.core.costs import WEIGHTS
from repro.core.errors import NetTimeout
from repro.crypto import mac
from repro.net.stream import ByteStream
from repro.tls import records

#: The layers each workload exists to load (README.md, "Workloads").
LOADED = {
    "web_tls": ("core.memory", "core.kernel", "core.callgate",
                "core.sthread", "net.stream", "crypto", "tls"),
    "kv_read": ("core.memory", "core.kernel", "core.callgate",
                "net.stream", "apps.kv.store"),
    "kv_write": ("core.memory", "core.kernel", "core.callgate",
                 "net.stream", "apps.kv.store", "disk", "apps.kv.wal"),
}


@functools.lru_cache(maxsize=None)
def measured(name):
    """One short untraced and one short traced phase of *name*."""
    workload = workloads.WORKLOADS[name](seed=3)
    workload.setup()
    try:
        assert run.warm(workload, 20) == 0
        untraced = run.Phase(workload, 0.5)
        tracer = layers.Tracer()
        with tracer:
            traced = run.Phase(workload, 0.5, tracer)
        metrics = run.per_layer(layers, untraced, traced, tracer, {})
        assert untraced.failed == traced.failed == 0
        return untraced, metrics
    finally:
        workload.stop()


def test_every_cost_kind_maps_to_exactly_one_cycle_layer():
    # a new WEIGHTS kind with no layer (or a stale one) fails here
    assert set(layers.KIND_LAYER) == set(WEIGHTS)
    assert set(layers.KIND_LAYER.values()) == set(layers.CYCLE_LAYERS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layer_cycles_sum_to_end_to_end_cycles(name):
    untraced, metrics = measured(name)
    before, after = untraced.costs
    total = sum(WEIGHTS[kind] * (units - before.get(kind, 0))
                for kind, units in after.items())
    assert total > 0
    assert sum(layers.cycles_by_layer(before, after).values()) == total
    per_op = run.end_to_end(layers, untraced, [(1.0, 1.0)], 1.0)
    assert per_op["model_cycles_per_op"][0] == pytest.approx(
        sum(metrics[f"{layer}.model_cycles_per_op"][0]
            for layer in layers.CYCLE_LAYERS), rel=1e-12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_layer_is_traced_on_the_workload_that_loads_it(name):
    _, metrics = measured(name)
    for layer in LOADED[name]:
        assert metrics[f"{layer}.calls_per_op"][0] > 0, layer
    if name != "kv_write":
        for layer in ("disk", "apps.kv.wal"):
            assert metrics[f"{layer}.calls_per_op"][0] == 0, layer
        assert metrics["disk.model_cycles_per_op"][0] == 0
        assert metrics["disk.fsyncs_per_op"][0] == 0
        assert metrics["apps.kv.wal.checkpoints_per_op"][0] == 0
    assert metrics["observe.calls_per_op"][0] == 0
    assert metrics["sched.waits_per_op"][0] > 0


def test_wrap_returns_and_raises_exactly_what_the_function_did():
    tracer = layers.Tracer()
    sentinel = object()
    error = KeyError("boom")

    def ok(a, *, b):
        return sentinel if (a, b) == (1, 2) else None

    def bad():
        raise error

    assert tracer.wrap("x", "ok", ok)(1, b=2) is sentinel
    with pytest.raises(KeyError) as caught:
        tracer.wrap("x", "bad", bad)()
    assert caught.value is error
    assert tracer.threads()[0][2][None, "x", "bad"][0] == 1


def test_installed_boundaries_behave_as_before_and_uninstall_cleanly():
    original = mac.hmac_sha256
    expected = original(b"k", b"message")
    stream = ByteStream("probe")
    with layers.Tracer() as tracer:
        assert mac.hmac_sha256 is not original
        assert records.hmac_sha256 is mac.hmac_sha256   # import alias
        assert mac.hmac_sha256(b"k", b"message") == expected
        with pytest.raises(NetTimeout):
            stream.recv(1, timeout=0.01)
    assert mac.hmac_sha256 is original
    assert records.hmac_sha256 is original
    spans = {key[1:]: totals for _, _, table in tracer.threads()
             for key, totals in table.items()}
    assert spans["crypto", "hmac_sha256"][:1] == [1]
    assert spans["crypto", "hmac_sha256"][3] == len(b"message")
    assert spans["net.stream", "ByteStream.recv"][0] == 1


def test_remount_key_diff_counts_live_keys_the_remount_lacks():
    from repro.apps.kv import store
    pack = functools.partial(store.pack_store, region_len=256)

    def blob(*keys):
        return pack({"cache": [(key, b"v", 0) for key in keys],
                     "queue": [], "backing": []})
    live = blob(b"/kv/001", b"/kv/002")
    assert workloads.remount_key_diff(live, live) == 0
    assert workloads.remount_key_diff(live, blob(b"/kv/002",
                                                 b"/kv/003")) == 1


def test_a_kv_phase_longer_than_the_parser_join_timeout_is_refused(capsys):
    assert run.main(["--workload", "kv_read", "--seed", "1",
                     "--seconds", "30"]) == 2
    assert "30 s timeout" in capsys.readouterr().err
