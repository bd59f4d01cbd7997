"""Self-tests of the benchmark: span arithmetic, percentile rule, tracer, metric names.

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import sys
import types

import pytest

import env
from spans import LayerStats, Target, Tracer, covered_ns, layer_stats, percentile


def test_covered_merges_overlaps_and_clips():
    assert covered_ns(0, 100, []) == 0
    assert covered_ns(0, 100, [(10, 20), (30, 40)]) == 20
    assert covered_ns(0, 100, [(10, 30), (20, 40), (35, 36)]) == 30
    assert covered_ns(0, 100, [(-10, 5), (95, 120)]) == 10
    assert covered_ns(50, 60, [(0, 40), (70, 80)]) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0, 100, -1, 7),
        ("child", 10, 30, 0, 2),
        ("child", 40, 70, 0, 3),
        ("leaf", 50, 60, 2, 1),
        ("root", 200, 250, -1, 0),
    ]
    stats = layer_stats(spans)
    assert stats["root"] == LayerStats(calls=2, total_ns=150, self_ns=100, tensors=7)
    assert stats["child"] == LayerStats(calls=2, total_ns=50, self_ns=40, tensors=5)
    assert stats["leaf"] == LayerStats(calls=1, total_ns=10, self_ns=10, tensors=1)
    assert sum(s.self_ns for s in stats.values()) == 150  # self times partition the roots


def test_percentile_nearest_rank():
    xs = list(range(1, 201))
    assert percentile(xs, 50) == 100
    assert percentile(xs, 95) == 190
    assert percentile(list(reversed(xs)), 95) == 190


def test_percentile_needs_ten_beyond():
    assert percentile(range(200), 95) == 189
    with pytest.raises(ValueError, match="beyond"):
        percentile(range(199), 95)
    with pytest.raises(ValueError, match="beyond"):
        percentile(range(15), 50)
    assert percentile(range(20), 50) == 9


@pytest.fixture
def fake_layers(monkeypatch):
    """attnloc.fake with outer() -> inner(), and attnloc.user holding a from-import of inner."""
    env.import_attnloc()
    fake = types.ModuleType("attnloc.fake")

    def inner(n):
        return list(range(n))

    def outer(n):
        return fake.inner(n)

    fake.inner, fake.outer = inner, outer
    user = types.ModuleType("attnloc.user")
    user.inner = inner
    monkeypatch.setitem(sys.modules, "attnloc.fake", fake)
    monkeypatch.setitem(sys.modules, "attnloc.user", user)
    return fake, user


def test_tracer_nests_rebinds_aliases_and_restores(fake_layers):
    fake, user = fake_layers
    original = fake.inner
    tracer = Tracer([Target("fake.outer", "fake", "outer"),
                     Target("fake.inner", "fake", "inner", count=lambda result, args: len(result))])
    tracer.install()
    try:
        assert user.inner is fake.inner is not original
        fake.outer(3)
        user.inner(4)
    finally:
        tracer.remove()
    assert fake.inner is original and user.inner is original
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("fake.outer", -1), ("fake.inner", 0), ("fake.inner", -1)]
    assert tracer.counters["fake.inner"] == 7
    assert tracer.absent == []


def test_absent_target_is_reported_and_time_goes_to_parent(fake_layers):
    fake, _ = fake_layers
    del fake.inner
    fake.outer = lambda n: list(range(n))
    tracer = Tracer([Target("fake.outer", "fake", "outer"), Target("fake.inner", "fake", "inner"),
                     Target("fake.gone", "fake", "Missing.method"),
                     Target("nomodule.f", "no_such_module", "f")])
    tracer.install()
    try:
        fake.outer(3)
    finally:
        tracer.remove()
    assert tracer.absent == ["fake.inner", "fake.gone", "nomodule.f"]
    stats = tracer.stats()
    assert set(stats) == {"fake.outer"}
    assert stats["fake.outer"].self_ns == stats["fake.outer"].total_ns


def test_tensor_count_is_exact():
    env.import_attnloc()
    from attnloc import autodiff as ad
    from attnloc.autodiff import Tensor

    tracer = Tracer([Target("autodiff.backward", "autodiff", "Tensor.backward")])
    a, b = Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])
    tracer.install()
    try:
        loss = ((a + b) * a).sum()  # three Tensors
        loss.backward()  # builds none
        ad.softmax_rows(a)  # one more, outside any span
    finally:
        tracer.remove()
    assert tracer._built[0] == 4
    assert tracer.stats()["autodiff.backward"].tensors == 0
    assert a.grad.tolist() == [[5.0, 8.0]]


def test_metric_names_and_units_match_benchmark_json():
    env.import_attnloc()
    import run
    from speed import SpeedProbe
    from workloads import Measured

    doc = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    probe = SpeedProbe(64)
    probe.probe()
    m = Measured(probe, work_units=1, work=[(0.0, 1.0)], latencies=[(0.0, 0.001)] * 200, rmse=[1.0],
                 setups=[(0.0, 1.0)])
    e2e = {name: unit for name, (_, unit) in run.end_to_end(m).items()}
    assert {x["name"]: x["unit"] for x in doc["end_to_end"]} == e2e
    per_layer = {name: unit for name, (unit, _) in run.PER_LAYER.items()}
    per_layer.update({f"trace_overhead.{name}.pct": "%" for name in run.OVERHEAD_OF})
    assert {x["name"]: x["unit"] for x in doc["per_layer"]} == per_layer


def test_speed_probe_scales_by_the_nearest_probes():
    from speed import NEAREST, SpeedProbe

    probe = SpeedProbe(64)
    # ten probes one second apart: the first five at the reference speed, the rest twice as slow
    probe.starts = [float(i) for i in range(10)]
    probe.durations = [probe.ref_s] * 5 + [2 * probe.ref_s] * 5
    assert NEAREST == 5
    assert probe.factor(0.5) == 1.0
    assert probe.factor(9.0) == 0.5
    assert probe.adjust(8.0, 0.004) == 0.002  # a slow stretch reads at the reference speed
    assert probe.slowdown()["median"] == 1.5
    with pytest.raises(ValueError):
        SpeedProbe(64).factor(0.0)
