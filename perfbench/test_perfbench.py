"""Self-tests for the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import json  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import machine  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402
from testscope import agent, config, network  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    trace = [
        Span("outer", 1, -1, 0, 100),
        Span("child", 1, 0, 10, 30),
        Span("child", 1, 0, 40, 70),
        Span("grandchild", 1, 2, 45, 50),
    ]
    assert [round(t * 1e9) for t in spans.self_times(trace)] == [50, 20, 25, 5]


def test_tail_percentile_keeps_ten_samples_beyond():
    hundred = [float(i) for i in range(1, 101)]
    assert spans.percentile(hundred, 50) == 50.0
    assert spans.percentile(hundred, 99) == 99.0
    # only one sample lies beyond p99 of 100 samples: report the 90th value
    assert spans.tail_percentile(hundred, 99) == 90.0
    big = [float(i) for i in range(1, 2001)]
    assert spans.tail_percentile(big, 99) == 1980.0
    assert spans.tail_percentile(hundred[:10], 99) == 0.0
    assert spans.percentile([], 50) == 0.0


def test_td_step_flops_counts_every_matmul():
    sizes, n = (10, 64, 64, 3), 64
    layers_ = list(zip(sizes[:-1], sizes[1:]))
    flops = 0
    for d_in, d_out in layers_:
        flops += 2 * (2 * n * d_in * d_out)  # online and target forward
        flops += 2 * n * d_in * d_out  # weight gradient
    for d_in, d_out in layers_[1:]:
        flops += 2 * n * d_in * d_out  # gradient back into the layer's input
    assert spans.td_step_flops(sizes, n) == flops == 2441216


def test_uninstall_restores_every_binding():
    tracer = spans.Tracer()
    originals = {}
    for bindings in spans.PROBES.values():
        for binding in bindings:
            owner, attr = spans._resolve(binding)
            originals[binding] = vars(owner)[attr]
    tracer.install()
    for binding in originals:
        owner, attr = spans._resolve(binding)
        assert vars(owner)[attr].__wrapped__ is originals[binding]
    tracer.uninstall()
    for binding, original in originals.items():
        owner, attr = spans._resolve(binding)
        assert vars(owner)[attr] is original

    agent.train_agent(config.EnvConfig(commits_per_episode=20), config.TrainConfig(episodes=1))
    assert tracer.spans == []


def test_traced_counts_match_the_training_config():
    env_cfg = config.EnvConfig(commits_per_episode=40)
    train_cfg = config.TrainConfig(episodes=3, minibatch_size=64, target_sync_interval=2)
    tracer = spans.Tracer(rep=1)
    counters = layers.Counters(tracer)
    tracer.install()
    try:
        agent.train_agent(env_cfg, train_cfg)
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(tracer.spans, [1], counters, overhead_pct=0.0)
    # the buffer first holds a minibatch after the second episode
    assert workloads.implied_updates(train_cfg, 40) == 80
    assert layers.check_counts(metrics, commits=120, td_updates=80, exact=True) == []
    assert metrics["network.clone.calls"] == 2  # initial target plus one sync
    assert layers.check_counts(metrics, commits=120, td_updates=120, exact=True)
    assert layers.check_counts(metrics, commits=120, td_updates=120, exact=False) == []
    expected_flops = 80 * spans.td_step_flops((10, 64, 64, 3), 64)
    assert counters.flops[1] == expected_flops


def test_weights_problems_detects_changes():
    net = network.mlp_init(seed=3)
    assert workloads.weights_problems(net, net.clone()) == []
    other = net.clone()
    other.weights[0][0, 0] = np.nextafter(other.weights[0][0, 0], 1.0)
    assert workloads.weights_problems(net, other) == ["load_policy round trip is not bit-exact"]
    net.biases[1][0] = np.nan
    assert "non-finite weights" in workloads.weights_problems(net, net)


def test_trimmed_ratio_cancels_a_uniform_slowdown():
    times, probes = [1.0, 2.0, 1.5, 1.0, 9.0], [0.01, 0.02, 0.015, 0.01, 0.09]
    fast = machine.at_reference_speed(times, probes)
    slow = machine.at_reference_speed([t * 1.5 for t in times], [p * 1.5 for p in probes])
    assert abs(fast - slow) < 1e-12
    assert machine.trimmed_mean([1.0] * 9 + [100.0]) == 1.0


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
