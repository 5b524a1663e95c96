"""Everything the benchmark reaches in ``src/`` by name must still exist.

``perfbench/spans.py`` wraps module attributes such as
``testscope.evaluation:run_episode`` by name, and ``perfbench/workloads.py``
and ``perfbench/layers.py`` call the package through module attributes such
as ``baselines.commit_features``; a rename or deletion in ``src/`` makes
benchmark runs raise ``AttributeError``. These tests load or parse those
files by path and only resolve the names: they install no tracer and change
nothing.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

from testscope.baselines import train_classifier
from testscope.network import td_loss_and_grads

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
# the testscope modules that the workloads and the layer metrics import
BENCH_MODULES = ("agent", "baselines", "cli", "config", "evaluation", "network", "persist")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_probe_binding_resolves():
    spans = load_spans()
    missing = []
    for name, bindings in spans.PROBES.items():
        for binding in bindings:
            try:
                owner, attr = spans._resolve(binding)
            except (AttributeError, ImportError) as exc:
                missing.append(f"{name}: {binding} ({exc})")
                continue
            if not callable(vars(owner)[attr]):
                missing.append(f"{name}: {binding} is not callable")
    assert not missing, "perfbench probes that no longer resolve:\n" + "\n".join(missing)


def test_td_step_counter_reads_the_network_and_the_states():
    # perfbench/layers.py counts a traced update's FLOPs from the positional
    # arguments 0 (the network) and 2 (the states); a reordered signature
    # would skew network.td_loss_and_grads.gflops without any error
    names = list(inspect.signature(td_loss_and_grads).parameters)
    assert (names[0], names[2]) == ("net", "states")


def test_every_module_attribute_the_benchmark_reads_exists():
    read = set()
    for name in ("workloads.py", "layers.py"):
        for node in ast.walk(ast.parse((PERFBENCH / name).read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in BENCH_MODULES
            ):
                read.add((node.value.id, node.attr))
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(read)
        if not hasattr(importlib.import_module(f"testscope.{module}"), attr)
    ]
    assert not missing, "benchmark reads names that no longer exist: " + ", ".join(missing)
    # the walk sees the calls it guards
    assert {("baselines", "commit_features"), ("baselines", "StaticPolicy")} <= read


def test_classifier_counter_reads_the_fit_arguments_by_position():
    # perfbench/layers.py reads a traced fit's commits, options and state
    # config from positional arguments 0, 1 and 2
    names = list(inspect.signature(train_classifier).parameters)
    assert names[:3] == ["commits", "opts", "state_cfg"]
