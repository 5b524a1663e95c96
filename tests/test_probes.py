"""Everything the benchmark reaches in ``src/`` by name must still exist.

``perfbench/spans.py`` wraps module attributes such as
``testscope.evaluation:run_episode`` by name, and ``perfbench/workloads.py``
and ``perfbench/layers.py`` call the package through module attributes such
as ``baselines.commit_features``; a rename or deletion in ``src/`` makes
benchmark runs raise ``AttributeError``. These tests load or parse those
files by path and only resolve the names: they install no tracer and change
nothing. The last one runs each workload once and counts the calls that the
benchmark's stated sizes promise.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from testscope import agent, environment
from testscope.baselines import HeuristicPolicy, StaticPolicy, train_classifier
from testscope.commits import generate_trace
from testscope.config import EnvConfig, TrainConfig
from testscope.evaluation import compare_policies, run_episode
from testscope.network import td_loss_and_grads

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(__file__).resolve().parent.parent / "src" / "testscope"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"
# the testscope modules that the workloads and the layer metrics import
BENCH_MODULES = ("agent", "baselines", "cli", "config", "evaluation", "network", "persist")


def load_perfbench(path: Path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_probe_binding_resolves():
    spans = load_perfbench(SPANS)
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


def unused_imports(tree: ast.Module) -> set[str]:
    """The names that the module-level imports of ``tree`` bind and the module never reads."""
    bound = {
        (alias.asname or alias.name).partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return bound - read


def test_probe_only_imports_are_the_ones_the_benchmark_binds():
    # a module imports a name it never calls only so that perfbench can
    # rebind it there; once no probe binds it, the import is dead code
    sample = "import os, sys.path\nfrom a import b as c, d\nprint(sys, d)"
    assert unused_imports(ast.parse(sample)) == {"os", "c"}
    spans = load_perfbench(SPANS)
    probed = {
        tuple(binding.removeprefix("testscope.").split(":"))
        for bindings in spans.PROBES.values()
        for binding in bindings
    }
    stray = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for name in sorted(unused_imports(ast.parse(path.read_text())))
        if (path.stem, name) not in probed
    ]
    assert not stray, "imported but never used, and bound by no perfbench probe: " + ", ".join(stray)


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


def test_the_env_encodes_each_state_through_the_probed_encoder(monkeypatch):
    # perfbench times the encoding by rebinding
    # testscope.environment.encode_state; a state read that stopped calling
    # it through that name would read 0 there without any error. Only
    # lockstep_states encodes, once per commit index after the first,
    # whether it reads one run (a training episode) or B runs; a step
    # encodes nothing, so a planner's episode makes no call
    calls = []
    encode = environment.encode_state

    def counted(*args):
        calls.append(args[1])
        return encode(*args)

    monkeypatch.setattr(environment, "encode_state", counted)
    cfg = EnvConfig(commits_per_episode=25)
    every_index = list(range(1, cfg.commits_per_episode))
    # one episode, too short to fill a minibatch, so nothing but the play runs
    train_cfg = TrainConfig(episodes=1, minibatch_size=32)
    agent.train_agent(cfg, train_cfg)
    assert calls == every_index
    calls.clear()
    agent.train_agents(cfg, train_cfg, (1.0, 5.0))
    assert calls == every_index
    calls.clear()

    def partial(states):
        return [environment.Action.PARTIAL_TESTS] * len(states)

    compare_policies({"partial": partial}, cfg, 5.0, n_runs=3)
    assert calls == every_index
    calls.clear()
    trace = generate_trace(cfg, 25, seed=3)
    run_episode(partial, trace, 5.0, cfg, seed=1)
    assert calls == every_index
    calls.clear()
    run_episode(StaticPolicy(), trace, 5.0, cfg, seed=1)
    compare_policies({"static": StaticPolicy(), "heuristic": HeuristicPolicy()}, cfg, 5.0, n_runs=3)
    assert calls == []


@pytest.mark.parametrize("workload", ["train", "evaluate", "sweep"])
def test_workload_sizes_match_the_calls_one_repetition_makes(monkeypatch, tmp_path, workload):
    # commits_per_s divides by Job.commits, and traced runs check both sizes;
    # a sweep trains its penalties in lockstep, one update call for all of
    # them, so it makes at most the stated updates
    job = load_perfbench(WORKLOADS).set_up(workload, 0, tmp_path)
    counts = {"step": 0, "td": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(environment.PipelineEnv, "step", counted("step", environment.PipelineEnv.step))
    monkeypatch.setattr(agent, "td_loss_and_grads", counted("td", agent.td_loss_and_grads))
    outcome = job.run(tmp_path)
    assert outcome.problems == []
    assert counts["step"] == job.commits
    if workload == "sweep":
        assert 0 < counts["td"] <= job.td_updates
    else:
        assert counts["td"] == job.td_updates
