"""Every binding the benchmark's span tracer rebinds must still exist.

``perfbench/spans.py`` wraps module attributes such as
``testscope.evaluation:run_episode`` by name; a rename or deletion in
``src/`` makes traced benchmark runs raise ``AttributeError``. This test
loads that file by path and only resolves the bindings: it installs no
tracer and changes nothing.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

from testscope.network import td_loss_and_grads

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
