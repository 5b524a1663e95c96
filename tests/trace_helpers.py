"""Traces built from commit records, for tests that make or edit commits one by one."""

from dataclasses import fields

import numpy as np

from testscope.commits import Commit, Trace, generate_trace, trace_records
from testscope.config import EnvConfig


def as_trace(commits) -> Trace:
    """The trace whose i-th commit has the fields of ``commits[i]`` (records
    or any objects with the trace's fields); ids and risk scores are dropped."""
    return Trace(*(np.array([getattr(c, f.name) for c in commits]) for f in fields(Trace)))


def records(cfg: EnvConfig, n: int, seed: int, mode: str | None = None) -> list[Commit]:
    """The records of ``generate_trace(cfg, n, seed, mode)``, risk scores included."""
    return trace_records(generate_trace(cfg, n, seed, mode), cfg)
