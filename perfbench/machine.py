"""The machine record kept with every result, and the machine-speed probe.

The probe is a fixed piece of interpreter and small-matrix work that uses no
testscope code, so no change to the package can move it. On a shared host
the speed of a core drifts by up to 1.6x within seconds (see README.md);
dividing each timing by the probe time measured around it removes most of
that drift from the reported figures.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import time
from pathlib import Path

import numpy as np

# Probe time, in seconds, at the reference speed: a reported time is the
# time on a core that runs the probe in this long (about the fastest state
# of the 2-core host the bounds were set on).
PROBE_REF_S = 0.018

_RNG = np.random.default_rng(12345)
_MATRIX = _RNG.random((64, 64)) / 64.0
_STATES = _RNG.random((64, 10))
_ROW = _RNG.random(10)


def speed_probe(repeats: int = 1) -> float:
    """Mean wall time of the fixed probe work over ``repeats`` rounds, in seconds."""
    start = time.perf_counter()
    acc = 0.0
    b = _MATRIX
    for i in range(600 * repeats):
        b = _MATRIX @ b + 0.5
        h = np.maximum(_STATES @ b[:10], 0.0)
        acc += float(np.clip(_ROW * (i % 7), 0.0, 1.0).sum()) + float(h[0, 0])
        acc += sum(j * 0.5 for j in range(20))
    if not np.isfinite(acc):
        raise RuntimeError("speed probe produced a non-finite value")
    return (time.perf_counter() - start) / repeats


def probe_repeats(measured_s: float, share: float = 0.06) -> int:
    """Probe rounds that take about ``share`` of a measurement of ``measured_s``.

    A probe as long as a fixed share of what it calibrates keeps the probe's
    own noise a fixed share of the result's.
    """
    return max(1, round(share * measured_s / PROBE_REF_S))


def trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean after dropping the lowest and highest ``cut`` share of values."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    kept = ordered[k : len(ordered) - k]
    return sum(kept) / len(kept)


def at_reference_speed(times: list[float], probes: list[float]) -> float:
    """Typical time of ``times`` on a core running the probe in ``PROBE_REF_S``.

    ``probes`` are the probe times measured next to ``times`` in the same
    run; the ratio of their trimmed means cancels the run's average speed.
    """
    return trimmed_mean(times) * PROBE_REF_S / trimmed_mean(probes)


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    # numpy wheels bundle OpenBLAS under a prefixed symbol name
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                record["threads"] = getter()
                return record
    return record


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def machine_record(root: Path) -> dict:
    """Informational facts about where and on what a result was measured."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": git_commit(root),
        "src_lines": src_lines(root),
    }
