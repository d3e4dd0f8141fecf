"""Machine facts, and the host's speed sampled through a run.

The 2-core host this benchmark was tuned on switches each CPU between a
fast and a slow state (about 1.75x apart for interpreted code) every few
tenths of a second, and the share of slow time drifts from minute to
minute. A stage's wall time alone therefore spreads 13-47% between runs.

The benchmark pins its process to one CPU (``pin_to_one_cpu``) and samples
a small reference kernel on that CPU while the program runs, so that every
timed interval can be scaled to reference speed: raw time x
NOMINAL_INTERP_MS / the kernel time sampled during that interval.

- ``interp`` mixes the program's kinds of interpreted work: small numpy
  calls shaped like the encoder's per-view work, dict updates like the data
  generator's, and JSON encoding like the writers'. It is timed in the
  sampling thread's own CPU time.
  CPU time counts only the time the thread ran, so sharing the pinned CPU
  with the program does not inflate it, while the host's slow state does.
  A background thread takes a sample every SAMPLE_INTERVAL_S while a CLI
  stage runs; between single queries the main thread takes them itself.
- ``stream`` is row norms over a 50k x 32 float64 array, shaped like exact
  retrieval over a large store, sampled after every step for the record.
"""
from __future__ import annotations

import bisect
import ctypes
import json
import os
import platform
import statistics
import threading
import time

import numpy as np

# Interp kernel CPU time on the tuning host in its fast state. Fixed once;
# it only sets the scale of the figures given at reference speed.
NOMINAL_INTERP_MS = 0.25

# Sampled every 10 ms: a 0.1-0.2 s stage then gets 10-20 samples, enough to
# follow the host's switches. A sample costs about 0.3 ms.
SAMPLE_INTERVAL_S = 0.01
# samples this close to an interval also describe it
NEAR_S = 0.02


def pin_to_one_cpu() -> int:
    """Pin this process, and the threads it starts later, to its lowest
    allowed CPU; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostReference:
    """Owns the kernels' inputs, the sampling thread and every sample."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self._w = rng.standard_normal((16, 16))
        self._v = rng.standard_normal(16)
        self._floats = rng.random(60).tolist()
        self._rows = rng.standard_normal((50_000, 32))
        self._samples: list[tuple[float, float]] = []  # (perf_counter, interp CPU ms)
        self._sorted = None
        self.stream_ms: list[float] = []
        self._lock = threading.Lock()
        self._busy = threading.Lock()
        self._active = threading.Event()
        self._closed = False
        self._thread = threading.Thread(target=self._sample_while_active, name="host-reference", daemon=True)
        self._thread.start()

    # -- kernels ---------------------------------------------------------------

    def sample_interp(self) -> None:
        """One interp kernel sample, timed in the calling thread's CPU time."""
        start_wall = time.perf_counter()
        start_cpu = time.thread_time()
        w, v = self._w, self._v
        acc = 0.0
        for i in range(15):
            h = np.tanh(w @ v + i)
            acc += float(np.outer(h, v)[0, 0])
        counts: dict[int, float] = {}
        for i in range(150):
            counts[i % 17] = counts.get(i % 17, 0.0) + 1.0
        json.dumps(self._floats)
        ms = (time.thread_time() - start_cpu) * 1e3
        with self._lock:
            self._samples.append((start_wall, ms))
            self._sorted = None

    def sample(self) -> None:
        """Both kernels, in the calling thread."""
        self.sample_interp()
        start = time.perf_counter()
        np.linalg.norm(self._rows, axis=1)
        self.stream_ms.append((time.perf_counter() - start) * 1e3)

    # -- background sampling -------------------------------------------------------

    def _sample_while_active(self) -> None:
        while True:
            self._active.wait()
            if self._closed:
                return
            time.sleep(SAMPLE_INTERVAL_S)
            with self._busy:
                if self._active.is_set() and not self._closed:
                    self.sample_interp()

    def start(self) -> None:
        self._active.set()

    def stop(self) -> None:
        """Returns once no background sample is in progress."""
        self._active.clear()
        with self._busy:
            pass

    def close(self) -> None:
        self._closed = True
        self._active.set()
        self._thread.join(timeout=10.0)

    # -- estimates -----------------------------------------------------------------

    @property
    def interp_ms(self) -> list[float]:
        return [ms for _, ms in self._ordered()]

    def _ordered(self):
        with self._lock:
            if self._sorted is None:
                self._sorted = sorted(self._samples)
                self._times = [t for t, _ in self._sorted]
            return self._sorted

    def interp_near(self, start: float, end: float) -> float:
        """Mean interp kernel time (ms) of the samples taken within NEAR_S of
        [start, end], or of the nearest sample when there is none."""
        samples = self._ordered()
        lo = bisect.bisect_left(self._times, start - NEAR_S)
        hi = bisect.bisect_right(self._times, end + NEAR_S)
        if lo < hi:
            return statistics.fmean(ms for _, ms in samples[lo:hi])
        nearest = min(samples[max(lo - 1, 0): lo + 1], key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))
        return nearest[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ
        },
    }
