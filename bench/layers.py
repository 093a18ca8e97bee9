"""Per-layer tracing from outside the package.

``Tracer`` replaces public functions of the ``bifluor`` modules by timing
wrappers, in every ``bifluor`` module that holds them: ``cli`` imports
most names directly, so a wrapper has to go wherever a caller looks the
name up.  Spans nest, and a span's self time is its duration minus the
time its child spans cover.  A metric accumulates only its outermost
span, so a writer that calls another writer is not counted twice.

Pool children are forked with the wrappers in place.  A wrapper does
nothing outside the process that installed it, so rows computed in a
pool are not traced.
"""

from __future__ import annotations

import os
import resource
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Span times and counts of the calls made while its wrappers are in place."""

    def __init__(self):
        self.pid = os.getpid()
        self.total = defaultdict(float)  # metric -> inclusive seconds
        self.self_time = defaultdict(float)  # metric -> self seconds
        self.counts = defaultdict(float)
        self._stack = []  # open spans as [metric, seconds covered by children]
        self._patched = []  # (module, attribute, original)

    def _install(self, module: str, attr: str, make) -> None:
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", None) or ""
            if name.split(".")[0] == "bifluor" and mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapper)
                self._patched.append((mod, attr, original))

    def span(self, module: str, attr: str, metric: str, on_result=None, around=None):
        """Time calls of ``module.attr`` as ``metric``.

        ``on_result(tracer, result)`` records counts from the return
        value.  ``around(tracer, kwargs)`` is a context manager entered
        round the call.
        """

        def make(fn):
            def wrapper(*args, **kwargs):
                if os.getpid() != self.pid:
                    return fn(*args, **kwargs)
                outer = all(frame[0] != metric for frame in self._stack)
                frame = [metric, 0.0]
                self._stack.append(frame)
                t0 = time.perf_counter()
                try:
                    if around is None:
                        result = fn(*args, **kwargs)
                    else:
                        with around(self, kwargs):
                            result = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    self._stack.pop()
                    if self._stack:
                        self._stack[-1][1] += dt
                    if outer:
                        self.total[metric] += dt
                        self.self_time[metric] += dt - frame[1]
                    self.counts[metric.removesuffix(".s") + ".calls"] += 1
                if on_result is not None:
                    on_result(self, result)
                return result

            return wrapper

        self._install(module, attr, make)

    def counter(self, module: str, attr: str, on_call):
        """Count from calls of ``module.attr`` without opening a span.

        ``on_call(tracer, args, kwargs, result)``.
        """

        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if os.getpid() == self.pid:
                    on_call(self, args, kwargs, result)
                return result

            return wrapper

        self._install(module, attr, make)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _rhs_evals(tr, _args, _kwargs, sol):
    tr.counts["floquet.rhs_evals"] += sol.nfev


def _cutoff(tr, state):
    tr.counts["floquet.cutoff"] = max(tr.counts["floquet.cutoff"], state.cutoff)


def _map_rows(tr, result):
    tr.counts["scans.rows"] += result.delta2.size
    tr.counts["scans.row_failures"] += len(result.failures)


def _subharmonic_rows(tr, scan):
    tr.counts["scans.rows"] += scan.delta3.size
    tr.counts["scans.row_failures"] += int(np.sum(~np.isfinite(scan.intensity)))


def _fit_iterations(tr, fit):
    tr.counts["bloch.fit_mollow.n_iter"] += fit.n_iter


def _bytes_written(tr, args, kwargs, _result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tr.counts["csvio.bytes"] += len(text.encode())


@contextmanager
def _pool_usage(tr, kwargs):
    """Child CPU of a scan call, and worker-seconds when it used a pool."""

    def children_cpu():
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime

    cpu0, t0 = children_cpu(), time.perf_counter()
    try:
        yield
    finally:
        tr.counts["scans.pool_child_cpu_s"] += children_cpu() - cpu0
        workers = int(kwargs.get("workers", 1))
        if workers > 1:
            tr.counts["scans.pool_worker_s"] += workers * (time.perf_counter() - t0)


def install_layers(tr: Tracer) -> None:
    """Wrap the public functions of each layer the benchmark reports."""
    tr.counter("bifluor.floquet", "solve_ivp", _rhs_evals)
    tr.span("bifluor.floquet", "half_fourier", "floquet.half_fourier.s")
    tr.span(
        "bifluor.floquet", "periodic_steady_state", "floquet.periodic_steady_state.s", _cutoff
    )
    tr.span(
        "bifluor.floquet", "build_periodic_liouvillian", "floquet.build_periodic_liouvillian.s"
    )
    tr.span("bifluor.floquet", "emission_spectrum", "floquet.emission_spectrum.s")
    tr.span("bifluor.scans", "detuning_map", "scans.detuning_map.s", _map_rows, _pool_usage)
    tr.span(
        "bifluor.scans",
        "subharmonic_scan",
        "scans.subharmonic_scan.s",
        _subharmonic_rows,
        _pool_usage,
    )
    tr.span("bifluor.scans", "degenerate_spectrum", "scans.degenerate_spectrum.s")
    tr.span("bifluor.scans", "fit_delta1", "scans.fit_delta1.s")
    tr.span("bifluor.bloch", "mollow_spectrum", "bloch.mollow_spectrum.s")
    tr.span("bifluor.bloch", "fit_mollow", "bloch.fit_mollow.s", _fit_iterations)
    tr.span("bifluor.dressed", "doubly_dressed_lines", "dressed.doubly_dressed_lines.s")
    tr.span("bifluor.config", "load_config", "config.load_config.s")
    tr.counter("bifluor.csvio", "atomic_write_text", _bytes_written)
    for attr in (
        "atomic_write_text",
        "write_keyvalue",
        "write_spectrum",
        "write_map",
        "write_curve",
        "write_dip_report",
        "write_lines",
    ):
        tr.span("bifluor.csvio", attr, "csvio.write.s")


@contextmanager
def _peak_alloc(tr, _kwargs):
    tracemalloc.start()
    try:
        yield
    finally:
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        tr.counts["floquet.peak_alloc_mb"] = max(tr.counts["floquet.peak_alloc_mb"], peak)


def install_alloc_probe(tr: Tracer) -> None:
    """Record the tracemalloc peak inside each emission_spectrum call.

    tracemalloc slows the engine about fourfold, so the probe runs in a
    pass of its own and never beside the timing spans.
    """
    tr.span("bifluor.floquet", "emission_spectrum", "probe.emission_spectrum.s", around=_peak_alloc)
