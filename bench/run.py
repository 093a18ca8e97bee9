"""Benchmark of the bifluor command line products.

    python3 bench/run.py --workload spectrum --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``bifluor`` from its
``src/`` directory.  One client issues the workload's fixed list of
products one after another (a closed loop), each an in-process call of
``bifluor.cli.main`` on configs generated from ``--seed``.  The list is
repeated while the slowest pass so far still fits in ``--seconds``, and
runs at least once.  Every product passes a correctness gate or counts
as failed.  Timings are scaled to a reference speed of the host, which a
thread samples while the run measures (``HostSpeed``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Earlier lines
record the run's context and every metric by name and unit.  Products
and configs live in a temporary directory under ``.bench_tmp/``, which
the run removes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3  # fresh-process imports per run
CAL_REF_S = 0.02  # CPU time of the host speed kernel at the reference speed
CAL_PERIOD_S = 0.25  # pause between two host speed samples
CAL_PAD_S = 1.0  # samples this close to an interval count towards its scale
CAL_SWITCH_S = 0.05  # GIL switch interval while sampling
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# metric names and units, as BENCHMARK.json at the checkout root lists them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# span metrics reported as self time; every other span is inclusive
SELF_TIME = {"floquet.emission_spectrum.s"}


def _cpu() -> float:
    """User plus system CPU of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def measure_setup(cwd: Path) -> float:
    """Fresh-process import time of ``bifluor`` and ``bifluor.cli``."""
    code = (
        "import time; t = time.perf_counter(); import bifluor, bifluor.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def context() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def _pass_wall(ops: list[dict]) -> float:
    return sum(op["wall"] for op in ops)


def _speed_kernel() -> None:
    """Fixed work of the engine's kind: RK45 steps of a Python right-hand
    side on a 4 x 16 complex matrix, about 0.02 s of CPU."""
    import numpy as np
    from scipy.integrate import solve_ivp

    a = np.random.default_rng(0).standard_normal((4, 4)) - 3.0 * np.eye(4)

    def rhs(t, y):
        return (a @ y.reshape(4, 16) * np.exp(1j * t)).reshape(-1)

    solve_ivp(rhs, (0.0, 1.0), np.ones(64, complex), rtol=1e-10, atol=1e-12)


class HostSpeed:
    """Rescales wall and CPU time to the reference speed of the host.

    A shared host runs the same code up to 1.8 times slower in spells of
    seconds to minutes, and CPU time slows with wall time, so two runs of
    one commit differ by more than any useful bound.  A thread times the
    fixed kernel every ``CAL_PERIOD_S`` while the run measures.  It holds
    the GIL while it computes, so in a product that runs in this process
    it takes turns with the product's own steps instead of running beside
    them.  An interval's scale is ``CAL_REF_S`` over the mean kernel CPU
    time sampled within ``CAL_PAD_S`` of it, and the kernel's CPU time
    inside a product is taken off the product's times.  Scaled times are
    seconds at the speed where the kernel takes ``CAL_REF_S``: a change
    to the program moves them, a spell of the host much less.
    """

    def __init__(self):
        _speed_kernel()  # warm-up
        self.samples = []  # (start, end, kernel CPU seconds)
        self._stop = threading.Event()
        self._lock = threading.Lock()  # held while the kernel runs or is paused
        # a switch interval longer than the kernel lets it run in one piece
        self._switch = sys.getswitchinterval()
        sys.setswitchinterval(CAL_SWITCH_S)
        # pool workers are forked while the thread lives; it takes no lock
        # outside this object and the GIL, so a forked child cannot block on it
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while True:
            with self._lock:
                start, c0 = time.perf_counter(), time.thread_time()
                _speed_kernel()
                self.samples.append((start, time.perf_counter(), time.thread_time() - c0))
            if self._stop.wait(CAL_PERIOD_S):
                return

    @contextlib.contextmanager
    def paused(self):
        """No sample is taken inside; for work in another process, which a
        sample would slow by sharing the core."""
        with self._lock:
            yield

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch)

    def scale(self, start: float, end: float) -> float:
        lo, hi = start - CAL_PAD_S, end + CAL_PAD_S
        near = [cpu for a, b, cpu in self.samples if a >= lo and b <= hi]
        if not near:
            raise RuntimeError(f"no host speed sample near [{start:.1f}, {end:.1f}] s")
        return CAL_REF_S / statistics.fmean(near)

    def overlap(self, start: float, end: float) -> float:
        """Kernel CPU seconds taken inside ``[start, end]``, pro rata."""
        total = 0.0
        for a, b, cpu in self.samples:
            inside = min(b, end) - max(a, start)
            if inside > 0.0:
                total += cpu * inside / (b - a)
        return total


class Runner:
    """Runs a workload's products and checks each against its gate."""

    def __init__(self, workload: workloads.Workload, work: Path):
        from bifluor import cli

        self.cli = cli
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failures = []  # (product index, reason)
        for i, product in enumerate(workload.products):
            pdir = workloads.product_dir(work, i, product.sub)
            pdir.mkdir(parents=True)
            (pdir / "run.ini").write_text(product.config)

    def run_product(self, index: int, tracer=None, install=layers.install_layers) -> dict:
        """Run one product, tracing it when given a tracer, and gate its output."""
        product = self.workload.products[index]
        pdir = workloads.product_dir(self.work, index, product.sub)
        if product.prepare:
            product.prepare(pdir)
        argv = [product.sub, "--config", str(pdir / "run.ini"), "--out", str(pdir / "out")]
        argv += product.args
        if product.data:
            argv += ["--data", str(pdir / product.data)]
        sink = io.StringIO()
        if tracer is not None:
            install(tracer)
        cpu0 = _cpu()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:  # an uncaught error ends a real CLI run with exit code 1
            code = 1
            sink.write(traceback.format_exc())
        finally:
            wall = time.perf_counter() - t0
            cpu = _cpu() - cpu0
            if tracer is not None:
                tracer.uninstall()
        self.attempted += 1
        reason = f"exit code {code}: {sink.getvalue()[-300:]!r}" if code != 0 else None
        n_warnings = 0
        if reason is None:
            try:
                reason = product.gate(pdir / "out")
                meta = workloads.read_keyvalue(pdir / "out" / "metadata.txt")
                n_warnings = int(meta["n_warnings"])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures.append((index, reason))
        return {
            "sub": product.sub,
            "start": t0,
            "end": t0 + wall,
            "wall": wall,
            "cpu": cpu,
            "warnings": n_warnings,
        }

    def run_pass(self, tracer=None) -> list[dict]:
        return [self.run_product(i, tracer) for i in range(len(self.workload.products))]


def timings(passes: list[list[dict]], setup: list[float], scaled: bool = True) -> dict:
    """Medians over the run, in reference-speed seconds unless ``scaled`` is false."""

    def times(key):
        return [[op[key] * (op["scale"] if scaled else 1.0) for op in ops] for ops in passes]

    walls, cpus = times("wall"), times("cpu")
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(sum(w) for w in walls),
        "op_p50_s": statistics.median(t for w in walls for t in w),
        "op_max_s": statistics.median(max(w) for w in walls),
        "cpu_s": statistics.median(sum(c) for c in cpus),
    }


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its largest child's."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def per_layer(runner: Runner, untraced: list[dict]) -> dict:
    """One traced pass, then the tracemalloc probe; returns the layer metrics.

    ``untraced`` is the pass just before, the baseline of the overhead.
    """
    tracer = layers.Tracer()
    ops = runner.run_pass(tracer)
    out = {}
    for name in PER_LAYER:
        if name in tracer.total:
            out[name] = tracer.self_time[name] if name in SELF_TIME else tracer.total[name]
        else:
            out[name] = tracer.counts.get(name, 0.0)
    for op in ops:
        out[f"cli.{op['sub']}.s"] += op["wall"]
        out["cli.warnings"] += op["warnings"]
    worker_s = tracer.counts.get("scans.pool_worker_s", 0.0)
    if worker_s > 0.0:
        out["scans.pool_efficiency"] = out["scans.pool_child_cpu_s"] / worker_s
    out["trace.run_s"] = _pass_wall(ops)
    out["trace.overhead_s"] = out["trace.run_s"] - _pass_wall(untraced)
    if runner.workload.mem_probe is not None:
        probe = layers.Tracer()
        runner.run_product(runner.workload.mem_probe, probe, layers.install_alloc_probe)
        out["floquet.peak_alloc_mb"] = probe.counts["floquet.peak_alloc_mb"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_before = os.getloadavg()
    if not (SRC / "bifluor" / "__init__.py").is_file():
        print(f"error: no bifluor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bifluor

    if Path(bifluor.__file__).resolve().parent != SRC / "bifluor":
        print(f"error: imported bifluor from {bifluor.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ctx = context()
    ctx["loadavg_before"] = load_before
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    speed = None
    try:
        workload = workloads.BUILDERS[args.workload](args.seed, work)
        runner = Runner(workload, work)
        # set-up samples go between the passes, so that they span the run;
        # no pass starts that the slowest so far says would overrun --seconds
        t0 = time.perf_counter()
        speed = HostSpeed()
        n_setup = 0 if args.trace else SETUP_SAMPLES
        setup, passes = [], []  # set-up samples as (seconds, start, end)
        setup_cost = longest = 0.0

        def sample_setup():
            nonlocal setup_cost
            with speed.paused():
                start = time.perf_counter()
                seconds = measure_setup(work)
                end = time.perf_counter()
            setup.append((seconds, start, end))
            setup_cost = max(setup_cost, end - start)

        def seconds_left() -> float:
            pending = (n_setup - len(setup)) * setup_cost
            return args.seconds - (time.perf_counter() - t0) - pending

        if n_setup:
            sample_setup()
        while not passes or longest < seconds_left():
            t_pass = time.perf_counter()
            passes.append(runner.run_pass())
            longest = max(longest, time.perf_counter() - t_pass)
            if len(setup) < n_setup:
                sample_setup()
        while len(setup) < n_setup:
            sample_setup()
        speed.stop()
        for ops in passes:
            for op in ops:
                # the kernel's own CPU time inside a product is not the product's
                busy = speed.overlap(op["start"], op["end"])
                op["wall"] -= busy
                op["cpu"] -= busy
                op["scale"] = speed.scale(op["start"], op["end"])
        setup_scaled = [sec * speed.scale(start, end) for sec, start, end in setup]
        metrics = timings(passes, setup_scaled or [0.0]) | {"peak_rss_mb": peak_rss_mb()}
        raw = timings(passes, [sec for sec, _, _ in setup] or [0.0], scaled=False)
        units = PER_LAYER if args.trace else END_TO_END
        if args.trace:
            metrics = per_layer(runner, passes[-1])
    finally:
        if speed is not None:
            speed.stop()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # left in place while another run uses it

    ctx["loadavg_after"] = os.getloadavg()
    ctx["passes"] = len(passes)
    ctx["loaded"] = ctx["loadavg_before"][0] > ctx["nproc"]
    kernel_s = [cpu for _, _, cpu in speed.samples]
    ctx["host_speed_kernel_s"] = [min(kernel_s), statistics.median(kernel_s), max(kernel_s)]
    ctx["host_speed_samples"] = len(kernel_s)
    ctx["setup_samples_s"] = [sec for sec, _, _ in setup]
    print("context " + json.dumps(ctx))
    if ctx["loaded"]:
        print("warning: the run started with a load average above nproc")
    if not args.trace:
        for name, value in raw.items():
            print(f"unscaled {name} = {value:.6g} s")
    if args.trace and workload.trace_note:
        print(f"note: {workload.trace_note}")
    for index, reason in runner.failures:
        print(f"failed: product {index} ({workload.products[index].sub}): {reason}")
    failed_frac = len(runner.failures) / runner.attempted
    for name, unit in [*units.items(), ("failed_frac", "frac")]:
        value = failed_frac if name == "failed_frac" else metrics[name]
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not runner.failures,
                "attempted": runner.attempted,
                "failed": len(runner.failures),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
