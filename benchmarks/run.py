#!/usr/bin/env python3
"""Run one ffrd benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
process runs one workload closed-loop, one library call at a time, and
repeats the workload until ``--seconds`` have passed (at least one pass).
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics.  ``--workload all`` runs each workload in a fresh process.
The last line of output is one JSON object; the lines before it give every
metric by name with its unit, the environment, and each failed check.  The
run's record goes to ``benchmarks/out/<workload>.json`` and is compared with
the committed ``benchmarks/records/<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
RECORDS = HERE / "records"
WORKLOADS = ("sweep", "certify", "simulate")
SETUP_PROBES = 3

# BLAS threads are pinned before numpy is first imported.
BLAS_THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path.insert(0, str(SRC))

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PRINTED_UNITS = {"wall_s": "s", "ops": "count", "ops_failed": "count", "known_defects": "count"}


def per_layer_unit(name: str) -> str:
    special = {"solver.us_per_iter": "us", "solver.cells_per_s": "1/s",
               "curves.zero_rate_iter_share": "fraction"}
    return special.get(name, "s" if name.endswith("_s") else "count")


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": BLAS_THREADS, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "seed": seed}


def _probe_step(x: int, table: dict) -> int:
    table[x % 101] = table.get(x % 101, 0) + x
    return x + 1


class SpeedProbe:
    """Measures the CPU's speed while timed work runs.

    The cores of a shared host change speed by up to 40% for seconds at a
    time, more than the changes this benchmark should resolve.  While active,
    a SIGALRM handler runs a fixed probe every ``interval_s`` on the
    benchmark's own thread: interpreter work (calls, dict updates, a sort)
    and, once numpy is loaded, numpy scalar indexing and small reductions --
    the kinds of work the workloads do.  The probe uses no ffrd code, so a
    change to the package cannot move it.  A timed interval, less the probe's
    own time, is rescaled to the speed at which one probe takes ``ref_s``.
    """

    def __init__(self, interval_s: float = 0.1, with_numpy: bool = True):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._floats = [((i * 7919) % 3001) / 3001 for i in range(3000)]
        self._np = None
        self.ref_s = 0.0011
        if with_numpy:
            import numpy as np
            rng = np.random.default_rng(0)
            self._np = np
            self._matrix = rng.random((64, 64))
            self._symbols = rng.integers(0, 2, 400)
            self.ref_s = 0.0025

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        table: dict = {}
        x = 0
        for _ in range(4000):
            x = _probe_step(x, table)
        sorted(self._floats)
        np = self._np
        if np is not None:
            out = np.empty(400, dtype=np.int64)
            for t in range(400):
                x = x * 2 % 1021 + int(self._symbols[t])
                out[t] = x
            a = self._matrix
            for _ in range(60):
                a = np.exp2(-a).sum(axis=1, keepdims=True) * self._matrix
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy_s(self) -> float:
        """Time the probe itself took."""
        return sum(self.samples)

    def at_reference_speed(self, elapsed: float) -> float:
        """The interval's own time, scaled by its mean speed relative to ref_s."""
        own = elapsed - self.busy_s()
        if not self.samples:
            return own
        return own * statistics.fmean(self.ref_s / s for s in self.samples)


def setup_samples(name: str, count: int) -> list[float]:
    """Set-up times (import ffrd, build the inputs) of fresh interpreters,
    at the reference speed."""
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--setup-probe"],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def compare_with_record(ops: list, name: str) -> None:
    """Flag any rate that moved by more than its tolerance since the record."""
    path = RECORDS / f"{name}.json"
    if not path.exists():
        return
    recorded = json.loads(path.read_text())["ops"]
    for op in ops:
        old = recorded.get(op.key, {})
        if "R" in op.record and "R" in old:
            moved = op.record["R"] - old["R"]
            if abs(moved) > op.record["rate_tol"]:
                op.failures.append(f"rate moved by {moved:.3e} since the record "
                                   f"(tolerance {op.record['rate_tol']:.3e})")


def execute(workload, seed: int, seconds: float, trace: bool, refs=None,
            setup_probes: int = SETUP_PROBES, out_dir: Path = OUT) -> dict:
    """Run the passes, check every operation, print and return the result."""
    import workloads
    from tracing import Tracer, layer_metrics

    refs = refs or workloads.References()
    inputs = workload.setup()
    setups = [] if trace else setup_samples(workload.name, setup_probes)

    def checked(calls, inputs):
        ops = workload.check(calls, inputs, refs)
        compare_with_record(ops, workload.name)
        return ops

    passes, walls, ref_walls, traced_walls, traced_metrics = [], [], [], [], []
    tracer, spans = Tracer(), []
    start = time.perf_counter()
    while True:
        if trace:
            t0 = time.perf_counter()
            calls = workload.run(inputs, seed)
            walls.append(time.perf_counter() - t0)
        else:
            with SpeedProbe() as probe:
                t0 = time.perf_counter()
                calls = workload.run(inputs, seed)
                wall = time.perf_counter() - t0
            walls.append(wall - probe.busy_s())
            ref_walls.append(probe.at_reference_speed(wall))
        passes.append(checked(calls, inputs))
        del calls  # no pass's results stay alive during the next pass
        if len(walls) == 1:
            # Later passes add allocator fragmentation, and how many passes
            # fit depends on the machine's speed, so the peak is taken here.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            tracer.install()
            try:
                with tracer.span("bench.setup"):
                    traced_inputs = workload.setup()
                t0 = time.perf_counter()
                with tracer.span("bench.pass"):
                    calls = workload.run(traced_inputs, seed)
                traced_walls.append(time.perf_counter() - t0)
            finally:
                tracer.restore()
            # Only the last traced pass's spans are kept, to bound memory.
            spans = tracer.take()
            traced_metrics.append(layer_metrics(spans))
            passes.append(checked(calls, traced_inputs))
            del calls
        if time.perf_counter() - start >= seconds:
            break

    ops = passes[0]
    failures: dict[str, list] = {}
    for pass_ops in passes:
        for op in pass_ops:
            for msg in op.failures:
                failures.setdefault(op.key, [])
                if msg not in failures[op.key]:
                    failures[op.key].append(msg)
    known = [key for key in failures if key in workload.known_defects]
    attempted = len(ops) - len(known)
    failed = len(failures) - len(known)

    counts = {"ops": len(ops), "ops_failed": len(failures), "known_defects": len(known)}
    if trace:
        metrics = {k: statistics.fmean(m[k] for m in traced_metrics) for k in traced_metrics[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics = {"wall_ref_s": statistics.median(ref_walls),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
        counts = {"wall_s": statistics.median(walls), **counts}

    env = environment(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name, "trace": trace, "env": env,
        "pass_walls_s": walls, "ref_pass_walls_s": ref_walls,
        "traced_pass_walls_s": traced_walls,
        "metrics": metrics, "counts": counts,
        "ops": {op.key: {"seconds": op.seconds, **op.record,
                         "failures": failures.get(op.key, [])} for op in ops},
    }
    suffix = "-trace" if trace else ""
    (out_dir / f"{workload.name}{suffix}.json").write_text(json.dumps(record, indent=1))
    if trace:
        (out_dir / f"{workload.name}-spans.json").write_text(json.dumps(spans))

    print("env " + json.dumps(env))
    print(f"workload {workload.name}: {len(walls)} untraced pass(es) "
          + " ".join(f"{w:.3f}" for w in walls)
          + (f"; {len(traced_walls)} traced " + " ".join(f"{w:.3f}" for w in traced_walls)
             if trace else ""))
    for key, msgs in failures.items():
        label = "KNOWN DEFECT" if key in workload.known_defects else "FAIL"
        reason = f" [{workload.known_defects[key]}]" if key in workload.known_defects else ""
        print(f"{label} {key}: {'; '.join(msgs)}{reason}")
    for key in workload.known_defects:
        if key not in failures and any(op.key == key for op in ops):
            print(f"FIXED known defect {key} now passes its check")
    for name, value in {**metrics, **counts}.items():
        print(f"{name} {value} {units.get(name) or PRINTED_UNITS[name]}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ffrd" / "__init__.py").is_file():
        print(f"error: no ffrd package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        rc = 0
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            rc = max(rc, subprocess.run(cmd, timeout=600).returncode)
        return rc

    if args.setup_probe:
        # numpy is not loaded yet: its import is most of what is measured.
        with SpeedProbe(interval_s=0.02, with_numpy=False) as probe:
            t0 = time.perf_counter()
            import workloads
            workloads.BUILDERS[args.workload]().setup()
            elapsed = time.perf_counter() - t0
        print(probe.at_reference_speed(elapsed))
        return 0
    import ffrd
    import workloads
    if Path(ffrd.__file__).resolve().parent != (SRC / "ffrd").resolve():
        print(f"error: imported ffrd from {ffrd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    execute(workloads.BUILDERS[args.workload](), args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
