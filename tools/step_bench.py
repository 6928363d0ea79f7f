#!/usr/bin/env python3
"""Cost of one solver step, a hash of the benchmark's answers, and cold-start cost.

    python3 tools/step_bench.py --out step.json
    python3 tools/step_bench.py --answers
    python3 tools/step_bench.py --startup
    python3 tools/step_bench.py --budgets
    python3 tools/step_bench.py --overhead
    python3 tools/step_bench.py --src OTHER_TREE/src --out other.json

Step mode solves Markov(0.3, 0.2) with Hamming distortion at each block
length n = 3..10 as a lockstep stack (``solver._solve_lockstep``) of each
width 1, 4 and 16 that fits ``solver._STACK_CELLS`` table cells, so that
the call steps all its members together; width 1 always runs, as that call
always allows one member.  The members' tolerance is out of reach, so
every member runs exactly ``iterations`` steps.  Each case records:

- ``us_per_iter``: wall time of the whole solve over its iterations, the
  median of ``REPEATS`` solves;
- ``faults_per_iter``: minor page faults (``resource.getrusage``) per step,
  over the steps after the first two, which touch a fresh workspace, in a
  solve of ``PROBE_STEPS`` steps;
- ``tracemalloc_peak_bytes``: the largest traced allocation peak of one of
  those steps above the memory traced when it began (numpy reports its data
  buffers to ``tracemalloc``);
- ``workspace_bytes``: the bytes of the arrays the stack's solver workspace
  (``solver._Workspace``) owns, each buffer counted once and views left
  out, counted as the Tier-1 memory guard counts them
  (``tests/helpers.py``, ``workspace_bytes``);
- ``context_table_bytes``: the size of one member's kernel context table,
  for scale.

Faults and peaks come from separate solves with ``solver._step_stack``
wrapped, so they do not slow the timed ones.  Its hooks, and those of
answers and budgets mode (``counted_steps``), wrap the step entry
``_step_stack(ws)``, which takes the stack's ``solver._Workspace`` alone.  Answers mode prints a SHA-256
over R, D, F_final, channel and kernel of every point of the benchmark's
three ``sweep`` curves and of its ``certify`` solves, one over the factors
of every point's kernel, and two more over the certificates
(``certificate_from_solution``) of the ``certify`` solves: one over their
gamma and one over their dense p' tables (``p_prime_table`` in C order,
which does not depend on how a certificate stores p'), so two trees can be
checked to give the same answers bit for bit, and a change to one part of
the certificate told from a change to the other.  ``trace_sha256`` covers the trace rows
(``RatePoint.trace``) of every one of those points, so a change to how a
solve records its iterations shows even where no answer moves.
``reconstruct_sha256`` covers the channel ``reconstruct_channel`` rebuilds
from the n=5, lam=9 certificate.
A last one, ``simulate_sha256``, covers the ``to_json()`` bytes of the
reports of the benchmark's two ``simulate`` runs at seeds 1 and 7, so
simulator changes can be checked bit for bit too.  ``iterations`` is the
total iteration count of the points the first two digests cover, so a
change that moves last bits but no iteration count shows as such.
``sweeps`` gives, for each sweep curve, the iterations of its points, its
``lockstep_steps`` (``solver._step_stack`` calls), its
``member_steps`` (the stack widths of those calls summed) and its
``masked_steps`` (the steps on which ``prob._FactorSpace.factorize``
returned False: some context carried no joint mass, so the step took its
restricted-support path), so a change in how ``sweep`` batches its points
shows beside the unchanged iterations.  Each ``sweeps`` entry also has its
own ``sha256`` over its curve's points, and ``solve_sha256`` covers the
``certify`` solves alone, so a change that moves only sweep answers shows
as such.
It also records ``blas_threads``, the ``OPENBLAS_NUM_THREADS`` it ran under
("unset" when not set); no digest should change with it.
Budgets mode sweeps each curve of ``BUDGET_CURVES`` (Markov(0.3, 0.2)
with Hamming distortion on the default grid at n = 2..5 and at n = 6
with delay 2, and the benchmark's ternary parity curve at n = 2 and
``stock`` delay 2 curve at n = 4, each on its benchmark grid) under the
default ``solver._STACK_CELLS`` and under budgets of 2 and 4 members'
table cells, and records for each its ``lockstep_steps``,
``member_steps``, total ``iterations`` and wall time, so that two trees'
schedules can be compared curve by curve.
Overhead mode splits the cost of a lockstep step into a part fixed per
step and a part per member: on each of ``OVERHEAD_CURVES`` (the tables of
the benchmark's three ``sweep`` curves and the n=8 table of its
``certify`` solves) it times a ``solver._solve_lockstep`` of each width
of ``OVERHEAD_WIDTHS`` whose members all run ``steps`` steps (their
tolerance is out of reach), takes the least µs per step of
``OVERHEAD_REPEATS`` calls (the box's noise only adds time), and fits
``fixed_us + per_member_us * width`` by least squares.  The n=8 table
is past the stack budget, so a solve steps it alone, and wider stacks of
it cost more than linearly per member (407 µs at width 1, 4,950 µs at
width 8 on 2 shared CPUs): its fit, with a negative fixed part, shows
only that; read its width-1 time.  It also counts
the numpy calls per step at each width (``numpy_calls``): the calls of
numpy's functions, ufuncs and ufunc methods, wrapped in the ``numpy``
namespace while the call runs, and of array methods called from the
package's own code, seen by ``sys.setprofile`` (which does not see an
array method bound in a prebuilt ``functools.partial``, such as the map
class sum's ``fill``); the count of a lockstep
of 2 * ``CALL_STEPS`` steps less that of one of ``CALL_STEPS``, over
``CALL_STEPS``.  It drives only ``_solve_lockstep``, so ``--src`` can
point it at a tree whose step has another signature.
Startup mode times fresh interpreters: the median wall time of
``STARTUP_RUNS`` runs each of ``python -c pass``, ``python -c "import ffrd"``
and ``python -m ffrd.cli --help``, and lists the top-level packages outside
the standard library that ``import ffrd`` adds to ``sys.modules``.
``--src`` imports ``ffrd`` from another tree's ``src``; the benchmark
definitions always come from this tree's ``benchmarks``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from functools import wraps
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NS = range(3, 11)
WIDTHS = (1, 4, 16)
REPEATS = 3  # timed solves per case
PROBE_STEPS = 12  # steps of the fault and tracemalloc solves
STEADY_FROM = 3  # the first step whose faults and peak are counted
TARGET_CELL_STEPS = 2e7  # iterations * stack cells per timed solve
STARTUP_RUNS = 5  # fresh interpreters per startup timing
#: (key, benchmark curve it is built on, block length, delay or None for
#: the curve's own, default grid instead of the curve's)
BUDGET_CURVES = [(f"markov-hamming-n{n}", "markov-hamming-n6", n, None, True)
                 for n in range(2, 6)] + [
    ("markov-hamming-n6-delay2", "markov-hamming-n6", 6, 2, True),
    ("ternary-parity-n2", "ternary-parity-n3", 2, None, False),
    ("markov-stock-n4-delay2", "markov-stock-n6-delay2", 4, None, False)]
BUDGET_MEMBERS = (None, 2, 4)  # None: the default budget
#: (key, benchmark curve whose table it steps, block length or None for
#: the curve's own); the certify table is Markov(0.3, 0.2)/Hamming at n=8
OVERHEAD_CURVES = [("markov-hamming-n6", "markov-hamming-n6", None),
                   ("markov-stock-n6-delay2", "markov-stock-n6-delay2", None),
                   ("ternary-parity-n3", "ternary-parity-n3", None),
                   ("certify-n8", "markov-hamming-n6", 8)]
OVERHEAD_WIDTHS = (1, 2, 4, 8)
OVERHEAD_REPEATS = 5  # timed calls per width
OVERHEAD_MAX_STEPS = 2000  # steps of a timed call
CALL_STEPS = 10  # steps whose numpy calls are counted


@contextmanager
def counted_steps():
    """While open, ``solver._step_stack`` and ``prob._FactorSpace.factorize``
    are wrapped: the yielded lists get, for each lockstep step, its stack
    width, and for each factorization whether some context carried no joint
    mass (the step's restricted-support path)."""
    from ffrd import prob, solver

    step, factorize = solver._step_stack, prob._FactorSpace.factorize
    widths: list = []
    masked: list = []

    def counting(ws):
        widths.append(ws.q.shape[0])
        return step(ws)

    def counting_factorize(space):
        live = factorize(space)
        masked.append(not live)
        return live

    solver._step_stack, prob._FactorSpace.factorize = counting, counting_factorize
    try:
        yield widths, masked
    finally:
        solver._step_stack, prob._FactorSpace.factorize = step, factorize


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _case(n: int, width: int) -> dict:
    import numpy as np

    import ffrd
    from ffrd import solver
    from ffrd.prob import _Contexts
    from helpers import workspace_bytes

    source = ffrd.block_pmf(ffrd.SourceSpec.binary_markov(0.3, 0.2), n)
    dist = ffrd.distortion_tensor(ffrd.DistortionSpec.hamming(), n)
    cells = dist.values.size
    iterations = int(min(2000, max(20, TARGET_CELL_STEPS // (width * cells))))

    def run(max_iters):
        configs = [ffrd.SolverConfig(lam=4.0 + 0.5 * j, epsilon=1e-300, max_iters=max_iters)
                   for j in range(width)]
        return solver._solve_lockstep(source, dist, configs, [None] * width)

    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run(iterations)
        times.append(time.perf_counter() - t0)

    # the probes wrap the step that _solve_lockstep looks up at each call
    step = solver._step_stack
    faults, peaks = [], []

    def counting(ws):
        before = _minflt()
        q = step(ws)
        faults.append(_minflt() - before)
        return q

    def tracing(ws):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        q = step(ws)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return q

    try:
        solver._step_stack = counting
        run(PROBE_STEPS)
        solver._step_stack = tracing
        tracemalloc.start()
        try:
            run(PROBE_STEPS)
        finally:
            tracemalloc.stop()
    finally:
        solver._step_stack = step
    steady = slice(STEADY_FROM - 1, None)
    return {
        "n": n, "width": width, "cells_per_member": cells, "iterations": iterations,
        "us_per_iter": statistics.median(times) / iterations * 1e6,
        "us_per_iter_runs": [t / iterations * 1e6 for t in times],
        "faults_per_iter": statistics.fmean(faults[steady]),
        "tracemalloc_peak_bytes": max(peaks[steady]),
        "workspace_bytes": workspace_bytes(_Contexts.of(n, 2, 2, 1, None), width),
        "context_table_bytes": (2 ** (n - 1)) * 2**n * np.dtype(float).itemsize,
    }


def step_cases() -> list:
    from ffrd import solver

    sys.path.insert(0, str(ROOT / "tests"))
    cases = []
    for n in NS:
        for width in WIDTHS:
            if width > 1 and width * 4**n > solver._STACK_CELLS:
                continue
            cases.append(_case(n, width))
            c = cases[-1]
            print(f"n={n:2d} width={width:2d}: {c['us_per_iter']:10.1f} us/iter, "
                  f"{c['faults_per_iter']} faults/iter, "
                  f"peak {c['tracemalloc_peak_bytes']} B, "
                  f"workspace {c['workspace_bytes']} B", file=sys.stderr)
    return cases


def answers() -> dict:
    """SHA-256 of the answers of the benchmark's sweep curves and certify
    solves, of their kernels' factors and traces, of the certify solves'
    certificates, of the channel rebuilt from the last certificate, and of
    the simulate reports."""
    import numpy as np

    import ffrd

    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import _sweep_curves, simulate_workload

    points, sweeps = [], []

    def point_digest(pts):
        # R, D, F_final, channel and kernel of each point
        digest = hashlib.sha256()
        for pt in pts:
            digest.update(np.array([pt.R, pt.D, pt.F_final]).tobytes())
            digest.update(pt.channel.probs.tobytes())
            digest.update(pt.kernel.probs.tobytes())
        return digest

    # the sweeps' steps, members and masked steps are counted
    with counted_steps() as (widths, masked):
        for c in _sweep_curves(tiny=False):
            widths.clear()
            masked.clear()
            curve = ffrd.sweep(c.source, c.dist, c.n, c.grid, c.config, c.initial_context)
            points += curve.points
            sweeps.append({"key": c.key, "iterations": sum(pt.iterations for pt in curve.points),
                           "lockstep_steps": len(widths), "member_steps": sum(widths),
                           "masked_steps": sum(masked),
                           "sha256": point_digest(curve.points).hexdigest()})
    hamming = ffrd.DistortionSpec.hamming()
    certs = []
    for n, lam, eps in ((8, 4.0, 1e-6), (8, 9.216, 1e-6), (8, 24.0, 1e-6), (5, 9.0, 1e-10)):
        source = ffrd.block_pmf(ffrd.SourceSpec.binary_markov(0.3, 0.2), n)
        dist = ffrd.distortion_tensor(hamming, n)
        points.append(ffrd.solve(source, dist, ffrd.SolverConfig(lam=lam, epsilon=eps)))
        certs.append(ffrd.certificate_from_solution(points[-1], source, dist))
    factors, traces = hashlib.sha256(), hashlib.sha256()
    for pt in points:
        for f in pt.kernel.factors:
            factors.update(f.tobytes())
        traces.update(pt.trace.tobytes())  # the point's own rows only
    gamma, p_prime = hashlib.sha256(), hashlib.sha256()
    for cert in certs:
        gamma.update(cert.gamma.tobytes())
        p_prime.update(np.ascontiguousarray(cert.p_prime_table).tobytes())
    # the last certificate is the n=5 one, and ``source`` is still its source
    reconstruct = hashlib.sha256(ffrd.reconstruct_channel(certs[-1], source).probs.tobytes())
    simulate, reports = simulate_workload(), hashlib.sha256()
    inputs = simulate.setup()
    for seed in (1, 7):
        for key, _, rep in simulate.run(inputs, seed):
            if isinstance(rep, Exception):
                raise RuntimeError(f"simulate {key} at seed {seed} raised {rep!r}")
            reports.update(rep.to_json().encode())
    return {"blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "points": len(points), "iterations": sum(pt.iterations for pt in points),
            "sweeps": sweeps,
            "sha256": point_digest(points).hexdigest(),
            "solve_sha256": point_digest(points[-len(certs):]).hexdigest(),
            "factors_sha256": factors.hexdigest(), "trace_sha256": traces.hexdigest(),
            "certificates": len(certs),
            "gamma_sha256": gamma.hexdigest(), "p_prime_sha256": p_prime.hexdigest(),
            "reconstruct_sha256": reconstruct.hexdigest(),
            "simulate_sha256": reports.hexdigest()}


def budgets() -> list:
    """Stack steps, member-steps, iterations and seconds of the sweeps of
    ``BUDGET_CURVES`` under each budget of ``BUDGET_MEMBERS``."""
    import ffrd
    from ffrd import solver

    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import _sweep_curves

    curves = {c.key: c for c in _sweep_curves(tiny=False)}
    default = solver._STACK_CELLS
    rows = []
    try:
        with counted_steps() as (widths, _):
            for key, base, n, delay, default_grid in BUDGET_CURVES:
                c = curves[base]
                config = c.config if delay is None else replace(c.config, delay=delay)
                grid = ffrd.default_lambda_grid() if default_grid else c.grid
                cells = ffrd.distortion_tensor(c.dist, n, c.initial_context).values.size
                for members in BUDGET_MEMBERS:
                    solver._STACK_CELLS = default if members is None else members * cells
                    widths.clear()
                    t0 = time.perf_counter()
                    curve = ffrd.sweep(c.source, c.dist, n, grid, config, c.initial_context)
                    rows.append({"key": key, "members": members or max(1, default // cells),
                                 "lockstep_steps": len(widths), "member_steps": sum(widths),
                                 "iterations": sum(pt.iterations for pt in curve.points),
                                 "seconds": time.perf_counter() - t0})
                    print(rows[-1], file=sys.stderr)
    finally:
        solver._STACK_CELLS = default
    return rows


@contextmanager
def counted_numpy_calls():
    """While open, every function, ufunc and ufunc method in the ``numpy``
    namespace is wrapped to count its calls, and ``sys.setprofile`` counts
    the array methods the package's own code calls; the yielded list's one
    entry is the count.  Lists of calls built while it is open capture the
    wrappers, so build and run inside it."""
    import numpy as np

    import ffrd

    count = [0]
    package = str(Path(ffrd.__file__).parent)

    def counting(fn):
        @wraps(fn)
        def call(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)
        return call

    class CountingUfunc:
        def __init__(self, ufunc):
            self._ufunc, self._call = ufunc, counting(ufunc)

        def __call__(self, *args, **kwargs):
            return self._call(*args, **kwargs)

        def __getattr__(self, name):
            attr = getattr(self._ufunc, name)
            return counting(attr) if callable(attr) else attr

    def profile(frame, event, arg):
        if event == "c_call" and isinstance(getattr(arg, "__self__", None), np.ndarray) \
                and frame.f_code.co_filename.startswith(package):
            count[0] += 1

    saved = {}
    for name, obj in list(vars(np).items()):  # not dir(): it imports numpy's lazy modules
        if isinstance(obj, np.ufunc):
            saved[name] = obj
            setattr(np, name, CountingUfunc(obj))
        elif callable(obj) and not isinstance(obj, type) and name != "errstate":
            saved[name] = obj
            setattr(np, name, counting(obj))
    sys.setprofile(profile)
    try:
        yield count
    finally:
        sys.setprofile(None)
        for name, obj in saved.items():
            setattr(np, name, obj)


def overhead() -> list:
    """Least µs per lockstep step at each width of ``OVERHEAD_WIDTHS`` on
    each table of ``OVERHEAD_CURVES``, the fit of fixed plus per-member µs,
    and the numpy calls per step."""
    import numpy as np

    import ffrd
    from ffrd import solver

    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import _sweep_curves

    curves = {c.key: c for c in _sweep_curves(tiny=False)}
    default = solver._STACK_CELLS
    rows = []
    try:
        for key, base, n in OVERHEAD_CURVES:
            c = curves[base]
            n = c.n if n is None else n
            source = ffrd.block_pmf(c.source, n)
            dist = ffrd.distortion_tensor(c.dist, n, c.initial_context)
            cells = dist.values.size
            # the grid's weights below its largest, largest first, cycled: at
            # the largest, 32, the ternary parity kernel reaches F = 0 after
            # 151 steps, and three stock weights F < 1e-300 after 2,230 or more
            lams = sorted(c.grid, reverse=True)[1:]

            def run(width, steps):
                solver._STACK_CELLS = width * cells
                configs = [replace(c.config, lam=lams[j % len(lams)], epsilon=1e-300,
                                   max_iters=steps) for j in range(width)]
                points = solver._solve_lockstep(source, dist, configs, [None] * width)
                if any(pt.iterations != steps for pt in points):
                    raise RuntimeError(f"{key}: a member stopped before {steps} steps")

            row = {"key": key, "n": n, "cells_per_member": cells, "widths": []}
            for width in OVERHEAD_WIDTHS:
                steps = int(min(OVERHEAD_MAX_STEPS, max(20, TARGET_CELL_STEPS // (width * cells))))
                run(width, 2)  # warm
                times = []
                for _ in range(OVERHEAD_REPEATS):
                    t0 = time.perf_counter()
                    run(width, steps)
                    times.append((time.perf_counter() - t0) / steps * 1e6)
                calls = []
                for k in (CALL_STEPS, 2 * CALL_STEPS):
                    with counted_numpy_calls() as count:
                        run(width, k)
                    calls.append(count[0])
                row["widths"].append({"width": width, "steps": steps,
                                      "us_per_step": min(times), "us_per_step_runs": times,
                                      "numpy_calls": (calls[1] - calls[0]) / CALL_STEPS})
            widths = [w["width"] for w in row["widths"]]
            per_member, fixed = np.polyfit(widths, [w["us_per_step"] for w in row["widths"]], 1)
            row["fixed_us"], row["per_member_us"] = float(fixed), float(per_member)
            rows.append(row)
            print(f"{key}: {fixed:7.1f} us fixed + {per_member:7.1f} us per member; "
                  + ", ".join(f"w{w['width']} {w['us_per_step']:.1f} us "
                              f"{w['numpy_calls']:.0f} calls" for w in row["widths"]),
                  file=sys.stderr)
    finally:
        solver._STACK_CELLS = default
    return rows


def startup(src: Path) -> dict:
    """Median wall times of fresh interpreters that start bare, import
    ``ffrd`` and print the CLI's help, and the packages outside the standard
    library that ``import ffrd`` loads."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    def run(*args) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=120, check=True)

    def median_s(*args) -> float:
        times = []
        for _ in range(STARTUP_RUNS):
            t0 = time.perf_counter()
            run(*args)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    listing = run("-c", "import json, sys\nbefore = set(sys.modules)\nimport ffrd\n"
                  "print(json.dumps(sorted({m.partition('.')[0] for m in set(sys.modules) "
                  "- before} - sys.stdlib_module_names)))")
    return {"runs": STARTUP_RUNS, "bare_interpreter_s": median_s("-c", "pass"),
            "import_ffrd_s": median_s("-c", "import ffrd"),
            "cli_help_s": median_s("-m", "ffrd.cli", "--help"),
            "packages": json.loads(listing.stdout)}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--answers", action="store_true", help="print the answer hash and exit")
    ap.add_argument("--startup", action="store_true",
                    help="time fresh interpreters that import ffrd, and exit")
    ap.add_argument("--budgets", action="store_true",
                    help="count the steps of sweeps under several stack budgets, and exit")
    ap.add_argument("--overhead", action="store_true",
                    help="split a lockstep step's time into fixed and per-member parts, and exit")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="tree to import ffrd from")
    ap.add_argument("--out", type=Path, help="write the JSON here as well as to stdout")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    import numpy as np

    import ffrd

    result = {"ffrd": str(Path(ffrd.__file__).parent), "python": platform.python_version(),
              "numpy": np.__version__}
    if args.startup:
        result["startup"] = startup(args.src.resolve())
    elif args.answers:
        result["answers"] = answers()
    elif args.budgets:
        result["budgets"] = budgets()
    elif args.overhead:
        result["overhead"] = overhead()
    else:
        result["cases"] = step_cases()
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
