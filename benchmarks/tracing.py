"""In-memory span tracer for the benchmark's traced run.

The package binds its functions with ``from .x import y``, so a function is
reachable under several module attributes.  ``Tracer.install`` replaces every
attribute of the ``ffrd`` modules that holds a traced function with a timing
wrapper, and ``restore`` puts the originals back.  No file under ``src/`` is
changed.  A function a later version no longer defines is skipped, and its
time then shows as self time of the caller's layer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

import ffrd
from ffrd import curves, dual, models, prob, sim, solver

MODULES = (ffrd, models, prob, solver, curves, dual, sim)


def _solve_counts(args, kwargs, point):
    source = args[0] if args else kwargs["source"]
    config = args[2] if len(args) > 2 else kwargs["config"]
    zero_rate = point.R < config.epsilon / source.n
    return {"iterations": point.iterations,
            "unconverged": int(not point.converged),
            "cell_iterations": point.iterations * point.channel.probs.size,
            "zero_rate_iterations": point.iterations if zero_rate else 0}


def _sweep_counts(args, kwargs, curve):
    return {"points_kept": len(curve.points)}


def _certificate_counts(args, kwargs, cert):
    return {"nonfinite": int(not np.all(np.isfinite(cert.gamma)))}


# span name -> (module, attribute, counts taken from the call's result)
TRACED = {
    "models.block_pmf": (models, "block_pmf", None),
    "models.distortion_tensor": (models, "distortion_tensor", None),
    "prob.causal_factors": (prob, "causal_factors_from_joint", None),
    "prob.reverse_factors": (prob, "reverse_causal_factors", None),
    "solver.solve": (solver, "solve", _solve_counts),
    "curves.sweep": (curves, "sweep", _sweep_counts),
    "dual.certificate": (dual, "certificate_from_solution", _certificate_counts),
    "dual.feasibility": (dual, "check_feasibility", None),
    "dual.objective": (dual, "dual_objective", None),
    "dual.reconstruct": (dual, "reconstruct_channel", None),
    "sim.monte_carlo": (sim, "monte_carlo", None),
    "sim.sample_tree": (sim, "sample_code_tree", None),
    "sim.encode": (sim, "encode", None),
    "sim.decode_walk": (sim, "decode_walk", None),
    "sim.sequence_distortion": (sim, "sequence_distortion", None),
}


class Tracer:
    """Records spans as [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, counts=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counts is not None:
                self.spans[idx][4] = counts(args, kwargs, result)
            return result
        return traced

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def install(self) -> None:
        for name, (owner, attr, counts) in TRACED.items():
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapper = self.wrap(name, fn, counts)
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))

    def restore(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def check_self_sum(spans: list[list], selfs: list[float]) -> None:
    """Raise unless the self times add up to the root spans' duration, which
    would mean a span escaped its parent."""
    total_self = sum(selfs)
    wall = sum(end - start for name, start, end, parent, _ in spans if parent < 0)
    if abs(total_self - wall) > 1e-6 + 1e-9 * wall:
        raise RuntimeError(f"self times add up to {total_self} s, traced wall is {wall} s")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans."""
    selfs = self_times(spans)
    check_self_sum(spans, selfs)
    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    counts: dict[str, float] = {}
    points_solved = 0
    for (name, start, end, parent, extra), own in zip(spans, selfs):
        incl[name] = incl.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        for key, value in (extra or {}).items():
            counts[key] = counts.get(key, 0) + value
        if name == "solver.solve" and parent >= 0 and spans[parent][0] == "curves.sweep":
            points_solved += 1

    solve_s = incl.get("solver.solve", 0.0)
    iterations = counts.get("iterations", 0)
    metrics = {
        "prob.causal_factors_s": incl.get("prob.causal_factors", 0.0),
        "prob.causal_factors_calls": calls.get("prob.causal_factors", 0),
        "prob.reverse_factors_s": incl.get("prob.reverse_factors", 0.0),
        "solver.self_s": layer_self.get("solver", 0.0),
        "solver.us_per_iter": 1e6 * solve_s / iterations if iterations else 0.0,
        "solver.cells_per_s": counts.get("cell_iterations", 0) / solve_s if solve_s else 0.0,
        "solver.solve_s": solve_s,
        "solver.solve_calls": calls.get("solver.solve", 0),
        "solver.iterations": iterations,
        "solver.unconverged": counts.get("unconverged", 0),
        "curves.sweep_s": incl.get("curves.sweep", 0.0),
        "curves.self_s": layer_self.get("curves", 0.0),
        "curves.points_solved": points_solved,
        "curves.points_kept": counts.get("points_kept", 0),
        "curves.zero_rate_iter_share":
            counts.get("zero_rate_iterations", 0) / iterations if iterations else 0.0,
        "dual.certificate_s": incl.get("dual.certificate", 0.0),
        "dual.feasibility_s": incl.get("dual.feasibility", 0.0),
        "dual.reconstruct_s": incl.get("dual.reconstruct", 0.0),
        "dual.certificates": calls.get("dual.certificate", 0),
        "dual.nonfinite_certificates": counts.get("nonfinite", 0),
        "sim.sample_tree_s": incl.get("sim.sample_tree", 0.0),
        "sim.trees": calls.get("sim.sample_tree", 0),
        "sim.encode_s": incl.get("sim.encode", 0.0),
        "sim.encode_calls": calls.get("sim.encode", 0),
        "sim.decode_walk_s": incl.get("sim.decode_walk", 0.0),
        "sim.decode_walk_calls": calls.get("sim.decode_walk", 0),
        "sim.sequence_distortion_s": incl.get("sim.sequence_distortion", 0.0),
        "sim.self_s": layer_self.get("sim", 0.0),
        "models.block_pmf_s": incl.get("models.block_pmf", 0.0),
        "models.distortion_tensor_s": incl.get("models.distortion_tensor", 0.0),
    }
    return metrics
