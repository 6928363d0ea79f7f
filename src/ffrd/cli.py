"""Command-line surface: solve / sweep / dual-check / simulate / analytic.

Configuration is accepted as flags or a JSON file (``--config``); flags
override file values.  Exit codes: 0 success, 1 configuration error, 2
non-convergence under ``--strict``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .analytic import iid_binary_rd, markov_rn, stock_market_rd
from .curves import sweep as sweep_curve
from .dual import (DualCertificate, _json_field, certificate_from_solution, check_feasibility,
                   dual_objective)
from .models import DistortionSpec, SourceSpec, block_pmf, distortion_tensor
from .sim import monte_carlo
from .solver import SolverConfig, solve


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def parse_source(text: str) -> SourceSpec:
    """'iid:<bias>' or 'markov:<p01>,<p10>[,<pi0>,<pi1>]'."""
    try:
        kind, _, args = text.partition(":")
        parts = [float(v) for v in args.split(",")] if args else []
        if kind == "iid":
            return SourceSpec.iid(parts[0])
        if kind == "markov":
            initial = parts[2:] or None
            return SourceSpec.binary_markov(parts[0], parts[1], initial)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad source spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown source kind {text!r}")


def parse_distortion(text: str) -> DistortionSpec:
    if text == "hamming":
        return DistortionSpec.hamming()
    if text == "stock":
        return DistortionSpec.stock()
    raise ConfigError(f"unknown distortion {text!r} (expected 'hamming' or 'stock')")


def parse_lambda_grid(text: str) -> np.ndarray:
    """'log:<lo>,<hi>,<count>' or 'lin:<lo>,<hi>,<count>' or comma list."""
    try:
        spacing = {"log:": np.geomspace, "lin:": np.linspace}.get(text[:4])
        if spacing is not None:
            lo, hi, count = text[4:].split(",")
            return spacing(float(lo), float(hi), int(count))
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"bad lambda grid {text!r}: {exc}") from exc


def parse_grid(text: str) -> np.ndarray:
    """'<start>:<stop>:<step>' inclusive of endpoints within step rounding."""
    try:
        start, stop, step = (float(v) for v in text.split(":"))
        count = int(round((stop - start) / step)) + 1
        if count < 1:
            raise ConfigError(f"bad grid {text!r}: step {step:g} leads away from the stop")
        return start + step * np.arange(count)
    except (ValueError, ArithmeticError) as exc:  # a zero step divides by 0
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc


#: the JSON types a config file may give a flag, by the type the flag
#: parses, and their name; a string goes through the flag's own parser
_CONFIG_TYPES = {int: ((int, str), "a whole number"), float: ((int, float, str), "a number"),
                 str: ((str,), "a string"), bool: ((bool,), "true or false")}


def _config_value(key: str, value, action: argparse.Action):
    """A config file's value for the flag ``action``, checked against ``_CONFIG_TYPES``."""
    kind = bool if action.nargs == 0 else action.type or str
    if kind is int and type(value) is float and value % 1 == 0:
        value = int(value)  # a whole float is a whole number
    types, name = _CONFIG_TYPES[kind]
    if type(value) not in types:
        raise ConfigError(f"config key {key!r}: {action.dest} must be {name}, got {value!r}")
    return value


def _config_defaults(args: argparse.Namespace, command: argparse.ArgumentParser) -> dict:
    """The JSON config file's values keyed by argument name, checked
    against the flags of ``command``."""
    try:
        with open(args.config) as fh:
            file_vals = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    if not isinstance(file_vals, dict):
        raise ConfigError(f"config {args.config!r} must be a JSON object")
    actions = {action.dest: action for action in command._actions if hasattr(args, action.dest)}
    defaults = {}
    for key, value in file_vals.items():
        attr = "lam" if key == "lambda" else key.replace("-", "_")
        if attr not in actions:
            raise ConfigError(f"unknown config key {key!r}")
        defaults[attr] = _config_value(key, value, actions[attr])
    return defaults


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


SWEEP_COLUMNS = "lambda,D,R,iterations,F_final,lower_bound,upper_bound,converged"


def _csv(header: str, rows) -> str:
    """CSV text of ``header`` and one line per row, floats by ``_fmt``."""
    lines = [",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join([header] + lines) + "\n"


def _add_common(sp, lam=False, solver=True):
    sp.add_argument("--config", default=None)
    sp.add_argument("--source", default=None)
    sp.add_argument("--dist", default="hamming")
    sp.add_argument("--n", type=int, default=None)
    if solver:  # a dataclass field's default is its class attribute
        sp.add_argument("--delay", type=int, default=SolverConfig.delay)
        sp.add_argument("--eps", type=float, default=SolverConfig.epsilon)
        sp.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
        sp.add_argument("--strict", action="store_true")
    sp.add_argument("--output", default=None)
    if lam:
        sp.add_argument("--lambda", dest="lam", type=float, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="ffrd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="one rate-distortion point")
    _add_common(sp, lam=True)
    sp.add_argument("--trace", default=None, help="write per-iteration CSV here")
    sp.add_argument("--emit-certificate", default=None,
                    help="write a lower-bound certificate JSON here")

    sp = sub.add_parser("sweep", help="trace the curve over a lambda grid")
    _add_common(sp)
    sp.add_argument("--lambda-grid", dest="lambda_grid", default=None)

    sp = sub.add_parser("dual-check", help="verify a certificate JSON")
    sp.add_argument("--config", default=None)
    sp.add_argument("--certificate", default=None)
    sp.add_argument("--source", default=None)
    sp.add_argument("--dist", default="hamming")
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--output", default=None)

    sp = sub.add_parser("simulate", help="Monte-Carlo code-tree run")
    _add_common(sp, lam=True, solver=False)  # monte_carlo picks its own solver settings
    sp.add_argument("--L", type=int, default=None)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--target-D", dest="target_D", type=float, default=None)

    sp = sub.add_parser("analytic", help="closed-form curves on a D grid")
    sp.add_argument("--config", default=None)
    sp.add_argument("--curve", choices=["iid", "markov", "stock"], default=None)
    sp.add_argument("--D-grid", dest="D_grid", default="0:0.5:0.01")
    sp.add_argument("--bias", type=float, default=0.5)
    sp.add_argument("--p", type=float, default=0.3)
    sp.add_argument("--q", type=float, default=0.2)
    sp.add_argument("--pi0", type=float, default=0.4)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--output", default=None)
    parser._commands = sub.choices
    return parser


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ConfigError(f"missing required option --{name.replace('_', '-')}")


def _cmd_solve(args) -> int:
    _require(args, "source", "n", "lam")
    source = block_pmf(parse_source(args.source), args.n)
    dist = distortion_tensor(parse_distortion(args.dist), args.n)
    cfg = SolverConfig(lam=args.lam, epsilon=args.eps, max_iters=args.max_iters,
                       delay=args.delay)
    pt = solve(source, dist, cfg)
    out = (f"lambda={_fmt(pt.lam)} D={_fmt(pt.D)} R={_fmt(pt.R)} "
           f"iterations={pt.iterations} converged={int(pt.converged)} "
           f"F_final={_fmt(pt.F_final)} lower_bound={_fmt(pt.lower_bound)} "
           f"upper_bound={_fmt(pt.upper_bound)}\n")
    _write(args.output, out)
    if args.trace:
        _write(args.trace, _csv(",".join(pt.trace.dtype.names), pt.trace.tolist()))
    if args.emit_certificate:
        cert = certificate_from_solution(pt, source, dist)
        payload = json.loads(cert.to_json())
        payload.update({"D": pt.D, "R": pt.R, "source": args.source,
                        "dist": args.dist})
        _write(args.emit_certificate, json.dumps(payload) + "\n")
    return 2 if args.strict and not pt.converged else 0


def _cmd_sweep(args) -> int:
    _require(args, "source", "n")
    grid = None if args.lambda_grid is None else parse_lambda_grid(args.lambda_grid)
    curve = sweep_curve(parse_source(args.source), parse_distortion(args.dist), args.n, grid,
                        SolverConfig(lam=0.0, epsilon=args.eps,
                                     max_iters=args.max_iters, delay=args.delay))
    _write(args.output, _csv(SWEEP_COLUMNS, [
        (pt.lam, pt.D, pt.R, pt.iterations, pt.F_final, pt.lower_bound, pt.upper_bound,
         int(pt.converged)) for pt in curve.points]))
    if args.strict and not all(pt.converged for pt in curve.points):
        return 2
    return 0


def _cmd_dual_check(args) -> int:
    _require(args, "certificate", "source")
    with open(args.certificate) as fh:
        payload = json.load(fh)
    cert = DualCertificate.from_json(json.dumps(payload))
    source = block_pmf(parse_source(args.source), cert.n)
    dist = distortion_tensor(parse_distortion(args.dist), cert.n)
    report = check_feasibility(cert, source, dist)
    D = _json_field(payload, "D", float) if "D" in payload else 0.0
    obj = dual_objective(cert.lam, cert.gamma, source, D)
    _write(args.output,
           f"feasible={int(report.feasible)} max_violation={_fmt(report.max_violation)} "
           f"max_normalization_error={_fmt(report.max_normalization_error)} "
           f"dual_objective={_fmt(obj)} D={_fmt(D)}\n")
    return 0 if report.feasible or not args.strict else 2


def _cmd_simulate(args) -> int:
    _require(args, "source", "n", "L", "target_D")
    report = monte_carlo(parse_source(args.source), parse_distortion(args.dist),
                         args.n, args.L, args.delta, args.trials, args.seed,
                         args.target_D, lam=args.lam)
    _write(args.output, report.to_json() + "\n")
    return 0


def _cmd_analytic(args) -> int:
    _require(args, "curve")
    grid = parse_grid(args.D_grid)
    lines = ["D,R"]
    for D in grid:
        if args.curve == "iid":
            R = iid_binary_rd(args.bias, float(D))
        elif args.curve == "markov":
            n = args.n if args.n is not None else np.inf
            R = markov_rn(args.p, args.q, n, float(D))
        else:
            R = stock_market_rd(args.q, args.pi0, float(D))
        lines.append(f"{_fmt(float(D))},{_fmt(R)}")
    _write(args.output, "\n".join(lines) + "\n")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "dual-check": _cmd_dual_check,
    "simulate": _cmd_simulate,
    "analytic": _cmd_analytic,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # file values become defaults, so every flag given overrides them
            command = parser._commands[args.command]
            command.set_defaults(**_config_defaults(args, command))
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        # MemoryError: the codebook cap of ``simulate``
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
