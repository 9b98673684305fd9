"""Command-line front end: generation, relaxation, diagnosis, evaluation.

Every subcommand has one shape: a ``cmd_*(model, args)`` function returns
its result, and its subparser registers that function and a writer.
:func:`main` parses, loads the model (``gen`` builds the one it names),
runs the command and writes what it returns.  JSON commands write one
object.  ``eval``, ``sweep`` and ``violations`` write a CSV; beside an
``-o`` file they also write a JSON sidecar (seeds, replication counts,
wall-clock time) of the same base name, so stdout carries only the CSV.

Every float printed to CSV or JSON goes through a 12-significant-digit
round-trip so reruns of the same config are byte-identical (wall-clock
time lives only in the sidecar).  Config files are JSON objects whose
keys mirror the long flags, required ones included; each value is
checked like the flag it stands for, and explicit flags win over file
values.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import os
import sys
from typing import Any

import numpy as np

from .errors import EXIT_CODES, ConfigError, FluidBanditError
from .lp import solve_relaxation
from .mdp import ArmModel, model_from_json, model_to_json
from .occupancy import CLASSIFY_TOL, classify, search_nondegenerate
from .oracle import DEFAULT_GUARD, optimal_value
from .policies import parse_policy
from .priority import q_recursion, score_order
from .simulator import (REPS_CAP, CompiledPolicy, default_reps, gap_sweep,
                        violation_rate_sweep)
from . import zoo

CSV_COLUMNS = ["N", "policy", "upper_bound", "mean", "ci95", "gap",
               "violation_rate_max"]
GENERATORS = ["bernoulli", "crowd", "assort", "single", "two"]


def _fmt(x: Any) -> str:
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def _round12(x: float) -> float:
    return float("%.12g" % float(x))


def _clean(obj: Any) -> Any:
    """Round floats and unwrap numpy scalars/arrays for JSON emission.  The
    exact built-in leaf types, nearly every value of a payload, are
    dispatched first; subclasses such as bool and np.float64 take the
    general tests below."""
    kind = type(obj)
    if kind is float:
        return obj if obj != obj else _round12(obj)  # NaN passes through
    if kind is int or kind is str:
        return obj
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if f != f else _round12(f)  # NaN passes through
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_text(path: str | None, text: str) -> None:
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, path: str | None) -> None:
    _write_text(path, json.dumps(_clean(payload), indent=2, sort_keys=True,
                                 allow_nan=True) + "\n")


def _write_model(model: ArmModel, path: str | None) -> None:
    _write_text(path, model_to_json(model) + "\n")


def _load_model(args) -> ArmModel:
    if getattr(args, "model", None):
        try:
            with open(args.model) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read model {args.model!r}: {exc}") from exc
        try:
            return model_from_json(text)
        except FluidBanditError:
            raise
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ConfigError(f"bad model JSON {args.model!r}: {exc}") from exc
    if not args.gen:
        raise ConfigError("need --model FILE or --gen NAME")
    return _generate(args.gen, args)


def _generate(name: str, args) -> ArmModel:
    if name in ("single", "two"):
        return zoo.fixtures()[name.upper()]
    if name not in GENERATORS:
        raise ConfigError(f"unknown generator {name!r}")
    if args.T is None or args.alpha is None:
        raise ConfigError(f"generator {name!r} needs --T and --alpha")
    if name == "bernoulli":
        return zoo.bernoulli_bandit(args.T, args.alpha)
    if name == "crowd":
        return zoo.crowdsourcing(args.T, args.alpha)
    return zoo.assortment(args.T, args.alpha, m_cap=args.m_cap, x_cap=args.x_cap)


def _csv_row(rep, upper_bound: float) -> str:
    """One CSV line from a SimulationReport and the bound it is held to."""
    vmax = float(np.nanmax(rep.per_t_violation_rate)) if np.any(
        np.isfinite(rep.per_t_violation_rate)) else float("nan")
    # print-precision round-trip first so gap == upper_bound - mean holds
    # exactly on the parsed CSV values
    ub, mu = _round12(upper_bound), _round12(rep.mean_reward)
    row = {"N": rep.N, "policy": rep.policy, "upper_bound": ub, "mean": mu,
           "ci95": _round12(rep.ci_halfwidth), "gap": _round12(ub - mu),
           "violation_rate_max": vmax}
    return ",".join(_fmt(row[c]) for c in CSV_COLUMNS)


def _write_reports(result, path: str | None) -> None:
    """CSV of reports against their upper bounds; beside an -o file, the
    JSON sidecar."""
    reports, upper_bounds = result
    lines = [",".join(CSV_COLUMNS)]
    lines += [_csv_row(rep, ub) for rep, ub in zip(reports, upper_bounds)]
    _write_text(path, "\n".join(lines) + "\n")
    if path:
        _emit_json({"rows": [dataclasses.asdict(rep) for rep in reports]}, _sidecar_path(path))


def _sidecar_path(path: str) -> str:
    return os.path.splitext(path)[0] + ".json"


def _reps_rule(args):
    if args.reps is not None:
        return args.reps
    return functools.partial(default_reps, cap=args.reps_cap)


def _parse_n_list(text: str) -> list[int]:
    try:
        ns = [int(p) for p in text.replace(";", ",").split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad N list {text!r}") from exc
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("N list must be strictly ascending")
    return ns


def _policy(model: ArmModel, args) -> CompiledPolicy:
    return CompiledPolicy(model, parse_policy(args.policy))


def cmd_relax(model: ArmModel, args) -> dict:
    meas = solve_relaxation(model)
    # (t, s, a) order, as np.argwhere walks the measure
    trips = [[t + 1, s, a, meas.x[t, s, a]]
             for t, s, a in np.argwhere(meas.x > CLASSIFY_TOL).tolist()]
    return {"value": meas.value, "lambda": meas.require_duals(), "x": trips,
            "pivots": meas.pivots, "rows": meas.rows, "lu_nnz": meas.lu_nnz}


def cmd_classify(model: ArmModel, args) -> dict:
    codes = classify(solve_relaxation(model))
    names = (("active", 1), ("neutral", 0), ("inactive", -1))
    periods = [{"t": t, **{name: np.flatnonzero(row == code).tolist() for name, code in names}}
               for t, row in enumerate(codes, start=1)]
    return {"periods": periods, "neutral_counts": (codes == 0).sum(axis=1)}


def cmd_search_measure(model: ArmModel, args) -> dict:
    report = search_nondegenerate(model)
    payload = {
        "nondegenerate": report.nondegenerate,
        "neutral_counts": report.neutral_counts,
        "certificate": sorted(report.certificate),
        "stages": report.stages,
        "has_witness": report.witness is not None,
    }
    if report.witness is not None:
        payload["witness_value"] = report.witness.value
    return payload


def _ranked_priorities(model: ArmModel):
    """Priority scheme at the LP's budget duals and each period's state ranking."""
    scheme = q_recursion(model, solve_relaxation(model).require_duals())
    return scheme, [score_order(scheme.P, t, model.S) for t in range(1, model.T + 1)]


def cmd_priority(model: ArmModel, args) -> dict:
    scheme, orders = _ranked_priorities(model)
    return {"lambda": scheme.lam, "ranked_states": orders}


def cmd_fluid_index(model: ArmModel, args) -> dict:
    scheme, orders = _ranked_priorities(model)
    index = [[[s, p[s]] for s in order] for p, order in zip(scheme.P, orders)]
    return {"lambda": scheme.lam, "index": index}


def cmd_eval(model: ArmModel, args):
    engine = "per_arm" if args.engine == "per-arm" else "counts"
    rows = gap_sweep(model, _policy(model, args), [args.N], args.reps,
                     seed=args.seed, engine=engine)
    return [r.report for r in rows], [r.upper_bound for r in rows]


def cmd_sweep(model: ArmModel, args):
    rows = gap_sweep(model, _policy(model, args), _parse_n_list(args.N), _reps_rule(args),
                     seed=args.seed, crn=args.crn)
    return [r.report for r in rows], [r.upper_bound for r in rows]


def cmd_violations(model: ArmModel, args):
    pol = _policy(model, args)
    reports = violation_rate_sweep(model, pol, _parse_n_list(args.N),
                                   _reps_rule(args), seed=args.seed)
    return reports, [rep.N * pol.measure.value for rep in reports]


def cmd_oracle(model: ArmModel, args) -> dict:
    vstar = optimal_value(model, args.N, guard=args.guard)
    vhat = solve_relaxation(model).value
    return {"N": args.N, "V_star": vstar, "NVhat": args.N * vhat,
            "gap": _round12(args.N * vhat) - _round12(vstar)}


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    """The generator's flags and --out, which every subcommand takes."""
    p.add_argument("--T", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--m-cap", dest="m_cap", type=int, default=zoo.ASSORT_M_CAP)
    p.add_argument("--x-cap", dest="x_cap", type=int, default=zoo.ASSORT_X_CAP)
    p.add_argument("--out", "-o")


@functools.cache  # one parser per process; _parse never mutates it
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fluidbandit",
        description="LP-relaxation policies for budgeted bandits")
    ap.add_argument("--config", help="JSON file of flag defaults; flags win")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated model as JSON")
    p.add_argument("gen", choices=GENERATORS)
    _add_generator_flags(p)
    p.set_defaults(run=lambda model, args: model, write=_write_model)

    def command(name, run, help_, write=_emit_json):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--model", help="model JSON path")
        p.add_argument("--gen", help="generator: " + "|".join(GENERATORS))
        _add_generator_flags(p)
        p.set_defaults(run=run, write=write)
        return p

    for name, run, help_ in [
            ("relax", cmd_relax, "solve the occupation-measure LP"),
            ("classify", cmd_classify, "print per-period state categories"),
            ("search-measure", cmd_search_measure,
             "look for a measure with a neutral state per period"),
            ("priority", cmd_priority, "print lambda and ranked states"),
            ("fluid-index", cmd_fluid_index, "print per-period index values")]:
        command(name, run, help_)

    sims = {}
    for name, run, help_, policy in [
            ("eval", cmd_eval, "Monte Carlo value of one policy at one N", None),
            ("sweep", cmd_sweep, "gap sweep across an N list", None),
            ("violations", cmd_violations, "budget-bracket failure rates vs N", "fluid")]:
        p = sims[name] = command(name, run, help_, _write_reports)
        p.add_argument("--policy", required=policy is None, default=policy,
                       help="fluid|relaxed|index|rac|ucb:<delta>|ts")
        p.add_argument("--reps", type=int,
                       help=f"fixed replication count (default min(50N, cap), "
                            f"cap --reps-cap or {REPS_CAP})")
        p.add_argument("--seed", type=int)
    sims["eval"].add_argument("--N", type=int, required=True)
    sims["eval"].add_argument("--engine", choices=["count", "per-arm"], default="count")
    for name in ("sweep", "violations"):
        sims[name].add_argument("--N", required=True, help="comma-separated ascending list")
        sims[name].add_argument("--reps-cap", dest="reps_cap", type=int, default=REPS_CAP)
    sims["sweep"].add_argument("--crn", action="store_true",
                               help="share random streams across policies")

    p = command("oracle", cmd_oracle, "exact small-N optimum vs LP bound")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--guard", type=int, default=DEFAULT_GUARD,
                   help="work-unit limit: one unit per (count vector, pull vector) pair, "
                        "per count vector stored and per index-map or continuation-grid entry")
    return ap


def _config_value(key: str, val: Any, action: argparse.Action) -> Any:
    """A --config value parsed as its flag's text would be; ConfigError names the key."""
    if action.nargs == 0:  # store_true: only a JSON boolean turns it on or off
        if isinstance(val, bool):
            return val
        raise ConfigError(f"config key {key!r} takes true or false, not {val!r}")
    value = None
    if isinstance(val, (str, int, float)) and not isinstance(val, bool):
        try:
            value = (action.type or str)(str(val))
        except ValueError:
            pass
    if value is None or (action.choices is not None and value not in action.choices):
        choices = f" (choose from {', '.join(action.choices)})" if action.choices else ""
        raise ConfigError(f"config key {key!r} has bad value {val!r}{choices}")
    return value


def _commands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The subcommand parsers of ``parser``, by name."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@functools.cache  # one per process, like build_parser's
def _lenient_parser() -> argparse.ArgumentParser:
    """A copy of the parser that requires no subcommand option, so that it
    finds the command and --config before a config file can supply a
    required option; its usage and help are the parser's own."""
    parser = copy.deepcopy(build_parser())
    strict = _commands(build_parser())
    for name, command in _commands(parser).items():
        for action in command._actions:
            action.required = False
        command.format_usage = strict[name].format_usage
        command.format_help = strict[name].format_help
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv with --config values installed as the subcommand's defaults.

    argparse then makes explicit flags win in every form it accepts, and
    an option the file supplies is no longer required on the command line.
    Keys of another subcommand are ignored, so one file serves them all; a
    key that is an option of no subcommand is a ConfigError.  The defaults
    go on a copy of the parser, so one call's file never reaches the next.
    """
    args = _lenient_parser().parse_args(argv)
    if not args.config:
        return build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    parser = copy.deepcopy(build_parser())
    commands = _commands(parser)
    known = {a.dest for p in commands.values() for a in p._actions}
    unknown = sorted(k for k in cfg if k.replace("-", "_") not in known)
    if unknown:
        raise ConfigError(f"config {args.config!r} has unknown keys: {', '.join(unknown)}")
    command = commands[args.command]
    actions = {a.dest: a for a in command._actions}
    defaults = {}
    for key, val in cfg.items():
        action = actions.get(key.replace("-", "_"))
        if action is not None:
            defaults[action.dest] = _config_value(key, val, action)
            action.required = False
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        if "seed" in args and args.seed is None:
            raise ConfigError("--seed is mandatory for simulation commands")
        if "seed" in args and args.out and _sidecar_path(args.out) == args.out:
            raise ConfigError(f"-o {args.out!r} is the path of its own JSON sidecar; "
                              "give the CSV another extension")
        args.write(args.run(_load_model(args), args), args.out)
    except FluidBanditError as exc:
        code = EXIT_CODES.get(type(exc), 1)
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__, "message": str(exc),
            "exit_code": code}) + "\n")
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
