"""Command-line front end: generation, relaxation, diagnosis, evaluation.

Every float printed to CSV or JSON goes through a 12-significant-digit
round-trip so reruns of the same config are byte-identical (wall-clock
time lives only in the JSON sidecar).  Config files are JSON objects
whose keys mirror the long flags; each value is checked like the flag it
stands for, and explicit flags win over file values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

import numpy as np

from .errors import EXIT_CODES, ConfigError, FluidBanditError
from .lp import solve_relaxation
from .mdp import ArmModel, model_from_json, model_to_json
from .occupancy import classify, search_nondegenerate
from .oracle import optimal_value
from .policies import parse_policy
from .priority import lambda_from_duals, q_recursion, score_order
from .simulator import CompiledPolicy, gap_sweep, violation_rate_sweep
from . import zoo

CSV_COLUMNS = ["N", "policy", "upper_bound", "mean", "ci95", "gap",
               "violation_rate_max"]


def _fmt(x: Any) -> str:
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def _round12(x: float) -> float:
    return float("%.12g" % float(x))


def _clean(obj: Any) -> Any:
    """Round floats and unwrap numpy scalars/arrays for JSON emission."""
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
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, path: str | None) -> None:
    _write_text(path, json.dumps(_clean(payload), indent=2, sort_keys=True,
                                 allow_nan=True) + "\n")


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
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad model JSON {args.model!r}: {exc}") from exc
    gen = getattr(args, "gen", None)
    if not gen:
        raise ConfigError("need --model FILE or --gen NAME")
    return _generate(gen, args)


def _generate(name: str, args) -> ArmModel:
    T = getattr(args, "T", None)
    alpha = getattr(args, "alpha", None)
    fix = zoo.fixtures()
    if name in ("single", "two"):
        return fix[name.upper()]
    if T is None or alpha is None:
        raise ConfigError(f"generator {name!r} needs --T and --alpha")
    if name == "bernoulli":
        return zoo.bernoulli_bandit(T, alpha)
    if name == "crowd":
        return zoo.crowdsourcing(T, alpha)
    if name == "assort":
        return zoo.assortment(T, alpha, m_cap=args.m_cap, x_cap=args.x_cap)
    raise ConfigError(f"unknown generator {name!r}")


def _sidecar_path(out: str | None) -> str | None:
    if not out:
        return None
    base, _ = os.path.splitext(out)
    return base + ".json"


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


def _report_sidecar(rep) -> dict:
    diff = rep.diffusion_second_moments
    return {
        "N": rep.N, "policy": rep.policy, "reps": rep.reps, "seed": rep.seed,
        "engine": rep.engine, "mean_reward": rep.mean_reward,
        "ci_halfwidth": rep.ci_halfwidth, "ci_reliable": rep.ci_reliable,
        "per_t_violation_rate": rep.per_t_violation_rate,
        "union_violation_rate": rep.union_violation_rate,
        "diffusion_second_moments": diff if diff is None else dict(diff),
        "wall_time": rep.wall_time,
    }


def _write_reports(out: str | None, reports, upper_bounds) -> None:
    """CSV of reports against their upper bounds, plus the JSON sidecar."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [_csv_row(rep, ub) for rep, ub in zip(reports, upper_bounds)]
    _write_text(out, "\n".join(lines) + "\n")
    _emit_json({"rows": [_report_sidecar(rep) for rep in reports]}, _sidecar_path(out))


def _write_sweep(out: str | None, rows) -> None:
    _write_reports(out, [r.report for r in rows], [r.upper_bound for r in rows])


def _reps_rule(args):
    if args.reps is not None:
        return args.reps
    return lambda N: min(50 * N, args.reps_cap)


def _require_ascending(ns: list[int]) -> list[int]:
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("N list must be strictly ascending")
    return ns


def _parse_n_list(text: str) -> list[int]:
    try:
        ns = [int(p) for p in text.replace(";", ",").split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad N list {text!r}") from exc
    return _require_ascending(ns)


def cmd_gen(args) -> int:
    model = _generate(args.generator, args)
    _write_text(args.out, model_to_json(model) + "\n")
    return 0


def cmd_relax(args) -> int:
    model = _load_model(args)
    meas = solve_relaxation(model)
    trips = []
    T, S = model.T, model.S
    for t in range(T):
        for s in range(S):
            for a in (0, 1):
                v = float(meas.x[t, s, a])
                if v > 1e-9:
                    trips.append([t + 1, s, a, _round12(v)])
    lam = lambda_from_duals(meas)
    _emit_json({"value": meas.value, "lambda": lam, "x": trips}, args.out)
    return 0


def cmd_classify(args) -> int:
    model = _load_model(args)
    meas = solve_relaxation(model)
    part = classify(meas)
    periods = []
    for t in range(1, model.T + 1):
        periods.append({
            "t": t,
            "active": sorted(part.active(t)),
            "neutral": sorted(part.neutral(t)),
            "inactive": sorted(part.inactive(t)),
        })
    _emit_json({"periods": periods,
                "neutral_counts": part.neutral_counts()}, args.out)
    return 0


def cmd_search_measure(args) -> int:
    model = _load_model(args)
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
    _emit_json(payload, args.out)
    return 0


def _ranked_priorities(args):
    """Priority scheme at the LP's budget duals and each period's state ranking."""
    model = _load_model(args)
    scheme = q_recursion(model, lambda_from_duals(solve_relaxation(model)))
    return scheme, [score_order(scheme, t, model.S) for t in range(1, model.T + 1)]


def cmd_priority(args) -> int:
    scheme, orders = _ranked_priorities(args)
    _emit_json({"lambda": scheme.lam, "ranked_states": orders}, args.out)
    return 0


def cmd_fluid_index(args) -> int:
    scheme, orders = _ranked_priorities(args)
    index = [[[s, p[s]] for s in order] for p, order in zip(scheme.P, orders)]
    _emit_json({"lambda": scheme.lam, "index": index}, args.out)
    return 0


def cmd_eval(args) -> int:
    model = _load_model(args)
    pol = CompiledPolicy(model, parse_policy(args.policy))
    engine = "per_arm" if args.engine == "per-arm" else "counts"
    _write_sweep(args.out, gap_sweep(model, pol, [args.N], args.reps,
                                     seed=args.seed, engine=engine))
    return 0


def cmd_sweep(args) -> int:
    model = _load_model(args)
    pol = CompiledPolicy(model, parse_policy(args.policy))
    _write_sweep(args.out, gap_sweep(model, pol, _parse_n_list(args.N), _reps_rule(args),
                                     seed=args.seed, crn=args.crn))
    return 0


def cmd_violations(args) -> int:
    model = _load_model(args)
    pol = CompiledPolicy(model, parse_policy(args.policy))
    reports = violation_rate_sweep(model, pol, _parse_n_list(args.N),
                                   _reps_rule(args), seed=args.seed)
    _write_reports(args.out, reports, [rep.N * pol.measure.value for rep in reports])
    return 0


def cmd_oracle(args) -> int:
    model = _load_model(args)
    vstar = optimal_value(model, args.N, guard=args.guard)
    vhat = solve_relaxation(model).value
    _emit_json({"N": args.N, "V_star": vstar, "NVhat": args.N * vhat,
                "gap": _round12(args.N * vhat) - _round12(vstar)}, args.out)
    return 0


def _add_model_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="model JSON path")
    p.add_argument("--gen", help="generator: bernoulli|crowd|assort|single|two")
    _add_generator_flags(p)


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--T", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--m-cap", dest="m_cap", type=int, default=zoo.ASSORT_M_CAP)
    p.add_argument("--x-cap", dest="x_cap", type=int, default=zoo.ASSORT_X_CAP)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fluidbandit",
        description="LP-relaxation policies for budgeted bandits")
    ap.add_argument("--config", help="JSON file of flag defaults; flags win")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated model as JSON")
    p.add_argument("generator", choices=["bernoulli", "crowd", "assort",
                                         "single", "two"])
    _add_generator_flags(p)
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_gen)

    for name, func, help_ in [
            ("relax", cmd_relax, "solve the occupation-measure LP"),
            ("classify", cmd_classify, "print per-period state categories"),
            ("search-measure", cmd_search_measure,
             "look for a measure with a neutral state per period"),
            ("priority", cmd_priority, "print lambda and ranked states"),
            ("fluid-index", cmd_fluid_index, "print per-period index values")]:
        p = sub.add_parser(name, help=help_)
        _add_model_source(p)
        p.add_argument("--out", "-o")
        p.set_defaults(func=func)

    p = sub.add_parser("eval", help="Monte Carlo value of one policy at one N")
    _add_model_source(p)
    p.add_argument("--policy", required=True,
                   help="fluid|relaxed|index|rac|ucb:<delta>|ts")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--engine", choices=["count", "per-arm"], default="count")
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="gap sweep across an N list")
    _add_model_source(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--N", required=True, help="comma-separated ascending list")
    p.add_argument("--reps", type=int,
                   help="fixed replication count (default min(50N, reps-cap))")
    p.add_argument("--reps-cap", dest="reps_cap", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--crn", action="store_true",
                   help="share random streams across policies")
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("violations", help="budget-bracket failure rates vs N")
    _add_model_source(p)
    p.add_argument("--policy", default="fluid")
    p.add_argument("--N", required=True)
    p.add_argument("--reps", type=int)
    p.add_argument("--reps-cap", dest="reps_cap", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_violations)

    p = sub.add_parser("oracle", help="exact small-N optimum vs LP bound")
    _add_model_source(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--guard", type=int, default=10**7,
                   help="work-unit limit: one unit per (count vector, pull vector) pair, "
                        "per count vector stored and per index-map or continuation-grid entry")
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_oracle)
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


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv with --config values installed as the subcommand's defaults.

    argparse then makes explicit flags win in every form it accepts.  Keys
    of another subcommand are ignored, so one file serves them all; a key
    that is an option of no subcommand is a ConfigError.
    """
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = {a.dest for p in sub.choices.values() for a in p._actions}
    unknown = sorted(k for k in cfg if k.replace("-", "_") not in known)
    if unknown:
        raise ConfigError(f"config {args.config!r} has unknown keys: {', '.join(unknown)}")
    command = sub.choices[args.command]
    actions = {a.dest: a for a in command._actions}
    defaults = {}
    for key, val in cfg.items():
        action = actions.get(key.replace("-", "_"))
        if action is not None:
            defaults[action.dest] = _config_value(key, val, action)
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _parse(parser, argv)
        if getattr(args, "seed", None) is None and args.command in (
                "eval", "sweep", "violations"):
            raise ConfigError("--seed is mandatory for simulation commands")
        return args.func(args)
    except FluidBanditError as exc:
        code = EXIT_CODES.get(type(exc), 1)
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__, "message": str(exc),
            "exit_code": code}) + "\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
