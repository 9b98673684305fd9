"""Command-line front end: generation, relaxation, diagnosis, evaluation.

Every float printed to CSV or JSON goes through a 12-significant-digit
round-trip so reruns of the same config are byte-identical (wall-clock
time lives only in the JSON sidecar).  Config files are JSON objects
whose keys mirror the long flags; explicit flags win over file values.
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
from .priority import lambda_from_duals, q_recursion, subgradient_solve
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


def _emit_json(payload: dict, path: str | None) -> None:
    text = json.dumps(_clean(payload), indent=2, sort_keys=True,
                      allow_nan=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _csv_rows(rows: list[dict]) -> str:
    out = [",".join(CSV_COLUMNS)]
    for row in rows:
        out.append(",".join(_fmt(row[c]) for c in CSV_COLUMNS))
    return "\n".join(out) + "\n"


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sidecar_path(out: str | None) -> str | None:
    if not out:
        return None
    base, _ = os.path.splitext(out)
    return base + ".json"


def _report_row(rep) -> dict:
    """CSV row dict from a SimulationReport plus bound info set by caller."""
    vmax = float(np.nanmax(rep.per_t_violation_rate)) if np.any(
        np.isfinite(rep.per_t_violation_rate)) else float("nan")
    return {"N": rep.N, "policy": rep.policy, "violation_rate_max": vmax}


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


def _finish_row(row: dict, upper_bound: float, mean: float, ci: float) -> dict:
    # print-precision round-trip first so gap == upper_bound - mean holds
    # exactly on the parsed CSV values
    ub, mu, hw = _round12(upper_bound), _round12(mean), _round12(ci)
    row.update(upper_bound=ub, mean=mu, ci95=hw, gap=_round12(ub - mu))
    return row


def _reps_rule(args):
    if getattr(args, "reps", None) is not None:
        return int(args.reps)
    cap = getattr(args, "reps_cap", None) or 200_000
    return lambda N: min(50 * N, int(cap))


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


def cmd_priority(args) -> int:
    model = _load_model(args)
    if args.subgradient:
        lam = subgradient_solve(model, iterations=args.subgradient)
    else:
        lam = lambda_from_duals(solve_relaxation(model))
    scheme = q_recursion(model, lam)
    ranked = [[int(s) for s in scheme.order(t)] for t in range(1, model.T + 1)]
    _emit_json({"lambda": lam, "ranked_states": ranked}, args.out)
    return 0


def cmd_fluid_index(args) -> int:
    model = _load_model(args)
    lam = lambda_from_duals(solve_relaxation(model))
    scheme = q_recursion(model, lam)
    table = []
    for t in range(1, model.T + 1):
        order = scheme.order(t)
        table.append([[int(s), _round12(float(scheme.P[t - 1, s]))]
                      for s in order])
    _emit_json({"lambda": lam, "index": table}, args.out)
    return 0


def _write_sweep(args, rows) -> None:
    csv_rows = [_finish_row(_report_row(r.report), r.upper_bound, r.mean, r.ci)
                for r in rows]
    _write_text(args.out, _csv_rows(csv_rows))
    _emit_json({"rows": [_report_sidecar(r.report) for r in rows]},
               _sidecar_path(args.out))


def cmd_eval(args) -> int:
    model = _load_model(args)
    pol = CompiledPolicy(model, parse_policy(args.policy))
    engine = "per_arm" if args.engine == "per-arm" else "counts"
    _write_sweep(args, gap_sweep(model, pol, [args.N], args.reps,
                                 seed=args.seed, engine=engine))
    return 0


def cmd_sweep(args) -> int:
    model = _load_model(args)
    pol = CompiledPolicy(model, parse_policy(args.policy))
    _write_sweep(args, gap_sweep(model, pol, _parse_n_list(args.N), _reps_rule(args),
                                 seed=args.seed, crn=args.crn))
    return 0


def cmd_violations(args) -> int:
    model = _load_model(args)
    pol = CompiledPolicy(model, parse_policy(args.policy))
    reports = violation_rate_sweep(model, pol, _parse_n_list(args.N),
                                   _reps_rule(args), seed=args.seed)
    vhat = pol.measure.value
    csv_rows, sidecars = [], []
    for rep in reports:
        csv_rows.append(_finish_row(_report_row(rep), rep.N * vhat,
                                    rep.mean_reward, rep.ci_halfwidth))
        sidecars.append(_report_sidecar(rep))
    _write_text(args.out, _csv_rows(csv_rows))
    _emit_json({"rows": sidecars}, _sidecar_path(args.out))
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
    p.add_argument("--T", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--m-cap", dest="m_cap", type=int, default=zoo.ASSORT_M_CAP)
    p.add_argument("--x-cap", dest="x_cap", type=int, default=zoo.ASSORT_X_CAP)
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("relax", help="solve the occupation-measure LP")
    _add_model_source(p)
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_relax)

    p = sub.add_parser("classify", help="print per-period state categories")
    _add_model_source(p)
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("search-measure",
                       help="look for a measure with a neutral state per period")
    _add_model_source(p)
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_search_measure)

    p = sub.add_parser("priority", help="print lambda and ranked states")
    _add_model_source(p)
    p.add_argument("--subgradient", type=int, default=0,
                   help="use N subgradient iterations instead of LP duals")
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_priority)

    p = sub.add_parser("fluid-index", help="print per-period index values")
    _add_model_source(p)
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_fluid_index)

    common_sim = dict(required=False)
    p = sub.add_parser("eval", help="Monte Carlo value of one policy at one N")
    _add_model_source(p)
    p.add_argument("--policy", required=True,
                   help="fluid|relaxed|index|rac|ucb:<delta>|ts")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--reps", type=int, **common_sim)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--engine", choices=["count", "per-arm"], default="count")
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="gap sweep across an N list")
    _add_model_source(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--N", required=True, help="comma-separated ascending list")
    p.add_argument("--reps", type=int, **common_sim,
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
    p.add_argument("--reps", type=int, **common_sim)
    p.add_argument("--reps-cap", dest="reps_cap", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_violations)

    p = sub.add_parser("oracle", help="exact small-N optimum vs LP bound")
    _add_model_source(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--guard", type=int, default=10**7)
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_oracle)
    return ap


def _apply_config(args: argparse.Namespace, argv: list[str],
                  parser: argparse.ArgumentParser) -> None:
    """Fill unset/default-valued options from --config JSON; flags win.

    Keys of another subcommand are ignored, so one file serves them all;
    a key that is an option of no subcommand is a ConfigError.
    """
    if not getattr(args, "config", None):
        return
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
    # a flag is explicit in every form argparse accepts: -o, -ob.json,
    # --out, --out=b.json and the unique prefix --ou
    present = set()
    for tok in argv:
        flag = tok.split("=", 1)[0]
        long_prefix = flag.startswith("--") and len(flag) > 2
        for a in sub.choices[args.command]._actions:
            if any(opt == flag or opt == tok[:2] or (long_prefix and opt.startswith(flag))
                   for opt in a.option_strings):
                present.add(a.dest)
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        if attr in present or not hasattr(args, attr):
            continue
        setattr(args, attr, val)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args, argv, parser)
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
