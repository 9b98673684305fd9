"""The four benchmark workloads: inputs, one pass of traffic, and checks.

Each workload builds its inputs in `setup` (repeated by the harness so
set-up time is a median), runs numbered passes of traffic through the
package's public functions, and checks the outputs of its first
`min_passes` passes.  All randomness comes from the workload seed; the
package only ever receives generated models, N values and simulation
seeds.

Workload choice:

* plan -- in-process ``cli.main`` traffic (``relax`` then
  ``search-measure`` per model file) over a mix on both sides of the
  simplex/HiGHS switch: the LP stack does nearly all of the work.
* eval-counts -- the count engine at N=9600 (the paper's A4/A5 instance):
  its cost does not depend on N, so allocation and multinomial stepping
  do the work and the LP runs only in set-up.
* eval-perarm -- O(N)-per-replication paths at N=1200 (posterior
  samplers, partition/argsort, the per-arm kernel tensor): a count-engine
  gain that costs the per-arm paths shows up here.
* oracle -- exact small-N DP on fresh random dense models each pass, the
  only workload for `oracle` and the scalar allocators; fresh instances
  keep the multinomial-outcome memo from carrying across passes.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fluidbandit.cli as cli
import fluidbandit.lp as lp
import fluidbandit.oracle as oracle
import fluidbandit.policies as policies
import fluidbandit.priority as priority
import fluidbandit.simulator as simulator
import fluidbandit.zoo as zoo
from fluidbandit.mdp import ArmModel
from fluidbandit.policies import PolicySpec
from fluidbandit.simulator import Z95

CHECK_TOL = 1e-6  # strong-duality residual allowed on the relax output


def _seeds(seed: int, index: int, k: int) -> list[int]:
    """k simulation seeds for pass `index`, drawn from the workload seed."""
    rng = np.random.default_rng([seed, index])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


def _pool(parts: list[tuple[float, float, int]]) -> tuple[float, float, int]:
    """Merge (mean, ci95 half-width, reps) samples into one (Chan's combine)."""
    n = sum(r for _, _, r in parts)
    mean = sum(m * r for m, _, r in parts) / n
    m2 = sum((r - 1) * (ci / Z95) ** 2 * r + r * (m - mean) ** 2
             for m, ci, r in parts)
    return mean, Z95 * math.sqrt(max(m2, 0.0) / (n - 1) / n), n


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


class Workload:
    """Common bookkeeping: operation counts and failure capture."""

    name = ""
    min_passes = 1
    # Passes are interpreter-bound, so their speed follows the host's and
    # pass_s is scaled to the reference speed (run.py, END_TO_END).
    host_scaled = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.ops = 0
        self.failed_ops = 0

    def op(self, fn, *args, **kwargs):
        """Call one package operation; a raise counts as a failed op."""
        self.ops += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # the harness must keep running and report it
            self.failed_ops += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def trace_models(self) -> list[ArmModel]:
        return []

    def collect(self, record: dict) -> None:
        """Untimed post-processing of one pass record."""

    def summary(self, records: list[dict]) -> list[tuple[str, float, str]]:
        return []


# ---- plan ----------------------------------------------------------------

THIRD = repr(1.0 / 3.0)
# (key, `cli gen` arguments, in-memory twin for checks, asserted verdict).
# bern24 is the smallest Bernoulli horizon above AUTO_SIMPLEX_MAX_ROWS
# (2625 reduced rows), so `auto` sends it to HiGHS.
PLAN_MODELS = [
    ("bern15", ["bernoulli", "--T", "15", "--alpha", THIRD],
     lambda: zoo.bernoulli_bandit(15, 1.0 / 3.0), (True, [])),
    ("crowd7", ["crowd", "--T", "7", "--alpha", "0.25"],
     lambda: zoo.crowdsourcing(7, 0.25), (False, [7])),
    ("assort3", ["assort", "--T", "3", "--alpha", "0.25"],
     lambda: zoo.assortment(3, 0.25), None),
    ("bern24", ["bernoulli", "--T", "24", "--alpha", THIRD],
     lambda: zoo.bernoulli_bandit(24, 1.0 / 3.0), None),
]


class Plan(Workload):
    name = "plan"
    # Passes spend most of their time in multi-threaded BLAS (the simplex
    # solves), whose speed does not follow the reference's drift, and
    # their raw seconds already repeat within a few per cent.
    host_scaled = False

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files, self.models = {}, {}
        with warnings.catch_warnings():
            # assortment truncation warnings are expected at these caps
            warnings.simplefilter("ignore")
            for key, gen_args, make, _ in PLAN_MODELS:
                path = str(self.workdir / f"{key}.json")
                rc = cli.main(["gen", *gen_args, "-o", path])
                if rc != 0:
                    raise RuntimeError(f"cli gen {key} exited {rc}")
                self.files[key] = path
                self.models[key] = make()

    def run_pass(self, i: int) -> dict:
        order = np.random.default_rng([self.seed, i]).permutation(len(PLAN_MODELS))
        rcs = {}
        for j in order:
            key = PLAN_MODELS[j][0]
            rcs[key] = [
                self.op(cli.main, [cmd, "--model", self.files[key],
                                   "-o", self._out(cmd, key)])
                for cmd in ("relax", "search-measure")]
        self.failed_ops += sum(rc != 0 for v in rcs.values() for rc in v
                               if rc is not None)
        return {"rcs": rcs}

    def _out(self, cmd: str, key: str) -> str:
        return str(self.workdir / f"{cmd}-{key}.out.json")

    def collect(self, record: dict) -> None:
        outputs = {}
        for key, rcs in record["rcs"].items():
            if rcs != [0, 0]:
                continue
            with open(self._out("relax", key)) as fh:
                relax = json.load(fh)
            with open(self._out("search-measure", key)) as fh:
                search = json.load(fh)
            outputs[key] = (relax, search)
        record["outputs"] = outputs

    def checks(self, records: list[dict]) -> list[Check]:
        out = []
        for rec in records:
            for key, _, _, expect in PLAN_MODELS:
                rcs = rec["rcs"][key]
                out.append(Check(f"{key}.exit_codes", rcs == [0, 0], f"relax/search exit {rcs}"))
                if key not in rec["outputs"]:
                    continue
                relax, search = rec["outputs"][key]
                resid = abs(priority.dual_value(self.models[key], relax["lambda"])
                            - relax["value"])
                out.append(Check(f"{key}.strong_duality", resid <= CHECK_TOL,
                                 f"|g(lambda) - value| = {resid:.2e} <= {CHECK_TOL}"))
                verdict = (search["nondegenerate"], search["certificate"])
                note = (f"nondegenerate={verdict[0]} certificate={verdict[1]} "
                        f"neutral={search['neutral_counts']} stages={search['stages']}")
                if expect is None:
                    print(f"# verdict {key} (recorded, not asserted): {note}")
                    continue
                ok = verdict[0] == expect[0] and (expect[0] or verdict[1] == expect[1])
                out.append(Check(f"{key}.verdict", ok, note))
        return out


# ---- evaluation ------------------------------------------------------------


def _sim(wl: Workload, fn, pol, N: int, reps: int, seed: int):
    """One timed simulate call -> (mean, ci, reps, seconds) or None."""
    t0 = time.perf_counter()
    rep = wl.op(fn, wl.model, pol, N, reps, seed)
    dt = time.perf_counter() - t0
    if rep is None:
        return None
    return (rep.mean_reward, rep.ci_halfwidth, rep.reps, dt)


def _time_to_ci(samples: list[tuple]) -> float:
    """Seconds the run needs for a 0.25 half-width: wall * (hw / 0.25)^2."""
    _, ci, _ = _pool([s[:3] for s in samples])
    return sum(s[3] for s in samples) * (ci / 0.25) ** 2


def _rate(records: list[dict], keys: tuple[str, ...]) -> float:
    """Median over passes of replications per second of simulate time."""
    rates = []
    for rec in records:
        parts = [rec[k] for k in keys]
        if all(p is not None for p in parts):
            rates.append(sum(p[2] for p in parts) / sum(p[3] for p in parts))
    return statistics.median(rates) if rates else float("nan")


class _Bern15Eval(Workload):
    """Set-up shared by the eval workloads: bern15 and its relaxation."""

    min_passes = 3

    def setup(self) -> None:
        self.model = zoo.bernoulli_bandit(15, 1.0 / 3.0)
        self.measure = lp.solve_relaxation(self.model)

    def trace_models(self):
        return [self.model]


class EvalCounts(_Bern15Eval):
    name = "eval-counts"
    N = 9600
    REPS = 2000

    def setup(self) -> None:
        super().setup()
        self.fluid = simulator.CompiledPolicy(
            self.model, PolicySpec(kind="fluid", measure=self.measure))
        self.ucb = simulator.CompiledPolicy(self.model, policies.parse_policy("ucb:0.5"))

    def run_pass(self, i: int) -> dict:
        s_fluid, s_ucb = _seeds(self.seed, i, 2)
        return {
            "fluid": _sim(self, simulator.simulate, self.fluid, self.N, self.REPS, s_fluid),
            "ucb": _sim(self, simulator.simulate, self.ucb, self.N, self.REPS, s_ucb),
        }

    def checks(self, records: list[dict]) -> list[Check]:
        if any(r["fluid"] is None or r["ucb"] is None for r in records):
            return [Check("simulate_completed", False, "a simulate call raised")]
        ub = self.N * self.measure.value
        f_mean, f_ci, f_n = _pool([r["fluid"][:3] for r in records])
        u_mean, _, _ = _pool([r["ucb"][:3] for r in records])
        f_gap, u_gap = ub - f_mean, ub - u_mean
        return [
            Check("fluid_gap", f_gap <= 2.0 + 3.0 * f_ci,
                  f"gap {f_gap:.3f} <= 2 + 3*{f_ci:.3f} ({f_n} reps)"),
            Check("ucb_gap", u_gap >= 10.0 * f_gap,
                  f"ucb gap {u_gap:.2f} >= 10 * fluid gap {f_gap:.3f}"),
        ]

    def summary(self, records):
        ok = [r for r in records if r["fluid"] is not None]
        return [("reps_per_s", _rate(records, ("fluid", "ucb")), "1/s"),
                ("gap_ci_s", _time_to_ci([r["fluid"] for r in ok]) if ok else float("nan"), "s")]


class EvalPerArm(_Bern15Eval):
    name = "eval-perarm"
    N = 1200
    REPS = {"ts": 50, "rac": 50, "fluid_per_arm": 25}
    # The cross-engine check is a 3-SE test; with seeds drawn from the
    # workload seed it would fail 0.27% of runs by chance alone.  Fixed
    # per-pass seeds make its outcome a property of the program.
    PER_ARM_SEED = 1_000_003
    REFERENCE = (4000, 2_000_003)  # count-engine fluid reps, seed

    def setup(self) -> None:
        super().setup()
        self.pols = {
            "ts": simulator.CompiledPolicy(self.model, PolicySpec(kind="ts")),
            "rac": simulator.CompiledPolicy(
                self.model, PolicySpec(kind="rac", measure=self.measure)),
            "fluid_per_arm": simulator.CompiledPolicy(
                self.model, PolicySpec(kind="fluid", measure=self.measure)),
        }

    def run_pass(self, i: int) -> dict:
        s_ts, s_rac = _seeds(self.seed, i, 2)
        N, reps, pols = self.N, self.REPS, self.pols
        return {
            "ts": _sim(self, simulator.simulate, pols["ts"], N, reps["ts"], s_ts),
            "rac": _sim(self, simulator.simulate, pols["rac"], N, reps["rac"], s_rac),
            "fluid_per_arm": _sim(self, simulator.simulate_per_arm, pols["fluid_per_arm"],
                                  N, reps["fluid_per_arm"], self.PER_ARM_SEED + i),
        }

    def checks(self, records: list[dict]) -> list[Check]:
        keys = tuple(self.REPS)
        if any(r[k] is None for r in records for k in keys):
            return [Check("simulate_completed", False, "a simulate call raised")]
        ub = self.N * self.measure.value
        out = []
        for k in ("ts", "rac"):
            mean, ci, n = _pool([r[k][:3] for r in records])
            out.append(Check(f"{k}_below_bound", mean <= ub + 3.0 * ci,
                             f"mean {mean:.2f} <= N*Vhat {ub:.2f} + 3*{ci:.2f} ({n} reps)"))
        pa_mean, pa_ci, pa_n = _pool([r["fluid_per_arm"][:3] for r in records])
        reps, seed = self.REFERENCE
        ref = self.op(simulator.simulate, self.model, self.pols["fluid_per_arm"],
                      self.N, reps, seed)
        if ref is None:
            return out + [Check("engines_agree", False, "reference simulate raised")]
        se = math.hypot(pa_ci, ref.ci_halfwidth) / Z95
        dev = abs(pa_mean - ref.mean_reward)
        out.append(Check("engines_agree", dev <= 3.0 * se,
                         f"|per-arm {pa_mean:.2f} ({pa_n} reps) - count "
                         f"{ref.mean_reward:.2f}| = {dev:.2f} <= 3*{se:.2f}"))
        return out

    def summary(self, records):
        ok = [r for r in records if r["fluid_per_arm"] is not None]
        return [("reps_per_s", _rate(records, tuple(self.REPS)), "1/s"),
                ("gap_ci_s", _time_to_ci([r["fluid_per_arm"] for r in ok])
                 if ok else float("nan"), "s")]


# ---- oracle ----------------------------------------------------------------

# (S, N, per-period budgets B_t; T = len(B)) of the instances in one pass.  Each pass
# draws fresh kernels, rewards and alpha_t in (B_t, B_t + 1) / N from the
# workload seed; with every kernel entry positive the DP work is set by the
# sizes and budgets alone, so passes differ in numbers but not in cost.
ORACLE_INSTANCES = [(3, 8, (2, 4, 6)), (4, 5, (1, 3, 2, 4))]


def random_dense_model(rng: np.random.Generator, S: int, N: int,
                       budgets: tuple[int, ...]) -> ArmModel:
    """Dirichlet kernel rows, rewards in [0, 1], floor(alpha_t N) = B_t."""
    T = len(budgets)
    return ArmModel(
        T=T, states=[f"s{k}" for k in range(S)], s0=0,
        P=rng.dirichlet(np.ones(S), size=(T, S, 2)),
        R=rng.uniform(0.0, 1.0, size=(T, S, 2)),
        alpha=(np.array(budgets) + rng.uniform(0.05, 0.95, size=T)) / N,
        metadata={"name": "random-dense"})


class Oracle(Workload):
    name = "oracle"
    # set-up is near zero, so nothing spreads the passes over the run, and
    # a pass's time varies most here; more of them make up for it
    min_passes = 16

    def _instances(self, i: int) -> list[tuple[ArmModel, int]]:
        rng = np.random.default_rng([self.seed, i])
        return [(random_dense_model(rng, S, N, budgets), N)
                for S, N, budgets in ORACLE_INSTANCES]

    def setup(self) -> None:
        self.first = self._instances(0)

    def run_pass(self, i: int) -> dict:
        results = []
        for model, N in (self.first if i == 0 else self._instances(i)):
            measure = self.op(lp.solve_relaxation, model)
            if measure is None:
                results.append(None)
                continue
            vstar = self.op(oracle.optimal_value, model, N)
            vpol = self.op(oracle.exact_policy_value, model,
                           PolicySpec(kind="fluid", measure=measure), N)
            results.append((model, N, measure.value, vstar, vpol))
        return {"results": results}

    def checks(self, records: list[dict]) -> list[Check]:
        out = []
        for rec in records:
            for k, res in enumerate(rec["results"]):
                if res is None or res[3] is None or res[4] is None:
                    out.append(Check(f"instance{k}.completed", False, "an oracle call raised"))
                    continue
                model, N, vhat, vstar, vpol = res
                # floor budgets let V* exceed N*Vhat by this much (A2's slack)
                slack = model.T * (1 + max(math.ceil(1.0 / a) for a in model.alpha)) \
                    * float(np.abs(model.R).max())
                out.append(Check(f"instance{k}.policy_below_opt", vpol <= vstar + 1e-9,
                                 f"V_pol {vpol:.6f} <= V* {vstar:.6f}"))
                out.append(Check(f"instance{k}.opt_below_bound",
                                 vstar <= N * vhat + slack + 1e-9,
                                 f"V* {vstar:.6f} <= N*Vhat {N * vhat:.6f} + {slack:.3f}"))
        return out


WORKLOADS = {cls.name: cls for cls in (Plan, EvalCounts, EvalPerArm, Oracle)}
