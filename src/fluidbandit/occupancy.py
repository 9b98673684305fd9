"""Category codes and degeneracy detection.

A solved measure splits each period's states into three categories by
their fluid action mix: active (pulled with all their mass), neutral
(pulled with part of it), inactive (never pulled).  ``classify`` returns
them as a plain (T, S) int8 array of codes, +1 active, 0 neutral and
-1 inactive, which the allocation kernels take as it is.  An instance is
non-degenerate when every period keeps at least one neutral state; that
is the regime where the fluid-priority policy's gap stays O(1) in N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverFailure
from .lp import OccupationMeasure, resolve_with_pins, solve_relaxation
from .mdp import ArmModel

# Strict-positivity tolerance of the category split.
CLASSIFY_TOL = 1e-9
# A pinned minimum within this of the incumbent activity mass certifies
# the period as permanently degenerate (no further progress possible).
CERT_TOL = 1e-6
# Safety cap on collected solutions; keeps each one's weight in the
# uniform combination well above CLASSIFY_TOL.
MAX_SOLUTIONS = 50


@dataclass
class DegeneracyReport:
    """Verdict of a degeneracy check or search.

    :neutral_counts: |C0_t| per period, for the measure behind the verdict.
    :witness: a non-degenerate optimal measure when one was constructed.
    :certificate: periods without a neutral state: for a plain check,
        those of the codes checked; for a search, those it proved to lack
        one under every optimal measure.
    :stages: LP solves performed by the search (0 for plain checks).
    """

    neutral_counts: np.ndarray
    witness: OccupationMeasure | None = None
    certificate: list[int] = field(default_factory=list)
    stages: int = 0

    @property
    def nondegenerate(self) -> bool:
        """Every period has at least one neutral state."""
        return bool((self.neutral_counts >= 1).all())


def classify(measure: OccupationMeasure) -> np.ndarray:
    """Codes (T, S) of the states per period: +1 pulled fully, 0 partially,
    -1 not at all.

    States with pull mass <= CLASSIFY_TOL are inactive regardless of idle
    mass, so the three categories partition S.
    """
    pull = measure.x[:, :, 1]
    idle = measure.x[:, :, 0]
    codes = np.full(pull.shape, -1, dtype=np.int8)
    pulled = pull > CLASSIFY_TOL
    codes[pulled & (idle > CLASSIFY_TOL)] = 0
    codes[pulled & (idle <= CLASSIFY_TOL)] = 1
    return codes


def is_nondegenerate(codes: np.ndarray) -> DegeneracyReport:
    """Check Definition-style non-degeneracy of one set of codes (no search)."""
    counts = (codes == 0).sum(axis=1)
    bad = [int(t + 1) for t in np.flatnonzero(counts == 0)]
    return DegeneracyReport(neutral_counts=counts, certificate=bad)


def _combine(solutions: list[OccupationMeasure]) -> OccupationMeasure:
    """Uniform convex combination; optimal by linearity, duals from the first."""
    x = np.mean([m.x for m in solutions], axis=0)
    value = float(np.mean([m.value for m in solutions]))
    return OccupationMeasure(x=x, value=value, duals=solutions[0].duals)


def search_nondegenerate(model: ArmModel) -> DegeneracyReport:
    """Search for a non-degenerate optimal measure, or certify none exists.

    Stage k keeps the uniform combination of all collected optimal
    solutions as the canonical candidate witness.  The pending set is the
    periods where that combination still has no neutral state; for the
    earliest such period the pinned re-solve pushes pull mass off the
    combination's active set.  No reduction possible (within CERT_TOL)
    proves every optimal measure degenerate at that period, because the
    combination's active set carries all pull mass there and the pin
    minimized it over the whole optimal face.

    The combination's active set at a pending period grows strictly with
    every accepted solution, so stages are bounded by T + T*|S| even when
    a single pin fails to create neutrality on its own.
    """
    base = solve_relaxation(model)
    solutions = [base]
    combo = base
    certified: set[int] = set()
    stages = 1

    while True:
        codes = classify(combo)
        report = is_nondegenerate(codes)
        pending = [t for t in report.certificate if t not in certified]
        if not pending:
            break
        if len(solutions) >= MAX_SOLUTIONS:
            raise SolverFailure("degeneracy search did not settle within the solution cap")
        t_k = pending[0]
        c_plus = np.flatnonzero(codes[t_k - 1] == 1)
        prev_activity = float(combo.x[t_k - 1, c_plus, 1].sum())
        functional = np.zeros((model.T, model.S, 2))
        functional[t_k - 1, c_plus, 1] = 1.0
        pinned = resolve_with_pins(model, functional, base.value)
        stages += 1
        fval = float(pinned.x[t_k - 1, c_plus, 1].sum())
        if fval >= prev_activity - CERT_TOL:
            certified.add(t_k)
            continue
        solutions.append(pinned)
        combo = _combine(solutions)

    report.certificate, report.stages = sorted(certified), stages
    if report.nondegenerate:
        report.witness = combo
    return report
