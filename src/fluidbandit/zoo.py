"""Problem generators: Bayesian bandit instances and tiny fixtures.

All three generators produce belief-state MDPs whose states index the
sufficient statistics of a per-arm posterior; rewards are posterior
predictive means, so pulling is both exploration (the state moves) and
exploitation (the mean accrues).  The fixtures are two hand-checkable
instances used across the test suite.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln

from .errors import RangeError
from .mdp import ArmModel, BeliefStateAnnotation, validate_model

# Default assortment truncation caps.
ASSORT_M_CAP = 120
ASSORT_X_CAP = 40
# Warn when the truncated chain's coupling-divergence mass exceeds this.
TRUNCATION_WARN = 1e-4


def _kernel(rows: list[dict[int, float]]) -> sp.csr_matrix:
    """One period's (2S, S) kernel matrix from rows[2s+a] = {target: probability}."""
    r, c, v = zip(*[(i, j, p) for i, row in enumerate(rows) for j, p in row.items() if p > 0.0])
    return sp.csr_matrix((v, (r, c)), shape=(len(rows), len(rows) // 2))


def bernoulli_bandit(T: int, alpha: float) -> ArmModel:
    """Beta-Bernoulli bandit: states (n, k) = (pulls, successes), flat prior.

    Pull moves (n, k) to (n+1, k+1) with the posterior mean (1+k)/(2+n),
    else to (n+1, k); idling freezes the state.  Reward of a pull is the
    posterior mean.  States at n = T-1 keep a self-loop pull row; they
    cannot be pulled-from within the horizon.
    """
    if T < 1:
        raise RangeError("T must be >= 1")
    states = [(n, k) for n in range(T) for k in range(n + 1)]
    idx = {s: i for i, s in enumerate(states)}
    S = len(states)
    rows = []
    R1 = np.zeros((S, 2))
    ann = []
    for (n, k), i in idx.items():
        mean = (1 + k) / (2 + n)
        rows.append({i: 1.0})
        rows.append({idx[(n + 1, k + 1)]: mean, idx[(n + 1, k)]: 1.0 - mean}
                    if n + 1 <= T - 1 else {i: 1.0})
        R1[i, 1] = mean
        ann.append(BeliefStateAnnotation("beta", (1.0 + k, 1.0 + n - k)))
    R = np.broadcast_to(R1, (T, S, 2))
    model = ArmModel(
        T=T, states=states, s0=idx[(0, 0)], kernel=[_kernel(rows)] * T, R=R,
        alpha=np.full(T, float(alpha)),
        metadata={"name": "bernoulli", "params": {"T": T, "alpha": alpha},
                  "annotations": ann})
    validate_model(model)
    return model


def _w_exact(h: int, ell: int) -> Fraction:
    """w(h, l) = 2 * integral_{1/2}^{1} p^h (1-p)^l dp, exact rational."""
    total = Fraction(0)
    for j in range(ell + 1):
        e = h + j + 1
        term = Fraction(math.comb(ell, j) * (-1) ** j, e) * (1 - Fraction(1, 2 ** e))
        total += term
    return 2 * total


def crowdsourcing(T: int, alpha: float) -> ArmModel:
    """Binary labeling with worker accuracy p ~ U[1/2, 1], class fair coin.

    States (h, l) count votes for class 1 and class 0.  Pulling requests
    one more label; the predictive vote probability follows from the
    joint posterior over (class, p).  All reward arrives at the horizon:
    the expected accuracy of the posterior-mode classification, folded
    into r_T by one-step lookahead through the period-T kernel.
    """
    if T < 1:
        raise RangeError("T must be >= 1")
    states = [(h, ell) for tot in range(T + 1) for h in range(tot + 1)
              for ell in [tot - h]]
    idx = {s: i for i, s in enumerate(states)}
    S = len(states)
    w = {}
    for h in range(T + 2):
        for ell in range(T + 2 - h):
            w[(h, ell)] = _w_exact(h, ell)

    def acc(h: int, ell: int) -> float:
        return float(max(w[(h, ell)], w[(ell, h)]) / (w[(h, ell)] + w[(ell, h)]))

    rows = []
    up = np.zeros(S)
    for (h, ell), i in idx.items():
        rows.append({i: 1.0})
        if h + ell < T:
            p_up = float(Fraction(w[(h + 1, ell)] + w[(ell, h + 1)],
                                  w[(h, ell)] + w[(ell, h)]))
            up[i] = p_up
            rows.append({idx[(h + 1, ell)]: p_up, idx[(h, ell + 1)]: 1.0 - p_up})
        else:
            rows.append({i: 1.0})
    R = np.zeros((T, S, 2))
    for (h, ell), i in idx.items():
        R[T - 1, i, 0] = acc(h, ell)
        if h + ell < T:
            R[T - 1, i, 1] = up[i] * acc(h + 1, ell) + (1.0 - up[i]) * acc(h, ell + 1)
        else:
            R[T - 1, i, 1] = acc(h, ell)
    model = ArmModel(
        T=T, states=states, s0=idx[(0, 0)], kernel=[_kernel(rows)] * T, R=R,
        alpha=np.full(T, float(alpha)),
        metadata={"name": "crowdsourcing", "params": {"T": T, "alpha": alpha}})
    validate_model(model)
    return model


def _nb_pmf_row(m: int, a: float, x_cap: int) -> np.ndarray:
    """Negative-binomial predictive over x = 0..x_cap, tail lumped on x_cap."""
    x = np.arange(x_cap + 1)
    logp = (gammaln(m + x) - gammaln(m) - gammaln(x + 1)
            + m * math.log(a / (a + 1.0)) - x * math.log(a + 1.0))
    p = np.exp(logp)
    head = float(p[:-1].sum())
    p[-1] = max(0.0, 1.0 - head)
    return p


def assortment(T: int, alpha: float, m_cap: int = ASSORT_M_CAP,
               x_cap: int = ASSORT_X_CAP) -> ArmModel:
    """Display-and-learn product model with Gamma demand beliefs.

    States (m, j): cumulative demand-plus-prior m and display count j;
    posterior Gamma(m, 0.1 + j).  Displaying earns the posterior mean
    demand and moves m by the realized demand (negative-binomial
    predictive, truncated at x_cap; m itself capped at m_cap).  A
    coupling bound on the truncation's divergence mass from the initial
    state under always-display is checked at generation and warned about
    when it exceeds 1e-4.
    """
    if T < 1:
        raise RangeError("T must be >= 1")
    if m_cap < 1 or x_cap < 1:
        raise RangeError("caps must be >= 1")
    states = [(m, j) for m in range(1, m_cap + 1) for j in range(T + 1)]
    idx = {s: i for i, s in enumerate(states)}
    S = len(states)
    rows = []
    R1 = np.zeros((S, 2))
    ann = []
    divergence = np.zeros(S)  # per-display coupling divergence probability
    for (m, j), i in idx.items():
        a = 0.1 + j
        R1[i, 1] = m / a
        rows.append({i: 1.0})
        pull = {}
        if j + 1 <= T:
            pmf = _nb_pmf_row(m, a, x_cap)
            for x, px in enumerate(pmf):
                if px > 0.0:
                    tgt = idx[(min(m + x, m_cap), j + 1)]
                    pull[tgt] = pull.get(tgt, 0.0) + px
            tail = float(pmf[-1] - math.exp(
                gammaln(m + x_cap) - gammaln(m) - gammaln(x_cap + 1)
                + m * math.log(a / (a + 1.0)) - x_cap * math.log(a + 1.0)))
            overflow = float(pmf[np.arange(x_cap + 1) + m > m_cap].sum())
            divergence[i] = min(1.0, max(tail, 0.0) + overflow)
        else:
            pull[i] = 1.0
        rows.append(pull)
        ann.append(BeliefStateAnnotation("gamma", (float(m), a)))
    K = _kernel(rows)
    # always-display forward flow from (1, 0) accumulates divergence mass
    display = K[1::2].T
    mu = np.zeros(S)
    mu[idx[(1, 0)]] = 1.0
    trunc_mass = 0.0
    for _ in range(T - 1):
        trunc_mass += float(mu @ divergence)
        mu = display @ mu
    if trunc_mass >= TRUNCATION_WARN:
        warnings.warn(
            f"assortment truncation divergence mass {trunc_mass:.3g} >= {TRUNCATION_WARN} "
            f"at caps (m_cap={m_cap}, x_cap={x_cap})", stacklevel=2)
    R = np.broadcast_to(R1, (T, S, 2))
    model = ArmModel(
        T=T, states=states, s0=idx[(1, 0)], kernel=[K] * T, R=R,
        alpha=np.full(T, float(alpha)),
        metadata={"name": "assortment",
                  "params": {"T": T, "alpha": alpha, "m_cap": m_cap, "x_cap": x_cap},
                  "annotations": ann, "truncation_mass": trunc_mass})
    validate_model(model)
    return model


def fixtures() -> dict[str, ArmModel]:
    """Two hand-checkable instances: SINGLE (one state) and TWO (G/B)."""
    R1 = np.zeros((2, 1, 2))
    R1[:, 0, 1] = 1.0
    single = ArmModel(T=2, states=["s"], s0=0, kernel=[_kernel([{0: 1.0}, {0: 1.0}])] * 2,
                      R=R1, alpha=np.array([0.5, 0.5]),
                      metadata={"name": "SINGLE"})
    # TWO: pulling G keeps it G; idling G drops it to absorbing B
    G, B = 0, 1
    K2 = _kernel([{B: 1.0}, {G: 1.0}, {B: 1.0}, {B: 1.0}])
    R2 = np.zeros((2, 2, 2))
    R2[:, G, 1] = 1.0
    two = ArmModel(T=2, states=["G", "B"], s0=G, kernel=[K2] * 2, R=R2,
                   alpha=np.array([0.5, 0.5]),
                   metadata={"name": "TWO"})
    validate_model(single)
    validate_model(two)
    return {"SINGLE": single, "TWO": two}
