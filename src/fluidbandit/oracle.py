"""Exact ground truth for tiny N: joint-count backward induction.

The N-arm system is a single MDP over count vectors (compositions of N
across states).  Backward induction over that space gives the exact
optimal value V*_N; forward distribution propagation gives the exact
value of any deterministic policy, compiled by the simulator's
``CompiledPolicy`` so that the bound, the oracle and the Monte Carlo
engines all run one policy.

Both rest on one factorisation.  Split a period's action counts into
passive counts P and active counts A.  The next count vector is
Y_P + Y_A, where Y_P is where the passive arms land and Y_A where the
active arms land; the two are independent, and each is a sum of
per-state multinomials.  The law of Y_P is one row of the period's
passive group table, which has a row for every composition of |P|, and
likewise for Y_A.  The tables grow combinatorially in N and S, so they
only fit tiny instances; a work guard rejects anything larger instead
of hanging or exhausting memory.

The interpreted work is per batch, not per count vector: group laws are
built one composition level at a time, count vectors are ranked one
state column at a time, and the policy DP lands each period's (passive,
active) pairs with one sparse matrix product.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp

from .errors import BudgetExceeded, DimensionMismatch, NondeterministicPolicy, RangeError
from .mdp import ArmModel, distinct_periods, is_integer, period_budget, successors
from .occupancy import classify  # noqa: F401  bench/tracing.py patches this name
from .policies import fluid_priority_allocate  # noqa: F401  bench/tracing.py patches this name
from .policies import parse_policy
from .priority import q_recursion  # noqa: F401  bench/tracing.py patches this name
from .simulator import _resolve_policy

# Work guard: grid cells valued plus table entries built.
DEFAULT_GUARD = 10 ** 7


def compositions(total: int, parts: int):
    """All nonnegative integer vectors of length `parts` summing to `total`,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def bounded_compositions(total: int, bounds):
    """Compositions of `total` with per-coordinate upper bounds, in
    lexicographic order: the pull vectors of a count vector.  The DPs
    here value all of a period's pull vectors at once and do not call it."""
    # coordinates bounded by 0 stay 0, so only the others are walked
    support = [i for i, b in enumerate(bounds) if b > 0]
    caps = [bounds[i] for i in support]
    room = [sum(caps[k:]) for k in range(len(caps) + 1)]
    out = [0] * len(bounds)

    def rec(k: int, rem: int):
        if k == len(support):
            yield tuple(out)
            return
        for v in range(max(0, rem - room[k + 1]), min(rem, caps[k]) + 1):
            out[support[k]] = v
            yield from rec(k + 1, rem - v)

    if total <= room[0]:
        yield from rec(0, total)


def _grid(major: np.ndarray, minor: np.ndarray):
    """Every cell of the grids major[e] x minor[e], grid by grid, each in
    row-major order: its grid e, row and column."""
    m = major * minor
    e = np.repeat(np.arange(len(m)), m)
    return (e, *np.divmod(np.arange(len(e)) - np.repeat(np.cumsum(m) - m, m), minor[e]))


def _fold(key: np.ndarray, w: np.ndarray):
    """The sum of each distinct key's weights in input order (as
    ``bincount`` adds them) and the index of each key's first occurrence,
    keys in ascending order."""
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return np.bincount(inverse, weights=w), first


class _Lattice:
    """One oracle call: its work guard, its count vectors with their rank
    within the compositions of their total (lexicographic, as
    :func:`compositions` yields them), and its memo of group laws keyed
    by (period, action, composition).  Periods whose kernel matrices are
    equal (:func:`~fluidbandit.mdp.distinct_periods`) are keyed by the
    first of them, so they share their laws however the model was
    built.  Levels, index maps and laws are built on first use and
    charged to the guard before they are allocated.

    A group law is stored as the columns (S, rows) of its landing vectors
    in lexicographic order, and their probabilities.  The law of a
    composition P is its parent's law, the parent being P with one arm
    peeled off its last occupied state, with the peeled arm moved to each
    kernel target; the laws a request needs are built one composition
    level at a time, each level in one batch."""

    def __init__(self, model: ArmModel, N: int, guard: int):
        if not is_integer(N) or N < 1:
            raise RangeError(f"N must be a positive integer, got {N!r}")
        self.S, self.N = model.S, N
        self.guard, self.used = guard, 0
        self.kernels = successors(model)
        firsts, index = distinct_periods(self.kernels)
        self.first = [firsts[g] for g in index]
        self.memo: dict[tuple[int, int, tuple[int, ...]], tuple[np.ndarray, np.ndarray]] = {}
        # the law of no arms: one empty landing vector
        self.zero = (np.zeros((self.S, 1), dtype=np.int64), np.ones(1))
        self._levels: dict[int, np.ndarray] = {}
        self._sums: dict[tuple[int, int], np.ndarray] = {}

    @functools.cached_property
    def count(self) -> np.ndarray:
        """count[j * (N + 1) + m]: compositions of m into j + 1 parts, as
        int64 while every batch key (entry, rank), below size(N) ** 2,
        fits and as exact Python ints beyond; built on first use, so the
        size estimate of :func:`optimal_value` refuses a huge N first."""
        table = [math.comb(m + j, j) for j in range(self.S) for m in range(self.N + 1)]
        return np.array(table, dtype=np.int64 if table[-1] ** 2 < 2 ** 63 else object)

    def spend(self, units: int) -> None:
        self.used += units
        if self.used > self.guard:
            raise BudgetExceeded(f"enumeration exceeded {self.guard} work units")

    def size(self, n: int) -> int:
        return int(self.count[(self.S - 1) * (self.N + 1) + n])

    def level(self, n: int) -> np.ndarray:
        """The compositions of n, one row each."""
        Y = self._levels.get(n)
        if Y is None:
            self.spend(self.size(n))
            Y = self._levels[n] = np.array(list(compositions(n, self.S)),
                                           dtype=np.int64).reshape(-1, self.S)
        return Y

    def rank(self, cols: Iterable[np.ndarray], total: int | np.ndarray, size: int) -> np.ndarray:
        """Index within the compositions of `total` of `size` count vectors,
        given as their state columns (1-D arrays, state 0 first; the last
        is never read, since the others fix it); `total` is one int or an
        array of each vector's total.  Per state it adds the
        vectors that agree before it and hold fewer arms in it, one column
        at a time by a flat take into the count table: a true rank at any
        S, where a radix key (N + 1) ** S overflows int64 at S = 32, N = 3."""
        stride, count = self.N + 1, self.count
        out = np.zeros(size, dtype=count.dtype)
        rem = total  # arms left from this state on
        for parts, y in zip(range(self.S - 1, 0, -1), cols):
            at = parts * stride + rem
            out += count.take(at) - count.take(at - y)
            rem = rem - y
        return out

    def sums(self, n0: int, n1: int) -> np.ndarray:
        """Index within the compositions of n0 + n1 of y0 + y1, for every
        composition y0 of n0 (rows) and y1 of n1 (columns)."""
        idx = self._sums.get((n0, n1))
        if idx is None:
            self.spend(self.size(n0) * self.size(n1))
            Y0, Y1 = self.level(n0), self.level(n1)
            grid = (np.add.outer(Y0[:, i], Y1[:, i]).ravel() for i in range(self.S))
            idx = self._sums[n0, n1] = self.rank(grid, n0 + n1, Y0.shape[0] * Y1.shape[0]
                                                 ).reshape(Y0.shape[0], Y1.shape[0])
        return idx

    def laws(self, t: int, a: int, comps: Iterable[tuple[int, ...]]):
        """Where the arms of each composition in `comps` land under action a
        in period t, one row of that period's group table each, kept
        sparse: the laws' landing columns (S, rows) and probabilities
        concatenated in request order, and each law's row count."""
        memo, u = self.memo, self.first[t - 1]
        comps = list(comps)
        todo: dict[int, dict[tuple[int, ...], tuple[int, tuple[int, ...]]]] = {}
        for P in comps:
            n = sum(P)
            while n and (u, a, P) not in memo and P not in todo.get(n, ()):
                # peel one arm off the last occupied state
                s = max(i for i, c in enumerate(P) if c)
                Q = P[:s] + (P[s] - 1,) + P[s + 1:]
                todo.setdefault(n, {})[P] = s, Q
                P, n = Q, n - 1
        for n in sorted(todo):
            self._build(u, a, n, todo[n])
        got = [memo[u, a, P] if any(P) else self.zero for P in comps]
        return (np.concatenate([Y for Y, _ in got], axis=1), np.concatenate([p for _, p in got]),
                np.array([len(p) for _, p in got]))

    def _build(self, u: int, a: int, n: int,
               peel: dict[tuple[int, ...], tuple[int, tuple[int, ...]]]) -> None:
        """The laws of the compositions P of n in `peel`, each given its
        peeled state s and parent Q, in one batch: every parent row r gains
        e_j for each target j of kernel row 2s + a (j major, r minor), and
        the landing vectors are merged per P by the key (entry, rank)."""
        K = self.kernels[u]
        parents = [self.memo[u, a, Q] if any(Q) else self.zero for _, Q in peel.values()]
        L = np.array([len(p) for _, p in parents])
        rows = 2 * np.array([s for s, _ in peel.values()]) + a
        lo = K.indptr[rows]
        targets = K.indptr[rows + 1] - lo
        self.spend(int((targets * L).sum()))
        entry, j, r = _grid(targets, L)
        g = (np.cumsum(L) - L)[entry] + r
        hit = lo[entry] + j
        Y = np.concatenate([Y for Y, _ in parents], axis=1)[:, g]
        Y[K.indices[hit], np.arange(len(g))] += 1
        w = K.data[hit] * np.concatenate([p for _, p in parents])[g]
        key = entry.astype(self.count.dtype) * self.size(n) + self.rank(Y, n, len(g))
        p, first = _fold(key, w)
        Y = Y[:, first]
        counts = np.bincount(entry[first], minlength=len(L))
        ends = np.cumsum(counts)
        for P, i, k in zip(peel, (ends - counts).tolist(), ends.tolist()):
            self.memo[u, a, P] = Y[:, i:k], p[i:k]

    def table(self, t: int, a: int, n: int) -> sp.csr_matrix:
        """Group table of period t under action a: the law of every
        composition of n, one row each."""
        Y, p, rows = self.laws(t, a, map(tuple, self.level(n).tolist()))
        indptr = np.concatenate([[0], np.cumsum(rows)])
        return sp.csr_matrix((p, self.rank(Y, n, len(p)), indptr), shape=(len(rows), len(rows)))


def optimal_value(model: ArmModel, N: int, guard: int = DEFAULT_GUARD,
                  return_tables: bool = False):
    """Exact V*_N by backward induction over joint count vectors.

    A period's (count vector, pull vector) pairs are exactly the cells
    (P, A) of the grid (compositions of N - B_t) x (compositions of B_t),
    with count vector Z = P + A; the index map ``sums`` puts each cell's
    Z.  A cell is worth its immediate reward plus, for t < T, entry
    (P, A) of M0 @ G @ M1.T, the expected V_{t+1} after passive counts P
    and active counts A, where M0 and M1 are the period's passive and
    active group tables and G[y_p, y_a] = V_{t+1}(y_p + y_a).  V_t is one
    scatter-max of the cells onto their Z.

    One work unit of `guard` is one grid cell, one count vector stored (a
    composition of some total, or a landing vector while a group law is
    built) or one entry of an index map or of a period's continuation
    grid; every period, t = T included, builds its index map.  A size
    estimate beyond 100 times the guard is refused before any work.
    """
    lattice = _Lattice(model, N, guard)
    S, T = model.S, model.T
    n_comp = math.comb(N + S - 1, S - 1)
    budgets = [period_budget(float(model.alpha[t]), N) for t in range(T)]
    rough = n_comp * T * max(math.comb(b + S - 1, S - 1) for b in budgets)
    if rough > guard * 100:
        raise BudgetExceeded(
            f"estimated enumeration {rough} far beyond guard {guard}")

    vnext = np.zeros(lattice.size(N))
    tables = []
    for t in range(T, 0, -1):
        B = budgets[t - 1]
        idx = lattice.sums(N - B, B)
        lattice.spend(idx.size)
        val = ((lattice.level(N - B) @ model.R[t - 1, :, 0])[:, None]
               + (lattice.level(B) @ model.R[t - 1, :, 1])[None, :])
        if t < T:
            G = vnext[idx]
            lattice.spend(G.size)
            val += lattice.table(t, 0, N - B) @ (lattice.table(t, 1, B) @ G.T).T
        vnext = np.full(len(vnext), -np.inf)
        np.maximum.at(vnext, idx.ravel(), val.ravel())
        if return_tables:
            tables.append(dict(zip(map(tuple, lattice.level(N).tolist()), vnext.tolist())))
    value = float(vnext[lattice.rank(np.eye(S, dtype=np.int64)[:, [model.s0]] * N, N, 1)[0]])
    if return_tables:
        return value, list(reversed(tables))
    return value


def _landings(lattice: _Lattice, Y: np.ndarray, p: np.ndarray, L: np.ndarray):
    """Laws given as :meth:`_Lattice.laws` returns them, one per row, as a
    CSR matrix over their distinct landing vectors, and the columns
    (S, distinct) of those vectors.  Rows may land different numbers of
    arms, so a vector is keyed by (total, rank)."""
    n = Y.sum(axis=0)
    key = n.astype(lattice.count.dtype) * lattice.size(lattice.N) + lattice.rank(Y, n, len(p))
    _, first, col = np.unique(key, return_index=True, return_inverse=True)
    indptr = np.concatenate([[0], np.cumsum(L)])
    return sp.csr_matrix((p, col, indptr), shape=(len(L), len(first))), Y[:, first]


def _batch_allocator(model: ArmModel, policy) -> Callable[[int, np.ndarray], np.ndarray]:
    """Deterministic pulls (R, S) of count rows Z (R, S): a bare callable
    with ``allocate_batch``'s contract ``(t, Z) -> pulls``, its pulls
    checked to be whole numbers from 0 to Z, or anything else compiled by
    :class:`~fluidbandit.simulator.CompiledPolicy` and applied by its
    ``allocate_batch``."""
    if callable(policy):
        def allocate(t: int, Z: np.ndarray) -> np.ndarray:
            X1 = np.asarray(policy(t, Z.copy()))
            if X1.shape != Z.shape:
                raise DimensionMismatch(
                    f"period {t} pulls have shape {X1.shape}, expected {Z.shape}")
            # a negative count would never finish peeling in _Lattice.laws
            if not ((X1 >= 0) & (X1 <= Z) & (X1 % 1 == 0)).all():
                raise RangeError(f"period {t} pulls {X1.tolist()} are not whole numbers "
                                 f"from 0 to the counts {Z.tolist()}")
            return X1.astype(np.int64)
        return allocate
    if isinstance(policy, str):
        policy = parse_policy(policy)
    if getattr(policy, "kind", None) in ("rac", "ts"):
        raise NondeterministicPolicy(f"{policy.kind} is randomized; exact evaluation undefined")
    pol = _resolve_policy(model, policy)
    return lambda t, Z: pol.allocate_batch(t, Z, None)


def exact_policy_value(model: ArmModel, policy, N: int,
                       guard: int = DEFAULT_GUARD) -> float:
    """Exact expected total reward of a deterministic policy at arm count N.

    Propagates the full distribution over count vectors forward through
    the policy's allocations, made by one call per period over every
    reachable count vector.  The policy is a ``PolicySpec``, its string
    form, a ``CompiledPolicy`` or a bare callable with ``allocate_batch``'s
    contract: ``(t, Z (R, S)) -> pulls (R, S)``.  Raises
    NondeterministicPolicy for RAC/TS and RangeError for an N that is
    not a positive integer.  A vector's successor law is the outer
    product of its passive and active group-table rows, scattered onto
    the compositions of N; a
    period's passive laws and its active laws are each built in one
    request, since a policy may pull other than B_t.  With M0 the passive
    laws weighted by each vector's probability and M1 the active laws,
    rows by count vector and columns by distinct landing vector, entry
    (u0, u1) of M0.T @ M1 is the mass landing on u0 + u1; its nonzeros,
    ranked and folded, are the next period's law.  Work units are
    counted as in :func:`optimal_value`, plus one per landing pair, the
    product's multiply-adds.
    """
    lattice = _Lattice(model, N, guard)
    allocate = _batch_allocator(model, policy)
    S, T = model.S, model.T
    reach = np.zeros((1, S), dtype=np.int64)
    reach[0, model.s0] = N
    prob = np.ones(1)
    total = 0.0
    for t in range(1, T + 1):
        X1 = allocate(t, reach)
        X0 = reach - X1
        total += float(prob @ (X1 @ model.R[t - 1, :, 1] + X0 @ model.R[t - 1, :, 0]))
        if t == T:
            break
        Y0, p0, L0 = lattice.laws(t, 0, map(tuple, X0.tolist()))
        Y1, p1, L1 = lattice.laws(t, 1, map(tuple, X1.tolist()))
        lattice.spend(int((L0 * L1).sum()))
        M0, V0 = _landings(lattice, Y0, np.repeat(prob, L0) * p0, L0)
        M1, V1 = _landings(lattice, Y1, p1, L1)
        # entry (u0, u1) is the mass landing on V0[:, u0] + V1[:, u1]
        C = (M0.T @ M1).tocoo()
        landed = (V0[i].take(C.row) + V1[i].take(C.col) for i in range(S))
        prob, first = _fold(lattice.rank(landed, N, C.nnz), C.data)
        reach = np.ascontiguousarray((V0[:, C.row[first]] + V1[:, C.col[first]]).T)
    return total
