"""Adaptive temporal alignment: cosine similarity matrices, cross-reference
marginal masses, and an exact balanced-transportation EMD solver, plus the
fixed-alignment baselines.

The solver is a transportation simplex with a least-cost (matrix-minimum)
start and MODI pricing. Its basis tree (adjacency, parent, depth and potentials,
rooted at row 0) persists across pivots: a pivot walks up from both ends of
the entering edge to their common ancestor to find the cycle, then re-hangs
only the subtree the leaving edge cuts off, so its work beyond pricing is the
cycle plus that subtree. Supplies are epsilon-perturbed for the pivot phase
so every pivot strictly decreases the objective (no degenerate cycling); the
flows on that same final tree are then re-solved against the unperturbed
masses, deepest node first, so the reported plan and objective are exact.

``best_alignment`` picks the candidate a query aligns to best and solves
only the transports that decision needs: its docstring states the rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptor import DescriptorSequence

#: Lower clamp applied to raw cross-reference masses before normalization.
EPS_MASS = 1e-6

#: Reduced costs above this threshold are treated as optimal.
_OPT_TOL = 1e-12


@dataclass(frozen=True)
class Masses:
    """Balanced marginal masses: finite entries >= EPS_MASS, and the two
    sides' totals agree to 1e-9."""

    mu: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        gamma = np.asarray(self.gamma, dtype=np.float64)
        if mu.ndim != 1 or gamma.ndim != 1 or mu.size == 0 or gamma.size == 0:
            raise ValueError("Masses: mu and gamma must be non-empty vectors")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(gamma))):
            raise ValueError("Masses: non-finite entries")
        if np.min(mu) < EPS_MASS - 1e-15 or np.min(gamma) < EPS_MASS - 1e-15:
            raise ValueError("Masses: entries must be >= EPS_MASS")
        if abs(mu.sum() - gamma.sum()) > 1e-9:
            raise ValueError("Masses: unbalanced totals")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "gamma", gamma)


@dataclass(frozen=True)
class TransportPlan:
    """Non-negative L_q x L_s plan with prescribed marginals, its cost and score."""

    values: np.ndarray
    objective: float
    #: The alignment score <SIM, A*>, in [-1, 1] when the masses sum to 1.
    score: float
    #: Pivots made, and the minimum reduced cost at the terminating optimality
    #: check (>= -_OPT_TOL): a cheap certificate that the basis is optimal.
    pivots: int
    min_reduced_cost: float
    #: Largest marginal violation of ``values``, max |row sum - mu| and
    #: |column sum - gamma|: the certificate's primal side.
    primal_residual: float


def similarity_matrix(q: DescriptorSequence, s: DescriptorSequence) -> np.ndarray:
    """Pairwise cosine similarities, in [-1, 1], of the sequences' ``scaled``
    rows. Each row is divided by its own norm, however small, so only a row
    of zero norm scores 0."""
    if q.dim != s.dim:
        raise ValueError(f"similarity_matrix: descriptor length mismatch {q.dim} vs {s.dim}")
    qv, sv = q.scaled, s.scaled
    qn = np.linalg.norm(qv, axis=1, keepdims=True)
    sn = np.linalg.norm(sv, axis=1, keepdims=True)
    qu = np.divide(qv, qn, out=np.zeros_like(qv), where=qn != 0.0)
    su = np.divide(sv, sn, out=np.zeros_like(sv), where=sn != 0.0)
    sim = qu @ su.T
    return np.clip(sim, -1.0, 1.0)


def _floor_normalize(raw: np.ndarray) -> np.ndarray:
    """Clamp, normalize to sum 1, and keep every entry >= EPS_MASS.

    The clamp floor is proportional to the total positive raw mass, so
    scaling every descriptor by c > 0 leaves the result unchanged. Plain
    clamp-then-normalize can also push entries back under the floor when the
    clamped sum exceeds 1, so the normalized vector is mixed with the
    absolute floor; the result still sums to exactly 1. All-non-positive raw
    masses fall back to uniform.
    """
    positive = float(np.maximum(raw, 0.0).sum())
    if positive <= 0.0:
        p = np.full(raw.size, 1.0 / raw.size)
    else:
        w = np.maximum(raw, EPS_MASS * positive)
        p = w / w.sum()
    return (1.0 - p.size * EPS_MASS) * p + EPS_MASS


def marginal_masses(q: DescriptorSequence, s: DescriptorSequence) -> Masses:
    """Cross-reference masses, clamped at EPS_MASS and normalized to sum 1.

    The raw masses are the cross-reference products of the sequences'
    ``scaled`` rows, mu_l = <Q[l], mean(S)> and gamma_l' = <S[l'], mean(Q)>.
    ``q`` and ``s`` share one descriptor length, as ``similarity_matrix``
    checks first.
    """
    qv, sv = q.scaled, s.scaled
    return Masses(_floor_normalize(qv @ sv.mean(axis=0)), _floor_normalize(sv @ qv.mean(axis=0)))


def _least_cost_start(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray):
    """Least-cost (matrix-minimum) start: basis edges and their flows. Cells
    go by increasing cost, lowest flat index on ties; an open cell takes
    min(supply, demand) and closes its row if the supply is not above the
    demand, else its column, but never the last open row or column. Each cell
    closes a line no later cell touches: the m + n - 1 cells are a tree."""
    m, n = cost.shape
    s, d = supply.tolist(), demand.tolist()
    row_open, col_open = [True] * m, [True] * n
    rows, cols = m, n
    basis: list[tuple[int, int]] = []
    flows: list[float] = []
    for flat in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(flat, n)
        if not (row_open[i] and col_open[j]):
            continue
        amount = min(s[i], d[j])
        basis.append((i, j))
        flows.append(amount)
        if rows == cols == 1:
            break
        if cols == 1 or (rows > 1 and s[i] <= d[j]):
            row_open[i], rows = False, rows - 1
        else:
            col_open[j], cols = False, cols - 1
        s[i] -= amount
        d[j] -= amount
    return basis, flows


def _simplex(sim: np.ndarray, masses: Masses, stop: float):
    """The transportation simplex behind ``solve_emd`` and ``best_alignment``:
    a plan, its score, the pivots made and the minimum reduced cost of the
    last pricing (-inf before the first).

    It pivots to the optimum, unless a basis tree on the way carries a plan
    that is feasible for the unperturbed masses and scores above ``stop``;
    that plan is returned instead. The perturbed plan's score, kept in O(1)
    per pivot, says when to look: only once it clears ``stop`` is the tree's
    plan re-solved and checked for a negative flow. With ``stop = inf`` it
    never looks, so it runs to the optimum.
    """
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim != 2:
        raise ValueError("solve_emd: similarity matrix must be 2-D")
    if not np.all(np.isfinite(sim)):
        raise ValueError("solve_emd: non-finite cost entries")
    m, n = sim.shape
    if masses.mu.size != m or masses.gamma.size != n:
        raise ValueError("solve_emd: masses inconsistent with similarity shape")
    cost = 1.0 - sim

    total = float(masses.mu.sum())
    # Perturbation that breaks degeneracy during pivoting; small enough that
    # the perturbed optimum shares a basis with the exact one in practice.
    delta = 1e-13 * max(total, 1.0)
    supply = masses.mu + delta
    demand = masses.gamma.copy()
    demand[-1] += m * delta

    basis, flows = _least_cost_start(cost, supply, demand)
    basic = np.zeros((m, n), dtype=bool)
    # Basis tree on nodes rows 0..m-1, cols m..m+n-1: adjacency maps each
    # neighbour to the basis slot of the joining edge.
    adj: list[dict[int, int]] = [{} for _ in range(m + n)]
    for e, (i, j) in enumerate(basis):
        basic[i, j] = True
        adj[i][m + j] = adj[m + j][i] = e
    edge_cost = [float(cost[i, j]) for i, j in basis]
    # Rooted at row 0: parent node, slot of the edge to it, depth, and the
    # MODI potential (u = pot[:m], v = pot[m:]).
    parent = [-1] * (m + n)
    up_edge = [-1] * (m + n)
    depth = [0] * (m + n)
    pot = [0.0] * (m + n)

    def hang(top, above, slot):
        # Hang top's subtree under above by edge slot; each potential is its
        # edge cost minus its parent's, as the root-path recurrence gives it.
        parent[top], up_edge[top] = above, slot
        depth[top] = depth[above] + 1
        pot[top] = edge_cost[slot] - pot[above]
        stack = [top]
        while stack:
            node = stack.pop()
            par, below, base = parent[node], depth[node] + 1, pot[node]
            for nxt, e in adj[node].items():
                if nxt != par:
                    parent[nxt], up_edge[nxt], depth[nxt] = node, e, below
                    pot[nxt] = edge_cost[e] - base
                    stack.append(nxt)

    def exact_plan():
        # Exact flows on the tree, deepest node first (lowest index on ties):
        # a node's mass less its children's flows goes up its edge. Row 0's
        # remainder is the rounding imbalance of the masses and is dropped.
        residual = masses.mu.tolist() + masses.gamma.tolist()
        plan = np.zeros((m, n))
        for node in sorted(range(1, m + n), key=depth.__getitem__, reverse=True):
            plan[basis[up_edge[node]]] = residual[node]
            residual[parent[node]] -= residual[node]
        return plan

    for nxt, e in adj[0].items():
        hang(nxt, 0, e)

    # The perturbed plan's score: a pivot lowers its cost by theta times the
    # entering cell's reduced cost, and raises its score by as much.
    running = sum(f * (1.0 - c) for f, c in zip(flows, edge_cost))
    min_reduced_cost = -np.inf
    for pivots in range(200 * (m + n) + 1000):
        if running > stop:
            plan = exact_plan()
            if np.min(plan) >= 0.0:
                score = float(np.sum(sim * plan))
                if score > stop:
                    return plan, score, pivots, min_reduced_cost
        p = np.array(pot)
        reduced = cost - p[:m, None] - p[None, m:]
        reduced[basic] = 0.0
        # Row-major argmin gives the lowest-index tie-break for free.
        flat = int(np.argmin(reduced))
        min_reduced_cost = float(reduced.flat[flat])
        if min_reduced_cost >= -_OPT_TOL:
            break
        i0, j0 = divmod(flat, n)
        # The tree path from row i0 to column j0 closes the cycle: up from
        # each end to the common ancestor, then joined in i0 -> j0 order.
        a, b = i0, m + j0
        up, down = [], []
        while a != b:
            if depth[a] >= depth[b]:
                up.append(up_edge[a])
                a = parent[a]
            else:
                down.append(up_edge[b])
                b = parent[b]
        cycle = up + down[::-1]
        # The entering edge carries +theta; tree edges along the closing path
        # alternate starting with -theta.
        minus_edges = cycle[0::2]
        theta = min(flows[e] for e in minus_edges)
        leaving = min(e for e in minus_edges if flows[e] == theta)
        for k, e in enumerate(cycle):
            flows[e] += theta if k % 2 == 1 else -theta
        running -= theta * min_reduced_cost
        li, lj = basis[leaving]
        del adj[li][m + lj], adj[m + lj][li]
        basic[li, lj] = False
        basis[leaving] = (i0, j0)
        edge_cost[leaving] = float(cost[i0, j0])
        flows[leaving] = theta
        basic[i0, j0] = True
        adj[i0][m + j0] = adj[m + j0][i0] = leaving
        # Cutting the leaving edge detaches the entering edge's end on its
        # side of the cycle; only that subtree is re-hung.
        if leaving in up:
            hang(i0, m + j0, leaving)
        else:
            hang(m + j0, i0, leaving)
    else:
        raise RuntimeError("solve_emd: pivot limit exceeded")

    plan = exact_plan()
    if np.min(plan) < -1e-9:
        raise RuntimeError("solve_emd: negative flow beyond tolerance on final basis")
    plan = np.maximum(plan, 0.0)
    return plan, float(np.sum(sim * plan)), pivots, min_reduced_cost


def solve_emd(sim: np.ndarray, masses: Masses) -> TransportPlan:
    """Exact optimum of min <1 - SIM, A> under the marginal constraints.

    Deterministic: entering variables are chosen by most negative reduced
    cost with lowest (row, col) index on ties; leaving variables by minimum
    ratio with lowest edge index on ties. The leaving tie only settles a
    floating-point coincidence: supplies gain delta each and the last demand
    m * delta (Orden's perturbation), so in exact arithmetic no basic flow is
    zero and the minimum ratio is attained by one edge, from any basic start.
    """
    sim = np.asarray(sim, dtype=np.float64)
    plan, score, pivots, min_reduced_cost = _simplex(sim, masses, np.inf)
    objective = float(np.sum((1.0 - sim) * plan))
    primal_residual = max(
        float(np.max(np.abs(plan.sum(axis=1) - masses.mu))),
        float(np.max(np.abs(plan.sum(axis=0) - masses.gamma))),
    )
    return TransportPlan(plan, objective, score, pivots, min_reduced_cost, primal_residual)


def _score_upper_bound(sim: np.ndarray, masses: Masses) -> float:
    """An upper bound on ``solve_emd(sim, masses).score`` in O(L_q L_s).

    Any (u, v) with u_i + v_j <= 1 - sim_ij bounds the minimum cost from
    below by <mu, u> + <gamma, v> (LP duality), so it bounds the score, the
    total mass less that cost, from above. Two such pairs are tried: u the
    row minima of the cost and v the column minima of what is left, and the
    same with rows and columns swapped; the larger dual objective is kept.
    """
    cost = 1.0 - sim
    u = cost.min(axis=1)
    v = (cost - u[:, None]).min(axis=0)
    v2 = cost.min(axis=0)
    u2 = (cost - v2[None, :]).min(axis=1)
    mu, gamma = masses.mu, masses.gamma
    dual = max(mu @ u + gamma @ v, mu @ u2 + gamma @ v2)
    return float(mu.sum() - dual)


#: A candidate is left unsolved only when its score bound is below the best
#: exact score so far by more than this, which is far above the rounding of
#: a bound or a score (about 1e-15). The first candidate's solve stops once
#: a feasible plan scores above every other bound by more than this: that
#: plan's score is at most the exact score, so no other candidate can tie.
_PRUNE_MARGIN = 1e-9


def best_alignment(query: DescriptorSequence, candidates: list[DescriptorSequence]) -> int:
    """Index of the candidate whose exact EMD score against ``query``,
    ``solve_emd`` on the pair's ``similarity_matrix`` and
    ``marginal_masses``, is highest; exact ties go to the lowest index.
    ``candidates`` is not empty.

    Candidates are visited by decreasing ``_score_upper_bound`` (lowest
    index on ties). The first is solved by ``_simplex`` with a stop score,
    the largest other bound plus ``_PRUNE_MARGIN`` (-inf when there is no
    other). Every basis tree carries a plan, and one that is feasible for
    the unperturbed masses scores at most the optimum (LP duality), so a
    result above the stop proves that the first's exact score beats every
    other exact score by more than the margin: the first is the prediction.
    Otherwise the result is the first's exact score, with ``solve_emd``'s
    bits, and the visit goes on with ``solve_emd``. It stops at the first
    bound below the best exact score so far less ``_PRUNE_MARGIN``: no
    candidate left can reach that score. A candidate that could tie is
    always solved, so the prediction is that of scoring every candidate.
    """
    pairs = [(similarity_matrix(query, c), marginal_masses(query, c)) for c in candidates]
    bounds = np.array([_score_upper_bound(sim, masses) for sim, masses in pairs])
    pred, *rest = np.argsort(-bounds, kind="stable").tolist()
    stop = bounds[rest].max() + _PRUNE_MARGIN if rest else -np.inf
    best = _simplex(*pairs[pred], stop)[1]
    if best > stop:
        return pred
    for i in rest:
        if bounds[i] < best - _PRUNE_MARGIN:
            break
        score = solve_emd(*pairs[i]).score
        if score > best or (score == best and i < pred):
            best, pred = score, i
    return pred


def fixed_alignment_pp(q: DescriptorSequence, s: DescriptorSequence) -> float:
    """Point-to-point baseline: cosine at corresponding (scale, timestamp)
    entries, averaged."""
    if not q.same_structure(s):
        raise ValueError("fixed_alignment_pp: sequences must share scale/length structure")
    return float(np.mean(np.diagonal(similarity_matrix(q, s))))


def fixed_alignment_cross(q: DescriptorSequence, s: DescriptorSequence) -> float:
    """Cross baseline: uniform average of the full similarity matrix."""
    return float(np.mean(similarity_matrix(q, s)))
