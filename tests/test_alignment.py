"""Alignment: similarity, cross-reference masses, exact EMD vs an LP oracle
and vs the reference simplex bit for bit, the least-cost starting basis, and
the fixed-alignment baselines."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from momalign.alignment import (
    _OPT_TOL,
    EPS_MASS,
    Masses,
    _floor_normalize,
    _least_cost_start,
    _score_upper_bound,
    _simplex,
    best_alignment,
    fixed_alignment_cross,
    fixed_alignment_pp,
    marginal_masses,
    similarity_matrix,
    solve_emd,
)
from momalign.descriptor import DescriptorSequence


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; defined as 0 when either norm is zero."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape:
        raise ValueError(f"cosine: length mismatch {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    c = float(np.dot(u / nu, v / nv))
    return min(1.0, max(-1.0, c))


def make_seq(vectors, scale_ids=None, times=None):
    v = np.asarray(vectors, dtype=np.float64)
    n = v.shape[0]
    if scale_ids is None:
        scale_ids = np.zeros(n, dtype=np.int64)
    if times is None:
        times = np.arange(n)
    return DescriptorSequence(v, scale_ids, times)


def random_seq(rng, n, dim=5):
    return make_seq(rng.standard_normal((n, dim)))


def emd_score(q, s):
    """End-to-end adaptive alignment score for a descriptor-sequence pair:
    the optimum's score on the pair's similarity matrix and masses."""
    return solve_emd(similarity_matrix(q, s), marginal_masses(q, s)).score


def lp_oracle(sim, mu, gamma):
    """Brute-force transportation LP via scipy's HiGHS solver."""
    m, n = sim.shape
    cost = (1.0 - sim).ravel()
    a_eq = []
    for i in range(m):
        row = np.zeros(m * n)
        row[i * n : (i + 1) * n] = 1.0
        a_eq.append(row)
    for j in range(n):
        col = np.zeros(m * n)
        col[j::n] = 1.0
        a_eq.append(col)
    b_eq = np.concatenate([mu, gamma])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def random_masses(rng, m, n):
    mu = rng.uniform(0.05, 1.0, m)
    gamma = rng.uniform(0.05, 1.0, n)
    return Masses(mu / mu.sum(), gamma / gamma.sum())


#: Inputs with many tied reduced costs or degenerate flows.
TIE_FAMILIES = ("constant", "duplicate", "rounded", "uniform-masses")


def emd_instance(rng, m, n, family=None):
    """Random similarity and masses, reshaped into ``family`` when given."""
    sim = rng.uniform(-1, 1, size=(m, n))
    masses = random_masses(rng, m, n)
    if family == "constant":
        sim = np.full((m, n), float(rng.uniform(-1, 1)))
    elif family == "duplicate":
        sim = sim[rng.integers(0, m, m)][:, rng.integers(0, n, n)]
    elif family == "rounded":
        sim = np.round(sim, 1)
    elif family == "uniform-masses":
        masses = Masses(np.full(m, 1.0 / m), np.full(n, 1.0 / n))
    return sim, masses


def emd_instances(seed, draws, max_size=40):
    """``draws`` random shapes up to ``max_size``, each plain and in every tie
    family."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        m = int(rng.integers(1, max_size + 1))
        n = int(rng.integers(1, max_size + 1))
        for family in (None,) + TIE_FAMILIES:
            yield emd_instance(rng, m, n, family)


# Reference transportation simplex: the solver as it was before it kept its
# basis tree across pivots. Every pivot rebuilds the tree adjacency, every
# potential by DFS from row 0 and the cycle by DFS. It also returns its pivot
# count, and is the bitwise reference for the pivot rule from its own copy of
# the least-cost start and the rooted re-solve; from the northwest-corner
# start it is the reference that the start changes the pivot count but not
# the optimum, and with leaf stripping that the re-solve's order changes the
# plan only by rounding.


def perturbed(masses):
    """Supplies and demands with Orden's perturbation, as the solver makes them."""
    m = masses.mu.size
    delta = 1e-13 * max(float(masses.mu.sum()), 1.0)
    demand = masses.gamma.copy()
    demand[-1] += m * delta
    return masses.mu + delta, demand


def reference_least_cost_start(cost, supply, demand):
    """Least-cost start written from its rule: cells by increasing cost
    (Python's stable sort keeps ties in flat-index order); an open cell takes
    min(supply, demand) and closes its row if the supply is not above the
    demand, else its column, but never the last open row or column."""
    m, n = cost.shape
    s, d = list(supply), list(demand)
    open_rows, open_cols = set(range(m)), set(range(n))
    basis, flows = [], []
    for flat in sorted(range(m * n), key=lambda f: cost.flat[f]):
        i, j = divmod(flat, n)
        if i not in open_rows or j not in open_cols:
            continue
        amount = min(s[i], d[j])
        basis.append((i, j))
        flows.append(amount)
        s[i] -= amount
        d[j] -= amount
        if len(open_rows) == 1 and len(open_cols) == 1:
            break
        if len(open_rows) == 1:
            open_cols.remove(j)
        elif len(open_cols) == 1 or s[i] <= d[j]:
            open_rows.remove(i)
        else:
            open_cols.remove(j)
    return basis, flows


def northwest_corner(cost, supply, demand):
    """Northwest-corner start, blind to ``cost``: basis edges and their flows."""
    m, n = supply.size, demand.size
    s = supply.copy()
    d = demand.copy()
    basis: list[tuple[int, int]] = []
    flows: list[float] = []
    i = j = 0
    while i < m and j < n:
        amount = min(s[i], d[j])
        basis.append((i, j))
        flows.append(amount)
        s[i] -= amount
        d[j] -= amount
        if i == m - 1 and j == n - 1:
            break
        # With perturbed supplies, exact ties do not occur; advance along the
        # dimension that is exhausted (rows first on a tie for determinism).
        if s[i] <= d[j]:
            i += 1
        else:
            j += 1
    # One cell per step from (0, 0) to (m-1, n-1): always m + n - 1 cells.
    return basis, flows


def _tree_adjacency(basis, m, n):
    """Adjacency of the bipartite basis tree; rows 0..m-1, cols m..m+n-1."""
    adj: dict[int, list[tuple[int, int]]] = {k: [] for k in range(m + n)}
    for e, (i, j) in enumerate(basis):
        adj[i].append((m + j, e))
        adj[m + j].append((i, e))
    return adj


def _potentials(basis, cost, m, n):
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    u[0] = 0.0
    adj = _tree_adjacency(basis, m, n)
    stack = [0]
    while stack:
        node = stack.pop()
        for nxt, e in adj[node]:
            i, j = basis[e]
            if nxt < m:
                if np.isnan(u[nxt]):
                    u[nxt] = cost[i, j] - v[j]
                    stack.append(nxt)
            else:
                jj = nxt - m
                if np.isnan(v[jj]):
                    v[jj] = cost[i, j] - u[i]
                    stack.append(nxt)
    return u, v


def _find_cycle(basis, enter, m, n):
    """Path through the basis tree closing the cycle opened by ``enter``."""
    i0, j0 = enter
    adj = _tree_adjacency(basis, m, n)
    target = m + j0
    parent: dict[int, tuple[int, int]] = {i0: (-1, -1)}
    stack = [i0]
    while stack:
        node = stack.pop()
        if node == target:
            break
        for nxt, e in adj[node]:
            if nxt not in parent:
                parent[nxt] = (node, e)
                stack.append(nxt)
    path_edges = []
    node = target
    while node != i0:
        prev, e = parent[node]
        path_edges.append(e)
        node = prev
    path_edges.reverse()
    return path_edges


def rooted_tree_flows(basis, supply, demand, m, n):
    """Exact flows on a spanning tree rooted at row 0, deepest node first and
    the lowest node on ties: a node's residual goes up its edge to its parent.
    Row 0's remainder, the rounding imbalance, is dropped."""
    adj = _tree_adjacency(basis, m, n)
    depth, up = {0: 0}, {}
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for nxt, e in adj[node]:
            if nxt not in depth:
                depth[nxt], up[nxt] = depth[node] + 1, (node, e)
                queue.append(nxt)
    flows = np.zeros(len(basis))
    residual = list(supply) + list(demand)
    for node in sorted(up, key=lambda k: (-depth[k], k)):
        above, e = up[node]
        flows[e] = residual[node]
        residual[above] -= residual[node]
    return flows


def leaf_stripping_flows(basis, supply, demand, m, n):
    """Exact flows on a spanning tree by leaf stripping, in no rooted order:
    the second reference for the re-solve."""
    flows = np.zeros(len(basis))
    residual = np.concatenate([supply, demand]).astype(np.float64)
    degree = np.zeros(m + n, dtype=np.int64)
    adj = _tree_adjacency(basis, m, n)
    for node, edges in adj.items():
        degree[node] = len(edges)
    removed = [False] * len(basis)
    leaves = [node for node in range(m + n) if degree[node] == 1]
    while leaves:
        node = leaves.pop()
        edge = next((e for nxt, e in adj[node] if not removed[e]), None)
        if edge is None:
            continue
        removed[edge] = True
        flows[edge] = residual[node]
        other = basis[edge][0] if node >= m else m + basis[edge][1]
        residual[other] -= residual[node]
        residual[node] = 0.0
        degree[node] -= 1
        degree[other] -= 1
        if degree[other] == 1:
            leaves.append(other)
    return flows


def reference_solve_emd(
    sim, masses, start=reference_least_cost_start, tree_flows=rooted_tree_flows
):
    """Plan values, objective and pivot count of the reference simplex from
    ``start(cost, supply, demand)``, its final basis re-solved by
    ``tree_flows(basis, supply, demand, m, n)``."""
    sim = np.asarray(sim, dtype=np.float64)
    m, n = sim.shape
    cost = 1.0 - sim
    basis, flows = start(cost, *perturbed(masses))
    flows = list(flows)
    in_basis = set(basis)

    max_pivots = 200 * (m + n) + 1000
    for pivots in range(max_pivots):
        u, v = _potentials(basis, cost, m, n)
        reduced = cost - u[:, None] - v[None, :]
        for i, j in basis:
            reduced[i, j] = 0.0
        flat = int(np.argmin(reduced))
        if reduced.flat[flat] >= -_OPT_TOL:
            break
        entering = (flat // n, flat % n)
        cycle = _find_cycle(basis, entering, m, n)
        minus_edges = cycle[0::2]
        theta = min(flows[e] for e in minus_edges)
        leaving = min(e for e in minus_edges if flows[e] == theta)
        for k, e in enumerate(cycle):
            flows[e] += theta if k % 2 == 1 else -theta
        in_basis.discard(basis[leaving])
        basis[leaving] = entering
        flows[leaving] = theta
        in_basis.add(entering)
    else:
        raise RuntimeError("solve_emd: pivot limit exceeded")

    exact = tree_flows(basis, masses.mu, masses.gamma, m, n)
    if np.min(exact) < -1e-9:
        raise RuntimeError("solve_emd: negative flow beyond tolerance on final basis")
    exact = np.maximum(exact, 0.0)
    plan = np.zeros((m, n))
    for e, (i, j) in enumerate(basis):
        plan[i, j] += exact[e]
    objective = float(np.sum(cost * plan))
    return plan, objective, pivots


class TestSimilarityMatrix:
    def test_self_similarity_diagonal_ones(self):
        rng = np.random.default_rng(0)
        q = random_seq(rng, 4)
        sim = similarity_matrix(q, q)
        assert np.allclose(np.diag(sim), 1.0, atol=1e-12)

    def test_orthogonal_sets_all_zero(self):
        q = make_seq(np.eye(4)[:2])
        s = make_seq(np.eye(4)[2:])
        assert np.allclose(similarity_matrix(q, s), 0.0, atol=1e-15)

    def test_matches_cosine_oracle(self):
        rng = np.random.default_rng(1)
        q = random_seq(rng, 3)
        s = random_seq(rng, 4)
        sim = similarity_matrix(q, s)
        for i in range(3):
            for j in range(4):
                assert sim[i, j] == pytest.approx(
                    cosine(q.vectors[i], s.vectors[j]), abs=1e-12
                )

    def test_rejects_dim_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(
            ValueError, match=r"^similarity_matrix: descriptor length mismatch 3 vs 4$"
        ):
            similarity_matrix(random_seq(rng, 2, dim=3), random_seq(rng, 2, dim=4))


def raw_products(q: DescriptorSequence, s: DescriptorSequence) -> tuple[np.ndarray, np.ndarray]:
    """Cross-reference products of the sequences' scaled rows, before
    clamping: mu_l = <Q[l], mean(S)>, gamma_l' = <S[l'], mean(Q)>."""
    return q.scaled @ s.scaled.mean(axis=0), s.scaled @ q.scaled.mean(axis=0)


def assert_masses_of(q: DescriptorSequence, s: DescriptorSequence, raw_mu, raw_gamma):
    """``marginal_masses(q, s)`` is the floor-normalized raw products, bit for bit."""
    masses = marginal_masses(q, s)
    assert np.array_equal(masses.mu, _floor_normalize(raw_mu))
    assert np.array_equal(masses.gamma, _floor_normalize(raw_gamma))


def reference_similarity(q: DescriptorSequence, s: DescriptorSequence) -> np.ndarray:
    """Cosines of the pair's scaled rows, each row divided by its own norm
    here, for this pair alone: the per-pair oracle of ``similarity_matrix``."""
    qv, sv = q.scaled, s.scaled
    qn = np.linalg.norm(qv, axis=1, keepdims=True)
    sn = np.linalg.norm(sv, axis=1, keepdims=True)
    qu = np.divide(qv, qn, out=np.zeros_like(qv), where=qn != 0.0)
    su = np.divide(sv, sn, out=np.zeros_like(sv), where=sn != 0.0)
    return np.clip(qu @ su.T, -1.0, 1.0)


def pair_layer_cases():
    """(name, q, s) pairs of mixed lengths, with zero rows, and scaled by
    powers of two: 2^-40 keeps ``scaled`` at ``vectors``, 2^+-300 does not."""
    rng = np.random.default_rng(40)
    seqs = {n: random_seq(rng, n, dim=12) for n in (8, 18, 24, 78)}
    zero_rows = {}
    for n, rows in ((8, [0, 5]), (18, [17])):
        v = np.array(seqs[n].vectors)
        v[rows] = 0.0
        zero_rows[n] = make_seq(v)
    cases = [
        ("8 vs 18", seqs[8], seqs[18]),
        ("18 vs 24", seqs[18], seqs[24]),
        ("78 vs 8", seqs[78], seqs[8]),
        ("zero rows vs 18", zero_rows[8], seqs[18]),
        ("24 vs zero rows", seqs[24], zero_rows[18]),
        ("zero rows vs zero rows", zero_rows[8], zero_rows[18]),
        ("equal copies", seqs[18], make_seq(seqs[18].vectors)),
    ]
    for c in (-40, 300, -300):
        cases.append((f"2^{c} vs 8", make_seq(np.ldexp(seqs[18].vectors, c)), seqs[8]))
        tiny = make_seq(np.ldexp(zero_rows[18].vectors, c))
        cases.append((f"24 vs 2^{c} zero rows", seqs[24], tiny))
    return cases


class TestPairLayerBits:
    """The pair layer reads each sequence's ``unit`` and ``mean``, and keeps
    the bits of deriving them for every pair."""

    @pytest.mark.parametrize(
        "q, s", [pytest.param(q, s, id=name) for name, q, s in pair_layer_cases()]
    )
    def test_matches_per_pair_derivation(self, q, s):
        for _ in range(2):
            assert np.array_equal(similarity_matrix(q, s), reference_similarity(q, s))
            assert_masses_of(q, s, *raw_products(q, s))

    def test_self_pair_is_a_symmetric_product(self):
        # One sequence on both sides multiplies its unit rows by their own
        # transpose, which numpy computes as a symmetric (syrk) product: it
        # agrees with the per-pair derivation to rounding, not bit for bit.
        # No command scores a sequence against itself.
        q = random_seq(np.random.default_rng(42), 18, dim=12)
        sim = similarity_matrix(q, q)
        assert np.array_equal(sim, sim.T)
        assert np.allclose(sim, reference_similarity(q, q), rtol=0.0, atol=1e-15)
        assert_masses_of(q, q, *raw_products(q, q))

    def test_cases_cover_both_scalings(self):
        seqs = [seq for _, q, s in pair_layer_cases() for seq in (q, s)]
        assert any(seq.scaled is seq.vectors for seq in seqs)
        assert any(seq.scaled is not seq.vectors for seq in seqs)


class TestMarginalMasses:
    def test_hand_example_with_clamp(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        q = make_seq([e1, e2])
        s = make_seq([e1, e1])
        raw_mu, raw_gamma = raw_products(q, s)
        assert np.allclose(raw_mu, [1.0, 0.0], atol=1e-15)
        assert np.allclose(raw_gamma, [0.5, 0.5], atol=1e-15)
        assert_masses_of(q, s, raw_mu, raw_gamma)
        masses = marginal_masses(q, s)
        assert masses.mu[0] == pytest.approx(1.0, abs=1e-5)
        assert masses.mu[1] >= EPS_MASS
        assert np.allclose(masses.gamma, [0.5, 0.5], atol=1e-5)

    def test_orthonormal_self_masses_uniform(self):
        q = make_seq(np.eye(3))
        masses = marginal_masses(q, q)
        assert np.allclose(masses.mu, 1.0 / 3, atol=1e-5)
        assert np.allclose(masses.gamma, 1.0 / 3, atol=1e-5)

    def test_raw_products_match_direct_oracle(self):
        rng = np.random.default_rng(3)
        q = random_seq(rng, 4)
        s = random_seq(rng, 4)
        raw_mu, raw_gamma = raw_products(q, s)
        s_mean = s.vectors.mean(axis=0)
        q_mean = q.vectors.mean(axis=0)
        for l in range(4):
            assert raw_mu[l] == pytest.approx(float(q.vectors[l] @ s_mean), abs=1e-12)
            assert raw_gamma[l] == pytest.approx(float(s.vectors[l] @ q_mean), abs=1e-12)
        assert_masses_of(q, s, raw_mu, raw_gamma)

    def test_output_satisfies_invariants(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            q = random_seq(rng, int(rng.integers(1, 7)))
            s = random_seq(rng, int(rng.integers(1, 7)))
            masses = marginal_masses(q, s)
            assert masses.mu.min() >= EPS_MASS - 1e-15
            assert masses.gamma.min() >= EPS_MASS - 1e-15
            assert masses.mu.sum() == pytest.approx(1.0, abs=1e-12)
            assert masses.gamma.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_empty(self):
        rng = np.random.default_rng(5)
        q = random_seq(rng, 2)
        with pytest.raises(ValueError, match=r"^DescriptorSequence: L and D must be >= 1"):
            empty = DescriptorSequence(
                np.zeros((0, 5)), np.zeros(0, dtype=int), np.zeros(0, dtype=int)
            )
            marginal_masses(q, empty)


class TestSolveEmd:
    def test_single_route(self):
        plan = solve_emd(np.array([[0.3]]), Masses([1.0], [1.0]))
        assert plan.values[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert plan.objective == pytest.approx(0.7, abs=1e-12)

    def test_zero_cost_diagonal(self):
        sim = np.eye(2)
        plan = solve_emd(sim, Masses([0.5, 0.5], [0.5, 0.5]))
        assert np.allclose(plan.values, 0.5 * np.eye(2), atol=1e-9)
        assert plan.objective == pytest.approx(0.0, abs=1e-9)

    def test_matches_lp_oracle(self):
        for sim, masses in emd_instances(seed=6, draws=12):
            plan = solve_emd(sim, masses)
            oracle = lp_oracle(sim, masses.mu, masses.gamma)
            assert abs(plan.objective - oracle) < 1e-6

    def test_plan_feasible(self):
        for sim, masses in emd_instances(seed=7, draws=20):
            plan = solve_emd(sim, masses)
            assert plan.values.min() >= 0.0
            assert np.allclose(plan.values.sum(axis=1), masses.mu, atol=1e-8)
            assert np.allclose(plan.values.sum(axis=0), masses.gamma, atol=1e-8)

    @staticmethod
    def pivot_rule_cases():
        rng = np.random.default_rng(18)
        cases = list(emd_instances(seed=19, draws=12))
        for m, n in [(1, 1), (1, 40), (40, 1), (40, 40)]:
            cases += [emd_instance(rng, m, n, f) for f in (None,) + TIE_FAMILIES]
        cases.append(emd_instance(rng, 78, 78))
        return cases

    def test_matches_reference_pivot_rule(self):
        for sim, masses in self.pivot_rule_cases():
            plan = solve_emd(sim, masses)
            values, objective, pivots = reference_solve_emd(sim, masses)
            assert plan.values.tobytes() == values.tobytes()
            assert plan.objective.hex() == objective.hex()
            assert plan.pivots == pivots

    def test_start_saves_pivots_not_optimum(self):
        # Tie families have several optimal plans, so the two starts may end
        # on different ones; their objectives still agree to rounding.
        pivots = northwest_pivots = 0
        for sim, masses in self.pivot_rule_cases():
            plan = solve_emd(sim, masses)
            _, objective, northwest = reference_solve_emd(sim, masses, northwest_corner)
            assert abs(plan.objective - objective) <= 1e-15
            pivots += plan.pivots
            northwest_pivots += northwest
        assert pivots < northwest_pivots

    def test_plan_matches_leaf_stripping(self):
        # Both re-solves read the same final basis but add in different
        # orders, so each cell agrees to (m + n) ulps of the unit total.
        cases = self.pivot_rule_cases() + list(emd_instances(seed=34, draws=6, max_size=80))
        for sim, masses in cases:
            m, n = sim.shape
            plan = solve_emd(sim, masses)
            values, objective, _ = reference_solve_emd(
                sim, masses, tree_flows=leaf_stripping_flows
            )
            assert np.max(np.abs(plan.values - values)) <= (m + n) * np.finfo(np.float64).eps
            assert abs(plan.objective - objective) <= 1e-15

    def test_optimality_certificate(self):
        for sim, masses in emd_instances(seed=20, draws=10):
            m, n = sim.shape
            plan = solve_emd(sim, masses)
            assert -_OPT_TOL <= plan.min_reduced_cost <= 0.0
            assert 0 <= plan.pivots < 200 * (m + n) + 1000

    def test_primal_residual(self):
        for sim, masses in emd_instances(seed=20, draws=10):
            plan = solve_emd(sim, masses)
            violation = max(
                np.max(np.abs(plan.values.sum(axis=1) - masses.mu)),
                np.max(np.abs(plan.values.sum(axis=0) - masses.gamma)),
            )
            assert plan.primal_residual == violation
            assert 0.0 <= plan.primal_residual <= 1e-12

    def test_degenerate_ties_terminate(self):
        # Uniform costs and equal masses: heavily degenerate, must not cycle.
        sim = np.zeros((5, 5))
        masses = Masses(np.full(5, 0.2), np.full(5, 0.2))
        plan = solve_emd(sim, masses)
        assert plan.objective == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_under_ties(self):
        sim = np.zeros((4, 3))
        masses = Masses(np.full(4, 0.25), np.full(3, 1 / 3))
        a = solve_emd(sim, masses)
        b = solve_emd(sim, masses)
        assert np.array_equal(a.values, b.values)

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            Masses([0.6, 0.5], [0.5, 0.5])

    @pytest.mark.parametrize(
        "mu, gamma",
        [
            ([np.nan], [np.nan]),
            ([0.5, np.nan], [0.5, 0.5]),
            ([np.inf], [np.inf]),
            ([0.5, 0.5], [1.0, -np.inf]),
        ],
    )
    def test_rejects_non_finite_masses(self, mu, gamma):
        with pytest.raises(ValueError, match="^Masses: non-finite entries$"):
            Masses(mu, gamma)

    def test_rejects_non_finite_cost(self):
        with pytest.raises(ValueError, match="^solve_emd: non-finite cost entries$"):
            solve_emd(np.array([[np.nan]]), Masses([1.0], [1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(
            ValueError, match="^solve_emd: masses inconsistent with similarity shape$"
        ):
            solve_emd(np.zeros((2, 2)), Masses([1.0], [1.0]))

    @pytest.mark.parametrize("sim", [[0.5], 0.5, np.zeros((1, 1, 1))])
    def test_rejects_similarity_not_2d(self, sim):
        with pytest.raises(ValueError, match="^solve_emd: similarity matrix must be 2-D$"):
            solve_emd(sim, Masses([1.0], [1.0]))


#: Largest amount by which a certified plan's score, summed from a re-solved
#: plan, may exceed the optimum's.
CERTIFIED_ROUNDING = 1e-12


@st.composite
def stop_instances(draw):
    """A ``bound_instances`` draw, its optimum and a stop score: anywhere in
    [-2, 2], within 0.05 of the optimum, between the first certified score
    and the optimum (so that pivots run before a certificate), or one of
    -inf, the optimum and +inf."""
    sim, masses = draw(bound_instances())
    optimum = solve_emd(sim, masses).score
    first = _simplex(sim, masses, -np.inf)[1]
    stop = draw(
        st.one_of(
            st.floats(-2.0, 2.0),
            st.floats(-0.05, 0.05).map(lambda d: optimum + d),
            st.floats(0.0, 1.0).map(lambda t: first + t * (optimum - first)),
            st.sampled_from([-np.inf, optimum, np.inf]),
        )
    )
    return sim, masses, optimum, stop


class TestSimplexStop:
    """``_simplex(sim, masses, stop)``: the score of a plan that is feasible
    for ``masses`` and scores above ``stop``, or else the optimum's score
    with ``solve_emd``'s bits."""

    def test_no_stop_is_solve_emd_bitwise(self):
        for sim, masses in TestSolveEmd.pivot_rule_cases():
            score = _simplex(sim, masses, np.inf)[1]
            assert score.hex() == solve_emd(sim, masses).score.hex()

    @settings(max_examples=300, deadline=None)
    @given(instance=stop_instances())
    def test_above_stop_is_feasible_else_optimum(self, instance):
        sim, masses, optimum, stop = instance
        score = _simplex(sim, masses, stop)[1]
        if score > stop:
            assert score <= optimum + CERTIFIED_ROUNDING
        else:
            assert score.hex() == optimum.hex()

    def test_certified_plan_is_feasible(self):
        # Stops below the optimum, down to -inf, which the first tree with
        # no negative flow clears: the plan is the certificate, so it meets
        # the unperturbed masses with no negative flow.
        early = 0
        for sim, masses in emd_instances(seed=41, draws=10, max_size=80):
            full = solve_emd(sim, masses)
            for stop in (-np.inf, full.score - 0.05, full.score - 1e-3):
                plan, score, pivots, _ = _simplex(sim, masses, stop)
                assert score > stop
                assert score == float(np.sum(sim * plan))
                assert score <= full.score + CERTIFIED_ROUNDING
                assert plan.min() >= 0.0
                assert np.max(np.abs(plan.sum(axis=1) - masses.mu)) <= 1e-12
                assert np.max(np.abs(plan.sum(axis=0) - masses.gamma)) <= 1e-12
                early += pivots < full.pivots
        assert early > 0

    def test_stop_at_each_certified_score(self):
        # Each certified score, taken as the next stop, is a plan's exact
        # score that the perturbed running score may clear by rounding; the
        # pivots then go on, so the result is a higher plan's score or the
        # optimum, never that plan's score again.
        for sim, masses in emd_instances(seed=42, draws=6, max_size=80):
            optimum = solve_emd(sim, masses).score
            stop, steps = -np.inf, 0
            while (score := _simplex(sim, masses, stop)[1]) > stop:
                stop, steps = score, steps + 1
            assert score.hex() == optimum.hex()
            assert steps >= 1


def assert_least_cost_start(cost, supply, demand):
    """``_least_cost_start`` returns a spanning tree whose flows meet the
    marginals, choosing at each step the cheapest cell whose row and column
    are open, the lowest flat index on ties."""
    m, n = cost.shape
    basis, flows = _least_cost_start(cost, supply, demand)
    assert len(basis) == len(set(basis)) == m + n - 1
    # m + n - 1 edges and no cycle on the m + n row and column nodes.
    root = list(range(m + n))

    def find(node):
        while root[node] != node:
            node = root[node]
        return node

    for i, j in basis:
        a, b = find(i), find(m + j)
        assert a != b
        root[a] = b
    plan = np.zeros((m, n))
    for (i, j), flow in zip(basis, flows):
        plan[i, j] = flow
    assert min(flows) >= 0.0
    # Masses sum to about 1, and a line's residual takes one rounded
    # subtraction per cell on it, so the marginals hold to (m + n) ulps of 1.
    tol = (m + n) * np.finfo(np.float64).eps
    assert np.max(np.abs(plan.sum(axis=1) - supply)) <= tol
    assert np.max(np.abs(plan.sum(axis=0) - demand)) <= tol
    # Each cell but the last closes exactly one of its lines: the one no
    # later cell lies on.
    open_rows, open_cols = np.ones(m, bool), np.ones(n, bool)
    for k, (i, j) in enumerate(basis):
        masked = np.where(open_rows[:, None] & open_cols[None, :], cost, np.inf)
        assert (i, j) == divmod(int(np.flatnonzero(masked == masked.min())[0]), n)
        later = basis[k + 1 :]
        if later:
            open_rows[i] = any(r == i for r, _ in later)
            open_cols[j] = any(c == j for _, c in later)
            assert open_rows[i] != open_cols[j]


def start_instances(seed, draws, max_size=80):
    """Costs rounded to 0-2 decimals, so many tie, and masses from
    ``_floor_normalize``; a shift of the raw masses puts most at the floor."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        m, n = (int(k) for k in rng.integers(1, max_size + 1, size=2))
        cost = np.round(rng.uniform(0.0, 2.0, (m, n)), int(rng.integers(0, 3)))
        shift = float(rng.choice([0.0, 2.0]))
        mu = _floor_normalize(rng.standard_normal(m) - shift)
        gamma = _floor_normalize(rng.standard_normal(n) - shift)
        yield cost, Masses(mu, gamma)


class TestLeastCostStart:
    def test_line_shapes(self):
        rng = np.random.default_rng(30)
        for m, n in [(1, 1), (1, 9), (9, 1), (1, 80), (80, 1)]:
            for family in (None,) + TIE_FAMILIES:
                sim, masses = emd_instance(rng, m, n, family)
                assert_least_cost_start(1.0 - sim, *perturbed(masses))

    def test_tie_families(self):
        for sim, masses in emd_instances(seed=31, draws=8):
            assert_least_cost_start(1.0 - sim, *perturbed(masses))
            # Unperturbed masses tie in their partial sums; the start stays a
            # spanning tree by construction.
            assert_least_cost_start(1.0 - sim, masses.mu, masses.gamma)

    def test_fuzz(self):
        for cost, masses in start_instances(seed=32, draws=120):
            assert_least_cost_start(cost, *perturbed(masses))
            assert_least_cost_start(cost, masses.mu, masses.gamma)

    def test_degenerate_marginals_keep_spanning_tree(self):
        # Row 1 and column 1 run out together with a column still open:
        # closing the last row there would leave a forest.
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        half = np.full(2, 0.5)
        assert_least_cost_start(cost, half, half)
        assert _least_cost_start(cost, half, half)[0] == [(0, 0), (1, 1), (1, 0)]

    def test_constant_cost_is_northwest_corner(self):
        rng = np.random.default_rng(33)
        for m, n in [(1, 1), (1, 7), (7, 1), (5, 9), (9, 5), (40, 40), (80, 80)]:
            cost = np.full((m, n), float(rng.uniform(0.0, 2.0)))
            masses = random_masses(rng, m, n)
            for supply, demand in (perturbed(masses), (masses.mu, masses.gamma)):
                assert _least_cost_start(cost, supply, demand) == northwest_corner(
                    cost, supply, demand
                )


def alignment_score(sim, plan):
    """The score as computed before ``solve_emd`` returned it with the plan:
    <SIM, A*> over the plan's values. Kept as the bitwise reference."""
    return float(np.sum(sim * plan.values))


class TestAlignmentScore:
    def test_matches_reference_bitwise(self):
        for sim, masses in TestSolveEmd.pivot_rule_cases():
            plan = solve_emd(sim, masses)
            assert plan.score.hex() == alignment_score(sim, plan).hex()

    def test_identity_pairing(self):
        sim = np.eye(2)
        plan = solve_emd(sim, Masses([0.5, 0.5], [0.5, 0.5]))
        assert plan.score == pytest.approx(1.0, abs=1e-9)

    def test_constant_similarity(self):
        rng = np.random.default_rng(8)
        sim = np.full((3, 4), 0.42)
        masses = random_masses(rng, 3, 4)
        plan = solve_emd(sim, masses)
        assert plan.score == pytest.approx(0.42, abs=1e-9)

    def test_score_equals_one_minus_objective(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            sim = rng.uniform(-1, 1, size=(4, 5))
            masses = random_masses(rng, 4, 5)
            plan = solve_emd(sim, masses)
            assert plan.score == pytest.approx(1.0 - plan.objective, abs=1e-9)

    def test_bounded(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            q = random_seq(rng, int(rng.integers(1, 6)))
            s = random_seq(rng, int(rng.integers(1, 6)))
            assert -1.0 - 1e-12 <= emd_score(q, s) <= 1.0 + 1e-12


#: Slack for rounding where the bound is tight (a 1 x n problem has one
#: feasible plan, so its bound is its score); far below the 1e-9 margin
#: ``best_alignment`` prunes with.
BOUND_ROUNDING = 1e-12


@st.composite
def bound_instances(draw):
    """Similarities in [-1, 1] of shape (1-12) x (1-12), and masses
    normalized from raw values of either sign, so that some entries sit at
    the EPS_MASS floor."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    sim = draw(arrays(np.float64, (m, n), elements=unit))
    raw_mu = draw(arrays(np.float64, m, elements=unit))
    raw_gamma = draw(arrays(np.float64, n, elements=unit))
    return sim, Masses(_floor_normalize(raw_mu), _floor_normalize(raw_gamma))


class TestScoreUpperBound:
    @settings(max_examples=300, deadline=None)
    @given(instance=bound_instances())
    def test_bounds_exact_score(self, instance):
        sim, masses = instance
        assert _score_upper_bound(sim, masses) >= solve_emd(sim, masses).score - BOUND_ROUNDING

    def test_tight_on_a_single_row(self):
        rng = np.random.default_rng(40)
        sim = rng.uniform(-1, 1, size=(1, 6))
        masses = random_masses(rng, 1, 6)
        assert _score_upper_bound(sim, masses) == pytest.approx(solve_emd(sim, masses).score, abs=1e-12)

    def test_not_vacuous(self):
        # A query aligned with one support and opposed to another: the
        # bound on the second pair is below the first pair's exact score.
        e = np.eye(4)
        q = make_seq(e[:2])
        near, far = make_seq(e[:2]), make_seq(-e[:2])
        best = emd_score(q, near)
        assert _score_upper_bound(similarity_matrix(q, far), marginal_masses(q, far)) < best - 1e-9


def full_argmax(query, candidates):
    """The prediction from every candidate's exact score, lowest index on ties."""
    return int(np.argmax([emd_score(query, c) for c in candidates]))


@st.composite
def near_candidates(draw):
    """A query and 2-5 candidates near it. After the first, a candidate may
    repeat an earlier one, or copy it with each entry scaled by 1 + e, |e| up
    to 1e-13 to 1e-10, so that its score lies within ``_PRUNE_MARGIN`` of
    the original's."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 6))
    spread = draw(st.sampled_from([0.1, 0.3, 1.0]))
    centre = rng.standard_normal(dim)

    def near(length):
        return centre + spread * rng.standard_normal((length, dim))

    query = make_seq(near(draw(st.integers(1, 5))))
    candidates = [make_seq(near(draw(st.integers(1, 5))))]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["new", "repeat", "perturbed"]))
        source = candidates[draw(st.integers(0, len(candidates) - 1))]
        if kind == "new":
            candidates.append(make_seq(near(draw(st.integers(1, 5)))))
        elif kind == "repeat":
            candidates.append(source)
        else:
            e = draw(st.sampled_from([1e-13, 1e-11, 1e-10]))
            scale = 1.0 + rng.uniform(-e, e, source.vectors.shape)
            candidates.append(make_seq(source.vectors * scale))
    return query, candidates


class TestBestAlignment:
    def test_close_candidates_match_full_argmax(self):
        # Candidates near the query and near each other, so that several
        # bounds overlap and several transports are solved.
        rng = np.random.default_rng(6)
        for _ in range(100):
            base = rng.standard_normal((4, 6))
            query = make_seq(base + 0.3 * rng.standard_normal((4, 6)))
            candidates = [make_seq(base + 0.3 * rng.standard_normal((4, 6))) for _ in range(5)]
            assert best_alignment(query, candidates) == full_argmax(query, candidates)

    @settings(max_examples=200, deadline=None)
    @given(draw=near_candidates())
    def test_prediction_is_argmax_of_exact_scores(self, draw):
        # Certified, pruned or solved, every prediction is that of scoring
        # every candidate, also where two scores tie or lie within the margin.
        query, candidates = draw
        assert best_alignment(query, candidates) == full_argmax(query, candidates)


class TestAlignmentInvariances:
    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            q = random_seq(rng, int(rng.integers(1, 6)))
            s = random_seq(rng, int(rng.integers(1, 6)))
            assert emd_score(q, s) == pytest.approx(emd_score(s, q), abs=1e-9)

    def test_positive_scale_invariance(self):
        # Tiny and huge scales included: only a zero row is scored as zero,
        # however small the others' norms, and no norm or cross-reference
        # product over- or underflows (warnings are errors in this suite).
        rng = np.random.default_rng(12)
        for _ in range(30):
            q = random_seq(rng, 4)
            s = random_seq(rng, 5)
            for c in (float(rng.uniform(0.1, 10.0)), 1e-6, 1e-12, 1e-20, 1e-100,
                      1e-160, 1e-300, 1e160, 1e300):
                scaled = make_seq(c * q.vectors)
                assert emd_score(scaled, s) == pytest.approx(emd_score(q, s), abs=1e-9)
            # A power of two scales exactly, so the score keeps its bits.
            for c in (2.0**-600, 2.0**-40, 2.0**700):
                assert emd_score(make_seq(c * q.vectors), s) == emd_score(q, s)

    def test_support_permutation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            q = random_seq(rng, 4)
            s = random_seq(rng, 5)
            perm = rng.permutation(5)
            permuted = make_seq(s.vectors[perm])
            assert emd_score(q, permuted) == pytest.approx(emd_score(q, s), abs=1e-9)


class TestFixedBaselines:
    def test_pp_self_is_one(self):
        rng = np.random.default_rng(14)
        q = random_seq(rng, 4)
        assert fixed_alignment_pp(q, q) == pytest.approx(1.0, abs=1e-12)

    def test_pp_orthogonal_is_zero(self):
        q = make_seq(np.eye(4)[:2])
        s = make_seq(np.eye(4)[2:])
        assert fixed_alignment_pp(q, s) == 0.0

    def test_pp_matches_per_timestamp_oracle(self):
        rng = np.random.default_rng(15)
        q = random_seq(rng, 5)
        s = random_seq(rng, 5)
        oracle = np.mean(
            [cosine(q.vectors[i], s.vectors[i]) for i in range(5)]
        )
        assert fixed_alignment_pp(q, s) == pytest.approx(oracle, abs=1e-12)

    def test_pp_rejects_structure_mismatch(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError):
            fixed_alignment_pp(random_seq(rng, 3), random_seq(rng, 4))

    def test_cross_repeated_descriptor(self):
        q = make_seq([[1.0, 2.0], [1.0, 2.0]])
        assert fixed_alignment_cross(q, q) == pytest.approx(1.0, abs=1e-12)

    def test_cross_is_mean_of_similarity(self):
        rng = np.random.default_rng(17)
        q = random_seq(rng, 3)
        s = random_seq(rng, 6)
        assert fixed_alignment_cross(q, s) == pytest.approx(
            float(np.mean(similarity_matrix(q, s))), abs=1e-12
        )
