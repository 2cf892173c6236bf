"""Per-layer metrics from traced spans, and the numerical checks made on
calls the trace sampled.

Layers are the seven momalign modules. Sizes are read from the arguments:
``solve_emd`` by sequence length L, ``newton_schulz_sqrt`` by channel count
C, ``deformable_conv`` by grid side g.

Samples are chosen by a checksum of the call's input, not by call order, so
the same inputs give the same sample whatever the thread interleaving.
"""

from __future__ import annotations

import os
import statistics
import zlib
from collections import Counter, defaultdict

import numpy as np

from tracer import Span, roots, self_times

MODULES = ("cli", "episode", "descriptor", "linalg", "alignment", "seqio", "synthgen")

#: Descriptor pipelines; a call under an ``episode`` span is one extraction.
EXTRACTORS = {
    "descriptor.multi_scale_descriptors",
    "descriptor.multi_scale_first_order",
    "descriptor.cov_mn_descriptors",
    "descriptor.gap_descriptor",
}

#: Span names whose medians are reported in ms, and the metric they feed.
MEDIAN_MS = {
    "alignment.similarity_matrix": "alignment.similarity_matrix.ms",
    "alignment.marginal_masses": "alignment.marginal_masses.ms",
    "alignment.fixed_alignment_pp": "alignment.fixed_alignment.ms",
    "alignment.fixed_alignment_cross": "alignment.fixed_alignment.ms",
    "descriptor.temporal_conv": "descriptor.temporal_conv.ms",
    "descriptor.offset_mlp": "descriptor.offset_mlp.ms",
    "descriptor.multi_scale_descriptors": "descriptor.multi_scale_descriptors.ms",
    "descriptor.multi_scale_first_order": "descriptor.multi_scale_first_order.ms",
    "descriptor.cov_mn_descriptors": "descriptor.cov_mn_descriptors.ms",
    "linalg.second_moment": "linalg.second_moment.ms",
    "linalg.vectorize_spd": "linalg.vectorize_spd.ms",
    "episode.classify_query": "episode.classify_query.ms",
    "episode.sample_episode": "episode.sample_episode.ms",
    "seqio.read_container": "seqio.read_container.ms",
    "synthgen.load_clip": "synthgen.load_clip.ms",
    "cli.scale_configs": "cli.scale_configs.ms",
}

#: Span names whose medians are reported in s.
MEDIAN_S = {
    "episode.evaluate": "episode.evaluate.s",
    "synthgen.generate_dataset": "synthgen.generate_dataset.s",
}

#: Span names bucketed by the size their tagger records.
SIZED_MS = {
    "alignment.solve_emd": "alignment.solve_emd.L{}.ms",
    "linalg.newton_schulz_sqrt": "linalg.newton_schulz_sqrt.c{}.ms",
    "descriptor.deformable_conv": "descriptor.deformable_conv.g{}.ms",
}

#: Per-call work counters: span name -> metric.
CALL_COUNTS = {
    "alignment.solve_emd": "alignment.solve_emd.calls",
    "episode.score_pair": "episode.score_pair.calls",
    "seqio.read_container": "seqio.read_container.calls",
}


def _crc(*arrays: np.ndarray) -> int:
    crc = 0
    for a in arrays:
        crc = zlib.crc32(np.ascontiguousarray(a).view(np.uint8).ravel(), crc)
    return crc


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Samples:
    """Inputs and outputs of sampled calls, and the taggers that collect them."""

    def __init__(self):
        self.phase = "call"
        # key -> (phase, L, sim, mu, gamma, plan values, objective)
        self.plans: dict[int, tuple] = {}
        # key -> (phase, C, input, eps, output)
        self.sqrts: dict[int, tuple] = {}

    def taggers(self):
        return {
            "alignment.solve_emd": self._solve_emd,
            "linalg.newton_schulz_sqrt": self._sqrt,
            "descriptor.deformable_conv": lambda a, kw, r: _arg(a, kw, 2, "cfg").grid,
            "episode.score_pair": self._score_pair,
            "seqio.read_container": lambda a, kw, r: os.path.getsize(_arg(a, kw, 0, "path")),
        }

    def _solve_emd(self, args, kwargs, plan):
        sim = np.asarray(_arg(args, kwargs, 0, "sim"), dtype=np.float64)
        masses = _arg(args, kwargs, 1, "masses")
        key = _crc(sim, masses.mu)
        if key % 4 == 0 and key not in self.plans:
            self.plans[key] = (
                self.phase, sim.shape[0], sim.copy(), masses.mu.copy(),
                masses.gamma.copy(), plan.values.copy(), plan.objective,
            )
        return sim.shape[0]

    def _sqrt(self, args, kwargs, out):
        a = np.asarray(_arg(args, kwargs, 0, "a"), dtype=np.float64)
        key = _crc(a)
        if key % 8 == 0 and key not in self.sqrts:
            eps = _arg(args, kwargs, 2, "eps")
            self.sqrts[key] = (self.phase, a.shape[0], a.copy(), eps, out.copy())
        return a.shape[0]

    @staticmethod
    def _score_pair(args, kwargs, _score):
        q = _arg(args, kwargs, 0, "q")
        s = _arg(args, kwargs, 1, "s")
        return (_crc(q.vectors), _crc(s.vectors), _arg(args, kwargs, 2, "metric"))


def check_plans(plans) -> tuple[float, list[str]]:
    """Objective gap to a linear-programming oracle, over sampled plans.

    Returns the largest gap and a description of every failed check:
    marginals off by more than 1e-9, a negative flow, or a gap above 1e-6.
    """
    from scipy.optimize import linprog

    worst = 0.0
    errors = []
    for key in sorted(plans):
        _, size, sim, mu, gamma, values, objective = plans[key]
        m, n = sim.shape
        a_eq = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
        res = linprog(
            (1.0 - sim).ravel(), A_eq=a_eq, b_eq=np.concatenate([mu, gamma]),
            bounds=(0, None), method="highs",
        )
        if res.status != 0:
            errors.append(f"solve_emd L={size}: oracle failed: {res.message}")
            continue
        gap = abs(objective - res.fun)
        worst = max(worst, gap)
        marginal = max(
            float(np.max(np.abs(values.sum(axis=1) - mu))),
            float(np.max(np.abs(values.sum(axis=0) - gamma))),
        )
        if marginal > 1e-9:
            errors.append(f"solve_emd L={size}: marginal error {marginal:.3e}")
        if np.min(values) < 0.0:
            errors.append(f"solve_emd L={size}: negative flow {np.min(values):.3e}")
        if gap > 1e-6:
            errors.append(f"solve_emd L={size}: objective {objective!r} vs oracle {res.fun!r}")
    return worst, errors


def sqrt_residuals(sqrts, phases) -> dict[int, float]:
    """Largest ||Y^2 - (A + eps I)|| / ||A + eps I|| per channel count."""
    from momalign.linalg import DEFAULT_EPS_SCALE

    out: dict[int, float] = {}
    for phase, c, a, eps, y in sqrts.values():
        if phase not in phases:
            continue
        if eps is None:
            eps = DEFAULT_EPS_SCALE * float(np.trace(a)) / c
        shifted = a + eps * np.eye(c)
        res = float(np.linalg.norm(y @ y - shifted) / np.linalg.norm(shifted))
        out[c] = max(out.get(c, 0.0), res)
    return out


def _median_ms(values_ns) -> float:
    return statistics.median(values_ns) / 1e6


def layer_metrics(spans: list[Span], lookups_per_call: int) -> dict[str, float]:
    """Metrics this set of spans has data for.

    Medians come from every span given. Counts, ratios and module totals are
    per outermost call, over the ``call`` and ``probe`` phases (set-up spans
    are left out of them).
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out: dict[str, float] = {}

    for table, scale in ((MEDIAN_MS, 1.0), (MEDIAN_S, 1e-3)):
        grouped: dict[str, list[int]] = defaultdict(list)
        for name, metric in table.items():
            grouped[metric] += [s.t1 - s.t0 for s in by_name.get(name, ())]
        for metric, durations in grouped.items():
            if durations:
                out[metric] = _median_ms(durations) * scale
    for name, pattern in SIZED_MS.items():
        sized: dict[int, list[int]] = defaultdict(list)
        for s in by_name.get(name, ()):
            if s.tag is not None:
                sized[s.tag].append(s.t1 - s.t0)
        for size, durations in sized.items():
            out[pattern.format(size)] = _median_ms(durations)
    evaluate = [s for s in by_name.get("episode.evaluate", ()) if s.t1 > s.t0]
    if evaluate:
        out["episode.evaluate.cpu_per_wall"] = statistics.median(
            s.tag / ((s.t1 - s.t0) / 1e9) for s in evaluate
        )

    work = [s for s in spans if s.phase != "setup"]
    top = roots(work)
    by_id = {s.sid: s for s in work}

    def per_call(selected: list[Span]) -> dict[int, list[Span]]:
        grouped: dict[int, list[Span]] = defaultdict(list)
        for s in selected:
            grouped[top[s.sid]].append(s)
        return grouped

    def median_count(selected: list[Span]) -> float:
        return float(statistics.median(len(v) for v in per_call(selected).values()))

    work_by_name: dict[str, list[Span]] = defaultdict(list)
    for s in work:
        work_by_name[s.name].append(s)
    for name, metric in CALL_COUNTS.items():
        if work_by_name.get(name):
            out[metric] = median_count(work_by_name[name])
    reads = per_call(work_by_name.get("seqio.read_container", []))
    if reads:
        out["seqio.read_container.bytes"] = float(
            statistics.median(sum(s.tag or 0 for s in v) for v in reads.values())
        )
    extracts = [
        s for s in work
        if s.name in EXTRACTORS and s.parent in by_id and by_id[s.parent].name.startswith("episode.")
    ]
    if extracts:
        calls = median_count(extracts)
        out["episode.extract.calls"] = calls
        out["episode.extract.hit_ratio"] = 1.0 - calls / lookups_per_call
    pairs = per_call(work_by_name.get("episode.score_pair", []))
    if pairs:
        out["episode.score_pair.unique_ratio"] = statistics.median(
            len({s.tag for s in v}) / len(v) for v in pairs.values()
        )

    own = self_times(work)
    n_calls = len({top[s.sid] for s in work}) or 1
    module_s = Counter()
    for s in work:
        module_s[s.name.split(".", 1)[0]] += own[s.sid]
    total = sum(module_s.values())
    for module in MODULES:
        if module_s.get(module):
            out[f"{module}.self_s"] = module_s[module] / n_calls
            out[f"{module}.share"] = module_s[module] / total
    return out
