"""N-way K-shot episodic evaluation: sampling, prototypes, classification by
alignment score, and accuracy aggregation with confidence intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import alignment, descriptor, synthgen
from .descriptor import DescriptorSequence, ScaleConfig
from .seqio import Manifest, ManifestEntry

#: Metric selector -> (representation, scorer). The representation names the
#: ``descriptor`` function that extracts a clip's sequence, the scorer the
#: ``alignment`` function that scores a query against a prototype. Both are
#: looked up by name when called: perfbench's tracer replaces module
#: attributes, so a table of function objects would bypass it.
_METRIC_TABLE = {
    "a2": ("multi_scale_descriptors", "emd_score"),
    "pp": ("multi_scale_descriptors", "fixed_alignment_pp"),
    "cr": ("multi_scale_descriptors", "fixed_alignment_cross"),
    "gap-a2": ("gap_descriptor", "emd_score"),
    "cov-mn-a2": ("cov_mn_descriptors", "emd_score"),
    "ms-a2": ("multi_scale_first_order", "emd_score"),
}

#: Metric selectors: representation pathway x scoring rule.
METRICS = tuple(_METRIC_TABLE)

#: Representations that reduce ``descriptor.multi_scale_frames``; the
#: others take the clip.
_MULTI_SCALE = {"multi_scale_descriptors", "multi_scale_first_order"}


@dataclass(frozen=True)
class Episode:
    """One N-way K-shot task. Support and query clips carry the index of
    their sampled class, 0 to ways - 1; a query's index is kept for scoring
    and hidden from the classifier."""

    ways: int
    shots: int
    support: tuple[tuple[ManifestEntry, int], ...]
    query: tuple[tuple[ManifestEntry, int], ...]


@dataclass(frozen=True)
class MetricResult:
    metric: str
    mean_accuracy: float
    ci95: float
    episode_accuracies: np.ndarray


@dataclass(frozen=True)
class Report:
    ways: int
    shots: int
    queries: int
    episodes: int
    seed: int
    results: tuple[MetricResult, ...]


def sample_episode(
    manifest: Manifest, n: int, k: int, z: int, seed: int
) -> Episode:
    """Reproducibly sample one episode; support and query sets are disjoint.

    ``z`` queries are spread over the ``n`` sampled classes (the first
    ``z % n`` classes receive one extra query).
    """
    grouped = manifest.by_label()
    labels = sorted(grouped)
    per_class_q = [z // n + (1 if i < z % n else 0) for i in range(n)]
    need = k + max(per_class_q)
    eligible = [lab for lab in labels if len(grouped[lab]) >= need]
    if len(eligible) < n:
        raise ValueError(
            f"sample_episode: need {n} classes with >= {need} clips, "
            f"manifest has {len(eligible)} of {len(labels)}"
        )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    chosen = [eligible[i] for i in rng.choice(len(eligible), size=n, replace=False)]
    support = []
    query = []
    for ci, lab in enumerate(chosen):
        clips = grouped[lab]
        picks = rng.choice(len(clips), size=k + per_class_q[ci], replace=False)
        for p in picks[:k]:
            support.append((clips[p], ci))
        for p in picks[k:]:
            query.append((clips[p], ci))
    return Episode(n, k, tuple(support), tuple(query))


def _clip_list(seqs: dict[str, DescriptorSequence]) -> str:
    return ", ".join(f"{clip_id} (L={len(seq)})" for clip_id, seq in seqs.items())


def build_prototypes(
    support_by_class: list[dict[str, DescriptorSequence]], k: int
) -> list[DescriptorSequence]:
    """Per-class prototype: entrywise mean of K support descriptor sequences,
    each class given as ``{clip id: sequence}``."""
    prototypes = []
    for ci, seqs in enumerate(support_by_class):
        if len(seqs) != k:
            raise ValueError(f"build_prototypes: class {ci} has {len(seqs)} != {k} sequences")
        first, *rest = seqs.values()
        if not all(first.same_structure(s) for s in rest):
            raise ValueError(
                f"build_prototypes: structure mismatch within class {ci}: {_clip_list(seqs)}"
            )
        mean = np.mean([s.vectors for s in seqs.values()], axis=0)
        prototypes.append(DescriptorSequence(mean, first.scale_ids, first.times))
    return prototypes


def score_pair(q: DescriptorSequence, s: DescriptorSequence, metric: str) -> float:
    return getattr(alignment, _METRIC_TABLE[metric][1])(q, s)


#: A prototype is left unsolved only when its score bound is below the best
#: exact score so far by more than this, which is far above the rounding of
#: a bound or a score (about 1e-15).
_PRUNE_MARGIN = 1e-9


def classify_query(
    query: DescriptorSequence,
    prototypes: list[DescriptorSequence],
    metric: str,
) -> int:
    """Index of the prototype that scores highest against ``query`` under
    ``metric``, one of ``METRICS``; exact ties go to the lowest index.

    For the ``emd_score`` metrics, prototypes are visited by decreasing
    ``alignment.score_upper_bound`` (lowest index on ties), and the visit
    stops at the first bound below the best exact score so far less
    ``_PRUNE_MARGIN``: no prototype left can reach that score, so the
    prediction is that of scoring every prototype. Only the prediction is
    returned, since a pruned prototype has no exact score.
    """
    if not prototypes:
        raise ValueError("classify_query: empty prototype set")
    if _METRIC_TABLE[metric][1] != "emd_score":
        return int(np.argmax([score_pair(query, p, metric) for p in prototypes]))
    pairs = [
        (alignment.similarity_matrix(query, p), alignment.marginal_masses(query, p))
        for p in prototypes
    ]
    bounds = np.array([alignment.score_upper_bound(sim, masses) for sim, masses in pairs])
    best, pred = -np.inf, 0
    for i in np.argsort(-bounds, kind="stable").tolist():
        if bounds[i] < best - _PRUNE_MARGIN:
            break
        score = alignment.solve_emd(*pairs[i]).score
        if score > best or (score == best and i < pred):
            best, pred = score, i
    return pred


def _episode_accuracy(
    episode: Episode,
    descriptors: dict[tuple[str, str], DescriptorSequence],
    metrics: list[str],
) -> dict[str, float]:
    accs = {}
    for metric in metrics:
        rep = _METRIC_TABLE[metric][0]
        by_class: list[dict[str, DescriptorSequence]] = [{} for _ in range(episode.ways)]
        for entry, ci in episode.support:
            by_class[ci][entry.clip_id] = descriptors[(entry.clip_id, rep)]
        prototypes = build_prototypes(by_class, episode.shots)
        correct = 0
        for entry, ci in episode.query:
            query = descriptors[(entry.clip_id, rep)]
            try:
                pred = classify_query(query, prototypes, metric)
            except ValueError as exc:
                support = {e.clip_id: descriptors[(e.clip_id, rep)] for e, _ in episode.support}
                raise ValueError(
                    f"query {_clip_list({entry.clip_id: query})} against support "
                    f"{_clip_list(support)}: {exc}"
                ) from None
            correct += int(pred == ci)
        accs[metric] = correct / len(episode.query)
    return accs


def evaluate(
    manifest: Manifest,
    n: int,
    k: int,
    z: int,
    episodes: int,
    seed: int,
    metrics: list[str],
    scales: list[ScaleConfig],
    workers: int = 1,
) -> Report:
    """Mean accuracy and 95% normal-approximation confidence interval over
    ``episodes`` episodes, for each of ``metrics`` (from ``METRICS``, each
    once), the multi-scale ones built from ``scales``. Arguments are checked
    here, before any clip is loaded; the stages behind this trust them.

    Deterministic for fixed (manifest, config, seed): per-episode seeds derive
    from (seed, episode index) and episodes are scored serially, in order.
    ``workers`` is checked to be >= 1 and changes nothing else. A
    ``ValueError`` from extracting a clip is re-raised naming the clip's path,
    and one from scoring a query names it and the support clips.
    """
    sizes = {"ways": n, "shots": k, "queries": z, "episodes": episodes, "workers": workers,
             "metrics": len(metrics)}
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"evaluate: {name} must be >= 1, got {value}")
    for m in metrics:
        if m not in METRICS:
            raise ValueError(f"evaluate: unknown metric '{m}' (choose from {METRICS})")
        if metrics.count(m) > 1:
            raise ValueError(f"evaluate: metric '{m}' given twice")

    episode_seeds = [
        int(np.random.SeedSequence([seed, e]).generate_state(1)[0])
        for e in range(episodes)
    ]
    sampled = [sample_episode(manifest, n, k, z, s) for s in episode_seeds]

    # Each clip is loaded once and extracted once per representation; its
    # multi-scale frames are built once, and every multi-scale
    # representation reduces them.
    reps = sorted({_METRIC_TABLE[m][0] for m in metrics})
    entries: dict[str, ManifestEntry] = {}
    for ep in sampled:
        for entry, _ in ep.support + ep.query:
            entries.setdefault(entry.clip_id, entry)
    descriptors: dict[tuple[str, str], DescriptorSequence] = {}
    for clip_id in sorted(entries):
        path = manifest.resolve(entries[clip_id])
        clip = synthgen.load_clip(path)
        try:
            if _MULTI_SCALE.intersection(reps):
                frames = descriptor.multi_scale_frames(clip, scales)
            for rep in reps:
                source = frames if rep in _MULTI_SCALE else clip
                descriptors[(clip_id, rep)] = getattr(descriptor, rep)(source)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    per_episode = [_episode_accuracy(ep, descriptors, metrics) for ep in sampled]

    results = []
    for m in metrics:
        accs = np.array([pe[m] for pe in per_episode])
        mean = float(accs.mean())
        if episodes > 1:
            stderr = float(accs.std(ddof=1)) / math.sqrt(episodes)
        else:
            stderr = 0.0
        results.append(MetricResult(m, mean, 1.96 * stderr, accs))
    return Report(n, k, z, episodes, seed, tuple(results))
