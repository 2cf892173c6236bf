"""N-way K-shot episodic evaluation: sampling, prototypes, classification by
alignment score, and accuracy aggregation with confidence intervals."""

from __future__ import annotations

import math
import os
import pickle
import signal
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
    return Episode(n, tuple(support), tuple(query))


def _clip_list(seqs: dict[str, DescriptorSequence]) -> str:
    return ", ".join(f"{clip_id} (L={len(seq)})" for clip_id, seq in seqs.items())


def build_prototypes(
    support_by_class: list[dict[str, DescriptorSequence]],
) -> list[DescriptorSequence]:
    """Per-class prototype: entrywise mean of the class's support descriptor
    sequences, each class given as ``{clip id: sequence}``. Every class has
    the K sequences ``sample_episode`` drew; only their structure, which a
    manifest of mixed clip lengths can break, is checked."""
    prototypes = []
    for ci, seqs in enumerate(support_by_class):
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
#: a bound or a score (about 1e-15). The first prototype's solve stops once
#: a feasible plan scores above every other bound by more than this: that
#: plan's score is at most the exact score, so no other prototype can tie.
_PRUNE_MARGIN = 1e-9


def classify_query(
    query: DescriptorSequence,
    prototypes: list[DescriptorSequence],
    metric: str,
) -> int:
    """Index of the prototype that scores highest against ``query`` under
    ``metric``, one of ``METRICS``; exact ties go to the lowest index.

    For the ``emd_score`` metrics, prototypes are visited by decreasing
    ``alignment.score_upper_bound`` (lowest index on ties). The first is
    solved by ``alignment.solve_emd_above`` with a stop score, the largest
    other bound plus ``_PRUNE_MARGIN`` (-inf when there is no other): a
    result above it is the score of a feasible plan, so at most the first's
    exact score (LP duality), and every other exact score is below it by
    more than the margin, so the first is the prediction. Otherwise the
    result is the first's exact score, and the visit goes on with
    ``alignment.solve_emd``. It stops at the first bound below the best
    exact score so far less ``_PRUNE_MARGIN``: no prototype left can reach
    that score, so the prediction is that of scoring every prototype. Only
    the prediction is returned, since a pruned or certified prototype has
    no exact score. ``prototypes`` is not empty: ``evaluate`` checks that an
    episode has at least one way.
    """
    if _METRIC_TABLE[metric][1] != "emd_score":
        return int(np.argmax([score_pair(query, p, metric) for p in prototypes]))
    pairs = [
        (alignment.similarity_matrix(query, p), alignment.marginal_masses(query, p))
        for p in prototypes
    ]
    bounds = np.array([alignment.score_upper_bound(sim, masses) for sim, masses in pairs])
    pred, *rest = np.argsort(-bounds, kind="stable").tolist()
    stop = bounds[rest].max() + _PRUNE_MARGIN if rest else -np.inf
    best = alignment.solve_emd_above(*pairs[pred], stop)
    if best > stop:
        return pred
    for i in rest:
        if bounds[i] < best - _PRUNE_MARGIN:
            break
        score = alignment.solve_emd(*pairs[i]).score
        if score > best or (score == best and i < pred):
            best, pred = score, i
    return pred


def _episode_accuracy(
    episode: Episode,
    descriptors: dict[tuple[str, str], DescriptorSequence],
    metric: str,
) -> float:
    rep = _METRIC_TABLE[metric][0]
    by_class: list[dict[str, DescriptorSequence]] = [{} for _ in range(episode.ways)]
    for entry, ci in episode.support:
        by_class[ci][entry.clip_id] = descriptors[(entry.clip_id, rep)]
    prototypes = build_prototypes(by_class)
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
    return correct / len(episode.query)


def _share_count(workers: int, n_items: int) -> int:
    """How many shares ``_fork_map`` splits ``n_items`` items into: at most
    ``workers``, one per item and one per CPU this process may run on (its
    affinity mask where the platform has one), and 1 where ``os.fork`` is
    missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(workers, n_items, cpus))


def _run_share(fn, items: list) -> list[tuple[bool, object]]:
    """``(True, fn(item))`` per item, in order, up to the first item that
    raises, which ends the list as ``(False, exception)``."""
    outcomes = []
    for item in items:
        try:
            outcomes.append((True, fn(item)))
        except Exception as exc:
            outcomes.append((False, exc))
            break
    return outcomes


def _run_child(fn, items: list, read_fd: int, write_fd: int, mask) -> None:
    """A forked worker's whole life: restore the signal ``mask`` the fork
    was made under, close the parent's end ``read_fd``, run its share,
    pickle each outcome to pipe ``write_fd`` and exit without returning
    into the parent's stack. Signals stay blocked until inside the ``try``,
    so an interrupt cannot unwind the child past ``os._exit``. The share
    runs to its end before the first write, so a full pipe never holds
    back the work."""
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as pipe:
            for ok, value in _run_share(fn, items):
                try:
                    data = pickle.dumps((ok, value))
                except Exception as exc:
                    data = pickle.dumps((False, RuntimeError(f"unpicklable worker result: {exc}")))
                pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _fork_map(fn, items: list, workers: int) -> list:
    """``[fn(item) for item in items]``, the items split into ``W =
    _share_count(workers, len(items))`` shares: item ``i`` runs in share
    ``i % W``. Share 0 runs here; every other share runs in an ``os.fork``
    child, which inherits ``fn`` and the items and pipes its outcomes back.
    The first item that raises, in item order, re-raises here, as the
    serial loop would. A child that exits without a full result raises a
    ``RuntimeError`` naming it. Every child is killed and reaped before
    this returns or raises."""
    shares = _share_count(workers, len(items))
    outcomes: list = [None] * len(items)
    children = []
    try:
        for share in range(1, shares):
            read_fd, write_fd = os.pipe()
            # Signals wait until the child is on the list the finally reaps.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(fn, items[share::shares], read_fd, write_fd, mask)
                os.close(write_fd)
                children.append((share, pid, os.fdopen(read_fd, "rb")))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for j, outcome in enumerate(_run_share(fn, items[::shares])):
            outcomes[j * shares] = outcome
        for share, pid, pipe in children:
            for i in range(share, len(items), shares):
                try:
                    outcomes[i] = pickle.load(pipe)
                except Exception as exc:
                    raise RuntimeError(
                        f"evaluate: worker {share} (pid {pid}) ended without a full result: "
                        f"{type(exc).__name__}"
                    ) from None
                if not outcomes[i][0]:
                    break
    finally:
        for _, pid, pipe in children:
            pipe.close()
            # Unreaped, an exited child stays a zombie, so its pid is valid.
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # A share stops at its first failure, so an item it left unrun follows
    # a failed one here.
    results = []
    for ok, value in outcomes:
        if not ok:
            raise value
        results.append(value)
    return results


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

    Deterministic for fixed (manifest, config, seed): per-episode seeds
    derive from (seed, episode index). Two task lists run through
    ``_fork_map`` on up to ``workers`` processes (no more than the CPUs):
    each sampled clip's extraction, in clip-id order, then each (episode,
    metric) score, metric by metric. Results come back in task order, so
    the report is the same for every ``workers``. A ``ValueError`` from
    extracting a clip is re-raised naming the clip's path, and one from
    scoring a query names it and the support clips; with several failures,
    the first in task order is raised, as in a serial run.
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

    def extract(clip_id: str) -> dict[str, DescriptorSequence]:
        path = manifest.resolve(entries[clip_id])
        clip = synthgen.load_clip(path)
        try:
            if _MULTI_SCALE.intersection(reps):
                frames = descriptor.multi_scale_frames(clip, scales)
            return {
                rep: getattr(descriptor, rep)(frames if rep in _MULTI_SCALE else clip)
                for rep in reps
            }
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    clip_ids = sorted(entries)
    descriptors = {
        (clip_id, rep): seq
        for clip_id, seqs in zip(clip_ids, _fork_map(extract, clip_ids, workers))
        for rep, seq in seqs.items()
    }
    # Metric-major, so each share scores alternate episodes of every metric.
    tasks = [(ep, m) for m in metrics for ep in sampled]
    accuracies = _fork_map(
        lambda task: _episode_accuracy(task[0], descriptors, task[1]), tasks, workers
    )

    results = []
    for i, m in enumerate(metrics):
        accs = np.array(accuracies[i * episodes : (i + 1) * episodes])
        mean = float(accs.mean())
        if episodes > 1:
            stderr = float(accs.std(ddof=1)) / math.sqrt(episodes)
        else:
            stderr = 0.0
        results.append(MetricResult(m, mean, 1.96 * stderr, accs))
    return Report(n, k, z, episodes, seed, tuple(results))
