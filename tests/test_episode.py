"""Episodic evaluation: sampling, prototypes, classification, determinism."""

import os
import shutil
import signal
import time
from collections import Counter

import numpy as np
import pytest

from momalign import alignment, cli, descriptor, episode, synthgen
from momalign.descriptor import DescriptorSequence, default_scales
from momalign.episode import (
    METRICS,
    build_prototypes,
    classify_query,
    evaluate,
    sample_episode,
    score_pair,
)
from momalign.seqio import Manifest, ManifestEntry
from test_alignment import BOUND_ROUNDING, emd_score, make_seq


#: The metrics whose prediction ``alignment.best_alignment`` makes.
EMD_METRICS = tuple(m for m in METRICS if episode._METRIC_TABLE[m][1] is None)


def toy_manifest(classes=10, per_class=4):
    entries = []
    for c in range(classes):
        for i in range(per_class):
            entries.append(
                ManifestEntry(f"c{c}_i{i}", f"class{c:03d}", f"clips/c{c}_i{i}.fsq")
            )
    return Manifest(tuple(entries))


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    cfg = synthgen.SynthConfig(
        classes=6,
        subactions=2,
        c_in=64,
        noise=0.0,
        distractor=0.0,
        jitter=1.0,
        reorder=0.0,
        instances_per_class=3,
    )
    out = tmp_path_factory.mktemp("sep")
    return synthgen.generate_dataset(cfg, out)


class TestSampleEpisode:
    def test_contract(self):
        ep = sample_episode(toy_manifest(), 5, 1, 5, seed=0)
        assert len(ep.support) == 5
        assert len(ep.query) == 5
        support_ids = {e.clip_id for e, _ in ep.support}
        query_ids = {e.clip_id for e, _ in ep.query}
        assert not support_ids & query_ids
        assert len({e.label for e, _ in ep.support}) == 5

    def test_same_seed_identical(self):
        a = sample_episode(toy_manifest(), 5, 1, 5, seed=42)
        b = sample_episode(toy_manifest(), 5, 1, 5, seed=42)
        assert a == b

    def test_distinct_seeds_vary(self):
        episodes = {sample_episode(toy_manifest(), 5, 1, 5, seed=s).support for s in range(8)}
        assert len(episodes) > 1

    def test_insufficient_classes_rejected(self):
        with pytest.raises(ValueError, match="need 5 classes"):
            sample_episode(toy_manifest(classes=3), 5, 1, 5, seed=0)

    def test_insufficient_clips_rejected(self):
        with pytest.raises(ValueError):
            sample_episode(toy_manifest(classes=6, per_class=1), 5, 1, 5, seed=0)

    def test_query_spread_over_classes(self):
        ep = sample_episode(toy_manifest(), 4, 1, 6, seed=1)
        counts = {}
        for _, ci in ep.query:
            counts[ci] = counts.get(ci, 0) + 1
        # 6 queries over 4 classes: first two classes get 2, rest get 1.
        assert sorted(counts.values(), reverse=True) == [2, 2, 1, 1]


class TestBuildPrototypes:
    def test_single_shot_identity(self):
        seq = make_seq(np.random.default_rng(0).standard_normal((3, 4)))
        protos = build_prototypes([{"a": seq}])
        assert np.array_equal(protos[0].vectors, seq.vectors)

    def test_mean_of_identical_is_identity(self):
        seq = make_seq(np.random.default_rng(1).standard_normal((3, 4)))
        protos = build_prototypes([{"a": seq, "b": seq}])
        assert np.allclose(protos[0].vectors, seq.vectors, atol=1e-15)

    def test_elementwise_mean_oracle(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((3, 4))
        v = rng.standard_normal((3, 4))
        protos = build_prototypes([{"u": make_seq(u), "v": make_seq(v)}])
        assert np.allclose(protos[0].vectors, (u + v) / 2, atol=1e-15)

    def test_prototype_derives_its_own_rows(self):
        rng = np.random.default_rng(3)
        u, v = (make_seq(rng.standard_normal((3, 4))) for _ in range(2))
        for support in (u, v):
            support.unit, support.mean
        for proto in build_prototypes([{"u": u}, {"u": u, "v": v}]):
            assert all(proto.unit is not x.unit and proto.mean is not x.mean for x in (u, v))
            assert np.array_equal(proto.unit, make_seq(proto.vectors).unit)
            assert np.array_equal(proto.mean, proto.scaled.mean(axis=0))

    def test_rejects_structure_mismatch(self):
        a = make_seq(np.zeros((2, 2)))
        b = make_seq(np.zeros((3, 2)))
        with pytest.raises(ValueError) as exc:
            build_prototypes([{"x": a, "y": a}, {"a": a, "b": b}])
        assert str(exc.value) == (
            "build_prototypes: structure mismatch within class 1: a (L=2), b (L=3)"
        )


def exact_score(q, s, metric):
    """``q``'s score against ``s`` under ``metric``, solved to the optimum
    for the EMD metrics."""
    return emd_score(q, s) if metric in EMD_METRICS else score_pair(q, s, metric)


def full_argmax(query, prototypes, metric):
    """The prediction from every prototype's exact score, lowest index on ties."""
    return int(np.argmax([exact_score(query, p, metric) for p in prototypes]))


class TestClassifyQuery:
    def test_matching_prototype_wins(self):
        e = np.eye(4)
        protos = [make_seq(e[:1]), make_seq(e[1:2])]
        query = make_seq(e[1:2])
        pred = classify_query(query, protos, "a2")
        logits = [emd_score(query, p) for p in protos]
        assert pred == 1
        assert logits[1] == pytest.approx(1.0, abs=1e-6)

    def test_tie_breaks_to_lowest_index(self):
        proto = make_seq(np.ones((2, 3)))
        query = make_seq(np.ones((2, 3)))
        pred = classify_query(query, [proto, proto, proto], "a2")
        logits = [emd_score(query, p) for p in (proto, proto, proto)]
        assert pred == 0
        assert logits[0] == logits[1] == logits[2]

    def test_argmax_matches_recomputation(self):
        rng = np.random.default_rng(3)
        protos = [make_seq(rng.standard_normal((3, 5))) for _ in range(4)]
        query = make_seq(rng.standard_normal((3, 5)))
        pred = classify_query(query, protos, metric="a2")
        logits = np.array([emd_score(query, p) for p in protos])
        assert pred == int(np.argmax(logits))

    @pytest.mark.parametrize("metric", EMD_METRICS)
    def test_identical_prototypes_tie_to_lowest_index(self, metric):
        rng = np.random.default_rng(4)
        query = make_seq(rng.standard_normal((3, 5)))
        same = make_seq(rng.standard_normal((3, 5)))
        assert classify_query(query, [same, same, same], metric) == 0
        # Two copies of the winner, at indices 1 and 3, among weaker ones.
        winner = make_seq(query.vectors + 0.01 * rng.standard_normal((3, 5)))
        others = [make_seq(rng.standard_normal((3, 5))) for _ in range(3)]
        protos = [others[0], winner, others[1], winner, others[2]]
        assert full_argmax(query, protos, metric) == 1
        assert classify_query(query, protos, metric) == 1

    def test_pruned_prediction_matches_full_argmax(self, small_dataset, monkeypatch):
        # Every query of a seeded evaluation, under every EMD metric:
        # the pruned prediction is the argmax of all exact scores.
        calls = []
        original = episode.classify_query

        def recording(query, prototypes, metric):
            pred = original(query, prototypes, metric)
            calls.append((query, prototypes, metric, pred))
            return pred

        monkeypatch.setattr(episode, "classify_query", recording)
        evaluate(
            small_dataset, 4, 1, 4, episodes=6, seed=5, metrics=list(EMD_METRICS),
            scales=default_scales(seed=5),
        )
        assert len(calls) == 6 * 4 * len(EMD_METRICS)
        for query, prototypes, metric, pred in calls:
            assert pred == full_argmax(query, prototypes, metric)

    @pytest.mark.parametrize("metric", ["pp", "cr"])
    def test_fixed_metrics_score_every_prototype(self, metric, monkeypatch):
        # pp and cr take the argmax of score_pair over every prototype and
        # never reach the transport visit.
        def refuse(query, candidates):
            raise AssertionError("best_alignment called")

        monkeypatch.setattr(alignment, "best_alignment", refuse)
        rng = np.random.default_rng(5)
        query = make_seq(rng.standard_normal((3, 5)))
        protos = [make_seq(rng.standard_normal((3, 5))) for _ in range(4)]
        protos.insert(2, protos[1])
        pred = classify_query(query, protos, metric)
        assert pred == int(np.argmax([score_pair(query, p, metric) for p in protos]))
        assert pred != 2

    @pytest.mark.parametrize("metric", EMD_METRICS)
    def test_single_prototype_needs_no_full_solve(self, metric, monkeypatch):
        def refuse(sim, masses):
            raise AssertionError("solve_emd called")

        monkeypatch.setattr(alignment, "solve_emd", refuse)
        rng = np.random.default_rng(7)
        query = make_seq(rng.standard_normal((4, 5)))
        assert classify_query(query, [make_seq(rng.standard_normal((3, 5)))], metric) == 0

    def test_bound_holds_on_captured_pairs(self, small_dataset, monkeypatch):
        # Every (sim, masses) pair a seeded evaluation bounds, pruned or not.
        pairs = []
        original = alignment._score_upper_bound

        def recording(sim, masses):
            pairs.append((sim, masses))
            return original(sim, masses)

        monkeypatch.setattr(alignment, "_score_upper_bound", recording)
        evaluate(
            small_dataset, 4, 1, 4, episodes=6, seed=5, metrics=list(EMD_METRICS),
            scales=default_scales(seed=5),
        )
        assert len(pairs) == 6 * 4 * 4 * len(EMD_METRICS)
        for sim, masses in pairs:
            assert original(sim, masses) >= alignment.solve_emd(sim, masses).score - BOUND_ROUNDING

    def test_pruning_skips_solves(self, small_dataset, monkeypatch):
        # The bound is not vacuous: a separable set leaves most transports
        # unsolved. Each query solves its first prototype with a finite stop
        # score, and on this set the certificate stops some of those solves.
        solves, stopped = [], []
        original, original_simplex = alignment.solve_emd, alignment._simplex

        def counting(sim, masses):
            solves.append(sim.shape)
            return original(sim, masses)

        def counting_simplex(sim, masses, stop):
            result = original_simplex(sim, masses, stop)
            if np.isfinite(stop):
                stopped.append(result[1] > stop)
            return result

        monkeypatch.setattr(alignment, "solve_emd", counting)
        monkeypatch.setattr(alignment, "_simplex", counting_simplex)
        evaluate(small_dataset, 4, 1, 4, episodes=6, seed=5, metrics=["a2"],
                 scales=default_scales(seed=5))
        assert len(stopped) == 6 * 4
        assert 6 * 4 <= len(solves) + len(stopped)
        assert len(solves) < 6 * 4 * 4
        assert any(stopped)


class TestNonFiniteDescriptors:
    """A NaN or an infinity in a descriptor would score silently: pp and cr
    return nan, and ``classify_query`` predicts class 0."""

    @pytest.mark.parametrize("metric", ["a2", "pp", "cr"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refused_at_construction(self, small_dataset, metric, bad):
        clip = synthgen.load_clip(small_dataset.resolve(small_dataset.entries[0]))
        frames = descriptor.multi_scale_frames(clip, default_scales(seed=0))
        seq = getattr(descriptor, episode._METRIC_TABLE[metric][0])(frames)
        assert np.isfinite(exact_score(seq, seq, metric))
        vectors = seq.vectors.copy()
        vectors[len(seq) // 2, 1] = bad
        with pytest.raises(ValueError, match="^DescriptorSequence: non-finite entries$"):
            DescriptorSequence(vectors, seq.scale_ids, seq.times)

    def test_extraction_error_names_the_clip(self, small_dataset, monkeypatch):
        monkeypatch.setattr(
            descriptor, "vectorize_spd", lambda a: np.full(len(a) * (len(a) + 1) // 2, np.nan)
        )
        with pytest.raises(ValueError) as exc:
            evaluate(small_dataset, 3, 1, 3, episodes=1, seed=0, metrics=["a2"],
                     scales=default_scales(seed=0))
        path, _, message = str(exc.value).partition(": ")
        assert path in {str(small_dataset.resolve(e)) for e in small_dataset.entries}
        assert message == "DescriptorSequence: non-finite entries"


class TestEvaluate:
    def test_separable_dataset_perfect_accuracy(self, small_dataset):
        report = evaluate(
            small_dataset, 4, 1, 4, episodes=5, seed=0, metrics=["cov-mn-a2"],
            scales=default_scales(seed=0),
        )
        r = report.results[0]
        assert r.mean_accuracy == 1.0
        assert r.ci95 == 0.0

    def test_chance_level_on_shuffled_labels(self, small_dataset, tmp_path):
        # Relabel clips uniformly at random: accuracy must sit near 1/n.
        rng = np.random.default_rng(0)
        labels = sorted({e.label for e in small_dataset.entries})
        entries = tuple(
            ManifestEntry(e.clip_id, labels[int(rng.integers(len(labels)))], e.path)
            for e in small_dataset.entries
        )
        shuffled = Manifest(entries, root=small_dataset.root)
        report = evaluate(
            shuffled, 2, 1, 4, episodes=60, seed=1, metrics=["gap-a2"], scales=default_scales(seed=1)
        )
        r = report.results[0]
        assert abs(r.mean_accuracy - 0.5) <= max(3 * r.ci95 / 1.96, 0.15)

    def test_deterministic_report(self, small_dataset):
        scales = default_scales(seed=3)
        a = evaluate(small_dataset, 4, 1, 4, episodes=6, seed=3, metrics=["a2"], scales=scales)
        b = evaluate(small_dataset, 4, 1, 4, episodes=6, seed=3, metrics=["a2"], scales=scales)
        assert a.results[0].mean_accuracy == b.results[0].mean_accuracy
        assert a.results[0].ci95 == b.results[0].ci95
        assert np.array_equal(
            a.results[0].episode_accuracies, b.results[0].episode_accuracies
        )

    def test_worker_count_does_not_change_results(self, small_dataset):
        kwargs = dict(episodes=6, seed=3, metrics=["a2", "pp"], scales=default_scales(seed=3))
        serial = evaluate(small_dataset, 4, 1, 4, **kwargs)
        threaded = evaluate(small_dataset, 4, 1, 4, **kwargs, workers=4)
        for rs, rt in zip(serial.results, threaded.results):
            assert rs.mean_accuracy == rt.mean_accuracy
            assert rs.ci95 == rt.ci95
            assert np.array_equal(rs.episode_accuracies, rt.episode_accuracies)

    def test_ci_half_width_formula(self, small_dataset):
        report = evaluate(
            small_dataset, 4, 1, 4, episodes=8, seed=5, metrics=["gap-a2"],
            scales=default_scales(seed=5),
        )
        r = report.results[0]
        accs = r.episode_accuracies
        expect = 1.96 * np.std(accs, ddof=1) / np.sqrt(len(accs))
        assert abs(r.ci95 - expect) <= 1e-12

    def test_multiple_metrics_one_result_each(self, small_dataset):
        report = evaluate(
            small_dataset, 4, 1, 4, episodes=3, seed=0, metrics=["a2", "pp", "cr"],
            scales=default_scales(seed=0),
        )
        assert [r.metric for r in report.results] == ["a2", "pp", "cr"]

    def test_unknown_metric_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="unknown metric"):
            evaluate(
                small_dataset, 4, 1, 4, episodes=2, seed=0, metrics=["bogus"],
                scales=default_scales(seed=0),
            )

    def test_empty_metric_list_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="^evaluate: metrics must be >= 1, got 0$"):
            evaluate(small_dataset, 4, 1, 4, episodes=2, seed=0, metrics=[], scales=[])

    def test_repeated_metric_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="^evaluate: metric 'a2' given twice$"):
            evaluate(
                small_dataset, 4, 1, 4, episodes=2, seed=0, metrics=["a2", "pp", "a2"],
                scales=default_scales(seed=0),
            )

    @pytest.mark.parametrize(
        "kwarg, value, name",
        [
            ("n", 0, "ways"),
            ("k", 0, "shots"),
            ("z", 0, "queries"),
            ("episodes", 0, "episodes"),
            ("episodes", -1, "episodes"),
            ("workers", 0, "workers"),
        ],
    )
    def test_rejects_sizes_below_one(self, small_dataset, kwarg, value, name):
        args = dict(
            n=3, k=1, z=3, episodes=2, seed=0, metrics=["gap-a2"], scales=default_scales(seed=0)
        )
        args[kwarg] = value
        with pytest.raises(ValueError, match=f"evaluate: {name} must be >= 1, got {value}"):
            evaluate(small_dataset, **args)

    def test_all_selectors_run(self, small_dataset):
        report = evaluate(
            small_dataset, 3, 1, 3, episodes=2, seed=0, metrics=list(METRICS),
            scales=default_scales(seed=0),
        )
        assert len(report.results) == len(METRICS)

    def test_each_clip_loaded_once(self, small_dataset, monkeypatch, tmp_path):
        # Loads are logged one line each to an O_APPEND file, so those made
        # in forked workers count as well as the parent's.
        log = tmp_path / "loads.log"
        used = set()
        load_clip = synthgen.load_clip
        sample = episode.sample_episode

        def counting_load(path):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{path}\n".encode())
            finally:
                os.close(fd)
            return load_clip(path)

        def recording_sample(*args):
            ep = sample(*args)
            used.update(small_dataset.resolve(e) for e, _ in ep.support + ep.query)
            return ep

        monkeypatch.setattr(synthgen, "load_clip", counting_load)
        monkeypatch.setattr(episode, "sample_episode", recording_sample)
        set_cpus(monkeypatch, 4)
        reports = []
        for workers in (1, 4):
            log.write_text("")
            reports.append(
                evaluate(
                    small_dataset, 3, 1, 3, episodes=4, seed=2, metrics=list(METRICS),
                    scales=default_scales(seed=2), workers=workers,
                )
            )
            loads = Counter(log.read_text().splitlines())
            assert loads == Counter(dict.fromkeys(map(str, used), 1))
        serial, threaded = reports
        for rs, rt in zip(serial.results, threaded.results, strict=True):
            assert rs.metric == rt.metric
            assert rs.mean_accuracy == rt.mean_accuracy
            assert rs.ci95 == rt.ci95
            assert np.array_equal(rs.episode_accuracies, rt.episode_accuracies)


@pytest.fixture
def deadline():
    """Fails a test that runs past a minute instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError("test ran past its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def set_cpus(monkeypatch, cpus):
    """Make ``_share_count`` see ``cpus`` usable CPUs on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkMap:
    """``evaluate``'s worker processes. The affinity mask reads 4 CPUs, so
    up to 4 shares fork on any machine."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        set_cpus(monkeypatch, 4)

    def test_items_run_in_their_shares_and_return_in_order(self, deadline):
        out = episode._fork_map(lambda i: (i, os.getpid()), list(range(10)), workers=3)
        assert [i for i, _ in out] == list(range(10))
        pids = [pid for _, pid in out]
        assert pids == [pids[i % 3] for i in range(10)]
        assert pids[0] == os.getpid()
        assert len(set(pids)) == 3
        assert_no_children()

    @pytest.mark.parametrize(
        "workers, items, cpus, shares",
        [
            (1, 10, 4, 1),
            (4, 10, 4, 4),
            (1000, 10, 4, 4),
            (1000, 3, 64, 3),
            (64, 10_000, 2, 2),
            (4, 0, 4, 1),
        ],
    )
    def test_share_count(self, monkeypatch, workers, items, cpus, shares):
        set_cpus(monkeypatch, cpus)
        assert episode._share_count(workers, items) == shares

    def test_share_count_reads_the_affinity_mask(self, monkeypatch):
        set_cpus(monkeypatch, 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert episode._share_count(4, 10) == 1

    @pytest.mark.parametrize("cpus, shares", [(3, 3), (None, 1)])
    def test_share_count_without_affinity_reads_cpu_count(self, monkeypatch, cpus, shares):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert episode._share_count(4, 10) == shares

    def test_without_fork_every_share_runs_here(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert episode._share_count(4, 10) == 1
        assert episode._fork_map(lambda i: os.getpid(), [0, 1, 2], 4) == [os.getpid()] * 3

    @pytest.mark.parametrize("failing, first", [((3,), 3), ((3, 4), 3), ((4, 7), 4)])
    def test_first_failure_in_item_order(self, failing, first, deadline):
        def fn(i):
            if i in failing:
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match=f"^item {first}$"):
            episode._fork_map(fn, list(range(10)), workers=2)
        assert_no_children()

    def test_unpicklable_failure_is_named(self, deadline):
        def fn(i):
            if i == 1:
                raise ValueError(lambda: i)
            return i

        with pytest.raises(RuntimeError, match="unpicklable worker result"):
            episode._fork_map(fn, [0, 1], workers=2)
        assert_no_children()

    def test_extraction_error_line_matches_serial(self, small_dataset, tmp_path, capsys, deadline):
        root = tmp_path / "data"
        shutil.copytree(small_dataset.root, root)
        # 6 ways x (1 shot + 2 queries) draws all 18 clips, so the sorted
        # clip ids are the extraction items. Item 1 (share 1) fails, and so
        # does item 2, later in item order, in share 0 or 2.
        entries = sorted(small_dataset.entries, key=lambda e: e.clip_id)
        for entry in entries[1:3]:
            (root / entry.path).write_bytes(b"FSQ")
        errors = []
        for workers in ("1", "2", "4"):
            code = cli.main(
                [
                    "eval", "--manifest", str(root / "manifest.tsv"), "--ways", "6",
                    "--shots", "1", "--queries", "12", "--episodes", "1", "--metric", "gap-a2",
                    "--workers", workers,
                ]
            )
            assert code == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == errors[2]
        assert len(errors[0].splitlines()) == 1
        assert errors[0].startswith(f"error: {root / entries[1].path}: ")
        assert_no_children()

    def test_each_share_scores_every_metric(self, small_dataset, monkeypatch, tmp_path, deadline):
        # Scores are logged one line each to an O_APPEND file, so those made
        # in forked workers count as well as the parent's.
        log = tmp_path / "scores.log"
        episode_accuracy = episode._episode_accuracy

        def logging_accuracy(ep, descriptors, metric):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{metric} {os.getpid()}\n".encode())
            finally:
                os.close(fd)
            return episode_accuracy(ep, descriptors, metric)

        monkeypatch.setattr(episode, "_episode_accuracy", logging_accuracy)
        metrics = ["gap-a2", "pp"]
        evaluate(
            small_dataset, 3, 1, 3, episodes=4, seed=0, metrics=metrics,
            scales=default_scales(seed=0), workers=2,
        )
        scored = Counter(tuple(line.split()) for line in log.read_text().splitlines())
        assert len(scored) == 4
        assert sorted(scored.values()) == [2, 2, 2, 2]
        assert {m for m, _ in scored} == set(metrics)
        assert_no_children()

    def test_dead_worker_raises(self, small_dataset, monkeypatch, deadline):
        parent = os.getpid()
        gap_descriptor = descriptor.gap_descriptor

        def dying(clip):
            if os.getpid() != parent:
                os._exit(3)
            return gap_descriptor(clip)

        monkeypatch.setattr(descriptor, "gap_descriptor", dying)
        dead = r"^evaluate: worker 1 \(pid \d+\) ended without a full result"
        with pytest.raises(RuntimeError, match=dead):
            evaluate(
                small_dataset, 3, 1, 3, episodes=2, seed=0, metrics=["gap-a2"],
                scales=default_scales(seed=0), workers=2,
            )
        assert_no_children()

    def test_interrupt_kills_workers(self, small_dataset, monkeypatch, deadline):
        parent = os.getpid()

        def stalled(clip):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(descriptor, "gap_descriptor", stalled)
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            evaluate(
                small_dataset, 3, 1, 3, episodes=2, seed=0, metrics=["gap-a2"],
                scales=default_scales(seed=0), workers=4,
            )
        assert time.perf_counter() - started < 30
        assert_no_children()


def count_scale_frames(monkeypatch) -> list:
    """Record every ``scale_frames`` call as its (pixel-major clip, cfg)
    pair. The list keeps the objects alive, so their ids stay distinct."""
    calls = []
    scale_frames = descriptor.scale_frames

    def counting_frames(x, cfg):
        calls.append((x, cfg))
        return scale_frames(x, cfg)

    monkeypatch.setattr(descriptor, "scale_frames", counting_frames)
    return calls


def frame_pairs(calls) -> Counter:
    return Counter((id(x), id(cfg)) for x, cfg in calls)


class TestSharedDeformablePass:
    """Every multi-scale representation reduces one ``scale_frames`` pass."""

    @pytest.mark.parametrize(
        "metrics", [["a2", "ms-a2"], ["a2"], ["ms-a2"], list(METRICS)]
    )
    def test_scale_frames_once_per_clip_and_scale(self, small_dataset, monkeypatch, metrics):
        scales = descriptor.default_scales(seed=0)
        loaded = []
        extracted = Counter()
        load_clip = synthgen.load_clip

        def recording_load(path):
            clip = load_clip(path)
            loaded.append(clip)
            return clip

        def counting(rep, extract):
            def run(source):
                extracted[rep] += 1
                return extract(source)

            return run

        monkeypatch.setattr(synthgen, "load_clip", recording_load)
        calls = count_scale_frames(monkeypatch)
        reps = {episode._METRIC_TABLE[m][0] for m in metrics}
        for rep in reps:
            monkeypatch.setattr(descriptor, rep, counting(rep, getattr(descriptor, rep)))
        evaluate(small_dataset, 3, 1, 3, episodes=2, seed=1, metrics=metrics, scales=scales)
        assert loaded
        assert extracted == Counter(dict.fromkeys(reps, len(loaded)))
        # Each loaded clip is laid out once, and every scale reads that layout.
        layouts = {id(x): x for x, _ in calls}
        assert len(layouts) == len(loaded)
        for x in layouts.values():
            assert any(np.array_equal(x, clip.data.transpose(0, 2, 3, 1)) for clip in loaded)
        expected = Counter({(i, id(cfg)): 1 for i in layouts for cfg in scales})
        assert frame_pairs(calls) == expected

    def test_align_scale_frames_once_per_clip_and_scale(
        self, small_dataset, monkeypatch, capsys
    ):
        clip_a, clip_b = (str(small_dataset.resolve(e)) for e in small_dataset.entries[:2])
        calls = count_scale_frames(monkeypatch)
        assert cli.main(["align", clip_a, clip_b]) == 0
        assert "descriptors\tL=18\t" in capsys.readouterr().out
        # Two clips times three scales, each pair once.
        assert len({id(x) for x, _ in calls}) == 2
        assert len({id(cfg) for _, cfg in calls}) == 3
        assert len(frame_pairs(calls)) == len(calls) == 6

    def test_same_accuracies_as_separate_runs(self, small_dataset):
        kwargs = dict(episodes=3, seed=4, scales=default_scales(seed=4))
        both = evaluate(small_dataset, 3, 1, 3, metrics=["a2", "ms-a2"], **kwargs)
        for r in both.results:
            alone = evaluate(small_dataset, 3, 1, 3, metrics=[r.metric], **kwargs).results[0]
            assert np.array_equal(r.episode_accuracies, alone.episode_accuracies)
            assert (r.mean_accuracy, r.ci95) == (alone.mean_accuracy, alone.ci95)

    @pytest.mark.parametrize(
        "metrics, what",
        [
            (["a2", "ms-a2"], "multi_scale_descriptors"),
            (["ms-a2", "gap-a2"], "multi_scale_first_order"),
        ],
    )
    def test_rejects_mixed_c_out_before_any_frame(
        self, small_dataset, monkeypatch, metrics, what
    ):
        # ``what`` is the multi-scale representation asked for: it never
        # runs, because multi_scale_frames rejects the scales first.
        scales = [
            descriptor.ScaleConfig.from_seed(1, 1, c_out=16),
            descriptor.ScaleConfig.from_seed(3, 3, c_out=8),
        ]
        ran = []
        monkeypatch.setattr(
            descriptor, "scale_frames", lambda x, cfg: ran.append(cfg) or []
        )
        monkeypatch.setattr(descriptor, what, lambda frames: ran.append(what))
        with pytest.raises(ValueError) as exc:
            evaluate(small_dataset, 3, 1, 3, episodes=1, seed=0, metrics=metrics, scales=scales)
        path, _, message = str(exc.value).partition(": ")
        assert path in {str(small_dataset.resolve(e)) for e in small_dataset.entries}
        assert message == "multi_scale_frames: all scales must share c_out"
        assert ran == []
