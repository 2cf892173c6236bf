"""Batch command-line front end: synth / align / eval / ablate.

Reports are plain text plus line-delimited ``RECORD`` lines for machine
consumption; all randomness flows from the configured seed, and timing goes
to stderr so report bytes are reproducible.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import alignment, descriptor, episode, seqio, synthgen
from .descriptor import DESK_C_OUT, DESK_C_PRIME, PAPER_C_IN, PAPER_C_OUT, PAPER_C_PRIME


@dataclass(frozen=True)
class RunConfig(synthgen.SynthConfig):
    """The settings of one run: the inherited generator settings (``c_in``
    and ``seed`` among them) plus the run's own; the field names are the
    config-file keys."""

    # scales
    taus: tuple[int, ...] = descriptor.DEFAULT_TAUS
    grids: tuple[int, ...] = descriptor.DEFAULT_GRIDS
    # channels
    c_prime: int = DESK_C_PRIME
    c_out: int = DESK_C_OUT
    # episodes
    ways: int = 5
    shots: int = 1
    queries: int = 5
    episodes: int = 200
    metrics: tuple[str, ...] = ("a2",)
    workers: int = 1
    # align report
    top_pairs: int = 3

    def scale_configs(self):
        """The seeded scales; a refused allocation names the channel widths."""
        try:
            return descriptor.default_scales(
                self.c_in, self.c_prime, self.c_out, self.taus, self.grids, seed=self.seed
            )
        except MemoryError as exc:
            widths = f"c_in={self.c_in} c_prime={self.c_prime} c_out={self.c_out}"
            raise MemoryError(f"scale weights ({widths}): {exc}") from None


def load_config(path: str | Path) -> dict:
    """Flat key=value config file, read by :func:`seqio.text_lines`; each
    key may appear once."""
    out: dict = {}
    for lineno, line in seqio.text_lines(path, "config", ValueError):
        key, sep, value = (p.strip() for p in line.partition("="))
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key '{key}'")
        out[key] = value
    return out


def _coerce(cfg: RunConfig, overrides: dict) -> RunConfig:
    """``cfg`` with each non-None override parsed by the type of its field's
    default; a tuple is comma-separated, each stripped item of its first
    item's type."""
    kwargs = {}
    defaults = {f.name: f.default for f in fields(RunConfig)}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in defaults:
            raise ValueError(f"unknown config key '{key}'")
        default = defaults[key]
        try:
            if isinstance(default, tuple):
                kwargs[key] = tuple(type(default[0])(v.strip()) for v in value.split(","))
            else:
                kwargs[key] = type(default)(value)
            if key in ("seed", "top_pairs") and kwargs[key] < 0:
                raise ValueError(f"must be >= 0, got {kwargs[key]}")
        except ValueError as exc:
            raise ValueError(f"key '{key}': {exc}") from None
    return replace(cfg, **kwargs)


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the ``--paper-dims`` channel widths, then the
    ``--config`` file, then flags named like a field."""
    cfg = RunConfig()
    if args.paper_dims:
        cfg = RunConfig(c_in=PAPER_C_IN, c_prime=PAPER_C_PRIME, c_out=PAPER_C_OUT)
    if args.config:
        overrides = load_config(args.config)
        try:
            cfg = _coerce(cfg, overrides)
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    return _coerce(cfg, {f.name: getattr(args, f.name, None) for f in fields(RunConfig)})


def cmd_synth(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = Path(args.out)
    try:
        manifest = synthgen.generate_dataset(cfg, out)
    except OSError as exc:
        # exc names the deepest path that failed, such as a missing parent.
        raise OSError(exc.errno, f"cannot write dataset: {exc}", str(out)) from None
    print(f"# synth classes={cfg.classes} instances={cfg.instances_per_class} seed={cfg.seed}")
    print(f"manifest\t{out / 'manifest.tsv'}")
    print(f"clips\t{len(manifest.entries)}")
    return 0


def cmd_align(args: argparse.Namespace, cfg: RunConfig) -> int:
    clip_a = synthgen.load_clip(args.clip_a)
    clip_b = synthgen.load_clip(args.clip_b)
    scales = cfg.scale_configs()
    try:
        q = descriptor.multi_scale_descriptors(descriptor.multi_scale_frames(clip_a, scales))
        s = descriptor.multi_scale_descriptors(descriptor.multi_scale_frames(clip_b, scales))
    except ValueError as exc:
        raise ValueError(f"{args.clip_a} / {args.clip_b}: {exc}") from None
    sim = alignment.similarity_matrix(q, s)
    masses = alignment.marginal_masses(q, s)
    plan = alignment.solve_emd(sim, masses)

    print(f"# align {args.clip_a} vs {args.clip_b} seed={cfg.seed}")
    print(f"descriptors\tL={len(q)}\tdim={q.dim}")
    print(f"score\t{plan.score:.9f}")
    print(f"objective\t{plan.objective:.9f}")
    print("mu\t" + " ".join(f"{x:.6f}" for x in masses.mu))
    print("gamma\t" + " ".join(f"{x:.6f}" for x in masses.gamma))
    weighted = sim * plan.values
    order = np.argsort(weighted, axis=None)[::-1][: cfg.top_pairs]
    for rank, flat in enumerate(order, 1):
        l_q, l_s = divmod(int(flat), len(s))
        print(
            f"pair{rank}\tq(scale={q.scale_ids[l_q]},t={q.times[l_q]})"
            f"\ts(scale={s.scale_ids[l_s]},t={s.times[l_s]})"
            f"\tmass={plan.values[l_q, l_s]:.6f}\tsim={sim[l_q, l_s]:.6f}"
        )
    return 0


def _print_report(report: episode.Report) -> None:
    print(
        f"# eval ways={report.ways} shots={report.shots} queries={report.queries} "
        f"episodes={report.episodes} seed={report.seed}"
    )
    print("metric\taccuracy\tci95")
    for r in report.results:
        print(f"{r.metric}\t{r.mean_accuracy:.6f}\t{r.ci95:.6f}")
    for r in report.results:
        print(
            f"RECORD metric={r.metric} accuracy={r.mean_accuracy:.6f} "
            f"ci95={r.ci95:.6f} episodes={report.episodes} ways={report.ways} "
            f"shots={report.shots} queries={report.queries} seed={report.seed}"
        )


def _run_evaluation(args: argparse.Namespace, cfg: RunConfig, print_report) -> int:
    """Read the manifest, evaluate it under ``cfg``, print the report with
    ``print_report`` and the wall-clock time to stderr."""
    manifest = seqio.read_manifest(args.manifest)
    started = time.perf_counter()
    report = episode.evaluate(
        manifest,
        cfg.ways,
        cfg.shots,
        cfg.queries,
        cfg.episodes,
        cfg.seed,
        metrics=list(cfg.metrics),
        scales=cfg.scale_configs(),
        workers=cfg.workers,
    )
    print_report(report)
    print(f"wall-clock {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return 0


def cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> int:
    return _run_evaluation(args, cfg, _print_report)


#: Ablation rows mirroring the component grid: first-order baseline, plain
#: second-order, multi-scale first-order, and the full pathway.
ABLATION_ROWS = (
    ("baseline", "gap-a2"),
    ("cov-mn", "cov-mn-a2"),
    ("multi-scale", "ms-a2"),
    ("full", "a2"),
)


def _print_ablation(report: episode.Report) -> None:
    by_metric = {r.metric: r for r in report.results}
    print(
        f"# ablate ways={report.ways} shots={report.shots} episodes={report.episodes} "
        f"seed={report.seed} shared-episodes=yes"
    )
    print("row\tmetric\taccuracy\tci95")
    for row, metric in ABLATION_ROWS:
        r = by_metric[metric]
        print(f"{row}\t{metric}\t{r.mean_accuracy:.6f}\t{r.ci95:.6f}")
    for row, metric in ABLATION_ROWS:
        r = by_metric[metric]
        print(
            f"RECORD row={row} metric={metric} accuracy={r.mean_accuracy:.6f} "
            f"ci95={r.ci95:.6f} episodes={report.episodes} seed={report.seed}"
        )


def cmd_ablate(args: argparse.Namespace, cfg: RunConfig) -> int:
    # One evaluation with all metrics shares episode seeds across rows.
    cfg = replace(cfg, metrics=tuple(metric for _, metric in ABLATION_ROWS))
    return _run_evaluation(args, cfg, _print_ablation)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momalign",
        description="Multi-scale moment descriptors with adaptive EMD alignment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="master PRNG seed")
        p.add_argument(
            "--paper-dims",
            action="store_true",
            help="start from full-size channels (2048/256/128); --config and flags override them",
        )

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p_synth)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_align = sub.add_parser("align", help="align two stored clips")
    common(p_align)
    p_align.add_argument("clip_a")
    p_align.add_argument("clip_b")
    p_align.set_defaults(func=cmd_align)

    def episodic(p):
        p.add_argument("--manifest", required=True)
        p.add_argument("--episodes", type=int)
        p.add_argument(
            "--workers",
            type=int,
            help="processes that extract and score (at most the CPUs it may use); "
            "the report is the same for any count",
        )
        p.add_argument("--ways", type=int)
        p.add_argument("--shots", type=int)
        p.add_argument("--queries", type=int)

    p_eval = sub.add_parser("eval", help="episodic evaluation over a manifest")
    common(p_eval)
    episodic(p_eval)
    p_eval.add_argument("--metric", dest="metrics", help="comma-separated metric selector")
    p_eval.set_defaults(func=cmd_eval)

    p_abl = sub.add_parser("ablate", help="component-grid comparison table")
    common(p_abl)
    episodic(p_abl)
    p_abl.set_defaults(func=cmd_ablate)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. Every failure is reported here, as one
    ``error: <where>: <what>`` line on stderr and exit status 1; commands
    that know where a failure happened re-raise with that location. An
    allocation the machine refuses reads ``error: out of memory: <what>``."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, build_run_config(args))
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
    except (seqio.SeqIOError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
