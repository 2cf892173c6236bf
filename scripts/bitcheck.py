"""Check that the working tree keeps the bits of a parent revision.

    python3 scripts/bitcheck.py --parent REV

REV is extracted with ``git archive`` into a temporary directory. Each tree,
REV's and then this checkout's working tree, runs in one fresh Python
process with BLAS at one thread, and reports:

- sha256 digests of the raw bytes of ``multi_scale_frames`` and of all four
  representations, on seeded random clips: T = 5, 8 and 28 at desk widths
  and T = 5 and 8 at C_in = 2048 (paper widths), scale seeds 0 and 1, each
  at zero offsets and at fractional ones through a nonzero offset head;
- sha256 digests of ``similarity_matrix``, of ``marginal_masses`` (``mu``
  and ``gamma``) and of the ``solve_emd`` result (plan, objective, score and
  pivots), on seeded pairs of each
  representation: one of equal lengths, one of mixed lengths (T = 8 against
  T = 10) and one with the query scaled by 2^-40. The stdout checks print 6
  to 9 decimals; these see every bit of the pair layer;
- the digest of each dataset in ``DATASETS`` that ``synth`` writes: the
  default and the paper-dims ones, ``eval-long``'s T = 28 one, an odd
  schedule (3 subactions over 7 frames, jitter 3, every instance swapped)
  and one with fewer frames than subactions (4 over 3);
- the stdout of the 200-episode six-metric ``eval`` at ``--workers 1`` and
  ``2``, of ``ablate``, of ``align`` and of ``align --paper-dims``. Both trees
  run these on the datasets REV wrote.

Every check that differs is named, with a diff of the stdout checks. Exit
status: 0 when every check matches, 1 when any moved, 2 when a tree fails
to run. Everything is written to a temporary directory, and nothing into the
checkout. Bits depend on the numpy and BLAS builds, so the two trees are
compared on one machine; this is not a CI check.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set in every tree's process: one BLAS thread, and no bytecode written
#: beside the sources.
ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}

#: Descriptor inputs: (frames, input channels, clips). C_in = 2048 runs at the
#: paper widths, the others at the desk widths.
CLIPS = ((5, 64, 3), (8, 64, 3), (28, 64, 2), (5, 2048, 1), (8, 2048, 1))
SCALE_SEEDS = (0, 1)
SIX_METRICS = "a2,pp,cr,gap-a2,cov-mn-a2,ms-a2"

#: Pair-layer inputs: (query clip, candidate clip, binary exponent of the
#: query's scale) over ``PAIR_FRAMES`` clips; clip 2 is the longer one.
PAIR_FRAMES = (8, 8, 10)
PAIRS = ((0, 1, 0), (0, 2, 0), (1, 0, -40))
REPRESENTATIONS = (
    "multi_scale_descriptors", "multi_scale_first_order", "cov_mn_descriptors", "gap_descriptor",
)
PAIR_OUTPUTS = ("similarity_matrix", "marginal_masses", "solve_emd")

#: ``synth`` datasets: name -> (config lines, extra arguments).
DATASETS = {
    "desk": ("", []),
    "paper": ("classes = 2\ninstances_per_class = 2\n", ["--paper-dims"]),
    "long": ("frames = 28\n", []),
    "odd": ("classes = 4\nsubactions = 3\nframes = 7\njitter = 3.0\nreorder = 1.0\n", []),
    "short": ("subactions = 4\nframes = 3\n", []),
}


def _offset_head(cfg, rng):
    """``cfg`` with a nonzero final offset layer and bias, so that its
    deformable conv samples fractional positions."""
    return replace(
        cfg,
        offset_w2=rng.uniform(-0.5, 0.5, cfg.offset_w2.shape),
        offset_b2=rng.uniform(-1.5, 1.5, cfg.offset_b2.shape),
    )


def descriptor_digests() -> dict[str, str]:
    """sha256 of the raw bytes of frames and representations, one digest per
    (clip shape, offsets, function) over that shape's clips and scale seeds."""
    import numpy as np

    from momalign import descriptor

    def sequence_bytes(seq) -> bytes:
        return seq.vectors.tobytes() + seq.scale_ids.tobytes() + seq.times.tobytes()

    out = {}
    for frames, c_in, count in CLIPS:
        if c_in == descriptor.PAPER_C_IN:
            widths = (descriptor.PAPER_C_IN, descriptor.PAPER_C_PRIME, descriptor.PAPER_C_OUT)
        else:
            widths = (c_in, descriptor.DESK_C_PRIME, descriptor.DESK_C_OUT)
        rng = np.random.default_rng([frames, c_in])
        clips = [
            descriptor.FeatureClip(rng.standard_normal((frames, c_in, 6, 6))) for _ in range(count)
        ]
        digests = {}

        def add(name: str, data: bytes) -> None:
            digests.setdefault(f"T={frames} C_in={c_in} {name}", hashlib.sha256()).update(data)

        for clip in clips:
            add("cov_mn_descriptors", sequence_bytes(descriptor.cov_mn_descriptors(clip)))
            add("gap_descriptor", sequence_bytes(descriptor.gap_descriptor(clip)))
            for seed in SCALE_SEEDS:
                zero = descriptor.default_scales(*widths, seed=seed)
                head_rng = np.random.default_rng([seed, frames, c_in])
                fractional = [_offset_head(cfg, head_rng) for cfg in zero]
                for offsets, scales in (("zero", zero), ("fractional", fractional)):
                    per_scale = descriptor.multi_scale_frames(clip, scales)
                    add(f"{offsets} multi_scale_frames", b"".join(f.tobytes() for f in per_scale))
                    for rep in ("multi_scale_descriptors", "multi_scale_first_order"):
                        seq = getattr(descriptor, rep)(per_scale)
                        add(f"{offsets} {rep}", sequence_bytes(seq))
        out.update({name: h.hexdigest() for name, h in digests.items()})
    return out


def pair_digests() -> dict[str, str]:
    """sha256 of the raw bytes of the pair layer's outputs, one digest per
    (representation, output) over ``PAIRS``, at desk widths and scale seed 0."""
    import numpy as np

    from momalign import alignment, descriptor

    rng = np.random.default_rng(list(PAIR_FRAMES))
    clips = [
        descriptor.FeatureClip(rng.standard_normal((frames, descriptor.DESK_C_IN, 6, 6)))
        for frames in PAIR_FRAMES
    ]
    scales = descriptor.default_scales(
        descriptor.DESK_C_IN, descriptor.DESK_C_PRIME, descriptor.DESK_C_OUT, seed=0
    )
    frames = [descriptor.multi_scale_frames(clip, scales) for clip in clips]
    digests = {}
    for rep in REPRESENTATIONS:
        source = frames if rep.startswith("multi_scale") else clips
        seqs = [getattr(descriptor, rep)(x) for x in source]
        outputs = {name: hashlib.sha256() for name in PAIR_OUTPUTS}
        for qi, si, exponent in PAIRS:
            q, s = seqs[qi], seqs[si]
            q = descriptor.DescriptorSequence(np.ldexp(q.vectors, exponent), q.scale_ids, q.times)
            sim = alignment.similarity_matrix(q, s)
            masses = alignment.marginal_masses(q, s)
            outputs["similarity_matrix"].update(sim.tobytes())
            outputs["marginal_masses"].update(masses.mu.tobytes() + masses.gamma.tobytes())
            plan = alignment.solve_emd(sim, masses)
            outputs["solve_emd"].update(
                plan.values.tobytes()
                + np.array([plan.objective, plan.score]).tobytes()
                + np.int64(plan.pivots).tobytes()
            )
        digests.update({f"pair {rep} {name}": h.hexdigest() for name, h in outputs.items()})
    return digests


def _tree_digest(path: Path) -> str:
    """sha256 over every file under ``path``: relative name and bytes."""
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(file.relative_to(path)).encode() + b"\0" + file.read_bytes())
    return h.hexdigest()


def _cli_stdout(argv: list[str]) -> str:
    """One in-process CLI call: its stdout and exit status."""
    from momalign import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return f"{out.getvalue()}exit {code}\n"


def run_tree(synth_dir: str, data_dir: str) -> dict[str, str]:
    """Every check of the tree whose ``momalign`` is imported: datasets
    synthesized into ``synth_dir``, commands run on those in ``data_dir``."""
    checks = {}
    for name, (config, extra) in DATASETS.items():
        cfg = Path(synth_dir) / f"{name}.cfg"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(config, encoding="utf-8")
        out = Path(synth_dir) / name
        _cli_stdout(["synth", "--seed", "0", "--config", str(cfg), "--out", str(out), *extra])
        checks[f"synth {name} dataset"] = _tree_digest(out)
    checks.update(descriptor_digests())
    checks.update(pair_digests())
    desk, paper = Path(data_dir) / "desk", Path(data_dir) / "paper"
    manifest = str(desk / "manifest.tsv")
    commands = {
        "eval 200 episodes, six metrics, --workers 1": [
            "eval", "--manifest", manifest, "--metric", SIX_METRICS, "--episodes", "200",
            "--seed", "0", "--workers", "1",
        ],
        "eval 200 episodes, six metrics, --workers 2": [
            "eval", "--manifest", manifest, "--metric", SIX_METRICS, "--episodes", "200",
            "--seed", "0", "--workers", "2",
        ],
        "ablate 200 episodes": ["ablate", "--manifest", manifest, "--episodes", "200", "--seed", "0"],
        "align": [
            "align", "--seed", "0",
            str(desk / "clips" / "c000_i000.fsq"), str(desk / "clips" / "c001_i000.fsq"),
        ],
        "align --paper-dims": [
            "align", "--paper-dims", "--seed", "0",
            str(paper / "clips" / "c000_i000.fsq"), str(paper / "clips" / "c001_i000.fsq"),
        ],
    }
    for name, argv in commands.items():
        checks[name] = _cli_stdout(argv)
    return checks


def child_main(src: str, synth_dir: str, data_dir: str) -> None:
    """Entry point of a tree's process: checks that ``momalign`` comes from
    ``src``, then prints ``run_tree``'s checks as one JSON object."""
    import momalign

    if Path(momalign.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"bitcheck: imported momalign from {momalign.__file__}, not {src}")
    json.dump(run_tree(synth_dir, data_dir), sys.stdout)


def run_in_fresh_process(tree: Path, synth_dir: Path, data_dir: Path, cwd: Path) -> dict[str, str]:
    """``run_tree``'s checks of ``tree``'s sources, from a new interpreter
    that imports ``momalign`` from ``tree/src`` and this file as ``bitcheck``."""
    src = tree / "src"
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import bitcheck; "
        "bitcheck.child_main(*sys.argv[2:5])"
    )
    argv = [sys.executable, "-c", code, str(HERE), str(src), str(synth_dir), str(data_dir)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | ENV
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        print(done.stderr[-4000:], file=sys.stderr)
        raise RuntimeError(f"the tree at {tree} exited with status {done.returncode}")
    return json.loads(done.stdout)


def extract(rev: str, dest: Path) -> str:
    """Write REV's files into ``dest``; returns REV's full commit id."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"git archive {commit} could not be extracted")
    return commit


def compare(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """Names of the checks that differ or exist on one side only; prints one
    line per check and a diff of each stdout that moved."""
    moved = []
    for name in sorted(parent.keys() | change.keys()):
        before, after = parent.get(name), change.get(name)
        same = before == after
        print(f"{'same ' if same else 'MOVED'} {name}")
        if same:
            continue
        moved.append(name)
        if before is not None and after is not None and "\n" in before + after:
            diff = difflib.unified_diff(
                before.splitlines(), after.splitlines(), "parent", "change", lineterm="", n=1
            )
            for line in list(diff)[:40]:
                print(f"    {line}")
    return moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bitcheck-") as tmp:
        tmp = Path(tmp)
        try:
            commit = extract(args.parent, tmp / "parent")
            data = tmp / "parent-synth"
            parent = run_in_fresh_process(tmp / "parent", data, data, tmp)
            change = run_in_fresh_process(ROOT, tmp / "change-synth", data, tmp)
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"bitcheck: {exc}", file=sys.stderr)
            return 2
    moved = compare(parent, change)
    total = len(parent.keys() | change.keys())
    print(
        f"bitcheck: {total} checks, {total - len(moved)} same, {len(moved)} moved "
        f"(parent {commit[:12]} against the working tree)"
    )
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
