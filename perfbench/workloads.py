"""The benchmark's workloads: the dataset each one generates from the seed
and the CLI calls it repeats in a closed loop with one caller."""

from __future__ import annotations

from dataclasses import dataclass

ALL_METRICS = "a2,pp,cr,gap-a2,cov-mn-a2,ms-a2"
WAYS, SHOTS = 5, 1


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``key = value`` lines of the config file given to ``synth``.
    config: str
    paper_dims: bool
    #: Episodes per ``eval`` call, 0 for ``align`` calls.
    episodes: int = 0
    metrics: str = ""
    workers: int = 1
    #: Query clips per episode, spread over the ``WAYS`` classes.
    queries: int = 5
    #: ``eval`` calls a run cycles through: call ``j`` samples its episodes
    #: with ``--seed seed * samplers + j``, so a run averages over inputs.
    samplers: int = 1
    #: Clip pairs aligned in turn by ``align`` calls, as manifest indices.
    pairs: tuple[tuple[int, int], ...] = ()

    def synth_argv(self, seed: int, out: str) -> list[str]:
        argv = ["synth", "--seed", str(seed), "--config", f"{out}.cfg", "--out", out]
        return argv + (["--paper-dims"] if self.paper_dims else [])

    def calls(self, seed: int, out: str, clips: list[str], workers: int | None = None) -> list[list[str]]:
        """The distinct argument lists one run cycles through."""
        if self.episodes:
            return [
                [
                    "eval", "--manifest", f"{out}/manifest.tsv", "--seed", str(seed * self.samplers + j),
                    "--episodes", str(self.episodes), "--metric", self.metrics,
                    "--ways", str(WAYS), "--shots", str(SHOTS), "--queries", str(self.queries),
                    "--workers", str(workers or self.workers),
                ]
                for j in range(self.samplers)
            ]
        dims = ["--paper-dims"] if self.paper_dims else []
        return [
            ["align", *dims, "--config", f"{out}.cfg", "--seed", str(seed), clips[a], clips[b]]
            for a, b in self.pairs
        ]

    @property
    def items_per_call(self) -> int:
        """Work items one call completes: episodes, or one alignment."""
        return self.episodes or 1

    @property
    def lookups_per_call(self) -> int:
        """Descriptor lookups of one call: every support and query clip, for
        every episode and metric (what an evaluator without a cache extracts)."""
        return self.episodes * len(self.metrics.split(",")) * (WAYS * SHOTS + self.queries)


WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP acceptance workload at 1 episode per call: 8 classes x 12
        # clips, T=8, so L=18 for m2/ms1 and L=8 for gap/cov-mn.
        Workload(
            "eval-grid", config="", paper_dims=False, episodes=1, metrics=ALL_METRICS, workers=2,
            samplers=4,
        ),
        # T=28 gives L = 28 + 26 + 24 = 78; solve_emd is the largest layer.
        # One query (5 solves) keeps a call near 2 s, so a run holds enough
        # calls for a steady median.
        Workload(
            "eval-long", config="frames = 28\n", paper_dims=False, episodes=1, metrics="a2", queries=1,
            samplers=4,
        ),
        # 2048-channel clips (C=128 moments); one L=18 solve per call.
        Workload(
            "align-paper", config="classes = 2\ninstances_per_class = 2\n", paper_dims=True,
            pairs=((0, 2), (1, 3), (2, 1), (3, 0)),
        ),
    )
}

#: Run once after a traced run, so that every per-layer metric a workload
#: does not exercise is still measured: a one-episode eval with all six
#: metrics (L=8/18, C=16/64, episode layer) and an align of two T=28 clips
#: at C_out=128 (L=78, C=128).
PROBES = (
    Workload(
        "probe-eval", config="classes = 5\ninstances_per_class = 2\n", paper_dims=False,
        episodes=1, metrics=ALL_METRICS,
    ),
    Workload(
        "probe-align", config="classes = 1\ninstances_per_class = 2\nframes = 28\nc_out = 128\n",
        paper_dims=False, pairs=((0, 1),),
    ),
)
