"""momalign benchmark: drives the ``momalign`` CLI in-process, one workload
per run, and prints its metrics as one JSON object on the last line.

    python3 perfbench/run.py --workload eval-grid --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from untraced
calls. ``--trace 1`` reports its per-layer metrics from a traced run. The
workload seed makes the dataset and picks the ``--seed`` of every call. Set-up
(dataset generation, manifest read, scale construction) is timed apart from
the calls. Timings are scaled by the reference kernel of ``refkernel.py``,
run before and after each call and set-up. Every call's stdout must repeat
byte for byte across reruns, and at seed 0 must match the digests in
``reference.json``.
"""

import os

# Pin BLAS before numpy is imported: the eval-grid workload runs 2 worker
# threads, so 1 BLAS thread each keeps the run within 2 CPUs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from refkernel import KERNEL_MS, kernel_ms
from workloads import PROBES, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ".perfbench_work"
SETUP_REPEATS = 7
REFERENCE_SEED = 0


class Runner:
    """Invokes the CLI and checks what it prints."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.digests: dict[tuple[str, ...], str] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAIL {what}", file=sys.stderr)

    def invoke(self, argv: list[str]) -> float:
        """Run one CLI call; returns its wall time in seconds."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except (Exception, SystemExit):
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        self.attempted += 1
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        first = self.digests.setdefault(tuple(argv), digest)
        if rc != 0:
            self.fail(f"{' '.join(argv)}: exit {rc}\n{err.getvalue()[-4000:]}")
        elif digest != first:
            self.fail(f"{' '.join(argv)}: stdout differs from an earlier run of the same call")
        return seconds

    def setup(self, w: Workload, seed: int) -> tuple[list[list[str]], float]:
        """Generate the dataset, read the manifest and build the scales, as a
        call does; returns the workload's calls and the set-up time."""
        from momalign import seqio

        out = f"{WORK}/{w.name}"
        Path(f"{out}.cfg").write_text(w.config, encoding="utf-8")
        t0 = time.perf_counter()
        self.invoke(w.synth_argv(seed, out))
        manifest = seqio.read_manifest(f"{out}/manifest.tsv")
        clips = [str(manifest.resolve(e)) for e in manifest.entries]
        calls = w.calls(seed, out, clips)
        for argv in calls[:1]:
            self.cli.build_run_config(self.cli.build_parser().parse_args(argv)).scale_configs()
        return calls, time.perf_counter() - t0


def timed_invoke(runner: Runner, argv: list[str]) -> tuple[float, float]:
    """Run one CLI call between two runs of the reference kernel; returns its
    wall time and its time scaled to the kernel's speed, both in seconds."""
    before = kernel_ms()
    wall = runner.invoke(argv)
    return wall, wall * KERNEL_MS * 2 / (before + kernel_ms())


def run_calls(runner: Runner, calls, seconds: float) -> list[tuple[int, float, float]]:
    """Closed loop with one caller: one untimed warm-up call, then cycle
    through ``calls`` until ``seconds`` have passed, and at least until every
    call has been timed twice. Returns (call index, wall, scaled seconds) per timed call."""
    runner.invoke(calls[0])
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < 2 * len(calls) or time.perf_counter() < deadline:
        i = len(times) % len(calls)
        times.append((i, *timed_invoke(runner, calls[i])))
    return times


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and its value;
    the maximum when there are 10 samples or fewer."""
    ordered = sorted(samples)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def environment(workers: int) -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = len(os.sched_getaffinity(0))
    note = "" if workers * BLAS_THREADS <= cpus else " OVERSUBSCRIBED"
    return (
        f"env python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas.get('name')}-{blas.get('version')} blas_threads={BLAS_THREADS} "
        f"machine={platform.machine()} processor={platform.processor() or 'unknown'} "
        f"cpus={cpus} cpu_count={os.cpu_count()} workers={workers}{note}"
    )


def check_reference(runner: Runner, w: Workload, calls, seed: int) -> None:
    if seed != REFERENCE_SEED:
        return
    expected = json.loads((HERE / "reference.json").read_text()).get(w.name)
    got = [runner.digests.get(tuple(argv)) for argv in calls]
    print(f"stdout sha256 {' '.join(map(str, got))}")
    if got != expected:
        runner.fail(f"{w.name}: stdout digests {got} differ from reference {expected}")


def measure_end_to_end(runner: Runner, w: Workload, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        before = kernel_ms()
        calls, spent = runner.setup(w, seed)
        setups.append(spent * KERNEL_MS * 2 / (before + kernel_ms()))
    times = run_calls(runner, calls, seconds)
    check_reference(runner, w, calls, seed)
    wall = [t for _, t, _ in times]
    # Each distinct call's median, averaged over the calls: every input
    # weighs the same, however many times the run repeated it.
    call_s = statistics.fmean(
        statistics.median(s for i, _, s in times if i == j) for j in range(len(calls))
    )
    pct, worst = tail(wall)
    # Printed for reading only: wall times move with other tenants' load.
    print(
        f"calls n={len(times)} items_per_call={w.items_per_call} "
        f"throughput_per_s={w.items_per_call * len(wall) / sum(wall):.6g} "
        f"p50_ms={statistics.median(wall) * 1e3:.6g} min_ms={min(wall) * 1e3:.6g} "
        f"tail_ms={worst * 1e3:.6g} (p{pct:.0f}) "
        f"speed={statistics.median(s / t for _, t, s in times):.3g} "
        f"ms={','.join(f'{t * 1e3:.0f}' for t in wall)}"
    )
    return {
        "setup_s": statistics.median(setups),
        "call_ms": call_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_layers(runner: Runner, w: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from a traced run; returns metrics and their source."""
    from layers import Samples, check_plans, layer_metrics, sqrt_residuals
    from momalign import alignment, cli, descriptor, episode, linalg, seqio, synthgen
    from tracer import Tracer

    samples = Samples()
    tracer = Tracer(samples.taggers(), cpu={"episode.evaluate"})
    modules = (cli, episode, descriptor, linalg, alignment, seqio, synthgen)
    methods = {"cli.scale_configs": (cli.RunConfig, "scale_configs")}

    @contextlib.contextmanager
    def traced(phase):
        tracer.phase = samples.phase = phase
        tracer.install(modules, methods)
        try:
            yield
        finally:
            tracer.uninstall()

    with traced("setup"):
        calls, _ = runner.setup(w, seed)
    untraced = [s for _, _, s in run_calls(runner, calls, seconds / 2)]
    with traced("call"):
        traced_times = [timed_invoke(runner, argv)[1] for argv in (calls * len(untraced))[: len(untraced)]]
    check_reference(runner, w, calls, seed)
    if w.workers > 1:
        single = w.calls(seed, f"{WORK}/{w.name}", [], workers=1)[0]
        runner.invoke(single)
        if runner.digests[tuple(single)] != runner.digests[tuple(calls[0])]:
            runner.fail(f"{w.name}: --workers {w.workers} stdout differs from --workers 1")
    with traced("probe"):
        for probe in PROBES:
            for argv in runner.setup(probe, seed)[0]:
                runner.invoke(argv)

    own = [s for s in tracer.spans if s.phase != "probe"]
    probe = [s for s in tracer.spans if s.phase == "probe"]
    found = layer_metrics(own, w.lookups_per_call)
    fallback = layer_metrics(probe, PROBES[0].lookups_per_call)
    for phases, into in ((("setup", "call"), found), (("probe",), fallback)):
        for c, res in sqrt_residuals(samples.sqrts, phases).items():
            into[f"linalg.newton_schulz_sqrt.c{c}.residual"] = res
    gap, errors = check_plans(samples.plans)
    for error in errors:
        runner.fail(error)
    found["alignment.solve_emd.oracle_max_gap"] = gap
    found["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(untraced) - 1.0
    print(f"traced calls n={len(traced_times)} oracle_checked={len(samples.plans)} sqrt_checked={len(samples.sqrts)}")
    source = {name: "workload" for name in found}
    for name, value in fallback.items():
        if name not in found:
            found[name] = value
            source[name] = "probe"
    return found, source


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "momalign" / "__init__.py").is_file():
        print(f"error: no momalign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from momalign import cli

    w = WORKLOADS[args.workload]
    print(f"# perfbench workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(environment(w.workers))
    runner = Runner(cli)
    shutil.rmtree(WORK, ignore_errors=True)
    Path(WORK).mkdir()
    try:
        if args.trace:
            values, source = measure_layers(runner, w, args.seed, args.seconds)
        else:
            values = measure_end_to_end(runner, w, args.seed, args.seconds)
            source = {}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {}
    for m in wanted:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} {value:.6g} {m['unit']} {source.get(m['name'], '')}".rstrip())
    print(f"metric failed_frac {runner.failed / max(runner.attempted, 1):.6g} frac ({runner.failed}/{runner.attempted})")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
