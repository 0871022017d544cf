"""Benchmark for hdlab: one workload per process, end to end or per layer.

    python3 hdbench/run.py --workload decompose --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics (setup_s, wall_s, peak_rss_mb, ref_dev); with ``--trace 1`` it
carries the per-layer metrics of ``tracing.PER_LAYER``.  Progress and
failures go to stderr.  See README.md for what each number means.
"""

from __future__ import annotations

import os
import sys

# BLAS and OpenMP pools are sized before NumPy is imported.  One thread:
# on a shared two-core machine a second BLAS thread made pass times
# spread twice as wide as the single-threaded ones (README.md).
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".hdbench-work"
MIN_PASSES = 3      # timed passes per untraced run; the median is reported
MIN_TRACED = 2      # untraced/traced pass pairs per traced run
SETUP_ROUNDS = 5    # set-up samples before the first pass

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ref_dev": "ratio"}


@dataclass
class PassResult:
    wall: float
    cpu: float
    attempted: int
    failed: int
    deviations: dict = field(default_factory=dict)
    fingerprints: dict = field(default_factory=dict)


def fingerprint(output) -> str:
    """Digest of a job's output: the report files of a CLI run, else its repr."""
    h = hashlib.sha256()
    if isinstance(output, Path):
        for item in sorted(p for p in output.iterdir() if p.is_file() and p.name != ".lock"):
            h.update(item.name.encode() + b"\0" + item.read_bytes())
    else:
        h.update(repr(output).encode())
    return h.hexdigest()


def run_pass(workload, pass_dir: Path, tracer=None) -> PassResult:
    """One timed pass over the workload's jobs from fresh inputs, then checks."""
    from workloads import CheckFailed

    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    gc.collect()  # the previous pass's tables are gone before this one starts
    jobs = workload.jobs()
    outputs, errors = {}, {}
    if tracer is not None:
        tracer.install()
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()):
            for job in jobs:
                try:
                    outputs[job.name] = job.run(pass_dir)
                except Exception as exc:  # a failing job is counted, the pass carries on
                    errors[job.name] = exc
    finally:
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        if tracer is not None:
            tracer.remove()
    result = PassResult(wall, cpu, len(jobs), 0)
    for job in jobs:
        try:
            if job.name in errors:
                raise errors[job.name]
            result.deviations.update(job.check(outputs))
            result.fingerprints[job.name] = fingerprint(outputs[job.name])
        except Exception as exc:
            result.failed += 1
            print(f"hdbench: {job.name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            if not isinstance(exc, CheckFailed):
                traceback.print_exception(exc, file=sys.stderr)
    return result


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI, as each hdlab run pays it."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import hdlab.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


class SetUp:
    """Samples of the set-up cost.

    A sample is one fresh interpreter importing the CLI plus one round of
    making the inputs from the seed and a warm-up on a tiny input.  Samples
    are taken before the first pass and again after every untimed pass
    check, so ``setup_s`` (median import + median round) covers the same
    stretch of time as ``wall_s``.
    """

    def __init__(self, cls, seed: int, work: Path):
        self.cls, self.seed, self.work = cls, seed, work
        self.imports, self.rounds = [], []

    def sample(self):
        self.imports.append(import_seconds())
        t0 = time.perf_counter()
        round_dir = self.work / f"setup-{len(self.rounds)}"
        round_dir.mkdir(parents=True)
        workload = self.cls(self.seed, round_dir)
        with redirect_stdout(io.StringIO()):
            workload.warm_up(round_dir)
        self.rounds.append(time.perf_counter() - t0)
        return workload

    def seconds(self) -> float:
        return statistics.median(self.imports) + statistics.median(self.rounds)


def metric(value, unit):
    return {"value": value, "unit": unit}


def same_outputs(passes) -> bool:
    first = passes[0].fingerprints
    return all(p.fingerprints == first for p in passes[1:])


def end_to_end(workload, work: Path, seconds: float, setup: SetUp):
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(workload, work / "pass"))
        setup.sample()
    values = {
        "setup_s": setup.seconds(),
        "wall_s": statistics.median(p.wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ref_dev": max(passes[-1].deviations.values(), default=0.0),
    }
    return passes, {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(workload, work: Path, seconds: float):
    from tracing import PER_LAYER, Tracer
    from workloads import replay

    plain, traced, layers = [], [], []
    t0 = time.perf_counter()
    while len(traced) < MIN_TRACED or time.perf_counter() - t0 < seconds:
        plain.append(run_pass(workload, work / "pass"))
        tracer = Tracer()
        result = run_pass(workload, work / "pass", tracer)
        values = tracer.layer_values()
        if workload.cli_driven:
            r0 = time.perf_counter()
            try:
                with redirect_stdout(io.StringIO()):
                    replay(workload.configs, work / "pass")
            except Exception as exc:
                result.failed += 1
                print(f"hdbench: cache replay failed: {exc}", file=sys.stderr)
            values["cli.cache_hit.s"] = time.perf_counter() - r0
            result.attempted += 1
        else:
            values["cli.cache_hit.s"] = 0.0
        traced.append(result)
        layers.append(values)
    metrics = {name: metric(statistics.median(v[name] for v in layers), PER_LAYER[name])
               for name in PER_LAYER if name in layers[0]}
    metrics["proc.cpu_s"] = metric(statistics.median(p.cpu for p in plain), "s")
    metrics["trace.overhead_s"] = metric(
        statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain), "s")
    metrics = {name: metrics[name] for name in PER_LAYER}
    return plain + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hdlab" / "__init__.py").is_file():
        print(f"hdbench: no hdlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"hdbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = SetUp(workloads.WORKLOADS[args.workload], args.seed, work)
        for _ in range(SETUP_ROUNDS):
            workload = setup.sample()
        if args.trace:
            passes, metrics = per_layer(workload, work, args.seconds)
        else:
            passes, metrics = end_to_end(workload, work, args.seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    ok = [p for p in passes if p.failed < p.attempted]
    print(f"hdbench: workload={args.workload} seed={args.seed} threads={THREADS} "
          f"({', '.join(THREAD_VARS)}) passes={len(passes)} "
          f"walls={[round(p.wall, 3) for p in passes]} "
          f"setup imports={[round(t, 3) for t in setup.imports]} rounds={[round(t, 4) for t in setup.rounds]}",
          file=sys.stderr)
    result = {
        "correct": bool(ok) and same_outputs(passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
