"""The wlns benchmark: one workload, one process, one JSON result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` times passes of the workload with tracing off and prints the
end-to-end metrics.  ``--trace 1`` alternates traced and untraced passes
(their difference is the tracing overhead), then runs the per-layer probes
under the tracer and prints the per-layer metrics.  Either way the last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full report (every stage metric with its median,
tail percentile and sample count, the machine facts and, when traced, the
per-layer self times), which is also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

import layers
import stats
from tracing import Recorder, layer_self_seconds
from workloads import WORKLOADS, Checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Set-up runs this many times, each in a fresh interpreter; setup_s is their median.
SETUP_REPEATS = 3

THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "WLNS_THREADS",
)

UNITS = {
    "wall_s": "s", "simulate_s": "s", "diagnose_s": "s", "budget_s": "s",
    "lorentz_s": "s", "counterexample_s": "s", "gronwall_s": "s", "recursive_s": "s",
    "steps_per_s": "1/s",
}


def cap_thread_pools() -> None:
    """Cap every pool at the cores this process may run on (before numpy loads)."""
    cores = len(os.sched_getaffinity(0))
    for name in THREAD_ENV[:-1]:
        current = os.environ.get(name, "")
        if not (current.isdigit() and 0 < int(current) <= cores):
            os.environ[name] = str(cores)


def machine_facts(seed: int) -> dict:
    import importlib.util
    import platform

    import numpy
    import scipy
    import scipy.fft

    numpy_fft = "pocketfft (numpy.fft._pocketfft_umath)" if importlib.util.find_spec(
        "numpy.fft._pocketfft_umath") else "numpy.fft (unknown backend)"
    scipy_fft = "pocketfft (scipy.fft._pocketfft.pypocketfft)" if importlib.util.find_spec(
        "scipy.fft._pocketfft.pypocketfft") else "scipy.fft (unknown backend)"
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": {"numpy.fft": numpy_fft, "scipy.fft": scipy_fft},
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "seed": seed,
    }


def probe_setup(workload: str, seed: int, workdir: str) -> list[dict]:
    """Time the workload's set-up in fresh interpreters."""
    samples = []
    for i in range(SETUP_REPEATS):
        target = os.path.join(workdir, f"setup{i}")
        os.makedirs(target)
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), target],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
        shutil.rmtree(target)
    return samples


def run_passes(workload, ctx, rec, checks, workdir, seconds, traced_every=0):
    """Repeat passes for ``seconds``; every ``traced_every``-th pass is traced.

    Returns the stage samples of untraced and of traced passes.
    """
    plain, traced = defaultdict(list), defaultdict(list)
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds or (traced_every and i < 2):
        tracing = bool(traced_every) and i % traced_every == traced_every - 1
        rec.enabled, rec.pass_id = tracing, f"pass{i}"
        pass_dir = os.path.join(workdir, f"pass{i}")
        with layers.instrumented(rec, []) if tracing else contextlib.nullcontext():
            with rec.span("bench.pass"):
                stages, outputs = workload.run_pass(ctx, rec, pass_dir)
        rec.enabled = False
        workload.check(ctx, outputs, checks)
        del outputs
        shutil.rmtree(pass_dir, ignore_errors=True)
        for key, value in stages.items():
            (traced if tracing else plain)[key].append(value)
        i += 1
    return plain, traced


def summaries(samples: dict) -> dict:
    return {key: stats.summarize(values, UNITS[key]) for key, values in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wlns", "__init__.py")):
        print(f"error: no wlns sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    cap_thread_pools()
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    try:
        setup = probe_setup(args.workload, args.seed, workdir)
        ctx = workload.setup(args.seed, workdir)
        import wlns

        if not os.path.abspath(wlns.__file__).startswith(SRC + os.sep):
            print(f"error: imported wlns from {wlns.__file__}, not {SRC}", file=sys.stderr)
            return 2
        rec = Recorder(False)
        checks = Checks()
        report = {"workload": args.workload, "machine": machine_facts(args.seed)}
        setup_s = stats.summarize([s["setup_s"] for s in setup], "s")
        import_s = stats.summarize([s["import_s"] for s in setup], "s")
        if args.trace == 0:
            plain, _ = run_passes(workload, ctx, rec, checks, workdir, args.seconds)
            stages = summaries(plain)
            stages["setup_s"] = setup_s
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            stages["peak_rss_mb"] = {"unit": "MiB", "median": rss_kib / 1024, "samples": 1}
            metrics = {name: stages[name] for name in ("setup_s", "wall_s", "peak_rss_mb")}
        else:
            plain, traced = run_passes(
                workload, ctx, rec, checks, workdir, args.seconds, traced_every=2)
            traced_ids = {s["pass_id"] for s in rec.spans}
            stages = {"untraced": summaries(plain), "traced": summaries(traced)}
            overhead = stages["traced"]["wall_s"]["median"] - stages["untraced"]["wall_s"]["median"]
            rec.enabled = True
            layer_values = layers.probe_all(rec, workdir, args.seed)
            layer_values["cli.import_s"] = (import_s["median"], "s")
            layer_values["trace.overhead_s"] = (overhead, "s")
            self_s = layer_self_seconds(rec.spans, traced_ids)
            report["self_s_per_traced_pass"] = {
                layer: total / len(traced["wall_s"]) for layer, total in sorted(self_s.items())
            }
            report["probe_self_s"] = layer_self_seconds(rec.spans, {layers.PROBE})
            report["import_s"] = import_s
            metrics = {name: {"median": v, "unit": u} for name, (v, u) in layer_values.items()}
            rec.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        stages["check_fail_ratio"] = {
            "unit": "1", "value": checks.failed / checks.attempted,
            "attempted": checks.attempted, "failed": checks.failed,
            "failures": checks.failures,
        }
        report["end_to_end" if args.trace == 0 else "stages"] = stages
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace == 1:
        report["per_layer"] = metrics
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": m["median"], "unit": m["unit"]} for name, m in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
