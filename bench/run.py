"""Benchmark entry point for the sindhi-ner tagger.

Usage, from the repository root::

    python3 bench/run.py --workload dense-1mb --seed 1 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Set-up time is measured in fresh
interpreters and the workload runs in a process of its own; this process
only starts them, waits for them and merges their results.  Earlier
stdout lines carry the workload's properties, the jsonl digest, sample
counts and the error rate; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

See bench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
WORKLOADS = ("dense-1mb", "sparse-lines", "store-20k")

SETUP_WARMUP = 2
SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20

# Runs in a fresh interpreter: from ``import sindhi_ner`` to the return of
# ``build_engine()``, with the speed sampler running (see speed.py).
_SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
from speed import PAD_NS, SpeedSampler
with SpeedSampler() as sampler:
    t0 = time.perf_counter_ns()
    import sindhi_ner
    sindhi_ner.build_engine()
    t1 = time.perf_counter_ns()
    time.sleep(PAD_NS / 1e9)
took, slowdown = sampler.effective(t0, t1)
print(took / 1e9, slowdown)
"""


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("NER_CONFIG", None)  # always the packaged default config
    env.pop("PYTHONPATH", None)
    return env


def measure_setup() -> tuple:
    """Median set-up seconds over fresh interpreters, after warm-up runs.

    Returns the median scaled by each interpreter's slowdown, and the
    unscaled median.
    """
    scaled, unscaled = [], []
    for n in range(SETUP_WARMUP + SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH)], env=worker_env(),
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        if n >= SETUP_WARMUP:
            elapsed, slowdown = map(float, out.stdout.split())
            scaled.append(elapsed / slowdown)
            unscaled.append(elapsed)
    return statistics.median(scaled), statistics.median(unscaled)


def run_workload(args, workdir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "measure.py"), args.workload, str(args.seed),
         str(args.seconds), str(args.trace), str(workdir)],
        env=worker_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sindhi_ner" / "__init__.py").is_file():
        print(f"bench: package sources not found under {SRC}", file=sys.stderr)
        return 2

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = None if args.trace else measure_setup()
        result = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = result.pop("details")
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup[0], "unit": "s"}
        details["unscaled"]["setup_s"] = setup[1]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **details}, ensure_ascii=False))
    print(json.dumps(result, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
