"""stablesemi benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: unitary_verdicts, isometry_recovery, scenario_suite (see
perfbench/README.md).  The workload runs in a child process (worker.py) with
an address-space limit set on that child only, one BLAS thread, and the
library imported from ``src/`` of this checkout.  Set-up is measured in
SETUP_PROBES extra set-up-only children as well, half of them before the
measured run and half after it, and reported as the median.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A full result file with provenance,
per-metric case counts and per-slot timings is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
WORKLOADS = ("unitary_verdicts", "isometry_recovery", "scenario_suite")
# Address-space limit of each workload process: a runaway allocation becomes
# a MemoryError (a failed case) instead of exhausting the shared machine.
MEMORY_GUARD_BYTES = 2 * 1024**3
BLAS_THREADS = "1"
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170.0


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_GUARD_BYTES, MEMORY_GUARD_BYTES))


def spawn(args: list[str], timeout: float) -> dict:
    """Run worker.py under the memory guard; return its JSON result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(BENCH / "worker.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                          timeout=timeout, preexec_fn=limit_memory, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout (None outside a git repository or without git)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))  # no repo above ROOT
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over src/, so runs of a checkout without .git stay comparable."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def percentile(values: list[float], q: int) -> float:
    """q-th percentile with linear interpolation (numpy's default method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(main: dict, setups: list[float]) -> dict:
    times = [r["seconds"] for r in main["records"]]
    n = len(times)
    failed = sum(r["error"] is not None for r in main["records"])
    # throughput of the median whole cycle: every cycle has the same slot mix,
    # and a median is not moved by a burst of load from outside the process
    c = main["cycle"]
    # (a run cut by the hard stop before one whole cycle falls back to the mean)
    cycle_s = [sum(times[i:i + c]) for i in range(0, n - c + 1, c)] or [sum(times) * c / n]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "case_p50_s": (percentile(times, 50), "s", n),
        "case_p90_s": (percentile(times, 90), "s", n),
        "cases_per_s": (c / statistics.median(cycle_s), "1/s", n),
        "peak_rss_mb": (main["peak_rss_mb"], "MB", n),
        "passed_frac": ((n - failed) / n, "1", n),
    }


def by_label(records: list[dict]) -> dict:
    """Per-slot scaled and raw wall times."""
    groups: dict[str, list[dict]] = {}
    for r in records:
        groups.setdefault(r["label"], []).append(r)
    return {k: {"cases": len(v),
                "median_s": statistics.median(r["seconds"] for r in v),
                "max_s": max(r["seconds"] for r in v),
                "median_wall_s": statistics.median(r["wall_s"] for r in v)}
            for k, v in groups.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="shift every reference value, so every case must fail (self-test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stablesemi" / "__init__.py").is_file():
        print(f"no stablesemi sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    t_start = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    common += ["--smoke"] * args.smoke + ["--corrupt-reference"] * args.corrupt_reference
    try:
        # set-up probes before and after the measured run, so that their
        # median samples the machine's speed over the whole run
        probes = [spawn(common + ["--setup-only"], CHILD_TIMEOUT_S)
                  for _ in range(0 if args.trace else SETUP_PROBES // 2)]
        main_doc = spawn(common, CHILD_TIMEOUT_S - (time.monotonic() - t_start))
        probes += [spawn(common + ["--setup-only"], CHILD_TIMEOUT_S - (time.monotonic() - t_start))
                   for _ in range(0 if args.trace else SETUP_PROBES - SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups = [p["setup_s"] for p in probes + [main_doc]]

    records = main_doc["records"]
    failures = [r for r in records + main_doc.get("untraced_records", []) if r["error"]]
    if args.trace:
        metrics = {k: (v, unit, len(records)) for k, (v, unit) in main_doc["layers"].items()}
    else:
        metrics = end_to_end(main_doc, setups)
    correct = not failures and not main_doc.get("mismatched")

    nproc = len(os.sched_getaffinity(0))
    doc = {
        "workload": args.workload,
        "trace": args.trace,
        "correct": correct,
        "attempted": len(records),
        "failed": len({r["index"] for r in failures}),
        "metrics": {k: {"value": v, "unit": u, "cases": n} for k, (v, u, n) in metrics.items()},
        "provenance": {
            **main_doc["provenance"],
            "nproc": nproc,
            "cpu_count": os.cpu_count(),
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "seed": args.seed,
            "cases": len(records),
            "distinct_cases_built": main_doc["pool"] if not args.trace else len(records),
            "seconds": args.seconds,
            "memory_guard_bytes": MEMORY_GUARD_BYTES,
            "smoke": args.smoke,
        },
        "setup_samples_s": setups,
        "setup_wall_samples_s": [p["setup_wall_s"] for p in probes + [main_doc]],
        "slots": by_label(records),
        "failures": [{k: r[k] for k in ("index", "label", "error")} for r in failures[:20]],
    }
    if args.trace:
        doc["untraced_s"] = main_doc["untraced_s"]
        doc["traced_s"] = main_doc["traced_s"]
        doc["mismatched_cases"] = main_doc["mismatched"]
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"result_{args.workload}_trace{args.trace}_seed{args.seed}.json"
    result_path.write_text(json.dumps(doc, indent=2) + "\n")

    for k, (v, u, n) in metrics.items():
        print(f"{k:32s} {v:14.6g} {u:6s} ({n} cases)")
    for f in doc["failures"][:5]:
        print(f"FAILED case {f['index']} ({f['label']}): {f['error']}")
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
