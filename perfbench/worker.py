"""One workload in one process: set-up, then a closed loop of cases.

Started by run.py under the memory guard; prints one JSON object on its last
stdout line.  ``--setup-only`` stops after set-up (a set-up probe).  With
``--trace 1`` the first ``trace_cycles`` cycles of cases run twice, untraced
and then traced, so tracing overhead and result identity are measured on the
same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
# A run must end within 180 s whatever the code's speed.
HARD_STOP_S = 140.0
# Reported times are scaled to a machine on which calibrate() takes this long.
CALIBRATION_REF_S = 3e-3
CAL_WINDOW = 6  # calibrations per case: the 3 before and the 3 after it
SETUP_WARMUP = 2  # calibrations discarded after set-up, before CAL_WINDOW are taken


class Calibration:
    """A fixed kernel that does not use the library, timed next to every case.

    The host VM's CPU speed drifts by up to ~40% in phases of seconds (load
    from other tenants on the host, no steal time), which moves raw case times
    from run to run far more than any bound.  Scaling each case time by
    CALIBRATION_REF_S / (calibration time around that case) removes the drift
    common to both.  How much a phase slows code depends on the kind of work,
    so each workload names the parts that match its cases (``mix``):
    interpreter-bound small numpy calls, complex matrix-vector products at
    K=256, or small LAPACK SVDs.  Each part takes about 1 ms.
    """

    def __init__(self, mix=("interp", "matvec", "svd")):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.v = rng.standard_normal(256)
        self.b = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.parts = [getattr(self, m) for m in mix] * max(1, 3 // len(mix))

    def interp(self):
        np, v = self.np, self.v
        acc = 0.0
        for i in range(100):
            acc += float(np.abs(np.exp(1j * (i * 1e-3) * v)[:8]).sum())

    def matvec(self):
        b = self.b
        y = b[0]
        for _ in range(6):
            y = b.conj().T @ (b @ y) / 256.0

    def svd(self):
        self.np.linalg.svd(self.a @ self.a.conj().T)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0


def blas_info() -> list[dict]:
    """OpenBLAS builds loaded by numpy/scipy, with the thread count in effect."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.with_name(Path(pkg.__file__).parent.name + ".libs")
        for lib_path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(lib_path)
            info = {"package": pkg.__name__, "library": Path(lib_path).name}
            for suffix in ("", "64_"):
                for prefix in ("scipy_openblas_", "openblas_"):
                    get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                    get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                    if get_threads is not None:
                        get_threads.restype = ctypes.c_int
                        info["threads"] = get_threads()
                    if get_config is not None:
                        get_config.restype = ctypes.c_char_p
                        info["config"] = get_config().decode()
            found.append(info)
    return found


def library_provenance() -> dict:
    import numpy
    import scipy

    import stablesemi

    return {
        "stablesemi": stablesemi.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "blas": blas_info(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_pass(cases, indices, deadline, calibrate):
    """Run cases back to back, calibrating between cases.

    Each record has the raw wall time ``wall_s`` and ``seconds``, the wall
    time scaled by the median of the CAL_WINDOW calibrations around the case
    (the median damps the jitter of single calibrations).  Returns the
    records and the pass's scaled total.
    """
    records = []
    cals = [calibrate()]  # cals[j] and cals[j + 1] bracket case j
    for i in indices:
        case = cases[i % len(cases)]
        t0 = time.perf_counter()
        try:
            out = case.run()
            error = None
        except Exception as exc:  # MemoryError under the guard counts as a failed case
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        cals.append(calibrate())
        result = None
        if error is None:
            try:
                result, error = case.check(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        records.append({"index": i, "label": case.label, "wall_s": elapsed,
                        "result": result, "error": error})
        if time.monotonic() > deadline:
            break
    half = CAL_WINDOW // 2
    for j, r in enumerate(records):
        local = statistics.median(cals[max(0, j + 1 - half):j + 1 + half])
        r["seconds"] = r["wall_s"] * CALIBRATION_REF_S / local
    return records, sum(r["seconds"] for r in records)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports stablesemi: part of set-up

    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[args.workload](
            args.seed, work_dir, smoke=args.smoke, corrupt_reference=args.corrupt_reference)
        cases = wl.build()
        setup_wall_s = time.monotonic() - args.spawned_at
        calibrate = Calibration(wl.calibration_mix)
        # warmed like the per-case window: the first calls in a fresh process run slow
        cals = [calibrate() for _ in range(SETUP_WARMUP + CAL_WINDOW)][SETUP_WARMUP:]
        cal = statistics.median(cals)
        doc = {"setup_s": setup_wall_s * CALIBRATION_REF_S / cal, "setup_wall_s": setup_wall_s}
        if not args.setup_only:
            run = measure if not args.trace else trace
            doc.update(run(wl, cases, args, calibrate))
            doc["provenance"] = library_provenance()
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


def measure(wl, cases, args, calibrate) -> dict:
    """Whole cycles until --seconds have passed and at least min_cases ran."""
    deadline = args.spawned_at + HARD_STOP_S
    cycle = len(wl.cycle)
    records, start, i = [], time.perf_counter(), 0
    while time.monotonic() < deadline:
        recs, _ = run_pass(cases, range(i, i + cycle), deadline, calibrate)
        records += recs
        i += cycle
        if len(records) >= wl.min_cases and time.perf_counter() - start >= args.seconds:
            break
    return {"records": records, "pool": len(cases), "cycle": cycle}


def trace(wl, cases, args, calibrate) -> dict:
    from tracer import Tracer

    deadline = args.spawned_at + HARD_STOP_S
    indices = range(wl.trace_cycles * len(wl.cycle))
    plain, plain_s = run_pass(cases, indices, deadline, calibrate)
    tracer = Tracer()
    with tracer.installed():
        traced, traced_s = run_pass(cases, indices, deadline, calibrate)
    layers = tracer.layer_metrics()
    layers["trace.cases"] = (float(len(traced)), "count")
    layers["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "1")
    tracer.save(OUT / f"spans_{args.workload}.npz")
    mismatched = [
        r["index"] for r, p in zip(traced, plain)
        if json.dumps(r["result"], sort_keys=True) != json.dumps(p["result"], sort_keys=True)]
    if len(traced) != len(plain):
        mismatched.append(-1)
    return {"records": traced, "untraced_records": plain, "layers": layers,
            "untraced_s": plain_s, "traced_s": traced_s, "mismatched": mismatched}


if __name__ == "__main__":
    sys.exit(main())
