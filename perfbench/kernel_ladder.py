"""One-off kernel ladder report (not a gated workload).

    python3 perfbench/kernel_ladder.py

Times the library kernels apply, correlation, classify, the three metric_*,
one_step_matrix, wold_decompose_matrix and inflate_and_perturb on the size
ladder K in {64, 256, 1024}, times in {2e3, 2e4, 2e5} and Wold k in
{60, 300, 600}, plus the remaining rows of the ROADMAP baseline table (the
batched pair product, the dense Cantor correlation and every scenario at its
default config).  Runs in one process with the benchmark's memory guard and
one BLAS thread.  A size whose arrays would not fit under the guard, or whose
time predicted from the previous rung exceeds half of BUDGET_S (so nothing
runs much over a minute), is listed as skipped with the reason and not run.  Prints a markdown table and writes
perfbench/out/kernel_ladder.json.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402  (after the BLAS thread setting)

import stablesemi as ss  # noqa: E402
from run import MEMORY_GUARD_BYTES  # noqa: E402
from stablesemi import cli  # noqa: E402
from workloads import random_unitary  # noqa: E402

C16 = 16  # bytes per complex128
BUDGET_S = 60.0


def diag_model(k: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return ss.MultiplicationGroup(ss.WeightedGrid.uniform(k), rng.uniform(-np.pi, np.pi, k))


def conj_model(k: int, seed: int = 0):
    rng = np.random.default_rng(seed + 1)
    return ss.ConjugatedGroup(ss.WeightedGrid.uniform(k), random_unitary(rng, k), diag_model(k, seed))


def wold_matrix(k: int):
    """One-step map of Q*(Mult(k/3) (+) Shift(2k/3))Q, as in the ROADMAP row."""
    rng = np.random.default_rng(1)
    du, nc = k // 3, k - k // 3
    gu = ss.WeightedGrid.uniform(du)
    inner = ss.DirectSumSemigroup(
        ss.SumSpace((gu, ss.shift_grid(nc, 1.0))),
        (ss.MultiplicationGroup(gu, rng.uniform(-np.pi / 2, np.pi / 2, du)),
         ss.ShiftSemigroup(1.0, nc)))
    V = ss.ConjugatedGroup(ss.WeightedGrid.uniform(k), random_unitary(rng, k), inner)
    return ss.one_step_matrix(V, 1.0)


def witnesses(grid, count):
    return ss.DenseSequence.gaussian(grid, count, seed=2)


# Each rung: (kernel, size label, work units for time prediction, bytes of the
# largest arrays it allocates, factory returning the timed callable).  Models
# are multiplication groups on a uniform grid (as in the ROADMAP table) unless
# the label says "conjugated"; work is scaled linearly in K for them, which
# over-predicts the per-call overhead that dominates at these sizes.
def rungs(scratch: Path):
    out = []
    for kind, model in (("diagonal", diag_model), ("conjugated", conj_model)):
        for k in (64, 256, 1024):
            def make(k=k, model=model):
                T, x = model(k), witnesses(ss.WeightedGrid.uniform(k), 1)[0]
                return lambda: T.apply(1.0, x)
            out.append((f"apply ({kind})", f"K={k}", k**2, k * k * C16, make))
    for k in (64, 256, 1024):
        for n_t in (2_000, 20_000, 200_000):
            def make(k=k, n_t=n_t):
                T, (x, y) = diag_model(k), witnesses(ss.WeightedGrid.uniform(k), 2)
                times = np.linspace(0.0, 200.0, n_t)
                return lambda: ss.correlation(T, x, y, times)
            out.append(("correlation", f"K={k}, {n_t} times", n_t * k, n_t * C16, make))
    for k, count, samples in [(64, 4, 2000), (256, 4, 2000), (256, 16, 2000), (1024, 4, 2000),
                              (256, 4, 20_000), (256, 4, 200_000)]:
        def make(k=k, count=count, samples=samples):
            T, seq = diag_model(k), witnesses(ss.WeightedGrid.uniform(k), count)
            params = ss.ClassifyParams(samples=samples)
            return lambda: ss.classify(T, seq, params)
        pairs = count + count * (count + 1) // 2
        out.append(("classify", f"K={k}, {count} witnesses, {samples} samples",
                    pairs * samples * k, samples * C16, make))

    def make_batched(k=256, count=16, samples=2000):
        T, seq = diag_model(k), witnesses(ss.WeightedGrid.uniform(k), count)
        q, w = T.symbol, T.grid.weights
        times = np.linspace(0.0, 200.0, samples)
        Z = np.stack([np.sqrt(w) * v.normalized().coeffs for v in seq])
        iu = np.triu_indices(count)

        def batched():  # all 136 witness pairs as one product (numpy, not the library)
            return np.exp(1j * np.outer(times, q)) @ (Z[iu[0]] * Z[iu[1]].conj()).T
        return batched
    out.append(("batched pair product (numpy)", "K=256, 16 witnesses, 2000 samples",
                1, 2000 * 256 * C16 * 3, make_batched))

    for metric in ("metric_unitary", "metric_isometric", "metric_contractive"):
        J = N = 12 if metric != "metric_contractive" else 4
        for k in (64, 256, 1024):
            def make(k=k, metric=metric, J=J):
                U = diag_model(k)
                cfg = ss.MetricConfig(witnesses(U.grid, J), J=J, N=J, samples_per_block=64)
                fn = getattr(ss, metric)
                return lambda: fn(U, ss.quantize_symbol(U, 64).approximant, cfg)
            applies = 2 * J * (2 * J * 64 + 1) + (J * J * J * 64 if metric == "metric_contractive" else 0)
            out.append((metric, f"K={k}, J=N={J}, spb=64", applies * k, k * C16, make))
    for k in (64, 256, 1024):
        def make(k=k):
            T = conj_model(k)
            return lambda: ss.one_step_matrix(T, 1.0)
        out.append(("one_step_matrix", f"K={k} (conjugated)", k**3, 2 * k * k * C16, make))
    for k in (60, 300, 600):
        def make(k=k):
            W = wold_matrix(k)
            return lambda: ss.wold_decompose_matrix(W, max_iter=k + 5)
        out.append(("wold_decompose_matrix", f"k={k} ({k // 3} unitary + {k - k // 3} shift)",
                    k**4, 4 * k * k * C16, make))
    for k in (64, 256, 1024):
        def make(k=k):
            rng = np.random.default_rng(3)
            cell = 2 * np.pi / 64
            P = ss.MultiplicationGroup(ss.WeightedGrid.uniform(k),
                                       cell * np.floor(rng.uniform(-np.pi, np.pi, k) / cell))
            return lambda: ss.inflate_and_perturb(P, [], 0.25, 5.0, copies=8)
        out.append(("inflate_and_perturb", f"K={k}, 8 copies", k, 8 * k * 8, make))
    for n_t in (2_001, 20_001, 200_001):
        def make(n_t=n_t):
            group = cli.cantor_group(12)
            times = np.linspace(0.0, 10_000.0, n_t)
            pts, wts = group.grid.points, group.grid.weights
            return lambda: np.abs(np.exp(1j * np.outer(times, pts)) @ wts)
        # outer (float) + 1j*outer + exp(...) are alive at once
        out.append(("dense Cantor correlation", f"depth 12, {n_t} times", n_t,
                    n_t * 4096 * (8 + 2 * C16), make))
    for name, (_, defaults) in cli.SCENARIOS.items():
        def make(name=name):
            cfg = {**cli.SCENARIOS[name][1], "scenario": name, "seed": 0}
            return lambda: cli.run_scenario(cfg, scratch, quiet=True)
        size = ("depth 12, 200001 times, 4096 atoms" if name == "cantor_demo" else "default config")
        need = defaults["num_samples"] * 2**defaults["depth"] * (8 + 2 * C16) if name == "cantor_demo" else 0
        out.append((f"scenario {name}", size, 1, need, make))
    return out


def timed(fn, budget_s: float) -> tuple[float, int]:
    """Median wall time of repeats that fit in about a tenth of the budget."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    repeats = max(1, min(7, int(budget_s / 10 / max(first, 1e-9))))
    times = [first]
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


def main() -> int:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_GUARD_BYTES, MEMORY_GUARD_BYTES))
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        rows = ladder(Path(scratch), BUDGET_S)
    doc = {"memory_guard_bytes": MEMORY_GUARD_BYTES, "budget_s": BUDGET_S,
           "nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
           "stablesemi": ss.__version__, "rows": rows}
    (out_dir / "kernel_ladder.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


def ladder(scratch: Path, budget_s: float) -> list[dict]:
    rows, last = [], {}  # last: kernel -> (work, seconds) of its latest measured rung
    for kernel, size, work, need, make in rungs(scratch):
        row = {"kernel": kernel, "size": size}
        prev = last.get(kernel)
        predicted = prev[1] * work / prev[0] if prev else None
        if need > MEMORY_GUARD_BYTES:
            row["skipped"] = f"needs ~{need / 1e9:.1f} GB, over the {MEMORY_GUARD_BYTES / 2**30:.0f} GiB memory guard"
        elif predicted is not None and predicted > budget_s / 2:
            # half the budget: cache effects made real times up to ~2x the prediction
            row["skipped"] = f"predicted ~{predicted:.0f} s from the previous rung, over half the {budget_s:.0f} s budget"
        else:
            try:
                seconds, repeats = timed(make(), budget_s)
                row.update(seconds=seconds, repeats=repeats)
                last[kernel] = (work, seconds)
            except MemoryError:
                row["skipped"] = "MemoryError under the memory guard"
        rows.append(row)
        shown = f"{row['seconds']:.4g} s (median of {row['repeats']})" if "seconds" in row \
            else f"skipped: {row['skipped']}"
        print(f"| {kernel} | {size} | {shown} |", flush=True)
    return rows


if __name__ == "__main__":
    sys.exit(main())
