"""fpcim benchmark: one seeded workload, timed, checked, and optionally traced.

Run from the root of a checkout:

    python3 bench/run.py --workload cnn-e2m5-adc --seed 1 --seconds 12 --trace 0

It prints every metric by name with its unit, a ``report`` line with the run
environment, sample counts and output hash, and as its last line one JSON
object: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The simulator is imported from this
checkout's ``src/`` and nowhere else.
"""

from __future__ import annotations

import os

# BLAS reads its thread count once, when numpy is first imported.  One
# thread keeps batch times steady on a shared machine; the count is recorded.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Seeds from here up were never run while the benchmark was built: check a
# claim on one of them as held-out data.
HELD_OUT_FROM = 1_000_000


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own git directory, if it has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "held_out": seed >= HELD_OUT_FROM,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
    }


def p90(times: list) -> float:
    return statistics.quantiles(times, n=10)[-1]


def end_to_end(run, harness) -> dict:
    """Every end-to-end metric: name -> (value, unit)."""
    times, total = run.loop.times, run.ref.total
    cost = harness.modelled_cost(run.ref.executed, harness.cost_label(run.workload))
    return {
        "sim_macs_per_s": (harness.macs_per_batch(run.ref.executed) * len(times) / sum(times),
                           "MAC/s"),
        "batch_s_p50": (statistics.median(times), "s"),
        "batch_s_p90": (p90(times), "s"),
        "setup_s": (statistics.median(run.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "sqnr_db": (total.sqnr_db, "dB"),
        "readout_rel_err": (total.rel_err, "ratio"),
        "saturated_frac": (total.saturated / total.entries, "ratio"),
        "underflow_frac": (total.underflow / total.entries, "ratio"),
        "sim_latency_us": (cost.latency_us, "sim-us"),
        "sim_energy_uj": (cost.energy_uj, "uJ"),
        "fail_frac": (run.loop.failed / len(times), "ratio"),
    }


def per_layer(run, spans) -> dict:
    """Every per-layer metric: name -> (value or None when missing, unit)."""
    tracer = run.tracer
    out = {name: (value, spans.PER_LAYER[name][0]) for name, value in tracer.per_layer().items()}
    # layer<k>.* for every layer of the workload; the worst layer under a name
    # that every workload has, whatever its depth.
    sqnr = [stats.sqnr_db for stats in run.ref.layers]
    saturated = [stats.saturated / stats.entries for stats in run.ref.layers]
    for k, (s, f) in enumerate(zip(sqnr, saturated)):
        out[f"layer{k}.sqnr_db"] = (s, "dB")
        out[f"layer{k}.saturated_frac"] = (f, "ratio")
    out["layers.sqnr_db_min"] = (min(sqnr), "dB")
    out["layers.saturated_frac_max"] = (max(saturated), "ratio")
    batch = statistics.fmean(tracer.root_times("batch"))
    setup = tracer.root_times("setup")[0]
    accounted = sum(v for v, unit in out.values() if unit == "s" and v is not None)
    out["trace.batch_s"] = (batch, "s")
    out["trace.setup_s"] = (setup, "s")
    out["trace.accounted_frac"] = (accounted / (setup + batch), "ratio")
    out["trace.overhead_frac"] = (statistics.median(tracer.root_times("batch"))
                                  / statistics.median(run.loop.times) - 1.0, "ratio")
    return out


def result_line(metrics: dict, declared: list, correct: bool, attempted: int, failed: int) -> str:
    """The final JSON line: exactly the metrics BENCHMARK.json declares.

    A metric whose wrap target is missing reads 0 here; the report line
    names the missing targets.
    """
    out = {}
    for spec in declared:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']} is measured in {unit}, declared in {spec['unit']}")
        out[spec["name"]] = {"value": 0 if value is None else value, "unit": unit}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": out})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "fpcim" / "__init__.py").is_file():
        print(f"no fpcim sources under {src}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    import spans

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    run = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    loops = [run.loop] + ([run.traced] if run.traced else [])
    attempted = sum(len(loop.times) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    correct = failed == 0 and all(run.ref.passed)
    metrics = per_layer(run, spans) if args.trace else end_to_end(run, harness)

    times = run.loop.times
    limit = p90(times)
    beyond_p90 = sum(t > limit for t in times)
    report = {
        "workload": args.workload,
        "env": environment(args.seed),
        "output_sha256": run.ref.sha256,
        "identity_check": {"passed": sum(run.ref.passed), "items": len(run.ref.passed)},
        "batches": len(times),
        "batches_beyond_p90": beyond_p90,
        "setup_repeats": len(run.setup_s),
        "traced_batches": len(run.traced.times) if run.traced else 0,
        "missing": sorted(run.tracer.missing | run.tracer.uncounted) if run.tracer else [],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{name:34s} {shown:>14s} {unit}")
    print(f"batches {len(times)} ({beyond_p90} beyond p90), "
          f"failed {failed}/{attempted}, identity check "
          f"{report['identity_check']['passed']}/{report['identity_check']['items']}, "
          f"output sha256 {run.ref.sha256}")
    print("report " + json.dumps(report))
    if run.tracer:
        OUT.mkdir(exist_ok=True)
        run.tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(result_line(metrics, declared, correct, attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
