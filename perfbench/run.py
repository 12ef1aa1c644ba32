"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload service_stream --seed 3 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload once untraced (the overhead baseline)
and once traced, the order alternating with the seed, and reports the
per-layer metrics of the traced pass; the spans are
written to ``.perfbench-out/`` in the checkout.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's provenance, output checks and workload details.  The exit code is
1 when an output check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

# one BLAS thread, pinned before numpy is first imported (numpy and the
# program are imported inside functions, after this)
BLAS_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(BLAS_PINS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")

#: per-layer seconds that are the self time of one span name
SELF_TIMES = {
    "data.make_dataset_s": "data.make_dataset",
    "megabatch.train_wave_s": "megabatch.train_wave",
    "client.local_update_s": "client.local_update",
    "executor.self_s": "executor.collect",
    "aggregation.aggregate_s": "aggregation.aggregate",
    "server.round_self_s": "server.round",
    "eval.test_accuracy_s": "eval.test_accuracy",
    "eval.attack_success_rate_s": "eval.attack_success_rate",
    "defense.prune_order_s": "defense.prune_order",
    "defense.prune_s": "defense.prune",
    "defense.adjust_weights_s": "defense.adjust_weights",
    "defense.fine_tune_s": "defense.fine_tune",
    "service.round_self_s": "service.round",
    "transport.transmit_s": "transport.transmit",
    "trust.score_round_s": "trust.score_round",
    "obs.metrics_emit_s": "obs.metrics_emit",
    "persist.save_checkpoint_s": "persist.save_checkpoint",
    "bench.other_s": "bench.run",
}


def machine_probe() -> float:
    """Median seconds of a fixed numpy kernel: drift in machine speed."""
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.random((256, 256))
    values = rng.random(100_000)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(20):
            matrix = matrix @ matrix
            matrix /= np.abs(matrix).max()
        np.sort(values)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_sha() -> str | None:
    """HEAD's commit from ``.git`` when the checkout is a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_PINS},
    }


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}


def layer_metrics(tracer, result, names) -> dict[str, float]:
    """Every per-layer metric in ``names``; layers the workload never ran read 0."""
    own = tracer.self_times()
    values = {name: 0.0 for name in names}
    for metric, span in SELF_TIMES.items():
        values[metric] = own.get(span, 0.0)
    values.update({
        "megabatch.waves": tracer.count("megabatch.train_wave"),
        "client.local_updates": tracer.count("client.local_update"),
        "executor.collect_s": sum(tracer.durations("executor.collect")),
        "aggregation.calls": tracer.count("aggregation.aggregate"),
        "eval.test_accuracy_calls": tracer.count("eval.test_accuracy"),
        "defense.prune_oracle_calls": tracer.count("eval.test_accuracy", under="defense.prune"),
        "defense.adjust_oracle_calls": tracer.count(
            "eval.test_accuracy", under="defense.adjust_weights"
        ),
        "defense.fine_tune_rounds": tracer.count("executor.collect", under="defense.fine_tune"),
        "transport.messages": tracer.count("transport.transmit"),
        "obs.events": tracer.count("obs.metrics_emit"),
        "persist.saves": tracer.count("persist.save_checkpoint"),
    })
    values.update(result.layers)
    values["bench.other_frac"] = values["bench.other_s"] / result.wall_s
    return values


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: int, profile: bool, scratch: str):
    from tracing import Tracer
    from workloads import WORKLOADS

    with open(os.path.join(HERE, "reference.json")) as handle:
        reference = json.load(handle).get(name, {})
    tracer = Tracer()
    try:
        result = WORKLOADS[name](seed, seconds, tracer, profile, reference, scratch)
    finally:
        tracer.restore()
    return tracer, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table1_pair", "cohort_round", "service_stream"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    probe_s = machine_probe()
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "provenance": provenance(), "machine.probe_s": probe_s}
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    # a traced run's untraced pass is its overhead baseline; which of the two
    # runs first alternates with the seed, so that over a set of seeds the
    # first pass's cold start lands on each side of the overhead equally often
    if args.trace:
        profiles = (False, True) if args.seed % 2 == 0 else (True, False)
    else:
        profiles = (False,)
    try:
        passes = [run_workload(args.workload, args.seed, args.seconds, profile, scratch)
                  for profile in profiles]
    except Exception:
        traceback.print_exc()
        print(json.dumps(info))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    tracer, result = passes[profiles.index(bool(args.trace))]
    if args.trace:
        baseline = passes[profiles.index(False)][1]
        units = metric_units("per_layer")
        values = layer_metrics(tracer, result, units)
        values["machine.probe_s"] = probe_s
        values["obs.trace_overhead_frac"] = result.wall_s / baseline.wall_s - 1.0
        spans = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl")
        tracer.dump(spans)
        info["spans"] = os.path.relpath(spans, ROOT)
        info["untraced_wall_s"] = baseline.wall_s
        info["traced_wall_s"] = result.wall_s
    else:
        units = metric_units("end_to_end")
        values = dict(result.e2e)
        values["peak_rss_mb"] = peak_rss_mb()

    correct = all(result.checks.values())
    info.update(checks=result.checks, details=result.details,
                round_ms_p90=result.layers["round_ms_p90"])
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
