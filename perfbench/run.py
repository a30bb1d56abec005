"""vtfpar benchmark: one workload per call, in a fresh single-process
subprocess with a pinned thread environment.

    python3 perfbench/run.py --workload train-frozen --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Prints the workload's end-to-end metrics
by name with their units (``--trace 0``) or its per-layer metrics from a
traced run (``--trace 1``), then, as the last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The metric
names and units are the ones listed in ``BENCHMARK.json``. Exits 1 when an
output check fails and 2 when the checkout or the subprocess is unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("train-frozen", "train-unfrozen", "verify")

# One busy thread in every phase: OpenBLAS GEMMs and the vtfpar worker
# pool are both pinned to 1, which stays within nproc on any machine.
THREADS = {"VTFPAR_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
# Fresh-interpreter imports timed before and after the workload, so that
# their median is not taken from one swing of the machine's speed.
IMPORTS_BEFORE, IMPORTS_AFTER = 3, 2
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The checkout or the workload subprocess cannot produce a result."""


def pinned_env(seed: int) -> dict[str, str]:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(HERE), env.get("PYTHONPATH")) if p)
    # gradcheck seeds its op cases from hash(name); pin the hash seed
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    return env


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "vtfpar" / "__init__.py").is_file():
        raise BenchError(f"no vtfpar sources under {ROOT / 'src'}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from None


# Timed inside the fresh interpreter: timing from outside would include the
# 50 ms polling steps of subprocess.run's wait with a timeout.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import vtfpar; "
                "print(time.perf_counter() - t)")


def import_seconds(env: dict[str, str], deadline: float, n: int) -> list[float]:
    """Wall time of ``import vtfpar`` in fresh interpreters."""
    return [float(subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
        stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic())).stdout)
        for _ in range(n)]


def run_workload(args, env: dict[str, str], deadline: float) -> dict:
    WORK.mkdir(exist_ok=True)
    (WORK / "spans").mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(WORK / f"run-{os.getpid()}"),
           "--data-dir", str(WORK / f"data-{args.workload}"),
           "--spans", str(WORK / "spans" / f"{args.workload}.tsv")]
    try:
        # on timeout, subprocess.run kills the child and waits for it
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload exceeded {TIME_LIMIT_S:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload subprocess exited {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(record: dict, import_s: list[float]) -> dict[str, float]:
    """The BENCHMARK.json end-to-end metrics, in a form every workload has."""
    setup = statistics.median(import_s)
    if "setup_data_s" in record:
        setup += statistics.median(record["setup_data_s"])
    return {
        "setup_s": setup,
        "throughput_per_s": record["throughput_per_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "ok_share": 1.0 - record["failed"] / max(1, record["attempted"]),
    }


def print_report(record: dict, metrics: dict, units: dict,
                 import_s: list[float]) -> None:
    env = record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for c in record["checks"]:
        print(f"check {'PASS' if c['ok'] else 'FAIL'}  {c['name']}: {c['detail']}")
    if record["trace"]:
        per_layer = record["per_layer"]
        print(f"tracing overhead: traced job {record['traced_job_s']:.3f} s, "
              f"untraced job {record['untraced_job_s']:.3f} s, measured share "
              f"{per_layer['trace.overhead_share']:+.4f}; estimated from "
              f"{per_layer['trace.spans']:.0f} spans at the calibrated wrapper "
              f"cost: {per_layer['trace.overhead_est_share']:+.4f}")
        for layer, s in sorted(record["layer_self_s"].items()):
            print(f"self time  {layer:<10} {s:10.4f} s")
        print(f"spans written to {record['spans_file']}")
    else:
        # the seven end-to-end quantities named per workload; the JSON line
        # carries the BENCHMARK.json forms that every workload has
        named = [
            ("setup_s", metrics["setup_s"], "s"),
            ("train_samples_per_s", record.get("train_samples_per_s"), "1/s"),
            ("eval_tracklets_per_s", record.get("eval_tracklets_per_s"), "1/s"),
            ("heldout_macro_f1", record.get("heldout_macro_f1"), "F1"),
            ("verify_checks_per_s", record.get("verify_checks_per_s"), "1/s"),
            ("peak_rss_mb", record["peak_rss_mb"], "MB"),
            ("failed_share", record["failed"] / max(1, record["attempted"]),
             f"ratio ({record['failed']} failed / {record['attempted']} attempted)"),
        ]
        for name, value, unit in named:
            shown = "n/a" if value is None else repr(value)
            print(f"{name:<22} {shown:>20}  {unit}")
        print(f"throughput_per_s at the reference machine speed "
              f"{record['throughput_per_s']!r} 1/s; this run's machine speed "
              f"{record['machine_speed']:.3f} of the reference (median)")
        print("setup_s samples: import " + " ".join(f"{s:.3f}" for s in import_s)
              + "; dataset + model " + " ".join(
                  f"{s:.3f}" for s in record.get("setup_data_s", [])))
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vtfpar benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        spec = load_spec()
        kind = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[kind]}
        env = pinned_env(args.seed)
        import_s = [] if args.trace else import_seconds(env, deadline,
                                                        IMPORTS_BEFORE)
        record = run_workload(args, env, deadline)
        if not args.trace:
            import_s += import_seconds(env, deadline, IMPORTS_AFTER)
        values = record["per_layer"] if args.trace else end_to_end(record, import_s)
        missing = sorted(set(units) - set(values))
        if missing:
            raise BenchError(f"workload did not report {', '.join(missing)}")
    except (BenchError, subprocess.SubprocessError, KeyError, ValueError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    metrics = {name: values[name] for name in units}
    print_report(record, metrics, units, import_s)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
