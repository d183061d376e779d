"""The traceavert benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``, never from an installed copy.  The seeded inputs are written to
``.bench_work/NAME/`` before anything is timed.

``--trace 0`` measures the end-to-end metrics: one process runs ops in a
closed loop for S seconds, and at even intervals in between it waits for a
fresh interpreter that imports ``traceavert.cli`` (``setup_s``) and runs the
first op (``cold_op_ref``).  ``--trace 1`` runs the closed loop with every
other op traced and reports the per-layer metrics.  Every op's output is
checked.  The last line of standard output is one JSON object; the run
record (machine, versions, seed, sample counts, ``src/`` line counts) goes to
``.bench_work/NAME/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import UNITS as LAYER_UNITS
from workloads import WORKLOADS, make_inputs

BENCH = Path(__file__).resolve().parent

#: every end-to-end metric, with its unit.  An op's time in ``ref_loops`` is
#: its time over that of the reference loop of ``ops.reference_ms``, run next
#: to it, which cancels the host's speed drift.
UNITS = {
    "setup_s": "s", "cold_op_ref": "ref_loops", "op_p50_ref": "ref_loops",
    "op_tail_ref": "ref_loops", "peak_rss_mb": "MB", "ok_frac": "fraction",
}
#: figures in wall time that are printed and recorded but are not metrics,
#: because they follow the host's speed state (see README)
RECORDED_UNITS = {
    "cold_op_ms": "ms", "op_p50_ms": "ms", "op_tail_ms": "ms", "work_per_s": "1/s",
    "reference_ms": "ms",
}
#: a timing percentile must have at least this many samples above it
TAIL_SAMPLES = 10
#: limits that end a hung run within three minutes
WARMUP_TIMEOUT_S = 20
WORKER_SLACK_S = 100


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed op)."""


def _spawn(args: list[str], env: dict, timeout: float):
    """Run a benchmark script in a fresh interpreter and parse its JSON line.

    The child gets its own process group, so a timeout also ends the
    interpreters it started itself.
    """
    child = subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError(f"{args[0]} did not finish within {timeout:.0f} s") from None
    if child.returncode != 0:
        raise BenchError(f"{args[0]} exited with {child.returncode}:\n{stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency at the highest percentile with TAIL_SAMPLES samples above it.

    Returns (latency, percentile).  With too few samples it falls back to the
    maximum, reported as percentile 100.
    """
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_SAMPLES - 1
    if rank < 0:
        return ordered[-1], 100.0
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def src_line_counts(root: Path) -> dict[str, int]:
    return {path.name: len(path.read_text(encoding="utf-8").splitlines())
            for path in sorted((root / "src" / "traceavert").glob("*.py"))}


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        ref_path = root / ".git" / ref[5:]
        return ref_path.read_text(encoding="utf-8").strip() if ref_path.is_file() else ref
    return ref


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (result line, run record)."""
    work_dir = root / ".bench_work" / workload
    shutil.rmtree(work_dir, ignore_errors=True)
    plan = make_inputs(root, workload, seed, work_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

    # untimed: compiles bytecode and warms the file cache for the timed spawns
    warm = _spawn(["-c", "import json, traceavert.cli; print(json.dumps(traceavert.cli.__file__))"],
                  env, WARMUP_TIMEOUT_S)
    if not Path(warm).resolve().is_relative_to(root / "src"):
        raise BenchError(f"traceavert was imported from {warm}, not from src/")
    loop = _spawn([str(BENCH / "worker.py"), str(work_dir), str(seconds), str(int(trace))],
                  env, seconds + WORKER_SLACK_S)

    cold = loop["cold"]
    attempted, failed, errors = loop["attempted"], loop["failed"], loop["errors"]
    latencies = loop["latencies_ms"]
    relative = [op / ref for op, ref in zip(latencies, loop["reference_ms"])]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "unit_of_work": plan["unit"],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "cores": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": loop["numpy"],
        "commit": git_commit(root),
        "src_lines": src_line_counts(root),
        "timed_ops": len(latencies),
        "fail_frac": failed / attempted,
    }
    if trace:
        record["layers"] = loop["layers"]
        metrics = loop["layers"]
    else:
        if not latencies:
            raise BenchError("no warm op completed in the timed phase")
        op_tail, percentile = tail(relative)
        record.update({
            "setup_spawns": len(cold),
            "setup_s_samples": [c["setup_s"] for c in cold],
            "cold_op_ms_samples": [c["op_ms"] for c in cold],
            "cold_ref_ms_samples": [c["ref_ms"] for c in cold],
            "op_ms_samples": latencies,
            "ref_ms_samples": loop["reference_ms"],
            "tail_percentile": percentile,
            "tail_samples_beyond": sum(1 for x in relative if x > op_tail),
            "cold_op_ms": statistics.median(c["op_ms"] for c in cold),
            "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": tail(latencies)[0],
            "work_per_s": loop["units"] / (sum(latencies) / 1000.0),
            "reference_ms": statistics.median(loop["reference_ms"]),
        })
        metrics = {
            "setup_s": statistics.median(c["setup_s"] for c in cold),
            "cold_op_ref": statistics.median(c["op_ms"] / c["ref_ms"] for c in cold),
            "op_p50_ref": statistics.median(relative),
            "op_tail_ref": op_tail,
            "peak_rss_mb": loop["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
    record["metrics"] = metrics
    (work_dir / f"record-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "traceavert" / "cli.py").is_file():
        print("error: run from the root of a traceavert source checkout "
              "(src/traceavert/cli.py not found)", file=sys.stderr)
        return 2
    try:
        result, record = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = LAYER_UNITS if args.trace else UNITS
    for error in record["errors"]:
        print(f"failed op: {error}")
    print(f"{args.workload} seed={args.seed} ops={result['attempted']} "
          f"failed={result['failed']} fail_frac={record['fail_frac']:.4f}")
    if not args.trace:
        print(f"op_tail_ref is p{record['tail_percentile']:.1f} of {record['timed_ops']} warm ops; "
              f"work unit: {record['unit_of_work']}")
    for name, value in result["metrics"].items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")
    for name, unit in RECORDED_UNITS.items():
        if name in record:
            print(f"  {name:<32} {record[name]:>14.6g} {unit} (recorded, not a metric)")
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        print("error: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
