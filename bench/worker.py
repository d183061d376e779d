"""The timed side of the benchmark: runs ops against ``traceavert.cli.main``.

One process runs one workload as a single-client closed loop: the next op
starts when the previous one has returned and its output has been checked.
Only the ``main(argv)`` call is timed; the check, the clean-up of the report
directory, a garbage collection and the reference loop of
:func:`ops.reference_ms` (just before and just after the op) happen between
ops, outside the timing.

    python bench/worker.py WORK_DIR SECONDS TRACE

reads the plan that ``workloads.make_inputs`` wrote to ``WORK_DIR`` and prints
one JSON line with the latencies, counts and (when TRACE is 1) the per-layer
figures.  ``bench/cold.py`` times the first op of a fresh interpreter with
the same :func:`ops.run_op`.  Both expect ``src`` on ``PYTHONPATH``.
"""
from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import traceavert
from traceavert.infectivity import InfectivityProfile
from traceavert.oracle import SimConfig
from traceavert.params import default_params

import checks
import tracing
from ops import clear_reports, reference_ms, run_op

COLD = Path(__file__).resolve().parent / "cold.py"
COLD_TIMEOUT_S = 30
#: share of a run spent on fresh interpreters, and the bounds on their number
SPAWN_SHARE = 0.25
MIN_SPAWNS, MAX_SPAWNS = 7, 20


def make_checker(plan: dict):
    """A function ``(op, stdout) -> None`` that raises CheckFailed on a bad result.

    It checks an op by its command, so a workload may mix commands (the
    sweep workload also runs the golden default-parameter estimate).
    """
    series = checks.Series(plan["data"])
    out_dir = Path(plan["out_dir"])
    analytic = checks.per_type({})[1] if plan["workload"] == "oracle-simulate" else None

    def check(op: dict, stdout: str) -> None:
        command = op["argv"][0]
        if command == "estimate":
            checks.check_estimate(op, series, out_dir)
        elif command == "sweep":
            checks.check_sweep(op, series, stdout)
        else:
            checks.check_simulate(op, analytic, stdout)

    return check


def checked_op(op: dict, plan: dict, check, tracer=None) -> tuple[float, float, int, str | None]:
    """Run and check one op; return (seconds, reference ms, report bytes, error or None).

    The reference loop runs just before and just after the op, and the mean
    of the two times is returned, so it samples the host's speed on both
    sides of a long op.  With a tracer, its wrappers are in place only while
    the op runs, so the check's own library calls are never traced.
    """
    clear_reports(plan)
    gc.collect()
    before = reference_ms()
    if tracer:
        tracer.install()
    try:
        elapsed, stdout, error = run_op(op, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    reference = (before + reference_ms()) / 2.0
    out_dir = Path(plan["out_dir"])
    written = sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0
    if error is None:
        try:
            check(op, stdout)
        except checks.CheckFailed as exc:
            error = f"check failed: {exc}"
    return elapsed, reference, len(stdout.encode()) + written, error


def spawn_cold(work_dir: Path) -> dict:
    """Run op 0 in a fresh interpreter (``cold.py``); add ``setup_s`` and ``wall_s``."""
    env = dict(os.environ)
    src = str(Path(traceavert.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    started = perf_counter()
    done = subprocess.run([sys.executable, str(COLD), str(work_dir)], env=env, check=True,
                          capture_output=True, text=True, timeout=COLD_TIMEOUT_S)
    cold = json.loads(done.stdout.splitlines()[-1])
    cold["setup_s"] = cold["imported"] - started
    cold["wall_s"] = perf_counter() - started
    return cold


def run_loop(plan: dict, seconds: float, trace: bool, cold_starts: bool = False) -> dict:
    """The plan's golden op, if any, and op 0 run untimed first; then ops run
    until ``seconds`` of wall time have passed.

    With ``cold_starts``, fresh interpreters (see :func:`spawn_cold`) run
    while this process waits: one at the start, the rest at even intervals,
    so the cold and the warm figures sample the same stretch of time on a
    machine whose speed drifts.  They take about SPAWN_SHARE of the run, and
    number MIN_SPAWNS to MAX_SPAWNS unless that would take over half of it.
    With ``trace`` the ops alternate between traced and untraced, so the
    tracing overhead is measured on the same stretch of time too.
    """
    check = make_checker(plan)
    ops = plan["ops"]
    errors = []
    attempted = failed = 0
    # untimed: the golden op (if the plan has one), then op 0 as a warm-up
    for op in ([plan["golden_op"]] if "golden_op" in plan else []) + [ops[0]]:
        _, _, _, error = checked_op(op, plan, check)
        attempted += 1
        if error:
            failed += 1
            errors.append(error)
    latencies, references, report_bytes, units, cold = [], [], [], 0, []
    tracer = tracing.Tracer() if trace else None
    index = 1
    start = perf_counter()
    deadline = start + seconds
    spawns, spawn_at = 0, []
    if cold_starts:
        cold.append(spawn_cold(Path(plan["work_dir"])))
        fit = SPAWN_SHARE * seconds / cold[0]["wall_s"]
        spawns = max(1, min(MAX_SPAWNS, max(MIN_SPAWNS, int(fit)), int(2 * fit)))
        spawn_at = [start + seconds * i / spawns for i in range(spawns)]
    # every spawn is due before the deadline, so none is skipped by a long last op
    while perf_counter() < deadline or len(cold) < spawns:
        if len(cold) < spawns and perf_counter() >= spawn_at[len(cold)]:
            cold.append(spawn_cold(Path(plan["work_dir"])))
            continue
        op = ops[index % len(ops)]
        traced_op = trace and index % 2 == 1
        if traced_op:
            tracer.op = index
        elapsed, reference, size, error = checked_op(op, plan, check,
                                                     tracer if traced_op else None)
        attempted += 1
        if error:
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {index}: {error}")
        elif traced_op:
            report_bytes.append(size)
        else:
            latencies.append(1000.0 * elapsed)
            references.append(reference)
            units += op["units"]
        index += 1

    cold_errors = [f"cold op: {c['error']}" for c in cold if c["error"]]
    result = {
        "attempted": attempted + len(cold),
        "failed": failed + len(cold_errors),
        "errors": cold_errors[:5] + errors,
        "latencies_ms": latencies,
        "reference_ms": references,
        "units": units,
        "cold": cold,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
    }
    if trace:
        tracer.write(Path(plan["work_dir"]) / "spans.jsonl")
        profile = InfectivityProfile.from_params(default_params())
        result["layers"] = tracing.layer_metrics(
            tracer.spans, latencies, report_bytes, len(profile.i_w) / SimConfig().horizon)
    return result


def main(argv: list[str]) -> int:
    work_dir, seconds, trace = Path(argv[0]), float(argv[1]), argv[2] == "1"
    plan = json.loads((work_dir / "inputs.json").read_text(encoding="utf-8"))
    print(json.dumps(run_loop(plan, seconds, trace, cold_starts=not trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
