"""The first op in a fresh interpreter: ``python bench/cold.py WORK_DIR``.

``traceavert.cli`` is imported before anything else, and the clock is read
right after, so the parent can compute the import time from its own
``perf_counter`` reading taken before the spawn (CLOCK_MONOTONIC is shared
by all processes).  The op is op 0 of the plan in WORK_DIR; it is timed
before any other benchmark module is imported, between two runs of the
reference loop of :func:`ops.reference_ms`, and checked afterwards.
Prints one JSON line.
"""
import time

import traceavert.cli  # noqa: F401  (its import time is what setup_s measures)

IMPORTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from ops import clear_reports, reference_ms, run_op  # noqa: E402


def main(work_dir: Path) -> int:
    plan = json.loads((work_dir / "inputs.json").read_text(encoding="utf-8"))
    op = plan["ops"][0]
    clear_reports(plan)
    before = reference_ms()
    elapsed, stdout, error = run_op(op)
    ref_ms = (before + reference_ms()) / 2.0
    if error is None:
        import checks
        import worker
        try:
            worker.make_checker(plan)(op, stdout)
        except checks.CheckFailed as exc:
            error = f"check failed: {exc}"
    print(json.dumps({"imported": IMPORTED, "op_ms": 1000.0 * elapsed, "ref_ms": ref_ms,
                      "error": error}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(Path(sys.argv[1])))
