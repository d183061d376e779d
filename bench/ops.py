"""Running one op: a ``traceavert.cli.main(argv)`` call, timed, and the
reference loop that op times are divided by.

Kept apart from the checks and the tracer so that ``cold.py`` can time the
first op of a fresh interpreter before it imports anything else of the
benchmark.
"""
from __future__ import annotations

import contextlib
import io
from pathlib import Path
from time import perf_counter

import traceavert.cli

#: iterations of the reference loop: about 10 ms on the reference machine
REFERENCE_LOOPS = 150_000


def clear_reports(plan: dict) -> None:
    """Delete the previous op's reports, so a stale file cannot pass a check."""
    out_dir = Path(plan["out_dir"])
    if out_dir.is_dir():
        for path in out_dir.iterdir():
            path.unlink()


def reference_ms() -> float:
    """Time a fixed pure-Python loop that no change to the program can speed up.

    The host's speed drifts by up to about 1.7x, in states that last from
    seconds to minutes.  An op's time divided by this loop's time, measured next to
    it, cancels that drift and keeps what the program itself costs.
    """
    start = perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return 1000.0 * (perf_counter() - start)


def run_op(op: dict, tracer=None) -> tuple[float, str, str | None]:
    """Time one ``main(argv)`` call; return (seconds, stdout, error or None).

    An op fails on a nonzero exit status or an exception.  With a tracer,
    the call is recorded as the ``op`` span that parents every layer span.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    span = tracer.open("op") if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = traceavert.cli.main(op["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash of the program under test is a failed op
        code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer:
            tracer.close(span)
    elapsed = perf_counter() - start
    if error is None and code != 0:
        error = f"exit status {code}: {err.getvalue().strip()[:200]}"
    return elapsed, out.getvalue(), error
