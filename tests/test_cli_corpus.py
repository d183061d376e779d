"""CLI identity corpus: seeded in-process ``simulate`` runs, with the SHA-256 of
each run's exit code, stdout and stderr pinned in ``cli_corpus.sha256``.

An oracle refactor must leave every run as it was.  numpy does not promise its
``Generator`` streams across versions, so the digest file records the numpy
version it was written with.  When a run changes on purpose, rewrite the
digests and review the diff of the digest file:

    PYTHONPATH=src python tests/test_cli_corpus.py --rewrite
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

import numpy as np

from traceavert import cli

DIGESTS = Path(__file__).with_name("cli_corpus.sha256")
#: trees per run, except where a case names its own count
TREES = 2_000
#: name: (trees, parameter overrides); each case draws its own seed
_CASES = {
    "defaults": (TREES, {}),
    **{f"t_ct={days}": (TREES, {"t_ct": days}) for days in range(1, 8)},
    "t_app=1": (TREES, {"t_app": 1}),
    "t_app=6": (TREES, {"t_app": 6}),
    # a detection window past the oracle's 16-day cut, and one past the float range
    "t_plan=20": (TREES, {"t_plan": 20}),
    "t_plan=1e21": (TREES, {"t_plan": 10**21}),
    "u_app=0": (TREES, {"u_app": 0}),
    "u_app=1": (TREES, {"u_app": 1}),
    "a_sym=0": (TREES, {"a_sym": 0}),
    "t_sym=12": (TREES, {"t_sym": 12}),
    "f_ct=0,f_app=1": (TREES, {"f_ct": 0, "f_app": 1}),
    # several blocks of the oracle
    "trees=20000": (20_000, {}),
    "exit1-u_app=2": (TREES, {"u_app": 2}),
    "exit2-t_plan=0": (TREES, {"t_plan": 0}),
}


def cases() -> dict[str, list[str]]:
    """Case name to its ``simulate`` argv, with a seed drawn from stdlib ``random``."""
    rng = random.Random("simulate-corpus")
    found = {}
    for name, (trees, overrides) in _CASES.items():
        argv = ["simulate", "--trees", str(trees), "--seed", str(rng.randrange(2**32))]
        for key, value in overrides.items():
            argv += ["--param", f"{key}={value}"]
        found[name] = argv
    return found


def outcome(argv: list[str]) -> bytes:
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return repr((code, out.getvalue(), err.getvalue())).encode()


def digests() -> dict[str, str]:
    return {name: hashlib.sha256(outcome(argv)).hexdigest() for name, argv in cases().items()}


def test_simulate_outcomes_match_the_pinned_digests():
    lines = DIGESTS.read_text().splitlines()
    pinned = dict(line.split() for line in lines if line and not line.startswith("#"))
    found = digests()
    assert set(found) == set(pinned)
    changed = [name for name, digest in found.items() if pinned[name] != digest]
    assert not changed, (f"{len(changed)} simulate run(s) changed: {', '.join(changed)} "
                         f"(pinned as {lines[0]!r}, running numpy {np.__version__})")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        raise SystemExit(f"usage: {sys.argv[0]} --rewrite")
    lines = [f"# SHA-256 of each simulate run, numpy {np.__version__}; rewrite with: "
             f"PYTHONPATH=src python tests/{Path(__file__).name} --rewrite"]
    lines += [f"{name} {digest}" for name, digest in digests().items()]
    DIGESTS.write_text("\n".join(lines) + "\n")
