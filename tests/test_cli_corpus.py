"""CLI identity corpus: seeded in-process runs of every subcommand, with the
SHA-256 of each run's exit code, stdout, stderr and report files pinned in
``cli_corpus.sha256``.

A refactor must leave every run as it was.  The runs read input files written
to a temporary directory, whose path each outcome shows as ``<work>``.
numpy does not promise its ``Generator`` streams across versions, so the
digest file records the numpy version it was written with.  When a run
changes on purpose, rewrite the digests and review the diff of the digest file:

    PYTHONPATH=src python tests/test_cli_corpus.py --rewrite
"""
from __future__ import annotations

import contextlib
import dataclasses
import datetime as dt
import hashlib
import io
import math
import random
import shutil
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from traceavert import cli
from traceavert.params import ModelParams

DIGESTS = Path(__file__).with_name("cli_corpus.sha256")
#: trees per run, except where a case names its own count
TREES = 2_000
#: name: (trees, parameter overrides); each case draws its own seed
_SIMULATE = {
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
#: fields that are fractions, as opposed to delays in days
_FRACTIONS = tuple(f.name for f in dataclasses.fields(ModelParams) if isinstance(f.default, float))
#: weekly share of each typed count in the generated long series, about the
#: range of the bundled data
_SHARES = ((0.16, 0.43), (0.013, 0.13), (0.008, 0.083), (0.0, 0.0025), (0.0015, 0.0052))
_LONG_WEEKS = 2_000
_RAW_WEEKS = 8


def _params(overrides: dict) -> list[str]:
    return [arg for key, value in overrides.items() for arg in ("--param", f"{key}={value}")]


def _labels(monday: dt.date, weeks: int) -> list[str]:
    return ["%04d-%02d" % (monday + dt.timedelta(weeks=w)).isocalendar()[:2]
            for w in range(weeks)]


def _long_series(rng: random.Random) -> str:
    """A presplit series: random type shares of a total on a reflected random walk."""
    low, high = math.log(1e3), math.log(1e6)
    level, lines = math.log(5e4), ["week,c_total,c_sym,c_pers,c_ct,c_app_minus,c_app_plus"]
    for label in _labels(dt.date(1990, 1, 1), _LONG_WEEKS):
        level += rng.gauss(0.0, 0.1)
        level = 2 * high - level if level > high else 2 * low - level if level < low else level
        total = round(math.exp(level))
        typed = [int(total * rng.uniform(*share)) for share in _SHARES]
        lines.append(",".join(map(str, (label, total, *typed))))
    return "\n".join(lines) + "\n"


def _raw_inputs(rng: random.Random) -> tuple[str, str]:
    """Raw weekly counts from ISO week 2020-10 on, and the admissions of every day
    from that week's Monday to the last week's window end (Monday + 11)."""
    monday = dt.date(2020, 3, 2)
    raw = ["week,sym_positives,ct_found,app_with_symptoms,app_without_symptoms,k_app"]
    raw += [f"{label},{rng.randint(500, 1500)},{rng.randint(100, 500)},{rng.randint(10, 60)},"
            f"{rng.randint(5, 40)},0.5" for label in _labels(monday, _RAW_WEEKS)]
    hosp = ["date,admissions"]
    hosp += [f"{monday + dt.timedelta(days=day)},{rng.uniform(5.0, 15.0):.2f}"
             for day in range(7 * (_RAW_WEEKS - 1) + 12)]
    return "\n".join(raw) + "\n", "\n".join(hosp) + "\n"


def cases(work: Path) -> dict[str, list[str]]:
    """Case name to its argv; the input files the argvs name are written to ``work``,
    and reports go to ``work/out``.  Each subcommand draws from its own stdlib
    ``random`` stream."""
    found = {}
    rng = random.Random("simulate-corpus")
    for name, (trees, overrides) in _SIMULATE.items():
        argv = ["simulate", "--trees", str(trees), "--seed", str(rng.randrange(2**32))]
        found[f"simulate:{name}"] = argv + _params(overrides)

    bundled = resources.files("traceavert").joinpath("data", "weekly_cases.csv").read_text()
    rng = random.Random("estimate-corpus")
    raw_text, hosp_text = _raw_inputs(rng)
    lines = bundled.splitlines(keepends=True)
    inputs = {
        "long.csv": _long_series(rng),
        "raw.csv": raw_text,
        "hosp.csv": hosp_text,
        "gap.csv": "".join(lines[:5] + lines[6:]),  # week 2020-46 left out
        "bad.csv": "".join(lines[:5]) + lines[5].replace(",", ",x", 1) + "".join(lines[6:]),
    }
    for name, text in inputs.items():
        (work / name).write_text(text, encoding="utf-8")
    data = {name.removesuffix(".csv"): ["--data", str(work / name)] for name in inputs}
    raw = data["raw"] + ["--hosp", str(work / "hosp.csv")]
    out = ["--out", str(work / "out")]

    found["estimate:defaults"] = ["estimate", *out]
    for n in range(40):
        overrides = {name: round(rng.uniform(0.05, 0.95), 3)
                     for name in rng.sample(_FRACTIONS, rng.randint(2, 6))}
        overrides.update(t_ct=rng.randint(1, 7), t_app=rng.randint(1, 6))
        found[f"estimate:set-{n:02d}"] = ["estimate", *out, *_params(overrides)]
    found["estimate:long"] = ["estimate", *data["long"], *out]
    found["estimate:long-t_ct=6"] = ["estimate", *data["long"], *out, "--param", "t_ct=6"]
    found["estimate:raw"] = ["estimate", *raw, *out]
    found["estimate:raw-e_ct=0.3"] = ["estimate", *raw, *out, "--param", "e_ct=0.3"]
    found["estimate:exit1-gap"] = ["estimate", *data["gap"], *out]
    found["estimate:exit1-u_app=2"] = ["estimate", *out, "--param", "u_app=2"]
    found["estimate:exit2-not-a-number"] = ["estimate", *data["bad"], *out]
    # admissions / 0.9 fall below the reported positives
    found["estimate:exit2-raw-ihr=0.9"] = ["estimate", *raw, *out, "--param", "ihr=0.9"]

    for t_sym, t_plan in ((5, 2), (3, 1), (12, 1), (5, 20)):
        for t_ct in range(1, 8) if (t_sym, t_plan) == (5, 2) else (3,):
            for t_app in (1, 3, 6) if (t_sym, t_plan) == (5, 2) else (2,):
                delays = {"t_sym": t_sym, "t_plan": t_plan, "t_ct": t_ct, "t_app": t_app}
                found["lambda-table:" + ",".join(f"{k}={v}" for k, v in delays.items())] = [
                    "lambda-table", *_params(delays)]
    found["lambda-table:exit1-f_sym=-0.5"] = ["lambda-table", "--param", "f_sym=-0.5"]
    found["lambda-table:exit2-t_sym=13"] = ["lambda-table", "--param", "t_sym=13"]

    found["sweep:u_app"] = ["sweep", "--sweep", "u_app=0,0.16,0.5,1"]
    found["sweep:t_ct-out"] = ["sweep", "--sweep", "t_ct=1,3,5,7", *out]
    found["sweep:long-f_app-out"] = ["sweep", *data["long"], "--sweep", "f_app=0.2,0.8", *out]
    found["sweep:raw-ihr-out"] = ["sweep", *raw, "--sweep", "ihr=0.01,0.02", *out]
    found["sweep:exit1-u_app=1.5"] = ["sweep", "--sweep", "u_app=0.5,1.5", *out]
    found["sweep:exit2-t_ct=0"] = ["sweep", "--sweep", "t_ct=2,0", *out]

    found["validate:defaults"] = ["validate"]
    found["validate:raw"] = ["validate", *raw]
    found["validate:exit1-gap"] = ["validate", *data["gap"]]
    found["validate:exit1-a_sym=2"] = ["validate", "--param", "a_sym=2"]
    found["validate:exit2-not-a-number"] = ["validate", *data["bad"]]
    return found


def outcome(argv: list[str], work: Path) -> bytes:
    """Exit code, stdout and stderr of one in-process run, ``work`` shown as
    ``<work>``, then the name and bytes of each report it wrote, which are removed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    text = repr((code, *(stream.getvalue().replace(str(work), "<work>") for stream in (out, err))))
    reports = work / "out"
    files = sorted(reports.iterdir()) if reports.exists() else []
    shown = b"".join(repr((path.name, path.read_bytes())).encode() for path in files)
    shutil.rmtree(reports, ignore_errors=True)
    return text.encode() + shown


def digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as name:
        work = Path(name)
        return {case: hashlib.sha256(outcome(argv, work)).hexdigest()
                for case, argv in cases(work).items()}


def test_cli_outcomes_match_the_pinned_digests():
    lines = DIGESTS.read_text().splitlines()
    pinned = dict(line.split() for line in lines if line and not line.startswith("#"))
    found = digests()
    assert set(found) == set(pinned)
    changed = [name for name, digest in found.items() if pinned[name] != digest]
    assert not changed, (f"{len(changed)} CLI run(s) changed: {', '.join(changed)} "
                         f"(pinned as {lines[0]!r}, running numpy {np.__version__})")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        raise SystemExit(f"usage: {sys.argv[0]} --rewrite")
    lines = [f"# SHA-256 of each CLI run, numpy {np.__version__}; rewrite with: "
             f"PYTHONPATH=src python tests/{Path(__file__).name} --rewrite"]
    lines += [f"{name} {digest}" for name, digest in digests().items()]
    DIGESTS.write_text("\n".join(lines) + "\n")
