"""Loader identity corpus: seeded byte mutations of four small files (three
weekly files and a daily admissions file), each loaded, with the SHA-256 of
every outcome pinned in ``loader_corpus.sha256``.  Each base file has a
one-site family (one mutation) and a two-site family (a second mutation of a
one-site file), so that a file can hold a bad row ahead of a later ragged or
unreadable one.

A loader refactor must leave every outcome as it was: the same labels and
array bytes, or the same error type and message.  When an outcome changes on
purpose, rewrite the digests and review the diff of the digest file:

    PYTHONPATH=src python tests/test_loader_corpus.py --rewrite
"""
from __future__ import annotations

import hashlib
import random
import sys
import tempfile
from pathlib import Path

from traceavert import cases

DIGESTS = Path(__file__).with_name("loader_corpus.sha256")
#: the name a loader's message shows in place of the file's temporary path
SHOWN_PATH = "corpus.csv"
#: files per base file and family
CASES = 200
#: what a mutation inserts or writes over: NUL, CR, LF, a quote, a byte-order
#: mark, a byte that is not UTF-8, non-finite and negative numbers, a comma, digits
ALPHABET = (b"\0", b"\r", b"\n", b'"', b"\xef\xbb\xbf", b"\xff", b"nan", b"inf", b"1e400",
            b"-1", b",", *(str(digit).encode() for digit in range(10)))


def _quoted(text: str) -> str:
    """``text`` with every cell in double quotes; blank lines stay blank."""
    return "\n".join(",".join(f'"{cell}"' for cell in line.split(",")) if line else line
                     for line in text.split("\n"))


_PRESPLIT = ("week,c_total,c_sym,c_pers,c_ct,c_app_minus,c_app_plus\n"
             "2020-42,134772,53531,1760,1029,0,344\n"
             "2020-43,145302,62259,2309,1243,0,705\n"
             "2020-44,134014,55732,4284,2604,0,600\n"
             "2020-45,114620.5,37278,4090,2567.25,0,380\n"
             "2020-46,97650,30140,4390,2770,0,372\n"
             "2020-47,91210,28481,4888,3121,0,328\n"
             "2020-48,83407,25070,4869,3088,0,377\n"
             "2020-49,100073,30195,6926,4375,106,447\n")
_RAW = ("week,sym_positives,ct_found,app_with_symptoms,app_without_symptoms,k_app\n"
        "2020-10,100,50,10,5,0.5\n"
        "2020-11,120,60,12,6,0.5\n"
        "2020-12,131.5,64,11,7,0.25\n"
        "2020-13,90,41,8,3,0.5\n"
        "2020-14,85,40,9,0,0.5\n"
        "2020-15,70,33,7,2,0.75\n"
        "2020-16,64,30,6,1,0.5\n"
        "2020-17,61,28,4,1,0.5\n")
_HOSP = "date,admissions\n" + "".join(
    f"2020-03-{day:02d},{count}\n"
    for day, count in zip(range(2, 16), (3, 5, 4, 8, 7.5, 11, 10, 14, 13, 0, 18, 21, 19.25, 24)))
#: name: (loader, unmutated file)
BASES = {
    "presplit": (cases.load_presplit_csv, _PRESPLIT.encode()),
    "quoted": (cases.load_presplit_csv, _quoted(_PRESPLIT).encode()),
    "raw": (cases.load_raw_csv, _RAW.encode()),
    "hosp": (cases.load_hospitalizations_csv, _HOSP.encode()),
}


def mutated(base: bytes, seed: int | str) -> bytes:
    """``base`` with 1-3 bytes at one seeded offset inserted, replaced or deleted;
    what is inserted or written is 1-3 draws from ``ALPHABET``."""
    rng = random.Random(seed)
    action, size = rng.choice(("insert", "replace", "delete")), rng.randint(1, 3)
    new = b"".join(rng.choice(ALPHABET) for _ in range(size)) if action != "delete" else b""
    if action == "insert":
        at = rng.randrange(len(base) + 1)
        return base[:at] + new + base[at:]
    at = rng.randrange(len(base))
    return base[:at] + new + base[at + size:]


def outcome(load, path: Path) -> bytes:
    """What loading ``path`` gives: labels and array bytes, or ``type: message``."""
    try:
        result = load(path)
    except Exception as exc:  # noqa: BLE001 -- the type is part of the outcome
        return f"{type(exc).__name__}: {exc}".replace(str(path), SHOWN_PATH).encode()
    if isinstance(result, cases.CaseSeries):
        return repr(result.labels).encode() + result.total.tobytes() + result.counts.tobytes()
    return repr(result[0]).encode() + result[1].tobytes()


def digests(skip_nul: bool = False) -> dict[str, str]:
    """Case name to the SHA-256 of its outcome; ``skip_nul`` leaves out files with a
    NUL, which the csv module of Python 3.10 rejects with its own message."""
    found = {}
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / SHOWN_PATH
        for kind, (load, base) in BASES.items():
            for index in range(CASES):
                name, twice = f"{kind}-{index:03d}", f"{kind}-2-{index:03d}"
                files = {name: mutated(base, name),
                         twice: mutated(mutated(base, twice + "a"), twice + "b")}
                for case, data in files.items():
                    if skip_nul and b"\0" in data:
                        continue
                    path.write_bytes(data)
                    found[case] = hashlib.sha256(outcome(load, path)).hexdigest()
    return found


def test_loader_outcomes_match_the_pinned_digests():
    pinned = dict(line.split() for line in DIGESTS.read_text().splitlines()
                  if line and not line.startswith("#"))
    found = digests(skip_nul=sys.version_info < (3, 11))
    assert set(found) <= set(pinned) and len(pinned) == len(BASES) * 2 * CASES
    changed = sorted(name for name, digest in found.items() if pinned[name] != digest)
    assert not changed, f"{len(changed)} loader outcome(s) changed: {', '.join(changed)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        raise SystemExit(f"usage: {sys.argv[0]} --rewrite")
    lines = [f"# SHA-256 of each loader outcome; rewrite with: "
             f"PYTHONPATH=src python tests/{Path(__file__).name} --rewrite"]
    lines += [f"{name} {digest}" for name, digest in digests().items()]
    DIGESTS.write_text("\n".join(lines) + "\n")
