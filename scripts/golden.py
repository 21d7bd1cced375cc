#!/usr/bin/env python3
"""Golden digests of every experiment's quick-scale CSV output.

Pins what the figures are: for each experiment named by `repro --list`,
runs `repro --quick --csv --quiet <exp>` at the default seed (2013) and
compares the SHA-256 of its stdout with the committed digest in
tests/golden/quick-2013.sha256 (`sha256sum` format, one line per
experiment, in `--list` order).

    python3 scripts/golden.py check    # exit 1 on any mismatch
    python3 scripts/golden.py update   # rewrite the digest file
    python3 scripts/golden.py full     # full-scale run vs repro_full.txt

`full` runs `repro --quiet --jobs 2 all` (about a minute on two cores)
and diffs its stdout against the committed repro_full.txt, ignoring the
`[<exp> completed in <N>s]` timing lines. Run it for any change to
desc-sim, desc-core or desc-workloads.

Builds the release `repro` binary first (cargo, offline-capable; the
workspace has no external dependencies). A change that is meant to
move a figure regenerates the file with `update` and says so; any
other change must leave `check` green.
"""

import difflib
import hashlib
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "golden" / "quick-2013.sha256"
FULL = ROOT / "repro_full.txt"
REPRO = ROOT / "target" / "release" / "repro"
TIMING = re.compile(r"^\[\S+ completed in [0-9.]+s\]$")


def build():
    subprocess.run(
        ["cargo", "build", "--release", "-q", "-p", "desc-experiments", "--bin", "repro"],
        cwd=ROOT,
        check=True,
    )


def experiments():
    out = subprocess.run([REPRO, "--list"], check=True, capture_output=True, text=True)
    return out.stdout.split()


def digest(exp):
    out = subprocess.run(
        [REPRO, "--quick", "--csv", "--quiet", exp], check=True, capture_output=True
    )
    return hashlib.sha256(out.stdout).hexdigest()


def current():
    return {exp: digest(exp) for exp in experiments()}


def load():
    pinned = {}
    for line in DIGESTS.read_text().splitlines():
        sha, name = line.split(maxsplit=1)
        pinned[name] = sha
    return pinned


def untimed(text):
    return [line for line in text.splitlines() if not TIMING.match(line)]


def full():
    out = subprocess.run(
        [REPRO, "--quiet", "--jobs", "2", "all"], check=True, capture_output=True, text=True
    )
    want, got = untimed(FULL.read_text()), untimed(out.stdout)
    if want != got:
        diff = difflib.unified_diff(want, got, "repro_full.txt", "repro all", lineterm="")
        print("golden: full-scale output diverged from repro_full.txt:", file=sys.stderr)
        print("\n".join(list(diff)[:60]), file=sys.stderr)
        return 1
    print(f"golden: full-scale output matches repro_full.txt ({len(want)} lines)")
    return 0


def main(argv):
    if len(argv) != 2 or argv[1] not in ("check", "update", "full"):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: golden.py check|update|full", file=sys.stderr)
        return 2
    build()
    if argv[1] == "full":
        return full()
    digests = current()
    if argv[1] == "update":
        DIGESTS.parent.mkdir(parents=True, exist_ok=True)
        DIGESTS.write_text("".join(f"{sha}  {exp}\n" for exp, sha in digests.items()))
        print(f"golden: wrote {len(digests)} digests to {DIGESTS.relative_to(ROOT)}")
        return 0
    pinned = load()
    failures = []
    for exp in sorted(pinned.keys() | digests.keys()):
        want, got = pinned.get(exp), digests.get(exp)
        if want != got:
            failures.append(f"  {exp}: pinned {want or 'none'}, got {got or 'none'}")
    if failures:
        print("golden: quick-scale outputs diverged from the pinned digests:", file=sys.stderr)
        print("\n".join(failures), file=sys.stderr)
        return 1
    print(f"golden: {len(digests)} experiments match the pinned digests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
