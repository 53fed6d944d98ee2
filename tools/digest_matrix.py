#!/usr/bin/env python3
"""The behaviour contract: report digests of a fixed matrix of scenario runs.

``python tools/digest_matrix.py [--check | --update]``

Every configuration of the matrix is one ``python -m repro.apps.scenarios``
command line; its row in ``DIGESTS.json`` is what the run prints as its
``report digest``, ``events`` and network ``bytes``.  The matrix is every
registered workload at ``--nodes 40 --seed 3 --min-success 0`` under five
execution settings (plain, the flagship churn script, three controller
shards with the sanitizer and churn, the bundled availability trace, the
planetlab testbed with metrics and churn): 20 configurations.

* no flag: run the matrix and print it as JSON (nothing is written);
* ``--check``: run it and compare with ``DIGESTS.json``; every row that
  differs, is missing or is extra is listed, and the exit code is 1;
* ``--update``: run it and rewrite ``DIGESTS.json``.

A change that must not move results leaves the file as it is; a change that
moves some on purpose shows which ones in the diff of the file.  A run that
exits non-zero (a sanitizer violation, a handler error) fails the tool.
Stdlib only; about a minute of wall clock.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
DIGESTS = _REPO / "DIGESTS.json"

SETTINGS = ("", "--churn", "--ctl-shards 3 --sanitize --churn",
            "--churn-trace traces/synthetic_overnet.trace",
            "--testbed planetlab --metrics --churn")
BASE = "--nodes 40 --seed 3 --min-success 0"

_EVENTS = re.compile(r"^virtual time: .*\bevents: (\d+)$", re.M)
_BYTES = re.compile(r"^network: .*, (\d+) bytes$", re.M)
_DIGEST = re.compile(r"^report digest: ([0-9a-f]+)$", re.M)


def registered() -> list:
    """The workloads this tree registers, in registration order."""
    sys.path.insert(0, str(_REPO / "src"))
    try:
        from repro.apps.registry import scenario_names
        return scenario_names()  # imports the workloads
    finally:
        sys.path.pop(0)


def configurations() -> list:
    """Every command line of the matrix (the arguments after ``scenarios``)."""
    return [" ".join(filter(None, (workload, BASE, setting)))
            for workload in registered() for setting in SETTINGS]


def parse_row(stdout: str) -> dict:
    """``{digest, events_executed, bytes_sent}`` from a scenario's report."""
    fields = {"digest": _DIGEST, "events_executed": _EVENTS, "bytes_sent": _BYTES}
    row = {}
    for name, pattern in fields.items():
        match = pattern.search(stdout)
        if match is None:
            raise ValueError(f"no {name} in the report")
        row[name] = match.group(1) if name == "digest" else int(match.group(1))
    return row


def run(config: str) -> dict:
    """One scenario run of this tree; its row."""
    environment = dict(os.environ, PYTHONPATH=str(_REPO / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro.apps.scenarios", *config.split()],
        cwd=_REPO, env=environment, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{config}: exited {done.returncode}\n"
                         f"{done.stdout}{done.stderr}")
    return parse_row(done.stdout)


def differences(expected: dict, actual: dict) -> list:
    """One line per configuration whose row differs, is missing or is extra."""
    lines = []
    for config in sorted(set(expected) | set(actual)):
        if config not in actual:
            lines.append(f"{config}: in {DIGESTS.name}, not in the matrix")
        elif config not in expected:
            lines.append(f"{config}: not in {DIGESTS.name}")
        elif expected[config] != actual[config]:
            moved = ", ".join(
                f"{name} {expected[config].get(name)} -> {value}"
                for name, value in actual[config].items()
                if expected[config].get(name) != value)
            lines.append(f"{config}: {moved}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help=f"compare with {DIGESTS.name}, exit 1 on a difference")
    mode.add_argument("--update", action="store_true",
                      help=f"rewrite {DIGESTS.name}")
    args = parser.parse_args(argv)

    actual = {}
    for config in configurations():
        actual[config] = run(config)
        print(f"# {config}: {actual[config]['digest']}", file=sys.stderr)
    if args.update:
        DIGESTS.write_text(json.dumps(actual, indent=2) + "\n")
        print(f"wrote {len(actual)} rows to {DIGESTS.name}")
        return 0
    if not args.check:
        print(json.dumps(actual, indent=2))
        return 0
    lines = differences(json.loads(DIGESTS.read_text()), actual)
    for line in lines:
        print(line)
    print(f"{len(actual)} configurations, {len(lines)} difference(s)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
