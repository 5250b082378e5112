"""Run one written-down list of CLI commands on two source trees and diff
every artifact, stdout, stderr and exit code.

    python tools/bits_oracle.py OLD_SRC NEW_SRC [--work DIR]

OLD_SRC and NEW_SRC are directories that hold the ``mfjump`` package (a
checkout's ``src``). Each command of ``COMMANDS`` runs at ``--jobs`` 1 and 2
for each tree, as ``python -m mfjump.cli`` with ``PYTHONPATH`` set to that
tree, from a fresh directory that holds only a ``scenarios`` link and with
the same relative ``--out``, so that nothing but the tree differs between
the two runs. The linked directory holds this repository's scenarios and two
derived from ``correlated-intensities``: ``apart.json``, with a = [1, 2, 1],
whose equal components are not neighbours, and ``laws.json``, with sigma_z =
[0.1, 0.3, 0], alpha = [1.8, 1.3, 1.8] and sigma_power 1.02, whose components
are three distinct laws, one without a stable factor of its own, and which
``validate`` fails (exit 1). The runs are kept under ``--work`` (default: a
new temporary directory).

Prints one line per command and jobs pair and exits 0 when every pair is
identical, 1 otherwise. Standard library only.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "scenarios")

COMMANDS = [
    "simulate --scenario scenarios/thinned-jumps.json --paths 10000",
    "simulate --scenario scenarios/correlated-intensities.json --paths 300",
    "simulate --scenario scenarios/cir.json --paths 500",
    "approx --scenario scenarios/correlated-intensities.json --paths 1000 --levels 4 "
    "--refinements 3",
    "approx --scenario scenarios/correlated-intensities.json --paths 300 --levels 4 "
    "--refinements 4",
    "approx --scenario scenarios/correlated-intensities.json --mode staircase --paths 300",
    "approx --scenario scenarios/thinned-jumps.json --paths 300 --levels 3 --refinements 2",
    "approx --scenario scenarios/cir.json --paths 300 --levels 3",
    "uniqueness --scenario scenarios/cir.json --paths 600",
    "uniqueness --scenario scenarios/correlated-intensities.json --paths 300 --levels 4",
    "validate --scenario scenarios/cir.json",
    "validate --scenario scenarios/correlated-intensities.json",
    "validate --scenario scenarios/thinned-jumps.json",
    "simulate --scenario scenarios/apart.json --paths 300",
    "approx --scenario scenarios/apart.json --paths 300 --levels 4 --refinements 2",
    "approx --scenario scenarios/apart.json --mode staircase --paths 300 --levels 4",
    "uniqueness --scenario scenarios/apart.json --paths 300 --levels 4",
    "validate --scenario scenarios/laws.json",
]


DERIVED = {
    "apart": {"a": [1.0, 2.0, 1.0]},
    "laws": {"sigma_z": [0.1, 0.3, 0.0], "alpha": [1.8, 1.3, 1.8], "sigma_power": 1.02},
}  # name -> preset fields replaced in correlated-intensities


def write_scenarios(where: str) -> None:
    """Link the shipped scenarios into ``where`` and write the ``DERIVED``
    ones there."""
    os.makedirs(where)
    for name in os.listdir(SCENARIOS):
        os.symlink(os.path.join(SCENARIOS, name), os.path.join(where, name))
    for name, fields in DERIVED.items():
        with open(os.path.join(SCENARIOS, "correlated-intensities.json")) as fh:
            scenario = json.load(fh)
        scenario["name"] = name
        scenario["preset"].update(fields)
        with open(os.path.join(where, f"{name}.json"), "w") as fh:
            json.dump(scenario, fh, indent=2)


def run(src: str, scenarios: str, command: str, jobs: int, where: str) -> tuple:
    """(exit code, stdout, stderr) of one command run in the new directory ``where``."""
    os.makedirs(where)
    os.symlink(scenarios, os.path.join(where, "scenarios"))
    env = {k: v for k, v in os.environ.items() if k != "MFJUMP_OUT"}
    env["PYTHONPATH"] = src
    args = [sys.executable, "-m", "mfjump.cli"] + command.split()
    args += ["--out", "out", "--jobs", str(jobs)]
    done = subprocess.run(args, cwd=where, env=env, capture_output=True)
    return done.returncode, done.stdout, done.stderr


def tree_diff(old: str, new: str, rel: str = "") -> list:
    """Paths under ``rel`` whose presence or bytes differ between two run directories."""
    cmp = filecmp.dircmp(old, new, ignore=["scenarios"])
    _same, differ, errors = filecmp.cmpfiles(old, new, cmp.common_files, shallow=False)
    out = [os.path.join(rel, f) for f in
           cmp.left_only + cmp.right_only + cmp.funny_files + differ + errors]
    for sub in cmp.common_dirs:
        out += tree_diff(os.path.join(old, sub), os.path.join(new, sub),
                         os.path.join(rel, sub))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--work")
    args = parser.parse_args(argv)
    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="bits-oracle-"))
    srcs = {"old": os.path.abspath(args.old_src), "new": os.path.abspath(args.new_src)}
    scenarios = os.path.join(work, "scenarios")
    write_scenarios(scenarios)
    failed = 0
    for i, command in enumerate(COMMANDS):
        for jobs in (1, 2):
            dirs = {side: os.path.join(work, f"{i:02d}-j{jobs}-{side}") for side in srcs}
            got = {side: run(srcs[side], scenarios, command, jobs, dirs[side])
                   for side in srcs}
            diffs = [what for what, k in (("exit code", 0), ("stdout", 1), ("stderr", 2))
                     if got["old"][k] != got["new"][k]]
            diffs += tree_diff(dirs["old"], dirs["new"])
            failed += bool(diffs)
            verdict = "identical" if not diffs else "DIFFERS: " + ", ".join(diffs)
            print(f"[{i:02d} jobs {jobs}] exit {got['old'][0]}/{got['new'][0]} "
                  f"{command}: {verdict}", flush=True)
    print(f"{2 * len(COMMANDS) - failed} of {2 * len(COMMANDS)} runs identical; "
          f"runs kept in {work}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
