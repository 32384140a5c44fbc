#!/usr/bin/env python3
"""Run a fixed matrix of experiments and print the sha256 of every output.

The matrix is fig2, fig3 and fig4, each plain, --pulse-level, --noise,
--pulse-level --noise and --seed 3 --normalization raw; custom on one
Bell-diagonal and one Ginibre state document built here; and
scripts/relaxation_study.py.  Each run writes under its own directory of OUT,
which must be new or empty, and uses the package in this checkout's src/.
One line per output file, ``sha256  path`` relative to OUT, sorted by path;
timing side files are skipped, since they hold wall-clock times.  Two
checkouts give the same outputs when their digests do:

    python scripts/output_digest.py /tmp/digest-a > a.txt
    python scripts/output_digest.py /tmp/digest-b > b.txt
    diff a.txt b.txt
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIGURE_VARIANTS = {
    "plain": [],
    "pulse-level": ["--pulse-level"],
    "noise": ["--noise"],
    "pulse-level-noise": ["--pulse-level", "--noise"],
    "seed3-raw": ["--seed", "3", "--normalization", "raw"],
}
TIMING_FILES = {"timing.json"}
INPUTS = "inputs"


def state_documents() -> dict:
    """A Bell-diagonal Bloch document and a seeded Ginibre state in
    deviation form at epsilon = 0.25."""
    g = np.random.default_rng(0).standard_normal((4, 4, 2)) @ np.array([1.0, 1j])
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    epsilon = 0.25
    delta = (rho - np.eye(4) / 4.0) / epsilon
    delta = (delta + delta.conj().T) / 2.0
    delta -= np.trace(delta) / 4.0 * np.eye(4)
    return {
        "bell": {"bloch": {"a": [0.0] * 3, "b": [0.0] * 3, "c": [0.3, -0.2, 0.5]}},
        "ginibre": {"epsilon": epsilon, "delta_re": delta.real.tolist(),
                    "delta_im": delta.imag.tolist()},
    }


def runs(out: Path) -> list:
    """(name, argv) of every run of the matrix."""
    matrix = []
    for fig in ("fig2", "fig3", "fig4"):
        for variant, flags in FIGURE_VARIANTS.items():
            name = f"{fig}-{variant}"
            matrix.append((name, ["-m", "nmrwitness", fig, *flags, "--out", str(out / name)]))
    for kind, doc in state_documents().items():
        path = out / INPUTS / f"{kind}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")
        name = f"custom-{kind}"
        matrix.append((name, ["-m", "nmrwitness", "custom", str(path), "--out", str(out / name)]))
    matrix.append(("relaxation_study", [str(ROOT / "scripts" / "relaxation_study.py"), "--out",
                                        str(out / "relaxation_study" / "relaxation_study.csv")]))
    return matrix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", help="directory for the outputs (created if missing)")
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty; give a new or empty directory")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("NMRWITNESS_OUT", None)
    for name, cmd in runs(out):
        proc = subprocess.run([sys.executable, *cmd], env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out)
        if rel.parts[0] == INPUTS or path.name in TIMING_FILES:
            continue
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
