#!/usr/bin/env python3
"""Count how often the runs call each function of the package.

The traffic is the run matrix of scripts/output_digest.py (fig2, fig3 and
fig4 in five variants each, custom on two state documents and
scripts/relaxation_study.py), ``validate`` on both documents, and the first
N items (default 40) of each workload in bench/workloads.py, all in this
process under ``sys.setprofile``.  It prints one line per function defined
in src/nmrwitness, ``count  module:line  qualname``, in source order, the
called ones first and then every function with zero calls; a cached
function counts only its cache fills, and a function called only while the
package is imported (to build a constant) counts those calls:

    python scripts/traffic_calls.py
    python scripts/traffic_calls.py 5

Uses the package in this checkout's src/; reads bench/ but writes nothing
there.  Outputs go to a temporary directory that is removed afterwards.
"""

import argparse
import contextlib
import inspect
import io
import os
import runpy
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "nmrwitness"
SEED = 1    # the benchmark's recorded seed

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import output_digest  # noqa: E402  (imports numpy, not the package)


def defined_functions() -> dict:
    """(file, first line, qualname) -> module of every def in the package,
    found by walking the code objects of each compiled module; class
    bodies, lambdas and comprehensions are left out."""
    found = {}
    for path in sorted(PKG.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if hasattr(const, "co_code"):
                    stack.append(const)
                    if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                        key = (const.co_filename, const.co_firstlineno, const.co_qualname)
                        found[key] = path.stem
    return found


def run_traffic(n: int, out: Path):
    """The traffic described in the module docstring; SystemExit if a run fails."""
    from nmrwitness import cli

    import workloads

    os.environ.pop("NMRWITNESS_OUT", None)
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in output_digest.runs(out):
            if argv[:2] == ["-m", "nmrwitness"]:
                code = cli.main(argv[2:])
            else:
                saved, sys.argv = sys.argv, argv
                try:
                    runpy.run_path(argv[0], run_name="__main__")
                    code = 0
                finally:
                    sys.argv = saved
            if code != 0:
                sys.exit(f"{name} exited {code}")
        for doc in sorted((out / output_digest.INPUTS).glob("*.json")):
            if cli.main(["validate", str(doc)]) != 0:
                sys.exit(f"validate {doc.name} failed")
        for name, wl in workloads.WORKLOADS.items():
            work = out / f"workload-{name}"
            work.mkdir()
            for item in wl.build(SEED, work)[:n]:
                wl.run(item)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("n", nargs="?", type=int, default=40,
                        help="items of each benchmark workload (default 40)")
    args = parser.parse_args(argv)
    pkg_dir = str(PKG)
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(pkg_dir):
            code = frame.f_code
            counts[code.co_filename, code.co_firstlineno, code.co_qualname] += 1

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        try:
            run_traffic(args.n, Path(tmp))
        finally:
            sys.setprofile(None)

    functions = defined_functions()
    order = sorted(functions, key=lambda k: (counts[k] == 0, functions[k], k[1]))
    for key in order:
        print(f"{counts[key]:>9}  {functions[key]}:{key[1]}  {key[2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
