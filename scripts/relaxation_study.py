#!/usr/bin/env python3
"""Sweep the effective transverse relaxation times and record when the
witness and the quantum share of the correlations fall below threshold.

Writes one CSV row per (T2*_H scale, T2*_C scale) pair: the two crossing
times of the summary of one fig4 run at those parameters.

Usage:
    python scripts/relaxation_study.py --out results/relaxation_study.csv
"""

import argparse
from dataclasses import replace
from pathlib import Path

from nmrwitness import ExperimentConfig, run_fig4
from nmrwitness.harness import CLASSICALITY_BOUND
from nmrwitness.nmr import SpinSystemParams


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/relaxation_study.csv")
    parser.add_argument("--scales", type=float, nargs="+",
                        default=[0.5, 0.75, 1.0, 1.5, 2.0])
    parser.add_argument("--steps", type=int, default=24)
    parser.add_argument("--dt", type=float, default=0.0557)
    args = parser.parse_args()

    base = SpinSystemParams()
    lines = [f"t2s_h,t2s_c,first_t_witness_below_{CLASSICALITY_BOUND:g},"
             "first_t_quantum_below_1pct"]
    for sh in args.scales:
        for sc in args.scales:
            params = replace(base, t2s_h=base.t2s_h * sh, t2s_c=base.t2s_c * sc)
            summary = run_fig4(ExperimentConfig(experiment="fig4", params=params,
                                                delta_t=args.dt, n_steps=args.steps)).summary
            t_w = summary["first_t_witness_below_bound"]
            t_q = summary["first_t_quantum_below_1pct"]
            lines.append(f"{params.t2s_h:.4g},{params.t2s_c:.4g},"
                         f"{t_w if t_w is not None else ''},"
                         f"{t_q if t_q is not None else ''}")
            print(lines[-1])

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
