#!/usr/bin/env python3
"""Produce the standard ratio figures as CSV + SVG into an output directory.

Four plane-wave sweeps (electron and proton at 1 MeV, q-1 of 1e-9 and
1e-12) and one packet sweep (natural units, q-1 = 1e-3).  Everything
goes through cli.main, so the files here are byte-identical to what a
shell invocation would produce, and the script runs as a qwave process
does: through cli.run, without the cyclic garbage collector.

Usage: python scripts/run_figures.py [--outdir figures] [--points N]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qwave import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="figures")
    ap.add_argument("--points", type=int, default=2001)
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    jobs = []
    for species in ("electron", "proton"):
        for qm1 in ("1e-9", "1e-12"):
            name = f"ratio_{species}_qm1_{qm1}.csv"
            jobs.append([
                "ratio",
                "--species", species,
                "--energy-mev", "1.0",
                "--q-minus-1", qm1,
                "--points", str(args.points),
                "--out", os.path.join(args.outdir, name),
                "--plot", "svg",
            ])
    jobs.append([
        "ratio", "--gaussian",
        "--q-minus-1", "1e-3",
        "--m", "1.0", "--beta", "1.0",
        "--out", os.path.join(args.outdir, "ratio_gaussian_qm1_1e-3.csv"),
        "--plot", "svg",
    ])

    for argv in jobs:
        code = cli.main(argv)
        if code != 0:
            print(f"failed ({code}): {' '.join(argv)}", file=sys.stderr)
            return code
        print("wrote", argv[argv.index("--out") + 1])
    return 0


if __name__ == "__main__":
    cli.run(main)
