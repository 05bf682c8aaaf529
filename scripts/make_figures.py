#!/usr/bin/env python3
"""Produce figure-quality robustness data for all six techniques.

For every committed figure config this sweeps each technique over the same
axes (at a denser 2-D grid than the CI goldens) and writes one CSV per
technique plus a gnuplot script, under out/figN/.

    python3 scripts/make_figures.py [--fig N] [--outdir out] [--workers W]
"""
from __future__ import annotations

import argparse
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from pulselab.config import build_config, parse_kv  # noqa: E402
from pulselab.protocols import PROTOCOL_KINDS, nominal_spec  # noqa: E402
from pulselab.serialize import write_result  # noqa: E402
from pulselab.sweep import SweepAxis, sweep1d, sweep2d  # noqa: E402

PRODUCTION_2D_POINTS = 101


def run_figure(cfg_path: pathlib.Path, outdir: pathlib.Path, workers: int) -> None:
    cfg = build_config(parse_kv(cfg_path.read_text()))
    axes = cfg.axes
    if len(axes) == 2:
        axes = tuple(
            SweepAxis(ax.channel, ax.lo, ax.hi, PRODUCTION_2D_POINTS) for ax in axes
        )
    figdir = outdir / cfg_path.stem
    figdir.mkdir(parents=True, exist_ok=True)
    for kind in PROTOCOL_KINDS:
        spec = nominal_spec(kind, cfg.protocol.T)
        if len(axes) == 1:
            result = sweep1d(spec, axes[0], cfg.errors, cfg.integrator, workers)
        else:
            result = sweep2d(spec, axes[0], axes[1], cfg.errors, cfg.integrator, workers)
        path = figdir / f"{kind.lower()}.csv"
        path.write_bytes(write_result(result, "csv"))
        print(f"wrote {path}")
    _write_gnuplot(figdir, axes)


def _write_gnuplot(figdir: pathlib.Path, axes) -> None:
    gp = figdir / "plot.gp"
    lines = ["set datafile separator ','", "set key bottom center"]
    if len(axes) == 1:
        lines += [
            f"set xlabel '{axes[0].channel}'",
            "set ylabel 'P'",
            "set yrange [0:1.02]",
            "plot "
            + ", ".join(
                f"'{k.lower()}.csv' skip 1 using 1:2 with lines title '{k}'"
                for k in PROTOCOL_KINDS
            ),
        ]
    else:
        lines += [
            f"set xlabel '{axes[1].channel}'",
            f"set ylabel '{axes[0].channel}'",
            f"set dgrid3d {axes[0].points},{axes[1].points}",
            "set pm3d map",
            "# one technique per pane; render e.g. the universal composite map:",
            "splot 'ucp.csv' skip 1 using 2:1:3 with pm3d title 'UCP'",
        ]
    gp.write_text("\n".join(lines) + "\n")
    print(f"wrote {gp}")


def main() -> None:
    configs = {int(p.stem[3:]): p for p in (REPO / "configs").glob("fig*.cfg")}
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fig", type=int, choices=sorted(configs), help="single figure number; default all")
    ap.add_argument("--outdir", default="out", help="output directory (default out/)")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    configs = [configs[args.fig]] if args.fig is not None else [configs[n] for n in sorted(configs)]
    for cfg in configs:
        run_figure(cfg, outdir, args.workers)


if __name__ == "__main__":
    main()
