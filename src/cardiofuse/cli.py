"""Batch command-line front-end.

Subcommands: generate, run, compare.  `generate` and `run` take --config
(JSON), --seed and --out-dir; `compare` takes manifest paths and --out-dir.
`run` additionally accepts repeated --stage name=on|off
toggles, so one part of the pipeline runs as, e.g.,
`cardiofuse run --stage evaluate=off --stage dca=off` (through training).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import pipeline, svg


def _common_config(args) -> dict:
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        cfg = pipeline.load_config(args.config, overrides)
    except ValueError as exc:  # a typo or malformed JSON in --config
        raise SystemExit(f"bad config: {exc}")
    if args.out_dir:
        cfg["out_dir"] = args.out_dir
    return cfg


def cmd_generate(args) -> int:
    cfg = _common_config(args)
    truth = pipeline.stage_generate(cfg, cfg["data_dir"])
    print(f"generated {cfg['data_dir']}: "
          f"{len(truth['corrupted_ids'])} corrupted subjects")
    return 0


def _failed_stage(out_dir: Path) -> str | None:
    """The stage a failed run names in its ``manifest.json``, if it wrote
    one."""
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(
            encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return manifest.get("failed_stage")


def cmd_run(args) -> int:
    cfg = _common_config(args)
    for toggle in args.stage or []:
        name, _, state = toggle.partition("=")
        name = name.replace("-", "_")
        if name not in cfg["stages"] or state not in ("on", "off"):
            raise SystemExit(f"bad --stage toggle: {toggle!r}")
        cfg["stages"][name] = state == "on"
    try:
        manifest = pipeline.run_all(cfg, cfg["out_dir"])
    except Exception as exc:  # noqa: BLE001 - abort with stage diagnostic
        stage = _failed_stage(Path(cfg["out_dir"]))
        print(f"run failed{f' in {stage}' if stage else ''}: {exc}",
              file=sys.stderr)
        return 1
    print(f"completed stages: {[s['name'] for s in manifest['stages']]}")
    return 0


def _load_report(manifest_path: Path) -> tuple[str, list[dict]]:
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    seg_path = manifest["artifacts"].get("segment_metrics")
    if not seg_path:
        raise SystemExit(f"{manifest_path}: manifest lacks an evaluation report")
    # the manifest records the path as the run saw it; the file sits next
    # to the manifest
    segments = json.loads((manifest_path.parent / Path(seg_path).name)
                          .read_text(encoding="utf-8"))
    name = manifest["config"]["fusion"]["strategy"] + ":" + "+".join(
        manifest["config"]["fusion"]["modalities"]
    )
    return name, segments


def cmd_compare(args) -> int:
    rows = []
    for path in args.manifests:
        name, segments = _load_report(Path(path))
        entry = {"name": name}
        for metric in ("auroc", "accuracy", "mcc"):
            # a single-class segment has no AUROC (None); it is left out
            values = [seg[metric] for seg in segments
                      if seg[metric] is not None]
            entry[metric] = float(np.mean(values)) if values else math.nan
            entry[metric + "_std"] = (float(np.std(values, ddof=1))
                                      if len(values) >= 2 else 0.0)
        rows.append(entry)
    # a run without a defined segment AUROC (NaN) sorts last
    rows.sort(key=lambda r: (math.isnan(r["auroc"]), -r["auroc"]))

    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "comparison.csv"
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write("name,auroc,auroc_std,accuracy,accuracy_std,mcc,mcc_std\n")
        for r in rows:
            f.write(
                f"{r['name']},{r['auroc']:.6g},{r['auroc_std']:.6g},"
                f"{r['accuracy']:.6g},{r['accuracy_std']:.6g},"
                f"{r['mcc']:.6g},{r['mcc_std']:.6g}\n"
            )
    chart = svg.bar_chart(
        groups=[r["name"] for r in rows],
        series={m: [r[m] for r in rows] for m in ("auroc", "accuracy", "mcc")},
        title="Model comparison", y_label="score",
    )
    svg_path = out_dir / "comparison.svg"
    svg_path.write_text(chart, encoding="utf-8")
    for r in rows:
        print(f"{r['name']}: AUROC {r['auroc']:.4f} +/- {r['auroc_std']:.4f}")
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardiofuse",
        description="Multimodal cardiovascular hemodynamics pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default=None)

    p = sub.add_parser("generate", help="write the synthetic study")
    add_common(p)

    p = sub.add_parser("run", help="execute every enabled stage")
    add_common(p)
    p.add_argument("--stage", action="append", metavar="NAME=on|off",
                   help="toggle a stage, e.g. --stage filtering=off")

    p = sub.add_parser("compare", help="tabulate evaluation reports")
    p.add_argument("manifests", nargs="+", help="manifest.json paths")
    p.add_argument("--out-dir", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "generate":
        return cmd_generate(args)
    if args.command == "run":
        return cmd_run(args)
    return cmd_compare(args)


if __name__ == "__main__":
    raise SystemExit(main())
