"""Command-line surface tying the pipeline together.

The subcommands are the entries of ``COMMANDS``. Each is a pure function of
(config, input files): outputs land in the configured directory together
with an echo of the resolved config.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import yaml

from . import analysis, training, volio
from .config import RunConfig, parse_config, write_resolved_config
from .data import SampleRecord, build_dataset
from .errors import DrmcError, FormatError, NumericError, UsageError
from .model import DRMCNetwork, load_checkpoint, save_checkpoint


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _data_dir(cfg: RunConfig) -> Path:
    return Path(cfg.io.out_dir) / "data"


# ---------------------------------------------------------------------------
# dataset on disk


def cmd_gen_data(cfg: RunConfig):
    known, unknown = cfg.data.centers, cfg.data.unknown_centers
    shape = tuple(cfg.data.shape)
    data_dir = _data_dir(cfg)
    data_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "shape": list(shape),
        "n_train": cfg.data.n_train,
        "n_test": cfg.data.n_test,
        "seed": cfg.data.seed,
        "known_ids": [c.id for c in known],
        "unknown_ids": [c.id for c in unknown],
        "centers": [asdict(c) for c in known + unknown],
    }
    for center in known + unknown:
        records = build_dataset(
            [center],
            n_train_per_center=cfg.data.n_train,
            n_test_per_center=cfg.data.n_test,
            shape=shape,
            seed=cfg.data.seed,
        )
        cdir = data_dir / f"center_{center.id}"
        cdir.mkdir(parents=True, exist_ok=True)
        counters = {"train": 0, "test": 0}
        for rec in records:
            k = counters[rec.split]
            counters[rec.split] += 1
            stem = f"{rec.split}_{k:03d}"
            volio.write_volume(cdir / f"{stem}_low.vol", rec.low)
            volio.write_volume(cdir / f"{stem}_full.vol", rec.full)
            volio.write_volume(
                cdir / f"{stem}_mask.vol", rec.lesion_mask.astype(np.float32)
            )
        (cdir / "meta.yaml").write_text(
            yaml.safe_dump({"center": asdict(center), "counts": counters})
        )
    (data_dir / "manifest.yaml").write_text(yaml.safe_dump(manifest, sort_keys=False))
    print(f"wrote dataset for {len(known)} known + {len(unknown)} unknown centers "
          f"to {data_dir}")


def load_records(data_dir) -> tuple[list[SampleRecord], list[int], list[int]]:
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.yaml"
    if not manifest_path.exists():
        raise UsageError(f"no dataset manifest at {manifest_path}; run gen-data first")
    try:
        manifest = yaml.safe_load(manifest_path.read_text())
    except yaml.YAMLError as e:
        raise FormatError(f"cannot parse {manifest_path}: {e}") from None
    for key in ("centers", "known_ids", "unknown_ids"):
        if not isinstance(manifest, dict) or key not in manifest:
            raise FormatError(f"{manifest_path} has no key {key!r}; run gen-data again")
    if not isinstance(manifest["centers"], list):
        raise FormatError(f"{manifest_path} key 'centers' is not a list; run gen-data again")
    records = []
    for i, center in enumerate(manifest["centers"]):
        if not isinstance(center, dict) or "id" not in center:
            raise FormatError(
                f"{manifest_path} entry {i} of 'centers' has no key 'id'; run gen-data again"
            )
        cid = center["id"]
        cdir = data_dir / f"center_{cid}"
        for low_path in sorted(cdir.glob("*_low.vol")):
            stem = low_path.name[: -len("_low.vol")]
            split = stem.split("_")[0]
            low = volio.read_volume(low_path)
            full = volio.read_volume(cdir / f"{stem}_full.vol")
            mask = volio.read_volume(cdir / f"{stem}_mask.vol").data.astype(bool)
            records.append(
                SampleRecord(
                    center_id=cid, low=low, full=full, lesion_mask=mask, split=split
                )
            )
    return records, manifest["known_ids"], manifest["unknown_ids"]


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(cfg: RunConfig):
    records, known_ids, _ = load_records(_data_dir(cfg))
    known_records = [r for r in records if r.center_id in known_ids]
    tcfg = cfg.train
    net = DRMCNetwork(cfg.model, seed=tcfg.seed)
    out = Path(cfg.io.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    every = tcfg.checkpoint_every

    def callback(epoch, network):
        if every > 0 and (epoch + 1) % every == 0:
            save_checkpoint(network, out / f"checkpoint_epoch{epoch + 1:04d}.drmc")

    history = training.train(net, known_records, tcfg, epoch_callback=callback)
    save_checkpoint(net, out / "checkpoint.drmc")
    _write_csv(
        out / "history.csv",
        ["epoch", "center_id", "train_loss", "val_psnr"],
        [[h.epoch, h.center_id, h.train_loss, h.val_psnr] for h in history],
    )
    final = {h.center_id: h.val_psnr for h in history if h.epoch == history[-1].epoch}
    print(f"trained {tcfg.epochs} epochs; final val PSNR per center: "
          + ", ".join(f"C{c}={v:.2f}" for c, v in sorted(final.items())))


def cmd_eval(cfg: RunConfig, checkpoint=None):
    records, _, _ = load_records(_data_dir(cfg))
    out = Path(cfg.io.out_dir)
    ckpt = Path(checkpoint) if checkpoint else out / "checkpoint.drmc"
    net = load_checkpoint(ckpt)
    test_records = [r for r in records if r.split == "test"]
    rows = training.evaluate(net, test_records, cfg.train)
    _write_csv(
        out / "metrics.csv",
        ["record", "center_id", "split", "psnr", "b_mean", "b_max"],
        [
            [r["record"], r["center_id"], r["split"], r["psnr"], r["b_mean"], r["b_max"]]
            for r in rows
        ],
    )
    print(f"wrote metrics for {len(rows)} records to {out / 'metrics.csv'}")


def cmd_interference(cfg: RunConfig, checkpoint=None):
    records, known_ids, _ = load_records(_data_dir(cfg))
    out = Path(cfg.io.out_dir)
    ckpt = Path(checkpoint) if checkpoint else out / "checkpoint.drmc"
    net = load_checkpoint(ckpt)
    bcfg = replace(cfg.train, batch_per_center=cfg.analysis.batch_size)
    known_records = [r for r in records if r.center_id in known_ids]
    batches = training.sample_center_batches(
        known_records, bcfg, n_batches=cfg.analysis.n_batches, seed=cfg.data.seed + 7
    )
    if cfg.analysis.groups == "all":
        groups = {"all": [n for n, _ in net.named_parameters()]}
    else:
        groups = analysis.parameter_groups(net)
    grads = analysis.center_gradients(net, batches, groups)
    gated_off = []
    for label, center_grads in grads.items():
        try:
            mat = analysis.interference_from_gradients(center_grads, label)
        except NumericError as e:
            gated_off.append(str(e))
            continue
        path = out / f"interference_{label}.csv"
        _write_csv(
            path,
            [f"C{c}" for c in mat.center_ids],
            [list(map(float, row)) for row in mat.values],
        )
        print(mat.text_heatmap())
        print(f"wrote {path}")
    if gated_off:
        raise NumericError("; ".join(gated_off))


def cmd_route_hist(cfg: RunConfig, checkpoint=None):
    records, _, _ = load_records(_data_dir(cfg))
    out = Path(cfg.io.out_dir)
    ckpt = Path(checkpoint) if checkpoint else out / "checkpoint.drmc"
    net = load_checkpoint(ckpt)
    test_records = [r for r in records if r.split == "test"]
    hist = analysis.routing_histogram(net, test_records)
    rows = [
        [layer, bank, center, expert, count]
        for (layer, bank, center, expert), count in sorted(hist.counts.items())
    ]
    _write_csv(out / "route_hist.csv", ["layer", "bank", "center", "expert", "count"], rows)
    print(f"wrote routing histogram ({len(rows)} rows) to {out / 'route_hist.csv'}")


ABLATION_VARIANTS = ("no_h", "softmax", "top2", "relu")


def cmd_ablate(cfg: RunConfig):
    records, known_ids, _ = load_records(_data_dir(cfg))
    known_records = [r for r in records if r.center_id in known_ids]
    test_records = [r for r in records if r.split == "test"]
    test_ids = sorted({r.center_id for r in test_records})
    out = Path(cfg.io.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for variant in ABLATION_VARIANTS:
        net = DRMCNetwork(replace(cfg.model, gate=variant), seed=cfg.train.seed)
        training.train(net, known_records, cfg.train)
        metrics = training.evaluate(net, test_records, cfg.train)
        per_center = {
            cid: float(np.mean([m["psnr"] for m in metrics if m["center_id"] == cid]))
            for cid in test_ids
        }
        rows.append(
            [variant]
            + [per_center[c] for c in test_ids]
            + [float(np.mean(list(per_center.values())))]
        )
        print(f"ablate {variant}: avg PSNR {rows[-1][-1]:.3f}")
    _write_csv(
        out / "ablation.csv",
        ["variant"] + [f"psnr_c{c}" for c in test_ids] + ["psnr_avg"],
        rows,
    )


# ---------------------------------------------------------------------------
# dispatch


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "interference": cmd_interference,
    "route-hist": cmd_route_hist,
    "ablate": cmd_ablate,
}
TAKES_CHECKPOINT = (cmd_eval, cmd_interference, cmd_route_hist)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drmc",
        description="Multi-center volumetric synthesis with dynamic expert routing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="YAML run config path")
        p.add_argument("--out", default=None, help="override io.out_dir")
        if command in TAKES_CHECKPOINT:
            p.add_argument("--checkpoint", default=None)
    return parser


def dispatch(argv) -> int:
    """Run one subcommand; the resolved config is echoed only after it
    succeeds."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        cfg = parse_config(args.config) if args.config else RunConfig()
        if args.out:
            cfg.io.out_dir = args.out
        command = COMMANDS[args.command]
        if command in TAKES_CHECKPOINT:
            command(cfg, args.checkpoint)
        else:
            command(cfg)
        write_resolved_config(cfg, cfg.io.out_dir)
    except (DrmcError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    return dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
