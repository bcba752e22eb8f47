"""Tests for the run-config document, the binary volume format, and the
command-line surface (structure, exit codes, and a miniature end-to-end
pipeline)."""

import csv
from pathlib import Path

import numpy as np
import pytest
import yaml

from drmc.cli import dispatch, load_records
from drmc.config import (
    RunConfig,
    emit_config,
    parse_config,
    parse_config_text,
)
from drmc.errors import ConfigError, FormatError
from drmc.tensor import Tensor
from drmc.volio import read_volume, write_volume


# ---------------------------------------------------------------------------
# config document


def test_empty_config_gives_all_defaults():
    cfg = parse_config_text("")
    assert cfg == RunConfig()
    assert cfg.model.channels == 16
    assert cfg.model.n_experts == 3
    assert cfg.model.n_blocks == 3
    assert cfg.model.gate == "relu"


def test_unknown_section_and_key_rejected_with_path():
    with pytest.raises(ConfigError) as e:
        parse_config_text("optimizer:\n  lr: 0.1\n")
    assert "optimizer" in str(e.value)
    with pytest.raises(ConfigError) as e:
        parse_config_text("model:\n  depth: 3\n")
    assert "model.depth" in str(e.value)


def test_invalid_gate_names_allowed_values():
    with pytest.raises(ConfigError) as e:
        parse_config_text("model:\n  gate: top1\n")
    msg = str(e.value)
    for allowed in ("relu", "softmax", "top2", "no_h"):
        assert allowed in msg


def test_config_cross_field_validation():
    with pytest.raises(ConfigError):
        parse_config_text("model:\n  gate: top2\n  n_experts: 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("data:\n  shape: [8, 8, 8]\n")
    with pytest.raises(ConfigError):
        parse_config_text("data:\n  shape: [16, 16, 16]\ntrain:\n  patch_size: 20\n")


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("train", "epochs", "many"),
        ("model", "channels", "16.7"),
        ("data", "seed", "1.5"),
        ("train", "lr", "[1]"),
        ("model", "router_hidden", "abc"),
        ("train", "epochs", "2.0"),
        ("train", "epochs", "true"),
        ("train", "checkpoint_every", "-1"),
    ],
    ids=[
        "epochs-str", "channels-float", "seed-float", "lr-list",
        "router_hidden-str", "epochs-float", "epochs-bool", "checkpoint_every-negative",
    ],
)
def test_config_type_mismatch(section, key, value):
    with pytest.raises(ConfigError) as e:
        parse_config_text(f"{section}:\n  {key}: {value}\n")
    assert f"{section}.{key}" in str(e.value)


def test_config_int_widens_to_float():
    lr = parse_config_text("train:\n  lr: 1\n").train.lr
    assert lr == 1.0 and isinstance(lr, float)


def test_config_yaml_error_reports_line():
    with pytest.raises(ConfigError) as e:
        parse_config_text("model:\n  gate: [unclosed\n")
    assert "line" in str(e.value)


def test_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/config.yaml")


def test_config_emit_parse_round_trip():
    cfg = parse_config_text(
        "model:\n  channels: 8\n  gate: softmax\n"
        "train:\n  epochs: 5\n  lr: 0.001\n"
        "io:\n  out_dir: /tmp/somewhere\n"
    )
    again = parse_config_text(emit_config(cfg))
    assert again == cfg


def test_emitted_config_is_fully_resolved():
    raw = yaml.safe_load(emit_config(RunConfig()))
    assert set(raw) == {"data", "model", "train", "analysis", "io"}
    assert raw["train"]["lr"] == 1e-4
    assert raw["analysis"]["lam"] == 1e-4


# ---------------------------------------------------------------------------
# binary volume format


def test_volume_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    v = Tensor(rng.standard_normal((1, 8, 8, 8)).astype(np.float32))
    path = tmp_path / "v.vol"
    write_volume(path, v)
    back = read_volume(path)
    assert np.array_equal(back.data, v.data)


def test_volume_bad_magic(tmp_path):
    path = tmp_path / "v.vol"
    path.write_bytes(b"VOL2" + b"\x00" * 16)
    with pytest.raises(FormatError) as e:
        read_volume(path)
    assert "offset 0" in str(e.value)


def test_volume_truncated_payload_reports_lengths(tmp_path):
    path = tmp_path / "v.vol"
    write_volume(path, Tensor(np.zeros((1, 4, 4, 4), np.float32)))
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(FormatError) as e:
        read_volume(path)
    assert str(len(blob)) in str(e.value)


def test_volume_unknown_dtype_tag(tmp_path):
    path = tmp_path / "v.vol"
    write_volume(path, Tensor(np.zeros((2, 2, 2), np.float32)))
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as e:
        read_volume(path)
    assert "offset 4" in str(e.value)


# ---------------------------------------------------------------------------
# CLI dispatch


def test_dispatch_unknown_subcommand_exits_2(capsys):
    assert dispatch(["frobnicate"]) == 2
    capsys.readouterr()


def test_dispatch_no_subcommand_exits_2(capsys):
    assert dispatch([]) == 2
    capsys.readouterr()


def test_dispatch_missing_config_exits_1(capsys):
    assert dispatch(["train", "--config", "/nonexistent.yaml"]) == 1
    assert "error:" in capsys.readouterr().err


def test_dispatch_missing_dataset_exits_1(tmp_path, capsys):
    assert dispatch(["train", "--out", str(tmp_path / "empty")]) == 1
    assert "gen-data" in capsys.readouterr().err


def test_dispatch_bad_config_value_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text("model:\n  router_hidden: abc\n")
    assert dispatch(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "model.router_hidden" in err


_TINY_CONFIG = """\
data:
  shape: [16, 16, 16]
  n_train: 1
  n_test: 1
model:
  channels: 4
  n_experts: 2
  n_blocks: 1
  gate: softmax
train:
  epochs: 1
  patch_size: 8
  patches_per_center: 4
  batch_per_center: 2
analysis:
  n_batches: 2
  batch_size: 1
"""


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_run")
    cfg_path = out / "config.yaml"
    cfg_path.write_text(_TINY_CONFIG)
    args = ["--config", str(cfg_path), "--out", str(out)]
    assert dispatch(["gen-data"] + args) == 0
    assert dispatch(["train"] + args) == 0
    return out, args


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_gen_data_layout(tiny_run):
    out, _ = tiny_run
    data_dir = out / "data"
    center_dirs = sorted(p.name for p in data_dir.glob("center_*"))
    assert center_dirs == [f"center_{i}" for i in range(1, 7)]
    for cdir in data_dir.glob("center_*"):
        vols = sorted(p.name for p in cdir.glob("*.vol"))
        # (1 train + 1 test) x (low, full, mask)
        assert len(vols) == 6
        assert (cdir / "meta.yaml").exists()
    manifest = yaml.safe_load((data_dir / "manifest.yaml").read_text())
    assert manifest["known_ids"] == [1, 2, 3, 4]
    assert manifest["unknown_ids"] == [5, 6]
    records, known, unknown = load_records(data_dir)
    assert len(records) == 12 and known == [1, 2, 3, 4] and unknown == [5, 6]


def test_train_outputs(tiny_run):
    out, _ = tiny_run
    assert (out / "checkpoint.drmc").exists()
    rows = _read_csv(out / "history.csv")
    assert rows[0] == ["epoch", "center_id", "train_loss", "val_psnr"]
    assert len(rows) == 1 + 1 * 4  # header + epochs x known centers
    resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
    # the echo carries the value that ran: router_hidden defaults to channels
    assert resolved["model"]["router_hidden"] == 4


def test_eval_outputs(tiny_run):
    out, args = tiny_run
    assert dispatch(["eval"] + args) == 0
    rows = _read_csv(out / "metrics.csv")
    assert rows[0] == ["record", "center_id", "split", "psnr", "b_mean", "b_max"]
    assert len(rows) == 1 + 6  # header + one test record per center
    # the lesion-free brain center reports empty bias fields
    brain_rows = [r for r in rows[1:] if r[1] == "5"]
    assert brain_rows and brain_rows[0][4] == "" and brain_rows[0][5] == ""


def test_route_hist_outputs(tiny_run):
    out, args = tiny_run
    assert dispatch(["route-hist"] + args) == 0
    rows = _read_csv(out / "route_hist.csv")
    assert rows[0] == ["layer", "bank", "center", "expert", "count"]
    total = sum(int(r[4]) for r in rows[1:])
    # 6 test records x 1 layer x 2 banks
    assert total == 12


def test_interference_outputs(tiny_run):
    out, args = tiny_run
    assert dispatch(["interference"] + args) == 0
    paths = sorted(out.glob("interference_*.csv"))
    assert [p.name for p in paths] == ["interference_block0_att.csv", "interference_block0_ffn.csv"]
    for path in paths:
        rows = _read_csv(path)
        assert rows[0] == ["C1", "C2", "C3", "C4"]
        values = np.array([[float(v) for v in row] for row in rows[1:]])
        assert values.shape == (4, 4)
        assert np.array_equal(np.diag(values), np.ones(4, np.float32))


def test_eval_with_explicit_checkpoint(tiny_run, tmp_path):
    out, args = tiny_run
    assert dispatch(["eval"] + args + ["--checkpoint", str(out / "checkpoint.drmc")]) == 0


def test_eval_missing_checkpoint_exits_1(tiny_run, capsys):
    out, args = tiny_run
    code = dispatch(["eval"] + args + ["--checkpoint", str(out / "nope.drmc")])
    assert code == 1
    capsys.readouterr()
