"""Tests for the run-config document, the binary volume format, and the
command-line surface (structure, exit codes, and a miniature end-to-end
pipeline)."""

import csv
import struct
from pathlib import Path

import numpy as np
import pytest
import yaml

from _utils import perturb_parameters
from drmc.cli import dispatch, load_records
from drmc.config import (
    RunConfig,
    emit_config,
    parse_config,
    parse_config_text,
)
from drmc.data import CenterSpec
from drmc.errors import ConfigError, FormatError
from drmc.model import DRMCNetwork, ModelConfig, save_checkpoint
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


@pytest.mark.parametrize(
    "text, key",
    [
        ("data:\n  centers: [{id: 1, foo: 1}]\n", "data.centers[0].foo"),
        ("data:\n  centers: [{drf: 2}]\n", "data.centers[0].id"),
        ("data:\n  centers: [{id: 1}, {id: 2, drf: 0.5}]\n", "data.centers[1].drf"),
        ("data:\n  unknown_centers: [{id: 5, lesions: 1}]\n", "data.unknown_centers[0].lesions"),
        ("data:\n  unknown_centers: [5]\n", "data.unknown_centers[0]"),
        ("data:\n  centers: body\n", "data.centers"),
        ("data:\n  centers: default\n", "data.centers"),
        ("analysis:\n  n_batches: 0\n", "analysis.n_batches"),
        ("analysis:\n  batch_size: 0\n", "analysis.batch_size"),
        ("analysis:\n  lam: 0\n", "analysis.lam"),
        ("data:\n  seed: -1\n", "data.seed"),
        ("data:\n  n_train: -3\n  n_test: 4\n", "data.n_train"),
        ("data:\n  n_test: 0\n", "data.n_test"),
        ("train:\n  seed: -1\n", "train.seed"),
        ("train:\n  beta1: 0.9\n", "train.beta1"),
        ("train:\n  beta2: 0.999\n", "train.beta2"),
        ("train:\n  adam_eps: 1.0e-8\n", "train.adam_eps"),
        ("train:\n  charbonnier_eps: 0.01\n", "train.charbonnier_eps"),
    ],
    ids=[
        "center-unknown-key", "center-missing-id", "center-range", "center-bool",
        "center-not-mapping", "centers-not-list", "centers-default-string", "n_batches-zero", "batch_size-zero",
        "lam-removed", "data-seed-negative", "n_train-negative", "n_test-zero",
        "train-seed-negative", "beta1-removed", "beta2-removed", "adam_eps-removed",
        "charbonnier_eps-removed",
    ],
)
def test_config_center_entries_and_analysis_ranges(text, key):
    with pytest.raises(ConfigError) as e:
        parse_config_text(text)
    assert key in str(e.value)


def test_config_center_entries_parse_to_specs():
    cfg = parse_config_text(
        "data:\n  centers: [{id: 7, drf: 4, lesions: false}]\n  unknown_centers: []\n"
    )
    assert cfg.data.centers == [CenterSpec(id=7, drf=4.0, lesions=False)]
    assert cfg.data.unknown_centers == []
    assert parse_config_text(emit_config(cfg)) == cfg


def test_default_centers_echo_their_recipes():
    cfg = RunConfig()
    raw = yaml.safe_load(emit_config(cfg))
    assert [c["id"] for c in raw["data"]["centers"]] == [1, 2, 3, 4]
    assert [c["id"] for c in raw["data"]["unknown_centers"]] == [5, 6]
    assert set(raw["data"]["centers"][0]) == set(vars(CenterSpec(id=1)))
    assert parse_config_text(emit_config(cfg)) == cfg


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
    assert "lam" not in raw["analysis"]
    assert raw["analysis"]["n_batches"] == 20


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


def test_volume_every_truncation_and_trailing_bytes_name_an_offset(tmp_path):
    path = tmp_path / "v.vol"
    write_volume(path, Tensor(np.zeros((1, 2, 2, 2), np.float32)))
    blob = path.read_bytes()
    for data in [blob[:k] for k in range(len(blob))] + [blob + b"\x00" * k for k in (1, 3, 4)]:
        path.write_bytes(data)
        with pytest.raises(FormatError) as e:
            read_volume(path)
        assert "offset" in str(e.value), (len(data), str(e.value))


def test_volume_dims_product_past_int64_is_a_length_mismatch(tmp_path):
    # 65536**4 == 2**64 wraps to 0 in int64 and would pass as an empty payload
    path = tmp_path / "v.vol"
    path.write_bytes(b"VOL1" + struct.pack("<BB4I", 0, 4, *([65536] * 4)))
    with pytest.raises(FormatError) as e:
        read_volume(path)
    assert "offset 22" in str(e.value)


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


def test_dispatch_bad_center_entry_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text("data:\n  centers: [{foo: 1}]\n")
    assert dispatch(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "data.centers[0].foo" in err
    assert not (tmp_path / "data").exists()


def test_dispatch_failed_command_writes_no_echo(tmp_path, capsys):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(_TINY_CONFIG)
    args = ["--config", str(cfg_path), "--out", str(tmp_path)]
    assert dispatch(["gen-data"] + args) == 0
    (tmp_path / "resolved_config.yaml").unlink()
    assert dispatch(["eval"] + args) == 1  # no checkpoint in the out dir
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "resolved_config.yaml").exists()


def test_dispatch_negative_data_seed_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text("data:\n  seed: -1\n")
    assert dispatch(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "data.seed" in err
    assert not (tmp_path / "data").exists()


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


def test_interference_one_backward_per_center_batch(tiny_run, monkeypatch):
    out, args = tiny_run
    calls = []
    backward = Tensor.backward

    def counting_backward(self):
        calls.append(self)
        return backward(self)

    monkeypatch.setattr(Tensor, "backward", counting_backward)
    assert dispatch(["interference"] + args) == 0
    assert len(list(out.glob("interference_*.csv"))) == 2
    # 4 known centers x analysis.n_batches 2, shared by both groups
    assert len(calls) == 4 * 2


def test_interference_dark_bank_exits_1_naming_group(tmp_path, capsys):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(_TINY_CONFIG.replace("gate: softmax", "gate: relu"))
    args = ["--config", str(cfg_path), "--out", str(tmp_path)]
    assert dispatch(["gen-data"] + args) == 0
    net = DRMCNetwork(ModelConfig(channels=4, n_experts=2, n_blocks=1, gate="relu"), seed=0)
    perturb_parameters(net, seed=1)
    net.blocks[0].att_router.w_out.bias.data[:] = 5.0  # every attention expert live
    net.blocks[0].ffn_router.w_out.bias.data[:] = -1e3  # the FFN bank never selected
    save_checkpoint(net, tmp_path / "checkpoint.drmc")
    with pytest.warns(UserWarning, match="zero gradient norm on group block0_ffn"):
        assert dispatch(["interference"] + args) == 1
    assert "group block0_ffn" in capsys.readouterr().err
    # the group before the dark one is still written
    assert [p.name for p in tmp_path.glob("interference_*.csv")] == [
        "interference_block0_att.csv"
    ]


def test_interference_writes_every_measurable_group(tmp_path, capsys):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(
        _TINY_CONFIG.replace("gate: softmax", "gate: relu").replace("n_blocks: 1", "n_blocks: 2")
    )
    args = ["--config", str(cfg_path), "--out", str(tmp_path)]
    assert dispatch(["gen-data"] + args) == 0
    net = DRMCNetwork(ModelConfig(channels=4, n_experts=2, n_blocks=2, gate="relu"), seed=0)
    perturb_parameters(net, seed=1)
    for block in net.blocks:
        block.att_router.w_out.bias.data[:] = 5.0
        block.ffn_router.w_out.bias.data[:] = 5.0
    net.blocks[0].att_router.w_out.bias.data[:] = -1e3  # the first bank never selected
    save_checkpoint(net, tmp_path / "checkpoint.drmc")
    with pytest.warns(UserWarning, match="zero gradient norm on group block0_att"):
        assert dispatch(["interference"] + args) == 1
    assert "group block0_att" in capsys.readouterr().err
    # every group after the dark one still gets its matrix
    assert sorted(p.name for p in tmp_path.glob("interference_*.csv")) == [
        "interference_block0_ffn.csv",
        "interference_block1_att.csv",
        "interference_block1_ffn.csv",
    ]


def test_eval_with_explicit_checkpoint(tiny_run, tmp_path):
    out, args = tiny_run
    assert dispatch(["eval"] + args + ["--checkpoint", str(out / "checkpoint.drmc")]) == 0


def test_eval_missing_checkpoint_exits_1(tiny_run, capsys):
    out, args = tiny_run
    code = dispatch(["eval"] + args + ["--checkpoint", str(out / "nope.drmc")])
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "'centers'"),
        ("known_ids: [1]\nunknown_ids: []\n", "'centers'"),
        ("centers: 5\nknown_ids: [1]\nunknown_ids: []\n", "'centers' is not a list"),
        ("centers: [{id: 1}, 5]\nknown_ids: [1]\nunknown_ids: []\n", "entry 1 of 'centers'"),
        ("centers: [{drf: 2}]\nknown_ids: [1]\nunknown_ids: []\n", "entry 0 of 'centers'"),
    ],
    ids=["empty", "no-centers", "centers-not-a-list", "center-not-a-mapping",
         "center-without-id"],
)
def test_load_records_malformed_manifest_names_path_and_key(tmp_path, text, fragment):
    manifest = tmp_path / "manifest.yaml"
    manifest.write_text(text)
    with pytest.raises(FormatError) as e:
        load_records(tmp_path)
    assert str(manifest) in str(e.value) and fragment in str(e.value)


def test_gen_data_from_its_own_echo_writes_the_same_text(tiny_run, tmp_path):
    out, _ = tiny_run
    assert dispatch(["gen-data", "--config", str(out / "resolved_config.yaml"),
                     "--out", str(tmp_path)]) == 0
    for name in ["manifest.yaml"] + [f"center_{i}/meta.yaml" for i in range(1, 7)]:
        assert (tmp_path / "data" / name).read_text() == (out / "data" / name).read_text()
