import dataclasses
import json
import struct

import numpy as np
import pytest
import yaml

from sharedworkspace import tensor as T
from sharedworkspace import train
from sharedworkspace.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK,
                                 _assemble_config, build_parser, main)
from sharedworkspace.config import ModelConfig, from_dict, validate
from sharedworkspace.errors import ConfigError
from sharedworkspace.models import build_model
from sharedworkspace.serialization import load_checkpoint, read_metrics, save_checkpoint
from sharedworkspace.tasks import load_dataset
from sharedworkspace.train import resolve_task_fields

SMALL = ["--set", "n_layers=2", "--set", "n_h=16", "--set", "ffn_dim=32",
         "--set", "n_heads=2", "--set", "mem_heads=2", "--set", "key_dim=8",
         "--set", "value_dim=8", "--set", "n_m=2", "--set", "train_n=96",
         "--set", "test_n=32", "--set", "batch_size=32", "--set", "dropout=0.0",
         "--set", "image_size=32"]


def write_checkpoint(path, **extra_config):
    """Untrained toy checkpoint whose recorded config also carries ``extra_config``."""
    cfg = resolve_task_fields(ModelConfig(host="tr", n_layers=1, n_h=8, ffn_dim=8,
                                          n_heads=2, key_dim=4, value_dim=4,
                                          image_size=16))
    save_checkpoint(path, build_model(cfg).parameters(),
                    {"config": {**dataclasses.asdict(cfg), **extra_config}})
    return path


def run_small_train(tmp_path, *extra):
    out = tmp_path / "run"
    code = main(["--data-root", str(tmp_path / "data"), "train",
                 "--host", "tr_ssw", "--task", "triangles", "--epochs", "2",
                 "--out", str(out), *SMALL, *extra])
    return code, out


# ---- generate ----------------------------------------------------------------


def test_generate_writes_loadable_dataset(tmp_path):
    out = tmp_path / "tri.swds"
    assert main(["generate", "--task", "triangles", "--n", "20", "--seed", "3",
                 "--image-size", "32", "--out", str(out)]) == EXIT_OK
    d = load_dataset(out)
    assert np.asarray(d["images"]).shape == (20, 32, 32)


# ---- train -------------------------------------------------------------------


def test_train_smoke_writes_manifest(tmp_path):
    code, out = run_small_train(tmp_path)
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["host"] == "tr_ssw"
    assert manifest["seed"] == manifest["config"]["seed"]
    assert manifest["final_metrics"]["epoch"] == 1
    assert "best_test_accuracy" in manifest
    for key in ("metrics", "checkpoint_last", "checkpoint_best"):
        assert manifest["artifacts"][key]
    assert len(read_metrics(out / "metrics.jsonl")) == 4


def test_failed_manifest_write_exits_3_and_removes_its_temp_file(tmp_path):
    (tmp_path / "run" / "manifest.json").mkdir(parents=True)
    code, out = run_small_train(tmp_path, "--epochs", "1")
    assert code == EXIT_IO
    assert not (out / "manifest.json.tmp").exists()


def test_train_over_truncated_cached_dataset_exits_3(tmp_path, capsys):
    assert run_small_train(tmp_path)[0] == EXIT_OK
    (cached,) = (tmp_path / "data").glob("triangles-*-n96-*.swds")
    cached.write_bytes(cached.read_bytes()[:-5])
    capsys.readouterr()
    assert run_small_train(tmp_path)[0] == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o failure") and "truncated" in err and cached.name in err
    assert "Traceback" not in err


def test_resume_from_checkpoint_lacking_meta_key_exits_3(tmp_path, capsys):
    _, out = run_small_train(tmp_path)
    tensors, meta = load_checkpoint(out / "last.ckpt")
    for key in ("epoch", "step", "best_test_accuracy"):
        save_checkpoint(out / "last.ckpt", tensors, {k: v for k, v in meta.items() if k != key})
        capsys.readouterr()
        assert run_small_train(tmp_path, "--resume")[0] == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o failure") and f"'{key}'" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("name,dtype,expected", [
    ("layer0.ln1.g", "<U4", "real float"),
    ("adam.m/layer0.ln1.g", "complex64", "real float"),
    ("adam.v/layer0.ln1.g", "int64", "real float"),
    ("adam.step", "float64", "integer"),
])
def test_resume_from_checkpoint_with_another_dtype_kind_exits_3(tmp_path, capsys, name,
                                                               dtype, expected):
    _, out = run_small_train(tmp_path)
    tensors, meta = load_checkpoint(out / "last.ckpt")
    tensors[name] = tensors[name].astype(dtype)
    save_checkpoint(out / "last.ckpt", tensors, meta)
    capsys.readouterr()
    assert run_small_train(tmp_path, "--resume")[0] == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o failure") and f"'{name}'" in err and expected in err
    assert "Traceback" not in err


def test_train_determinism_across_runs(tmp_path):
    _, out_a = run_small_train(tmp_path / "a")
    _, out_b = run_small_train(tmp_path / "b")
    strip = lambda p: [{k: v for k, v in r.items() if k != "wall_ms"}
                       for r in read_metrics(p / "metrics.jsonl")]
    assert strip(out_a) == strip(out_b)


def test_train_without_resume_starts_a_fresh_metrics_file(tmp_path):
    strip = lambda p: [{k: v for k, v in r.items() if k != "wall_ms"}
                       for r in read_metrics(p / "metrics.jsonl")]
    _, out = run_small_train(tmp_path)
    first = strip(out)
    assert run_small_train(tmp_path)[0] == EXIT_OK
    assert strip(out) == first


def test_invalid_config_exits_1(tmp_path):
    code = main(["train", "--host", "tr_hsw", "--task", "triangles",
                 "--out", str(tmp_path / "r")])   # tr_hsw needs --topk
    assert code == EXIT_CONFIG


_COPY = ["--host", "tr_ssw", "--task", "copy"]


@pytest.mark.parametrize("key,argv", [
    *(pytest.param(key, [*_COPY, "--set", f"{key}={value}"], id=f"{key}-{value}")
      for key, value in [("batch_size", "0"), ("n_h", "0"),
                         ("ffn_dim", "0"), ("lr", "nan"), ("lr", ".nan"),
                         ("lr", "0"),
                         # values not of the field's declared type
                         ("n_h", "abc"), ("epochs", "x"), ("n_h", "true"),
                         ("persistent_memory", "1"), ("lr", "3e-x"),
                         # every size and count is at least 1
                         ("copy_len", "0"), ("copy_len", "-1"),
                         ("value_dim", "0"), ("key_dim", "0"),
                         ("n_layers", "0"), ("n_heads", "0"),
                         ("mem_heads", "0"), ("n_s", "0"), ("n_sel", "0"),
                         ("train_n", "0"), ("test_n", "0"),
                         ("gate_style", "foo")]),
    # topk runs from 1 to the writer count: 2·copy_len = 10 positions on
    # copy, CLS + 16 patches on triangles
    pytest.param("topk", ["--host", "tr_hsw", "--task", "copy", "--topk", "0"], id="topk-0"),
    pytest.param("topk", ["--host", "tr_hsw", "--task", "copy", "--topk", "11"],
                 id="topk-11-copy"),
    pytest.param("topk", ["--host", "tr_hsw", "--task", "triangles", "--topk", "18"],
                 id="topk-18-triangles"),
    # two command-line values for one key
    pytest.param("host", ["--host", "tr_ssw", "--2xsa", "--task", "copy"], id="host-2xsa"),
    pytest.param("n_m", [*_COPY, "--slots", "3", "--set", "n_m=2"], id="n_m-slots")])
def test_out_of_range_setting_exits_1_before_run_dir(tmp_path, capsys, key, argv):
    out = tmp_path / "run"
    code = main(["train", *argv, "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not out.exists()


@pytest.mark.parametrize("text,match", [
    # rules that only validate checks: no layer below it re-checks them
    pytest.param("n_m: 0", "n_m must be at least 1", id="n_m-0"),
    pytest.param("host: rims_sw\ntopk: 2", "topk applies only", id="topk-rims_sw"),
    pytest.param("host: tims_sw\ntask: copy\nn_s: 2\nn_sel: 3", "n_sel=3 exceeds n_s=2",
                 id="n_sel-tims_sw"),
    pytest.param("host: rims_sw\ntask: copy", "bound to the triangles", id="rims_sw-copy"),
    pytest.param("host: tims_sw\ntask: triangles", "bound to the copy", id="tims_sw-triangles"),
    pytest.param("host: gru", "unknown host", id="host"),
    pytest.param("task: mnist", "unknown task", id="task"),
    pytest.param("version: 2", "version 2 unsupported", id="version"),
    pytest.param("host: tims_sw\ntask: copy\nn_s: 3", "divisible by n_s", id="n_h-n_s"),
    pytest.param("patch_size: 5", "must divide image_size", id="patch_size"),
    pytest.param("task: copy\nvocab_size: 1", "vocab_size >= 2", id="vocab_size-1"),
    pytest.param("dropout: 1.0", "dropout 1.0 out of range", id="dropout-1"),
    pytest.param("- host\n- tr", "must be a mapping", id="not-a-mapping")])
def test_config_rule_raises_in_validate_and_exits_1_before_run_dir(tmp_path, capsys,
                                                                    text, match):
    data = yaml.safe_load(text)
    with pytest.raises(ConfigError, match=match):
        validate(ModelConfig(**data)) if isinstance(data, dict) else from_dict(data)
    (tmp_path / "c.yaml").write_text(text + "\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(tmp_path / "c.yaml"), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and match in err
    assert not out.exists()


@pytest.mark.parametrize("task,key", [("triangles", "patch_size"), ("triangles", "image_size"),
                                      ("soc", "patch_size"), ("soc", "image_size")])
def test_zero_image_or_patch_size_exits_1_before_run_dir(tmp_path, capsys, task, key):
    # The vision tasks read these sizes; the copy task ignores them.
    out = tmp_path / "run"
    code = main(["train", "--host", "tr", "--task", task, "--out", str(out), "--epochs", "1",
                 "--set", "train_n=8", "--set", "test_n=4", "--set", f"{key}=0"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["set", "file"])
def test_float_with_an_exponent_and_no_dot_loads(tmp_path, source):
    # YAML 1.1 reads 3e-4 as text; the float field takes it as a number.
    if source == "set":
        flags = ["--set", "lr=3e-4"]
    else:
        (tmp_path / "c.yaml").write_text("lr: 3e-4\n")
        flags = ["--config", str(tmp_path / "c.yaml")]
    out = tmp_path / "run"
    code = main(["--data-root", str(tmp_path / "data"), "train", "--host", "tr",
                 "--task", "copy", "--epochs", "1", "--out", str(out), *SMALL, *flags])
    assert code == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["config"]["lr"] == 3e-4


def test_missing_config_file_exits_3(tmp_path, capsys):
    missing = tmp_path / "missing.yaml"
    out = tmp_path / "run"
    code = main(["train", "--config", str(missing), "--out", str(out)])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o failure") and str(missing) in err
    assert not out.exists()


def test_train_with_unsupported_image_size_exits_1_before_run_dir(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--host", "tr", "--task", "triangles", "--out", str(out),
                 "--set", "image_size=16"])
    assert code == EXIT_CONFIG
    assert "image_size" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_override_exits_1(tmp_path):
    code = main(["train", "--host", "tr", "--set", "bogus_key=1",
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG


def test_override_of_a_task_derived_value_exits_1(tmp_path, capsys):
    # The task sets the class count; an override cannot change it.
    code, out = run_small_train(tmp_path, "--set", "n_classes=5")
    assert code == EXIT_CONFIG
    assert "n_classes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("tims_mono_layers", "2"),
                                       ("share_layer_params", "false"),
                                       ("n_l", "32")])
def test_config_file_with_retired_key_at_another_value_exits_1(tmp_path, capsys,
                                                               key, value):
    cfg_file = tmp_path / "old.yaml"
    cfg_file.write_text(f"{key}: {value}\n")
    code, out = run_small_train(tmp_path, "--config", str(cfg_file))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not out.exists()


@pytest.mark.parametrize("flags,key", [
    (("--topk", "2"), "topk"),
    (("--host", "rims_sw", "--no-persistence"), "persistent_memory"),
    (("--host", "tr", "--sw-plus-sa"), "sw_plus_sa")])
def test_ablation_flag_the_host_ignores_exits_1(tmp_path, capsys, flags, key):
    # tr_ssw has no top-k; rims_sw and tr ignore the two workspace ablations.
    code, out = run_small_train(tmp_path, *flags)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not out.exists()


def test_ablation_flags_flow_into_config():
    parser = build_parser()
    args = parser.parse_args(["train", "--host", "tr_ssw", "--no-persistence",
                              "--sw-plus-sa", "--slots", "6", "--out", "x"])
    cfg = _assemble_config(args)
    assert cfg.persistent_memory is False
    assert cfg.sw_plus_sa is True
    assert cfg.n_m == 6
    args = parser.parse_args(["train", "--2xsa", "--out", "x"])
    assert _assemble_config(args).host == "tr_2xsa"
    # Two command-line values for one key are accepted when they agree.
    args = parser.parse_args(["train", "--host", "tr_2xsa", "--2xsa", "--slots", "3",
                              "--set", "n_m=3", "--out", "x"])
    cfg = _assemble_config(args)
    assert (cfg.host, cfg.n_m) == ("tr_2xsa", 3)
    args = parser.parse_args(["train", "--host", "tr_hsw", "--topk", "3", "--out", "x"])
    assert _assemble_config(args).topk == 3


def test_config_file_with_overrides(tmp_path):
    cfg_file = tmp_path / "c.yaml"
    cfg_file.write_text("host: tr\nn_h: 24\nkey_dim: 6\nvalue_dim: 6\n")
    parser = build_parser()
    args = parser.parse_args(["train", "--config", str(cfg_file),
                              "--seed", "7", "--out", "x"])
    cfg = _assemble_config(args)
    assert cfg.host == "tr" and cfg.n_h == 24 and cfg.seed == 7


def test_config_file_with_retired_keys_loads(tmp_path):
    cfg_file = tmp_path / "old.yaml"
    cfg_file.write_text("host: tr\nrims_steps: 4\ninclude_memory_rows: false\n")
    args = build_parser().parse_args(["train", "--config", str(cfg_file), "--out", "x"])
    assert _assemble_config(args) == ModelConfig(host="tr")


# ---- eval --------------------------------------------------------------------


def test_eval_prints_metrics(tmp_path, capsys):
    _, out = run_small_train(tmp_path)
    capsys.readouterr()   # discard the training log
    code = main(["--data-root", str(tmp_path / "data"), "eval",
                 "--checkpoint", str(out / "best.ckpt")])
    assert code == EXIT_OK
    metrics = json.loads(capsys.readouterr().out)
    assert 0.0 <= metrics["accuracy"] <= 1.0 and "loss" in metrics


def test_eval_reports_only_the_question_splits_it_saw(tmp_path, capsys):
    # The first ten questions of a scene are non-relational, so five examples
    # hold no relational question.
    cfg = resolve_task_fields(ModelConfig(host="tr", task="soc", n_layers=1, n_h=8,
                                          ffn_dim=8, n_heads=2, key_dim=4, value_dim=4,
                                          image_size=32, patch_size=16, test_n=2))
    ckpt = tmp_path / "soc.ckpt"
    save_checkpoint(ckpt, build_model(cfg).parameters(), {"config": dataclasses.asdict(cfg)})

    def no_constant(name):
        raise ValueError(f"not JSON: {name}")

    for extra, splits in ((["--max-examples", "5"], {"accuracy_nonrelational"}),
                          ([], {"accuracy_relational", "accuracy_nonrelational"})):
        code = main(["--data-root", str(tmp_path / "data"), "eval",
                     "--checkpoint", str(ckpt), *extra])
        assert code == EXIT_OK
        metrics = json.loads(capsys.readouterr().out, parse_constant=no_constant)
        assert set(metrics) == {"loss", "accuracy"} | splits


def test_eval_of_no_examples_exits_1(tmp_path, capsys):
    _, out = run_small_train(tmp_path)
    for max_examples in ("0", "-4"):
        capsys.readouterr()
        code = main(["--data-root", str(tmp_path / "data"), "eval",
                     "--checkpoint", str(out / "best.ckpt"), "--max-examples", max_examples])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and "no examples" in err


def test_eval_generates_only_the_evaluated_split(tmp_path, monkeypatch, capsys):
    cfg = resolve_task_fields(ModelConfig(host="tr", n_layers=1, n_h=8, ffn_dim=8,
                                          n_heads=2, key_dim=4, value_dim=4, image_size=32,
                                          train_n=200, test_n=16))
    ckpt = tmp_path / "toy.ckpt"
    save_checkpoint(ckpt, build_model(cfg).parameters(), {"config": dataclasses.asdict(cfg)})
    generated = []
    real = train.gen_triangles

    def counting(n, **kw):
        generated.append(n)
        return real(n, **kw)

    monkeypatch.setattr(train, "gen_triangles", counting)
    for split, n in (("test", 16), ("train", 200)):
        generated.clear()
        assert main(["eval", "--checkpoint", str(ckpt), "--split", split,
                     "--max-examples", "4"]) == EXIT_OK
        assert generated == [n]
        assert "accuracy" in json.loads(capsys.readouterr().out)


def test_eval_missing_checkpoint_exits_3(tmp_path):
    assert main(["eval", "--checkpoint", str(tmp_path / "no.ckpt")]) == EXIT_IO


def test_eval_corrupt_checkpoint_exits_3(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert main(["eval", "--checkpoint", str(bad)]) == EXIT_IO


@pytest.mark.parametrize("region", ["empty", "header", "manifest", "tensor"])
def test_eval_truncated_checkpoint_exits_3(tmp_path, capsys, region):
    full = write_checkpoint(tmp_path / "full.ckpt").read_bytes()
    (manifest_len,) = struct.unpack("<I", full[8:12])
    cut = {"empty": 0, "header": 10, "manifest": 12 + manifest_len // 2,
           "tensor": len(full) - 1}[region]
    path = tmp_path / "cut.ckpt"
    path.write_bytes(full[:cut])
    assert main(["eval", "--checkpoint", str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o failure")
    if region != "empty":
        assert "truncated" in err


@pytest.mark.parametrize("defect", ["missing", "wrong_shape"])
def test_eval_checkpoint_with_bad_parameter_exits_3(tmp_path, capsys, defect):
    tensors, meta = load_checkpoint(write_checkpoint(tmp_path / "full.ckpt"))
    if defect == "missing":
        del tensors["head.b"]
    else:
        # (1, n) would broadcast silently into the (n,) parameter.
        tensors["head.b"] = tensors["head.b"][None]
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, tensors, meta)
    assert main(["eval", "--checkpoint", str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o failure") and "head.b" in err


@pytest.mark.parametrize("dtype", ["<U4", "complex64", "int32"])
def test_eval_checkpoint_with_parameter_of_another_dtype_kind_exits_3(tmp_path, capsys,
                                                                       dtype):
    # "<U4" used to die in a ValueError traceback, and complex64 loaded with
    # its imaginary part dropped.
    tensors, meta = load_checkpoint(write_checkpoint(tmp_path / "full.ckpt"))
    tensors["embed.w"] = tensors["embed.w"].astype(dtype)
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, tensors, meta)
    assert main(["eval", "--checkpoint", str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o failure") and "'embed.w'" in err and "real float" in err
    assert "Traceback" not in err


def test_eval_checkpoint_with_unknown_config_key_exits_1(tmp_path, capsys):
    path = write_checkpoint(tmp_path / "bogus.ckpt", bogus_key=1)
    assert main(["eval", "--checkpoint", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "bogus_key" in err


@pytest.mark.parametrize("key,value", [("tims_mono_layers", 2),
                                       ("share_layer_params", False),
                                       ("n_l", 32)])
def test_eval_checkpoint_with_retired_key_at_another_value_exits_1(tmp_path, capsys,
                                                                   key, value):
    path = write_checkpoint(tmp_path / "old.ckpt", **{key: value})
    assert main(["eval", "--checkpoint", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err


# ---- gradcheck ---------------------------------------------------------------


def test_gradcheck_single_host_passes():
    assert main(["gradcheck", "--host", "tr"]) == EXIT_OK


def test_gradcheck_detects_corrupted_backward(monkeypatch):
    # Negative control: scale the gradient flowing through relu by 1.01 and
    # the finite-difference comparison must flag it.
    true_relu = T.relu

    def corrupted(a):
        out = true_relu(a)
        if out._node is not None:
            good = out._node._backward
            out._node._backward = lambda g: good(g * 1.01)
        return out

    monkeypatch.setattr(T, "relu", corrupted)
    assert main(["gradcheck", "--host", "tr"]) == EXIT_NUMERIC


# ---- bench -------------------------------------------------------------------


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert main(["bench", "--ns", "16,32", "--repeats", "5",
                 "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("mechanism,n_s,n_m,d,flops_analytic,wall_ns")
    assert len(lines) == 5
    assert "slope" in capsys.readouterr().out


@pytest.mark.parametrize("flag,value", [("--ns", "32,abc"), ("--ns", "0,32"), ("--d", "0"),
                                        ("--d", "-1"), ("--nm", "0"), ("--nm", "-2")])
def test_bench_with_a_size_that_is_not_a_positive_integer_exits_1(capsys, flag, value):
    # Rejected before any stage is built or timed.
    assert main(["bench", "--ns", "8,16", flag, value]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and flag in err


# ---- dump-attn ---------------------------------------------------------------


def test_dump_attn_workspace_host(tmp_path):
    _, out = run_small_train(tmp_path)
    csv_path = tmp_path / "attn.csv"
    code = main(["--data-root", str(tmp_path / "data"), "dump-attn",
                 "--checkpoint", str(out / "best.ckpt"), "--out", str(csv_path)])
    assert code == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "stage,slot,token,weight"
    assert len(lines) > 1


def test_dump_attn_causal_workspace_host(tmp_path):
    out = tmp_path / "run"
    main(["--data-root", str(tmp_path / "data"), "train", "--host", "tr_hsw",
          "--topk", "2", "--task", "copy", "--epochs", "1", "--out", str(out), *SMALL])
    csv_path = tmp_path / "attn.csv"
    code = main(["--data-root", str(tmp_path / "data"), "dump-attn",
                 "--checkpoint", str(out / "best.ckpt"), "--out", str(csv_path)])
    assert code == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "stage,position,slot,token,weight"
    # One memory per position: n_layers * T * n_m * T rows, over the T = 10
    # input tokens of a copy_len=5 sequence (the 11th is only a target).
    assert len(lines) - 1 == 2 * 10 * 2 * 10


def test_dump_attn_mechanism_host(tmp_path):
    out = tmp_path / "run"
    main(["--data-root", str(tmp_path / "data"), "train", "--host", "tims_sw",
          "--task", "copy", "--epochs", "1", "--out", str(out), *SMALL,
          "--set", "copy_len=3"])
    csv_path = tmp_path / "attn.csv"
    code = main(["--data-root", str(tmp_path / "data"), "dump-attn",
                 "--checkpoint", str(out / "best.ckpt"), "--out", str(csv_path)])
    assert code == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "stage,position,active"
    # One row per modular layer and input position: n_layers * 2 * copy_len.
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(s), int(p)) for s, p, _ in rows] == [(s, p) for s in range(2)
                                                      for p in range(6)]
    n_s, n_sel = ModelConfig().n_s, ModelConfig().n_sel
    for _, _, active in rows:
        ids = [int(i) for i in active.split()]
        assert len(set(ids)) == n_sel and all(0 <= i < n_s for i in ids)


def test_dump_attn_plain_host_exits_1(tmp_path):
    out = tmp_path / "run"
    main(["--data-root", str(tmp_path / "data"), "train", "--host", "tr",
          "--task", "triangles", "--epochs", "1", "--out", str(out), *SMALL])
    code = main(["--data-root", str(tmp_path / "data"), "dump-attn",
                 "--checkpoint", str(out / "best.ckpt"),
                 "--out", str(tmp_path / "a.csv")])
    assert code == EXIT_CONFIG
