"""Operator surface: generate datasets, train and evaluate models, run
gradient checks and the scaling benchmark, and dump attention/activation maps.

Exit codes: 0 success, 1 configuration error, 2 numeric failure,
3 I/O failure.  The data root for cached datasets comes from --data-root or
the SHAREDWORKSPACE_DATA environment variable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .bench import fit_loglog_slope, run_scaling, write_csv
from .config import HOSTS, TASKS, ModelConfig, from_dict, from_yaml
from .errors import ConfigError
from .gradcheck import NonDeterministicError
from .hostcheck import check_all_hosts, host_grad_check
from .models import TimsModel
from .optim import NumericError
from .serialization import CheckpointError
from .tasks import save_dataset
from .train import dataset, evaluate, generate_dataset, load_model, run_training

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO = 0, 1, 2, 3
DATA_ROOT_ENV = "SHAREDWORKSPACE_DATA"


def _data_root(args) -> str | None:
    return args.data_root or os.environ.get(DATA_ROOT_ENV) or None


def _write_json_atomic(path: Path, payload: dict) -> None:
    """Write a temp file, then replace ``path``; a failure removes the temp file."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _parse_set(pairs: list[str]) -> dict:
    overrides = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = yaml.safe_load(value)
    return overrides


def _assemble_config(args) -> ModelConfig:
    """The config file, overridden by ``--set`` and the flags.  Two
    command-line values for one key (a flag and a ``--set``, or ``--host``
    and ``--2xsa``) that disagree are a ConfigError."""
    overrides = _parse_set(args.set or [])
    flags = [(key, getattr(args, key)) for key in ("host", "task", "seed", "epochs", "topk")]
    flags += [("host", "tr_2xsa" if args.two_xsa else None), ("n_m", args.slots),
              ("persistent_memory", False if args.no_persistence else None),
              ("sw_plus_sa", True if args.sw_plus_sa else None)]
    for key, value in flags:
        if value is not None and overrides.setdefault(key, value) != value:
            raise ConfigError(f"{key} is given two values on the command line: "
                              f"{overrides[key]!r} and {value!r}")
    return from_yaml(args.config, overrides) if args.config else from_dict({}, overrides)


# ---- subcommands -------------------------------------------------------------


def cmd_generate(args) -> int:
    # Without --image-size, each generator's own default size (unused by copy).
    image_size = args.image_size or (75 if args.task == "soc" else 64)
    cfg = ModelConfig(task=args.task, image_size=image_size, vocab_size=args.vocab,
                      copy_len=args.copy_len)
    save_dataset(args.out, generate_dataset(cfg, args.n, args.seed))
    print(f"wrote {args.out}: task={args.task} n={args.n} seed={args.seed}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _assemble_config(args)
    out = Path(args.out)
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    summary = run_training(cfg, out, data_root=_data_root(args),
                           resume=args.resume, stop_epoch=args.stop_epoch,
                           log=print)
    manifest = {
        "package_version": __version__,
        "config": dataclasses.asdict(cfg),
        "seed": cfg.seed,
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "final_metrics": summary["history"][-1] if summary["history"] else None,
        "best_test_accuracy": summary["best_test_accuracy"],
        "artifacts": {
            "metrics": summary["metrics_path"],
            "checkpoint_last": summary["checkpoints"]["last"],
            "checkpoint_best": summary["checkpoints"]["best"],
            "manifest": str(out / "manifest.json"),
        },
        "data_root": _data_root(args),
    }
    _write_json_atomic(out / "manifest.json", manifest)
    print(f"best test accuracy {summary['best_test_accuracy']:.4f}  "
          f"manifest {out / 'manifest.json'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, cfg = load_model(args.checkpoint)
    data = dataset(cfg, args.split, _data_root(args))
    metrics = evaluate(model, cfg, data, max_examples=args.max_examples)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    reports = ({args.host: host_grad_check(args.host)} if args.host != "all"
               else check_all_hosts())
    failed = []
    for host, rep in reports.items():
        status = "PASS" if rep.passed else "FAIL"
        print(f"{host:8s} {status}  max rel err {rep.max_rel_err:.3e}  "
              f"(tol {rep.tol:.0e})")
        if not rep.passed:
            failed.append(host)
    if failed:
        raise NumericError(f"gradient check failed for: {', '.join(failed)}")
    return EXIT_OK


def cmd_bench(args) -> int:
    ns_list = [int(x) if x.strip().isdigit() else 0 for x in args.ns.split(",")]
    if min(ns_list) < 1:
        raise ConfigError(f"--ns expects comma-separated positive sizes, got {args.ns!r}")
    if min(args.d, args.nm) < 1:
        raise ConfigError(f"--d and --nm must be at least 1, got {args.d} and {args.nm}")
    results = run_scaling(ns_list, n_m=args.nm, d=args.d, repeats=args.repeats)
    if args.out:
        write_csv(args.out, results)
        print(f"wrote {args.out}")
    for mech in ("workspace", "pairwise"):
        print(f"{mech:10s} log-log slope {fit_loglog_slope(results, mech):.3f}")
    return EXIT_OK


def cmd_dump_attn(args) -> int:
    model, cfg = load_model(args.checkpoint)
    test_d = dataset(cfg, "test", _data_root(args))
    from .train import _batch_arrays, batch_loss
    # The maps are those of test example 0, so it runs alone.  The LM runs
    # at full width: its loss would compute only the echo rows' memories.
    batch = _batch_arrays(cfg, test_d, np.arange(1))
    if cfg.task == "copy":
        model.forward(batch["tokens"][:, :-1])
    else:
        batch_loss(model, cfg, batch, rng=None)

    rows = []
    if isinstance(model, TimsModel):
        # Mechanism-activation map: position -> active mechanism set.
        for layer, sel in enumerate(model.last_selection):
            for pos in range(sel.shape[1]):
                rows.append({"stage": layer, "position": pos,
                             "active": " ".join(map(str, sorted(sel[0, pos])))})
        fields = ["stage", "position", "active"]
    elif getattr(model, "last_attention", None):
        # Write maps: (slot, token), with a leading position axis when every
        # position keeps its own memory.
        axes = ["position", "slot", "token"][-model.last_attention[0].ndim:]
        for stage, write in enumerate(model.last_attention):
            for index in np.ndindex(write.shape):
                rows.append({"stage": stage, **dict(zip(axes, index)),
                             "weight": f"{write[index]:.6f}"})
        fields = ["stage", *axes, "weight"]
    else:
        raise ConfigError(f"host {cfg.host!r} has no attention maps to dump")
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


# ---- argument parsing --------------------------------------------------------


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="config override (repeatable)")
    p.add_argument("--host", choices=HOSTS)
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--no-persistence", action="store_true", dest="no_persistence",
                   help="re-initialize workspace memory at every stage")
    p.add_argument("--2xsa", action="store_true", dest="two_xsa",
                   help="use the doubled self-attention baseline host")
    p.add_argument("--sw-plus-sa", action="store_true", dest="sw_plus_sa",
                   help="keep pairwise self-attention alongside the workspace")
    p.add_argument("--slots", type=int, help="number of workspace memory slots")
    p.add_argument("--topk", type=int, help="hard write competition size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharedworkspace",
        description="Shared-workspace communication for modular neural "
                    "architectures: datasets, training, verification, benchmark.")
    parser.add_argument("--data-root", help=f"dataset cache dir (default ${DATA_ROOT_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a dataset file")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--image-size", type=int, dest="image_size")
    p.add_argument("--vocab", type=int, default=8)
    p.add_argument("--copy-len", type=int, default=5, dest="copy_len")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--stop-epoch", type=int, dest="stop_epoch",
                   help="stop after this many total epochs (resume later)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--max-examples", type=int, dest="max_examples")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--host", default="all", choices=HOSTS + ("all",))
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="communication complexity benchmark")
    p.add_argument("--ns", default="32,64,128,256,512")
    p.add_argument("--out")
    p.add_argument("--d", type=int, default=32)
    p.add_argument("--nm", type=int, default=4)
    p.add_argument("--repeats", type=int, default=7)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("dump-attn", help="dump attention / activation maps as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump_attn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, NonDeterministicError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, CheckpointError) as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
