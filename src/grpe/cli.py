"""Command-line surface.

Commands: generate, train, eval, selfcheck, gradcheck, dump-attention.
Every command is deterministic given its flags and seed. Exit codes:
0 success, 2 configuration error, 3 I/O or data error, 4 numeric error,
5 verification failure, 1 anything unexpected.

A JSON config file (--config) supplies defaults; explicit flags win. The
effective configuration is echoed before work starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import errors
from .errors import (CheckFailure, CheckpointError, ConfigError, GraphParseError,
                     NumericError)
from .graph import parse_graphs, write_graphs
from .model import ModelConfig, PRESETS, build_model, loss_and_grad
from .selfcheck import SUITES, run_suites, verify_targets
from .synthetic import NUM_DEGREE_CLASSES, make_synthetic
from .tensor import finite_diff_check
from .training import (TrainConfig, evaluate, load_checkpoint, save_checkpoint,
                       train)

TASK_ALIASES = {"spd2": "spd2_fraction", "degree": "degree_class"}

# functional parameter groups for gradcheck reporting
GRADCHECK_GROUPS = {
    "embed": lambda name: name.startswith("nodes."),
    "topology_tables": lambda name: name.startswith("topology."),
    "edge_tables": lambda name: name.startswith("edge."),
    "graphormer": lambda name: name.startswith("graphormer."),
    "attention": lambda name: ".attn." in name,
    "norm": lambda name: ".ln" in name,
    "ffn": lambda name: ".ffn_" in name,
    "head": lambda name: name.startswith("head."),
}
GRADCHECK_TABLE_GROUPS = ("topology_tables", "edge_tables")


def _load_config_file(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc.msg})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: expected a JSON object")
    return data


# JSON value types accepted for each config field annotation; a JSON integer
# is also a valid float, and true/false are booleans only.
_FIELD_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _check_file_types(file_cfg: dict, cls):
    """Reject a config-file value whose JSON type does not fit its field."""
    for key, value in file_cfg.items():
        allowed = [t.strip() for t in cls.__dataclass_fields__[key].type.split("|")]
        if value is None:
            ok = "None" in allowed
        elif isinstance(value, bool):
            ok = "bool" in allowed
        else:
            ok = any(isinstance(value, _FIELD_TYPES.get(t, ())) for t in allowed)
        if not ok:
            raise ConfigError(f"config file key {key!r}: expected {' or '.join(allowed)}, "
                              f"got {json.dumps(value)}")


def _merge(defaults: dict, file_cfg: dict, flag_values: dict) -> dict:
    """Flag values (when given) beat the config file, which beats defaults."""
    merged = dict(defaults)
    merged.update(file_cfg)
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    return merged


def _echo(label: str, cfg: dict):
    print(f"{label}: {json.dumps(cfg, sort_keys=True)}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    task = TASK_ALIASES.get(args.task, args.task)
    samples = make_synthetic(task, args.count, (args.min_nodes, args.max_nodes),
                             args.seed, num_edge_types=args.edge_types,
                             node_vocab=args.node_vocab)
    write_graphs(samples, args.out)
    sizes = [s.graph.num_nodes for s in samples]
    print(f"wrote {len(samples)} graphs to {args.out}")
    if samples:
        print(f"nodes: min={min(sizes)} max={max(sizes)} "
              f"mean={sum(sizes) / len(sizes):.2f}")
        if task == "spd2_fraction":
            targets = [s.target for s in samples]
            print(f"targets: min={min(targets):.4f} max={max(targets):.4f} "
                  f"mean={sum(targets) / len(targets):.4f}")
        else:
            counts = [0] * NUM_DEGREE_CLASSES
            for s in samples:
                for lbl in s.node_labels:
                    counts[lbl] += 1
            print(f"label counts: {counts}")
    return errors.EXIT_OK


def _infer_task(samples) -> str:
    return "node_classification" if samples[0].is_node_task else "graph_regression"


def _model_config_from_args(args, file_cfg: dict, task: str,
                            num_edge_types: int) -> ModelConfig:
    defaults = asdict(ModelConfig(**PRESETS["tiny"]))  # every field may come from the file
    defaults.update(num_edge_types=num_edge_types, task=task, num_classes=NUM_DEGREE_CLASSES)
    known_model = set(ModelConfig.__dataclass_fields__)
    file_model = {k: v for k, v in file_cfg.items() if k in known_model}
    unknown = set(file_cfg) - known_model - set(TrainConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"config file has unknown keys: {sorted(unknown)}")
    _check_file_types(file_model, ModelConfig)
    flags = dict(PRESETS[args.preset]) if args.preset else {}
    # explicit architecture flags override the preset
    flags.update({k: v for k, v in {
        "layers": args.layers, "d_z": args.d_z, "ffn_dim": args.ffn_dim,
        "heads": args.heads, "L": args.L, "pe_mode": args.pe, "seed": args.seed,
        "node_vocab": args.node_vocab, "use_degree": args.use_degree,
    }.items() if v is not None})
    if args.naive:
        flags["fast"] = False
    merged = _merge(defaults, file_model, flags)
    if merged["pe_mode"] == "graphormer" and "use_degree" not in {**file_model, **flags}:
        merged["use_degree"] = True  # the scalar-bias baseline reads degrees by default
    return ModelConfig(**merged)


def _train_config_from_args(args, file_cfg: dict) -> TrainConfig:
    """Every ``TrainConfig`` field may come from the file. A key that both
    configs have (``seed``) belongs to the model, as the ``--seed`` flag
    does; the trainer stream is then derived from the model seed."""
    defaults = asdict(TrainConfig(epochs=50))
    model_keys = set(ModelConfig.__dataclass_fields__)
    file_train = {k: v for k, v in file_cfg.items() if k in defaults and k not in model_keys}
    _check_file_types(file_train, TrainConfig)
    flags = {"epochs": args.epochs, "lr_start": args.lr_start,
             "lr_end": args.lr_end, "batch_size": args.batch}
    merged = _merge(defaults, file_train, flags)
    return TrainConfig(**merged)


def cmd_train(args) -> int:
    samples = parse_graphs(args.data)
    if not samples:
        raise ConfigError(f"dataset {args.data} is empty")
    val = parse_graphs(args.val) if args.val else None
    task = _infer_task(samples)
    data_e = max(s.graph.num_edge_types for s in samples)
    file_cfg = _load_config_file(args.config)
    mcfg = _model_config_from_args(args, file_cfg, task, num_edge_types=max(data_e, 1))
    tcfg = _train_config_from_args(args, file_cfg)
    _echo("model", asdict(mcfg))
    _echo("train", asdict(tcfg))

    model = build_model(mcfg)
    history = train(model, samples, tcfg, val_set=val)

    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "checkpoint.json")
    metrics_path = os.path.join(args.out, "metrics.tsv")
    save_checkpoint(model, ckpt_path)
    with open(metrics_path, "w", encoding="utf-8") as fh:
        fh.write("epoch\ttrain_loss\tval_loss\tlr\n")
        for rec in history:
            fh.write(f"{rec.epoch}\t{rec.train_loss!r}\t{rec.val_loss!r}\t{rec.lr!r}\n")
    final = history[-1].train_loss if history else float("nan")
    print(f"trained {len(history)} epochs; final train loss {final:.6f}")
    print(f"checkpoint: {ckpt_path}")
    print(f"metrics: {metrics_path}")
    return errors.EXIT_OK


def cmd_eval(args) -> int:
    model = load_checkpoint(args.ckpt)
    samples = parse_graphs(args.data)
    if not samples:
        raise ConfigError(f"dataset {args.data} is empty")
    task = _infer_task(samples)
    if task != model.config.task:
        raise ConfigError(f"checkpoint task {model.config.task!r} does not match "
                          f"dataset task {task!r}")
    metrics = evaluate(model, samples)
    for key in sorted(metrics):
        print(f"{key} {metrics[key]!r}")
    return errors.EXIT_OK


def cmd_selfcheck(args) -> int:
    if args.targets:
        result = verify_targets(parse_graphs(args.targets))
        print(result.line() + f"  [{result.note}]")
        if not result.passed:
            raise CheckFailure("dataset targets do not match brute-force recomputation")
        return errors.EXIT_OK
    names = args.suite if args.suite else None
    results = run_suites(names, cases=args.cases, seed=args.seed,
                         inject_fault=args.inject_fault)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(r.line() + (f"  [{r.note}]" if r.note else ""))
    if failed:
        raise CheckFailure(f"{len(failed)} suite(s) failed: "
                           + ", ".join(r.name for r in failed))
    return errors.EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.nodes > 8:
        raise ConfigError("gradcheck graphs are capped at 8 nodes")
    if args.seed is None:
        args.seed = 0
    mcfg = _model_config_from_args(args, _load_config_file(args.config), "graph_regression",
                                   num_edge_types=args.edge_types)
    _echo("model", asdict(mcfg))
    model = build_model(mcfg)
    rng = np.random.default_rng(args.seed)
    from .synthetic import random_graph
    from .graph import GraphSample
    g = random_graph(rng, args.nodes, mcfg.num_edge_types, mcfg.node_vocab, 0.5)
    prep = model.prepare(GraphSample(graph=g, target=float(rng.normal())))

    def loss_fn():
        pred = model.forward(prep)
        value, _ = loss_and_grad(pred, prep.target, model.config.task)
        return value

    model.zero_grad()
    pred, cache = model.forward_with_cache(prep)
    _, d_pred = loss_and_grad(pred, prep.target, model.config.task)
    model.backward(d_pred, cache)

    selected = dict(GRADCHECK_GROUPS)
    if args.only == "tables":
        selected = {k: v for k, v in selected.items() if k in GRADCHECK_TABLE_GROUPS}
    elif args.only:
        if args.only not in GRADCHECK_GROUPS:
            raise ConfigError(f"unknown group {args.only!r}; "
                              f"available: {sorted(GRADCHECK_GROUPS)} or 'tables'")
        selected = {args.only: GRADCHECK_GROUPS[args.only]}

    worst_overall = 0.0
    for group, match in selected.items():
        params = [p for name, p in model.parameters() if match(name)]
        if not params:
            continue
        err = finite_diff_check(loss_fn, params, eps=1e-6,
                                max_coords_per_param=args.max_coords, seed=args.seed)
        worst_overall = max(worst_overall, err)
        print(f"group {group}: worst_rel_err={err:.3e}")
    print(f"overall worst_rel_err={worst_overall:.3e} threshold={args.threshold:.0e}")
    if worst_overall > args.threshold:
        raise CheckFailure(f"gradient check failed: {worst_overall:.3e} > {args.threshold:.0e}")
    return errors.EXIT_OK


def cmd_dump_attention(args) -> int:
    model = load_checkpoint(args.ckpt)
    samples = parse_graphs(args.data)
    if not (0 <= args.index < len(samples)):
        raise ConfigError(f"--index {args.index} outside dataset of {len(samples)} graphs")
    sample = samples[args.index]
    if sample.graph.num_nodes > args.max_nodes:
        raise ConfigError(f"graph has {sample.graph.num_nodes} nodes, above the "
                          f"cap of {args.max_nodes}")
    if sample.target is None and model.config.task == "graph_regression":
        raise ConfigError("checkpoint task does not match dataset")
    prep = model.prepare(sample)
    _, maps = model.forward(prep, want_trace=True)
    os.makedirs(args.out, exist_ok=True)

    n = prep.graph.num_nodes
    adj = np.zeros((n, n), dtype=np.int64)
    for i, j, _ in prep.graph.edges:
        adj[i, j] = adj[j, i] = 1
    adj[0, 1:] = 1  # virtual node connects to everything
    adj[1:, 0] = 1
    _write_matrix(os.path.join(args.out, "adjacency.tsv"), adj)
    for layer, attn in enumerate(maps):
        _write_matrix(os.path.join(args.out, f"layer_{layer:02d}.tsv"), attn.mean(axis=0))
    print(f"wrote adjacency + {len(maps)} attention maps to {args.out}")
    return errors.EXIT_OK


def _write_matrix(path, mat):
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.asarray(mat):
            fh.write("\t".join(repr(v) for v in row.tolist()) + "\n")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grpe", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    gen.add_argument("--task", choices=["spd2", "degree"], required=True)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--min-nodes", type=int, default=8, dest="min_nodes")
    gen.add_argument("--max-nodes", type=int, default=16, dest="max_nodes")
    gen.add_argument("--edge-types", type=int, default=4, dest="edge_types")
    gen.add_argument("--node-vocab", type=int, default=8, dest="node_vocab")
    gen.set_defaults(func=cmd_generate)

    def add_model_flags(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--preset", choices=sorted(PRESETS), default=None)
        p.add_argument("--pe", choices=["none", "grpe", "graphormer", "laplacian"],
                       default=None, help="attention mode (default: grpe)")
        speed = p.add_mutually_exclusive_group()
        speed.add_argument("--fast", action="store_true", default=True)
        speed.add_argument("--naive", dest="naive", action="store_true", default=False)
        p.add_argument("--L", type=int, default=None)
        p.add_argument("--layers", type=int, default=None)
        p.add_argument("--d-z", type=int, default=None, dest="d_z")
        p.add_argument("--ffn-dim", type=int, default=None, dest="ffn_dim")
        p.add_argument("--heads", type=int, default=None)
        p.add_argument("--node-vocab", type=int, default=None, dest="node_vocab")
        degree = p.add_mutually_exclusive_group()
        degree.add_argument("--use-degree", dest="use_degree", action="store_true",
                            default=None)
        degree.add_argument("--no-degree", dest="use_degree", action="store_false")

    tr = sub.add_parser("train", help="train a model on a graph file")
    tr.add_argument("--data", required=True)
    tr.add_argument("--val", default=None)
    tr.add_argument("--out", required=True, help="output directory")
    tr.add_argument("--epochs", type=int, default=None)
    tr.add_argument("--lr-start", type=float, default=None, dest="lr_start")
    tr.add_argument("--lr-end", type=float, default=None, dest="lr_end")
    tr.add_argument("--batch", type=int, default=None)
    add_model_flags(tr)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a graph file")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.set_defaults(func=cmd_eval)

    sc = sub.add_parser("selfcheck", help="run the verification suites")
    sc.add_argument("--suite", action="append", choices=sorted(SUITES), default=None)
    sc.add_argument("--cases", type=int, default=None)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--targets", default=None, metavar="FILE",
                    help="re-verify the targets of a generated dataset")
    sc.add_argument("--inject-fault", action="store_true", dest="inject_fault",
                    help=argparse.SUPPRESS)
    sc.set_defaults(func=cmd_selfcheck)

    gc = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    gc.add_argument("--nodes", type=int, default=6)
    gc.add_argument("--edge-types", type=int, default=3, dest="edge_types")
    gc.add_argument("--only", default=None,
                    help="restrict to one parameter group (or 'tables')")
    gc.add_argument("--threshold", type=float, default=1e-5)
    gc.add_argument("--max-coords", type=int, default=40, dest="max_coords",
                    help="sampled coordinates per tensor")
    add_model_flags(gc)
    gc.set_defaults(func=cmd_gradcheck)

    da = sub.add_parser("dump-attention", help="export per-layer attention maps")
    da.add_argument("--ckpt", required=True)
    da.add_argument("--data", required=True)
    da.add_argument("--index", type=int, default=0)
    da.add_argument("--out", required=True)
    da.add_argument("--max-nodes", type=int, default=64, dest="max_nodes")
    da.set_defaults(func=cmd_dump_attention)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return errors.EXIT_CONFIG
    except (GraphParseError, CheckpointError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return errors.EXIT_IO
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return errors.EXIT_NUMERIC
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return errors.EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
