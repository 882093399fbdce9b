"""The measuring process of one benchmark run.

``run.py`` writes the inputs and starts this process. It times one cold
set-up from its own start, then runs whole rounds of the workload until
``--seconds`` are used, reads its peak memory, and only then runs the
correctness checks. Wall times are put on the reference machine's scale
(see ``speed.py``). A traced run stops after the fewest rounds that
predict every latency graph once, and reports per-layer totals over that
work. The last line of its standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

import oracle
from spans import Tracer, metric_units
from speed import Probe
from workloads import WORKLOADS, model_config, percentile, train_kwargs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DETERMINISM_GRAPHS = 16  # two optimiser steps at batch 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_graphs_per_s": "graphs/s",
    "eval_graphs_per_s": "graphs/s",
    "eval_latency_ms_p50": "ms",
    "eval_latency_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


class Ops:
    """Calls into the program, each counted as one attempted operation and
    timed next to the machine-speed probe."""

    def __init__(self, error_type, probe):
        self.error_type = error_type
        self.probe = probe
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        """Returns (wall seconds, result or None if the call failed)."""
        self.probe.maybe()
        self.attempted += 1
        out = None
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except self.error_type as exc:
            self.failed += 1
            print(f"failed: {getattr(fn, '__name__', fn)}: {exc}", file=sys.stderr)
        return time.perf_counter() - t0, out


def median(values) -> float:
    return percentile(values, 50.0)


def rate(graphs: dict, times: dict) -> float:
    """Graphs per second over every variant, from each variant's median call time."""
    return sum(graphs.values()) / sum(median(times[name]) for name in graphs)


def read_records(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    w = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    meta = json.loads((workdir / "meta.json").read_text())

    tracer = None
    if args.trace:
        import grpe  # noqa: F401  (the tracer wraps it before set-up)
        tracer = Tracer()
        tracer.install()

    # -- set-up: the program's import, parse_graphs, build_model / load_checkpoint
    import grpe
    from grpe import graph, model as gm, training
    train_set = graph.parse_graphs(meta["train"]) if w.trains_in_worker else []
    test_set = graph.parse_graphs(meta["test"])
    if w.trains_in_worker:
        models = {v.name: gm.build_model(gm.ModelConfig(**model_config(w, v)))
                  for v in w.variants}
    else:
        models = {w.variants[0].name: training.load_checkpoint(meta["checkpoint"])}
    setup_raw = time.monotonic() - args.spawned_at

    # -- timed rounds
    probe = Probe()
    ops = Ops(grpe.GrpeError, probe)
    tcfg = training.TrainConfig(**train_kwargs(w))
    ckpt = {v.name: str(workdir / f"{v.name}.ckpt.json") for v in w.variants}
    train_s = {v.name: [] for v in w.variants}   # wall time of each call, per variant
    eval_s = {v.name: [] for v in w.variants}
    latency_s = [[] for _ in range(w.latency_graphs)]  # per graph, one timing per variant
    maes = {}
    preds = {v.name: [math.nan] * w.latency_graphs for v in w.variants}
    began = time.perf_counter()
    rounds = 0
    while True:
        for v in w.variants:
            model = models[v.name]
            if w.trains_in_worker:
                done = model.trainer.epochs_done if model.trainer else 0
                dt, _ = ops.call(training.train, model, train_set[:v.train_graphs], tcfg,
                                 stop_epoch=done + 1)
                train_s[v.name].append(dt)
            dt, res = ops.call(training.evaluate, model, test_set[:v.eval_graphs])
            eval_s[v.name].append(dt)
            maes[v.name] = res["mae"] if res else math.nan
            if w.trains_in_worker:
                ops.call(training.save_checkpoint, model, ckpt[v.name])
        first = rounds * w.per_round
        for i in range(first, first + w.per_round):
            i %= w.latency_graphs
            sample = []
            for v in w.variants:
                dt, p = ops.call(models[v.name].predict, test_set[i])
                sample.append(dt)
                preds[v.name][i] = math.nan if p is None else p
            latency_s[i].append(sample)
        rounds += 1
        elapsed = time.perf_counter() - began
        if rounds >= w.min_rounds and (tracer is not None
                                       or elapsed + elapsed / rounds > args.seconds):
            break  # a traced run does a fixed amount of work, so its counts repeat exactly
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    probe.run()
    scale = probe.scale()
    if w.trains_in_worker:
        train_graphs = {v.name: v.train_graphs for v in w.variants}
        train_rate = rate(train_graphs, train_s) / scale
    else:  # measured, and put on the reference scale, where the checkpoint was trained
        train_rate = meta["ckpt_train_graphs"] / median(meta["ckpt_train_s"])
    per_graph = [median([sum(sample) for sample in samples]) for samples in latency_s]
    e2e = {
        "setup_s": setup_raw * scale,
        "train_graphs_per_s": train_rate,
        "eval_graphs_per_s": rate({v.name: v.eval_graphs for v in w.variants}, eval_s) / scale,
        "eval_latency_ms_p50": 1e3 * scale * percentile(per_graph, 50.0),
        "eval_latency_ms_tail": 1e3 * scale * percentile(per_graph, w.tail_percentile),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {w.name} seed {args.seed}: {rounds} rounds in {elapsed:.2f} s, "
          f"{sum(map(len, latency_s))} latency samples of {w.latency_graphs} graphs, "
          f"tail = p{w.tail_percentile:g}, machine-speed scale {scale:.4f} "
          f"from {len(probe.times)} probes")

    t0 = time.perf_counter()
    checks = run_checks(w, args.seed, meta, models, test_set, train_set, preds, maes, ckpt)
    for c in checks:
        print(c.line())
    print(f"checks took {time.perf_counter() - t0:.2f} s")

    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    else:
        print("traced end-to-end: " + json.dumps(e2e))
        if tracer.missing:
            print("missing per-layer metrics: " + " ".join(tracer.missing))
        out_dir = BENCH / "_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{w.name}.jsonl")
        units = metric_units()
        metrics = {k: {"value": v * scale if units[k] == "s" else v, "unit": units[k]}
                   for k, v in tracer.metrics().items()}
    print(json.dumps({"correct": all(c.ok for c in checks), "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}), flush=True)
    return 0


def run_checks(w, seed, meta, models, test_set, train_set, preds, maes, ckpt) -> list:
    """Checks (a)-(f) on the latest outputs of the timed rounds, made by the
    final model; run outside the timed region."""
    from grpe import graph, model as gm, training

    rng = np.random.default_rng([seed, w.index, 1])
    records = read_records(meta["test"])
    check_sample = graph.parse_graphs(meta["checks"])[0]
    perm_set = graph.parse_graphs(meta["perm"])
    n = w.check_graphs
    out = []
    for v in w.variants:
        model = models[v.name]
        cfg = dict(vars(model.config))
        params = {name: p.value.data for name, p in model.parameters()}
        got = preds[v.name]

        idx = [i for i in range(len(got)) if oracle.reference_eligible(cfg, records[i])][:n]
        out.append(oracle.check_reference(v.name, params, cfg, [records[i] for i in idx],
                                          [got[i] for i in idx]))
        out.append(oracle.check_gradients(v.name, model, model.prepare(check_sample), rng))
        out.append(oracle.check_permutation(v.name, [got[i] for i in idx],
                                            [model.predict(perm_set[i]) for i in idx]))
        if w.trains_in_worker:
            loaded = training.load_checkpoint(ckpt[v.name])
            saved = [loaded.predict(s) for s in test_set[:n]]
        else:
            saved = meta["ckpt_preds"]
        out.append(oracle.check_checkpoint(v.name, saved, got[:n]))
        eval_preds = got[:v.eval_graphs] + [model.predict(s)
                                            for s in test_set[len(got):v.eval_graphs]]
        out.append(oracle.check_mae(v.name, maes[v.name], eval_preds,
                                    meta["test_targets"][:v.eval_graphs]))

        # (f) the first epoch again from the same seed, bit for bit
        tcfg = training.TrainConfig(**train_kwargs(w))
        if w.trains_in_worker:
            first, reference = train_set[:DETERMINISM_GRAPHS], None
        else:
            first = graph.parse_graphs(meta["ckpt_train"])
            saved = training.load_checkpoint(meta["first_epoch"])
            reference = {name: p.value.data for name, p in saved.parameters()}
        runs = []
        for _ in range(1 if reference else 2):
            m = gm.build_model(gm.ModelConfig(**model_config(w, v)))
            training.train(m, first, tcfg, stop_epoch=1)
            runs.append({name: p.value.data.copy() for name, p in m.parameters()})
        out.append(oracle.check_determinism(v.name, reference or runs[1], runs[0]))
    return out


if __name__ == "__main__":
    sys.exit(main())
