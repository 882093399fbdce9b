"""Tests of the benchmark itself: each correctness check must fail on a
corrupted output, and a run must print the result format the benchmark
promises (``BENCHMARK.json`` at the repository root names every metric).

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
from workloads import SMALL, WORKLOADS, make_records, model_config, relabel, write_jsonl  # noqa: E402

from grpe import graph, model as gm, training  # noqa: E402

SMOKE = WORKLOADS["smoke"]
VARIANTS = {v.name: v for v in SMOKE.variants}
MODES = {
    "grpe": dict(pe_mode="grpe"),
    "topology_only": dict(pe_mode="grpe", use_edge=False, use_value=False),
    "none": dict(pe_mode="none"),
    "graphormer": dict(pe_mode="graphormer"),
    "laplacian": dict(pe_mode="laplacian"),
}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """Ten small records with targets, and the program's parse of them."""
    records = make_records(np.random.default_rng(5), SMALL, 10)
    path = tmp_path_factory.mktemp("graphs") / "graphs.jsonl"
    write_jsonl(path, records)
    return records, graph.parse_graphs(path)


def build(mode="grpe", seed=0):
    cfg = model_config(SMOKE, VARIANTS["full"], seed=seed)
    cfg.update(MODES[mode])
    model = gm.build_model(gm.ModelConfig(**cfg))
    rng = np.random.default_rng(seed + 11)  # weights well away from their small initial values
    for _, p in model.parameters():
        p.value.data += rng.normal(0.0, 0.3, p.value.shape)
    return model


def params_of(model):
    return {name: p.value.data.copy() for name, p in model.parameters()}


def reference_inputs(model, records, samples):
    cfg = dict(vars(model.config))
    keep = [i for i, rec in enumerate(records) if oracle.reference_eligible(cfg, rec)][:3]
    return cfg, [records[i] for i in keep], [model.predict(samples[i]) for i in keep]


# -- (a) independent forward -------------------------------------------------

@pytest.mark.parametrize("mode", sorted(MODES))
def test_reference_matches_program(data, mode):
    model = build(mode)
    cfg, recs, preds = reference_inputs(model, *data)
    check = oracle.check_reference(mode, params_of(model), cfg, recs, preds)
    assert check.ok and len(recs) == 3, check.line()


def test_reference_fails_on_perturbed_parameter(data):
    model = build()
    cfg, recs, preds = reference_inputs(model, *data)
    params = params_of(model)
    params["topology.key"][2, 3] += 1e-4
    assert not oracle.check_reference("grpe", params, cfg, recs, preds).ok


def test_reference_fails_on_swapped_bucket_index(data, monkeypatch):
    model = build()
    real = graph.topology_indices

    def swapped(*args, **kwargs):
        t = real(*args, **kwargs)
        return np.where(t == 1, 2, np.where(t == 2, 1, t))

    monkeypatch.setattr(graph, "topology_indices", swapped)
    cfg, recs, preds = reference_inputs(model, *data)
    assert not oracle.check_reference("grpe", params_of(model), cfg, recs, preds).ok


# -- (b) finite differences --------------------------------------------------

@pytest.mark.parametrize("mode", ["grpe", "graphormer"])
def test_gradients_pass_and_fail_on_a_corrupted_backward(data, mode, monkeypatch):
    model = build(mode)
    prep = model.prepare(data[1][0])
    assert oracle.check_gradients(mode, model, prep, np.random.default_rng(0)).ok
    real = gm.Model.backward

    def corrupted(self, d_pred, cache):
        real(self, d_pred, cache)
        self.blocks[0].params.attn.w_key.grad.data *= 1.01

    monkeypatch.setattr(gm.Model, "backward", corrupted)
    check = oracle.check_gradients(mode, model, prep, np.random.default_rng(0))
    assert not check.ok and "w_key" in check.detail


# -- (c) permutation invariance ----------------------------------------------

def test_permutation_fails_on_a_flipped_node_label(data, tmp_path):
    records, samples = data
    model = build()
    rec = records[0]
    perm = np.random.default_rng(1).permutation(len(rec["nodes"]))
    moved = relabel(rec, perm)
    flipped = dict(moved, nodes=list(moved["nodes"]))
    flipped["nodes"][0] = (flipped["nodes"][0] + 1) % 8
    write_jsonl(tmp_path / "p.jsonl", [moved, flipped])
    ok_perm, bad_perm = graph.parse_graphs(tmp_path / "p.jsonl")
    pred = model.predict(samples[0])
    assert oracle.check_permutation("grpe", [pred], [model.predict(ok_perm)]).ok
    assert not oracle.check_permutation("grpe", [pred], [model.predict(bad_perm)]).ok


# -- (d) checkpoint round trip -----------------------------------------------

def test_checkpoint_fails_on_a_changed_tensor(data, tmp_path):
    samples = data[1][:3]
    model = build()
    path = tmp_path / "m.json"
    training.save_checkpoint(model, path)
    saved = [model.predict(s) for s in samples]
    loaded = training.load_checkpoint(path)
    assert oracle.check_checkpoint("grpe", saved, [loaded.predict(s) for s in samples]).ok
    payload = json.loads(path.read_text())
    payload["params"]["blocks.0.ffn_w1"][5] += 1e-9
    path.write_text(json.dumps(payload))
    changed = training.load_checkpoint(path)
    assert not oracle.check_checkpoint("grpe", saved, [changed.predict(s) for s in samples]).ok


# -- (e) evaluate() against predict ------------------------------------------

def test_mae_fails_on_a_changed_target(data):
    records, samples = data
    model = build()
    mae = training.evaluate(model, samples)["mae"]
    preds = [model.predict(s) for s in samples]
    targets = [r["target"] for r in records]
    assert oracle.check_mae("grpe", mae, preds, targets).ok
    targets[4] += 0.125
    assert not oracle.check_mae("grpe", mae, preds, targets).ok


# -- (f) determinism ---------------------------------------------------------

def test_determinism_fails_on_a_one_ulp_difference(data):
    samples = data[1]
    tcfg = training.TrainConfig(epochs=4, batch_size=4)
    runs = []
    for _ in range(2):
        model = build()
        training.train(model, samples, tcfg, stop_epoch=1)
        runs.append(params_of(model))
    assert oracle.check_determinism("grpe", runs[0], runs[1]).ok
    w = runs[1]["edge.value"]
    w[1, 1] = np.nextafter(w[1, 1], np.inf)
    check = oracle.check_determinism("grpe", runs[0], runs[1])
    assert not check.ok and "edge.value" in check.detail


# -- inputs and the result format ---------------------------------------------

def test_same_seed_same_inputs_and_targets():
    a = make_records(np.random.default_rng([3, 1]), SMALL, 20)
    b = make_records(np.random.default_rng([3, 1]), SMALL, 20)
    c = make_records(np.random.default_rng([4, 1]), SMALL, 20)
    assert a == b and a != c
    # prefix stratification: ten graphs cover the size range
    sizes = sorted(len(r["nodes"]) for r in a[:10])
    assert sizes[0] <= 9 and sizes[-1] >= 15


def run_bench(cwd, trace):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", "smoke", "--seed", "0",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_format(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if section == "end_to_end":
            assert metric["value"] > 0, name


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
