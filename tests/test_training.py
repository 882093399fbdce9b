"""Optimizer, schedule, training determinism, resume, and metrics."""

import math

import numpy as np
import pytest

from grpe.errors import CheckpointError, ConfigError
from grpe.graph import GraphSample, permute_sample
from grpe.model import ModelConfig, build_model, loss_and_grad
from grpe.synthetic import make_synthetic, random_graph
from grpe.tensor import Parameter
from grpe.training import (TrainConfig, TrainerState, adam_step, evaluate,
                           group_by_size, load_checkpoint, lr_at, mean_loss,
                           save_checkpoint, train)


def small_cfg(**kw):
    base = dict(layers=2, d_z=16, ffn_dim=16, heads=2, L=3, num_edge_types=4,
                node_vocab=8, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def records_equal(a, b):
    """EpochRecord equality where a missing val_loss (nan) matches itself."""
    if len(a) != len(b):
        return False
    for r1, r2 in zip(a, b):
        for v1, v2 in zip(r1, r2):
            if isinstance(v1, float) and math.isnan(v1) and math.isnan(v2):
                continue
            if v1 != v2:
                return False
    return True


class _OneParamModel:
    """Minimal stand-in exposing the parameters() contract for adam tests."""

    def __init__(self, value):
        self.p = Parameter(np.array(value))

    def parameters(self):
        return [("p", self.p)]


class TestAdam:
    def test_zero_grad_no_motion(self):
        m = _OneParamModel([1.0, -2.0])
        st = TrainerState(m, 0)
        adam_step(m.parameters(), st, lr=0.1)
        np.testing.assert_array_equal(m.p.value.data, [1.0, -2.0])

    def test_zero_lr_moves_moments_not_params(self):
        m = _OneParamModel([1.0])
        st = TrainerState(m, 0)
        m.p.grad.data[:] = 2.0
        adam_step(m.parameters(), st, lr=0.0)
        np.testing.assert_array_equal(m.p.value.data, [1.0])
        assert st.m["p"][0] != 0.0 and st.v["p"][0] != 0.0

    def test_first_step_hand_computed(self):
        m = _OneParamModel([1.0])
        st = TrainerState(m, 0)
        m.p.grad.data[:] = 1.0
        adam_step(m.parameters(), st, lr=0.1)
        # bias correction makes the first update lr * g / (|g| + eps)
        assert abs(m.p.value.data[0] - 0.9) < 1e-6

    def test_grad_clip(self):
        m = _OneParamModel([0.0, 0.0])
        st = TrainerState(m, 0)
        m.p.grad.data[:] = [3.0, 4.0]  # norm 5
        adam_step(m.parameters(), st, lr=0.0, grad_clip=1.0)
        np.testing.assert_allclose(m.p.grad.data, [0.6, 0.8])


class TestLrSchedule:
    def test_endpoints_and_midpoint(self):
        assert lr_at(0, 100, 2e-4, 1e-9) == 2e-4
        assert lr_at(100, 100, 2e-4, 1e-9) == 1e-9
        mid = lr_at(50, 100, 2e-4, 1e-9)
        assert math.isclose(mid, (2e-4 + 1e-9) / 2, rel_tol=1e-12)

    def test_monotone_nonincreasing(self):
        vals = [lr_at(s, 1000, 2e-4, 1e-9) for s in range(0, 1001)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            lr_at(-1, 10, 2e-4, 1e-9)
        with pytest.raises(ConfigError):
            lr_at(11, 10, 2e-4, 1e-9)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=1, lr_start=1e-9, lr_end=2e-4)

    def test_published_defaults(self):
        cfg = TrainConfig(epochs=1)
        assert cfg.lr_start == 2e-4
        assert cfg.lr_end == 1e-9
        assert cfg.batch_size == 8
        assert (cfg.beta1, cfg.beta2, cfg.adam_eps) == (0.9, 0.999, 1e-8)
        assert cfg.grad_clip is None


class TestTrainLoop:
    def test_zero_epochs_no_history_no_motion(self):
        data = make_synthetic("spd2_fraction", 8, (4, 8), seed=0)
        model = build_model(small_cfg())
        before = model.head_w.value.data.copy()
        history = train(model, data, TrainConfig(epochs=0))
        assert history == []
        np.testing.assert_array_equal(model.head_w.value.data, before)

    def test_same_seed_identical_curves(self):
        data = make_synthetic("spd2_fraction", 16, (4, 8), seed=1)
        h1 = train(build_model(small_cfg(seed=3)), data, TrainConfig(epochs=4))
        h2 = train(build_model(small_cfg(seed=3)), data, TrainConfig(epochs=4))
        assert records_equal(h1, h2)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train(build_model(small_cfg()), [], TrainConfig(epochs=1))

    def test_loss_decreases(self):
        data = make_synthetic("spd2_fraction", 32, (4, 10), seed=2)
        hist = train(build_model(small_cfg(seed=1)), data,
                     TrainConfig(epochs=12, lr_start=1e-3))
        assert hist[-1].train_loss < hist[0].train_loss

    def test_node_classification_trains(self):
        data = make_synthetic("degree_class", 24, (4, 10), seed=3)
        model = build_model(small_cfg(task="node_classification", seed=1))
        hist = train(model, data, TrainConfig(epochs=10, lr_start=1e-3))
        assert hist[-1].train_loss < hist[0].train_loss
        metrics = evaluate(model, data)
        assert 0.0 <= metrics["weighted_accuracy"] <= 1.0

    def test_graphormer_baseline_trains_same_task(self):
        data = make_synthetic("spd2_fraction", 32, (4, 10), seed=21)
        model = build_model(small_cfg(pe_mode="graphormer", use_degree=True, seed=3))
        hist = train(model, data, TrainConfig(epochs=10, lr_start=1e-3))
        assert hist[-1].train_loss < hist[0].train_loss

    def test_laplacian_baseline_trains(self):
        data = make_synthetic("spd2_fraction", 24, (4, 10), seed=22)
        model = build_model(small_cfg(pe_mode="laplacian", lap_pe_dim=4, seed=3))
        hist = train(model, data, TrainConfig(epochs=8, lr_start=1e-3))
        assert hist[-1].train_loss < hist[0].train_loss

    def test_sign_flip_augmentation_runs_deterministically(self):
        data = make_synthetic("spd2_fraction", 12, (4, 8), seed=23)
        cfg = TrainConfig(epochs=3, lap_sign_flip=True)
        h1 = train(build_model(small_cfg(pe_mode="laplacian", seed=4)), data, cfg)
        h2 = train(build_model(small_cfg(pe_mode="laplacian", seed=4)), data,
                   TrainConfig(epochs=3, lap_sign_flip=True))
        assert records_equal(h1, h2)

    def test_naive_and_fast_training_agree(self):
        data = make_synthetic("spd2_fraction", 8, (4, 7), seed=4)
        h_fast = train(build_model(small_cfg(seed=2, fast=True)), data,
                       TrainConfig(epochs=3, batch_size=4))
        h_naive = train(build_model(small_cfg(seed=2, fast=False)), data,
                        TrainConfig(epochs=3, batch_size=4))
        for a, b in zip(h_fast, h_naive):
            assert abs(a.train_loss - b.train_loss) < 1e-8


class TestPackedGroups:
    def test_grouping_rule(self):
        # sorted by size, ties by position, cut where B * N_max^2 would pass 4096
        sizes = [17, 9, 17, 30, 9, 65, 12]
        assert group_by_size(sizes) == [[1, 4, 6, 0, 2], [3], [5]]
        assert group_by_size([17] * 8) == [list(range(8))]   # 8 * 17^2 = 2312
        assert group_by_size([49, 49]) == [[0], [1]]          # 2 * 49^2 > 4096
        assert group_by_size([]) == []

    def test_trainer_stream_drawn_per_graph_in_window_order(self):
        """Data order, then per graph in window order its sign flip and its
        per-block (attention, FFN) dropout masks: the stream a graph-by-graph
        loop draws, so checkpoints resume with the same data order."""
        data = make_synthetic("spd2_fraction", 11, (4, 12), seed=31)
        model = build_model(small_cfg(pe_mode="laplacian", lap_pe_dim=4, dropout=0.2, seed=6))
        cfg = TrainConfig(epochs=2, batch_size=4, lap_sign_flip=True, seed=9)
        train(model, data, cfg)
        rng = np.random.default_rng(9)
        for _ in range(2):
            order = rng.permutation(len(data))
            for idx in order:
                rng.integers(0, 2 ** 31)
                for _ in range(2 * model.config.layers):
                    rng.random((data[idx].graph.num_nodes + 1, model.config.d_z))
        assert model.trainer.rng.bit_generator.state == rng.bit_generator.state


class TestExposedKnobs:
    def test_dropout_training_deterministic(self):
        data = make_synthetic("spd2_fraction", 12, (4, 8), seed=30)
        h1 = train(build_model(small_cfg(seed=5, dropout=0.2)), data,
                   TrainConfig(epochs=3))
        h2 = train(build_model(small_cfg(seed=5, dropout=0.2)), data,
                   TrainConfig(epochs=3))
        assert records_equal(h1, h2)
        h0 = train(build_model(small_cfg(seed=5)), data, TrainConfig(epochs=3))
        assert h0[-1].train_loss != h1[-1].train_loss

    def test_weight_decay_shrinks_weights(self):
        data = make_synthetic("spd2_fraction", 8, (4, 8), seed=31)
        plain = build_model(small_cfg(seed=6))
        decayed = build_model(small_cfg(seed=6))
        train(plain, data, TrainConfig(epochs=3))
        train(decayed, data, TrainConfig(epochs=3, weight_decay=0.1))
        norm = lambda m: float(sum((p.value.data ** 2).sum()
                                   for _, p in m.parameters()))
        assert norm(decayed) < norm(plain)

    def test_warmup_ramps_then_decays(self):
        from grpe.training import _scheduled_lr
        cfg = TrainConfig(epochs=1, warmup_steps=4, lr_start=1e-3, lr_end=1e-9)
        lrs = [_scheduled_lr(cfg, s, 20) for s in range(20)]
        assert lrs[0] < lrs[3]
        assert abs(lrs[3] - 1e-3) < 1e-15
        assert all(a >= b for a, b in zip(lrs[3:], lrs[4:]))


class TestEvaluate:
    @pytest.mark.parametrize("kind", ["spd2_fraction", "degree_class"])
    def test_two_groups_match_per_graph_forward(self, kind):
        # 12 graphs of 8-16 nodes pack into one group, the 40-node one runs alone
        data = (make_synthetic(kind, 12, (8, 16), seed=7)
                + make_synthetic(kind, 1, (40, 40), seed=8))
        assert len(group_by_size([s.graph.num_nodes + 1 for s in data])) == 2
        task = "graph_regression" if kind == "spd2_fraction" else "node_classification"
        model = build_model(small_cfg(task=task))
        metrics = evaluate(model, data)
        preds = [model.forward(model.prepare(s)) for s in data]
        if task == "graph_regression":
            mae = math.fsum(abs(p - s.target) for p, s in zip(preds, data)) / len(data)
            assert abs(metrics["mae"] - mae) <= 1e-12
            return
        labels = [np.array(s.node_labels) for s in data]
        hits = np.concatenate([p.argmax(axis=1) == y for p, y in zip(preds, labels)])
        every = np.concatenate(labels)
        recalls = [hits[every == c].mean() for c in np.unique(every)]
        ce = math.fsum(loss_and_grad(p, y, task)[0] for p, y in zip(preds, labels)) / len(data)
        assert metrics["accuracy"] == hits.mean()
        assert abs(metrics["weighted_accuracy"] - np.mean(recalls)) <= 1e-12
        assert abs(metrics["loss"] - ce) <= 1e-12

    def test_perfect_predictions(self):
        data = make_synthetic("degree_class", 6, (4, 8), seed=5)
        model = build_model(small_cfg(task="node_classification"))

        class Oracle:
            config = model.config

            def prepare(self, s):
                return model.prepare(s)

            def forward(self, group):  # evaluate() forwards packed groups
                outs = []
                for prep in group:
                    out = np.zeros((prep.node_labels.size, 3))
                    out[np.arange(prep.node_labels.size), prep.node_labels] = 10.0
                    outs.append(out)
                return outs

        metrics = evaluate(Oracle(), data)
        assert metrics["accuracy"] == 1.0
        assert metrics["weighted_accuracy"] == 1.0

    def test_constant_predictor_balanced_two_class(self):
        g = random_graph(np.random.default_rng(6), 4, 1, 4, 0.0)
        data = [GraphSample(graph=g, node_labels=[0, 0, 1, 1])]
        model = build_model(small_cfg(task="node_classification", num_classes=2,
                                      num_edge_types=1))

        class Constant:
            config = model.config

            def prepare(self, s):
                return model.prepare(s)

            def forward(self, group):  # evaluate() forwards packed groups
                outs = []
                for prep in group:
                    out = np.zeros((prep.node_labels.size, 2))
                    out[:, 0] = 1.0
                    outs.append(out)
                return outs

        metrics = evaluate(Constant(), data)
        assert metrics["weighted_accuracy"] == 0.5

    def test_weighted_accuracy_matches_per_class_recall(self):
        rng = np.random.default_rng(7)
        data = make_synthetic("degree_class", 20, (4, 10), seed=8)
        model = build_model(small_cfg(task="node_classification", seed=4))
        metrics = evaluate(model, data)
        correct = np.zeros(3)
        totals = np.zeros(3)
        for s in data:
            prep = model.prepare(s)
            pred = model.forward(prep).argmax(axis=1)
            for cls in range(3):
                mask = prep.node_labels == cls
                totals[cls] += mask.sum()
                correct[cls] += (pred[mask] == cls).sum()
        seen = totals > 0
        want = (correct[seen] / totals[seen]).mean()
        assert abs(metrics["weighted_accuracy"] - want) < 1e-12

    def test_order_invariance(self):
        data = make_synthetic("spd2_fraction", 12, (4, 9), seed=9)
        model = build_model(small_cfg(seed=6))
        m1 = evaluate(model, data)
        m2 = evaluate(model, list(reversed(data)))
        assert m1["mae"] == m2["mae"]

    def test_permuted_copies_same_graph_metrics(self):
        rng = np.random.default_rng(10)
        data = make_synthetic("spd2_fraction", 10, (4, 9), seed=11)
        model = build_model(small_cfg(seed=6))
        permuted = [permute_sample(s, rng.permutation(s.graph.num_nodes).tolist())
                    for s in data]
        assert abs(evaluate(model, data)["mae"]
                   - evaluate(model, permuted)["mae"]) < 1e-10


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        data = make_synthetic("spd2_fraction", 8, (4, 8), seed=12)
        model = build_model(small_cfg(seed=5))
        train(model, data, TrainConfig(epochs=2))
        path = tmp_path / "ck.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for s in data:
            assert model.forward(model.prepare(s)) == loaded.forward(loaded.prepare(s))

    def test_truncated_file_raises(self, tmp_path):
        data = make_synthetic("spd2_fraction", 4, (4, 6), seed=13)
        model = build_model(small_cfg())
        path = tmp_path / "ck.json"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_shape_mismatch_names_tensor(self, tmp_path):
        import json
        model = build_model(small_cfg())
        path = tmp_path / "ck.json"
        save_checkpoint(model, path)
        payload = json.loads(path.read_text())
        payload["shapes"]["head.weight"] = [3, 3]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="head.weight"):
            load_checkpoint(path)

    def test_non_finite_tensor_is_numeric_error(self, tmp_path):
        import json
        from grpe.errors import NumericError
        path = tmp_path / "ck.json"
        save_checkpoint(build_model(small_cfg()), path)
        payload = json.loads(path.read_text())
        payload["params"]["edge.key"][3] = float("nan")
        path.write_text(json.dumps(payload))
        with pytest.raises(NumericError, match="edge.key"):
            load_checkpoint(path)

    def test_resume_equals_uninterrupted(self, tmp_path):
        data = make_synthetic("spd2_fraction", 16, (4, 8), seed=14)
        cfg = TrainConfig(epochs=6, batch_size=4)

        straight = build_model(small_cfg(seed=7))
        h_straight = train(straight, data, cfg)

        resumed = build_model(small_cfg(seed=7))
        h_first = train(resumed, data, cfg, stop_epoch=3)
        path = tmp_path / "mid.json"
        save_checkpoint(resumed, path)
        restored = load_checkpoint(path)
        h_rest = train(restored, data, cfg)

        assert records_equal(h_straight[:3], h_first)
        assert records_equal(h_straight[3:], h_rest)
        for s in data[:4]:
            assert (straight.forward(straight.prepare(s))
                    == restored.forward(restored.prepare(s)))


class TestMeanLoss:
    def test_matches_manual(self):
        data = make_synthetic("spd2_fraction", 6, (4, 8), seed=15)
        model = build_model(small_cfg(seed=8))
        prepared = [model.prepare(s) for s in data]
        want = math.fsum(abs(model.forward(p) - p.target) for p in prepared) / len(prepared)
        assert mean_loss(model, prepared) == want
