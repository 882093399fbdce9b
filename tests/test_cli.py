"""End-to-end command-line behavior, including exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import grpe
from grpe import errors
from grpe.cli import main
from grpe.model import MAX_PARAMETERS, MAX_TABLE_ROWS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Caps its own address space, then runs cli.main once per argv list and
# prints one [exit code or exception name, stderr] pair per run as JSON.
_CHILD = """
import contextlib, io, json, resource, sys
cap = int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from grpe.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:
            code = type(exc).__name__
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def run_memory_capped(argvs, cap_bytes=2 << 30):
    """Run ``cli.main`` on each argv list in one child process whose address
    space is capped, so a regression that allocates an oversized table
    fails there instead of exhausting the test runner."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(grpe.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs), str(cap_bytes)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestGenerate:
    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        code1, _, _ = run(capsys, "generate", "--task", "spd2", "--count", "10",
                          "--seed", "7", "--out", str(a))
        code2, _, _ = run(capsys, "generate", "--task", "spd2", "--count", "10",
                          "--seed", "7", "--out", str(b))
        assert code1 == 0 and code2 == 0
        assert a.read_bytes() == b.read_bytes()

    def test_count_zero_empty_valid_file(self, tmp_path, capsys):
        out = tmp_path / "empty.jsonl"
        code, _, _ = run(capsys, "generate", "--task", "degree", "--count", "0",
                         "--out", str(out))
        assert code == 0
        assert out.read_text() == ""
        from grpe.graph import parse_graphs
        assert parse_graphs(out) == []

    def test_targets_survive_reparse(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        run(capsys, "generate", "--task", "spd2", "--count", "12", "--seed", "1",
            "--out", str(out))
        from grpe.graph import parse_graphs
        from grpe.synthetic import spd2_fraction
        for s in parse_graphs(out):
            assert abs(s.target - spd2_fraction(s.graph)) < 1e-12

    def test_unwritable_path(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "--task", "spd2", "--count", "1",
                           "--out", str(tmp_path / "no" / "dir" / "x.jsonl"))
        assert code == errors.EXIT_IO


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-train")
    data = root / "train.jsonl"
    run_dir = root / "run"
    assert main(["generate", "--task", "spd2", "--count", "24", "--seed", "3",
                 "--out", str(data)]) == 0
    code = main(["train", "--data", str(data), "--out", str(run_dir),
                 "--layers", "1", "--d-z", "16", "--ffn-dim", "16", "--heads", "2",
                 "--L", "3", "--epochs", "3", "--batch", "8", "--seed", "5",
                 "--pe", "grpe"])
    assert code == 0
    return data, run_dir


@pytest.fixture(scope="module")
def dump_trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-dump")
    data = root / "train.jsonl"
    run_dir = root / "run"
    main(["generate", "--task", "spd2", "--count", "6", "--seed", "9",
          "--min-nodes", "5", "--max-nodes", "8", "--out", str(data)])
    main(["train", "--data", str(data), "--out", str(run_dir),
          "--layers", "2", "--d-z", "16", "--ffn-dim", "16", "--heads", "2",
          "--L", "3", "--epochs", "1", "--seed", "1"])
    return data, run_dir


class TestTrainEval:

    def test_outputs_exist(self, trained, capsys):
        _, run_dir = trained
        assert (run_dir / "checkpoint.json").exists()
        lines = (run_dir / "metrics.tsv").read_text().strip().splitlines()
        assert lines[0] == "epoch\ttrain_loss\tval_loss\tlr"
        assert len(lines) == 4
        for line in lines[1:]:
            parts = line.split("\t")
            assert len(parts) == 4
            int(parts[0])
            float(parts[1])
            float(parts[3])

    def test_eval_prints_labeled_metrics(self, trained, capsys):
        data, run_dir = trained
        code, out, _ = run(capsys, "eval", "--ckpt", str(run_dir / "checkpoint.json"),
                           "--data", str(data))
        assert code == 0
        keys = {line.split()[0] for line in out.strip().splitlines() if line}
        assert "mae" in keys

    def test_eval_shuffled_identical(self, trained, tmp_path, capsys):
        data, run_dir = trained
        lines = data.read_text().strip().splitlines()
        shuffled = tmp_path / "shuffled.jsonl"
        rng = np.random.default_rng(0)
        shuffled.write_text("\n".join(np.array(lines)[rng.permutation(len(lines))]) + "\n")
        _, out1, _ = run(capsys, "eval", "--ckpt", str(run_dir / "checkpoint.json"),
                         "--data", str(data))
        _, out2, _ = run(capsys, "eval", "--ckpt", str(run_dir / "checkpoint.json"),
                         "--data", str(shuffled))
        mae1 = [l for l in out1.splitlines() if l.startswith("mae")]
        mae2 = [l for l in out2.splitlines() if l.startswith("mae")]
        assert mae1 == mae2

    def test_eval_permuted_graphs_close(self, trained, tmp_path, capsys):
        data, run_dir = trained
        from grpe.graph import parse_graphs, permute_sample, write_graphs
        rng = np.random.default_rng(1)
        samples = parse_graphs(data)
        permuted = [permute_sample(s, rng.permutation(s.graph.num_nodes).tolist())
                    for s in samples]
        pfile = tmp_path / "perm.jsonl"
        write_graphs(permuted, pfile)
        _, out1, _ = run(capsys, "eval", "--ckpt", str(run_dir / "checkpoint.json"),
                         "--data", str(data))
        _, out2, _ = run(capsys, "eval", "--ckpt", str(run_dir / "checkpoint.json"),
                         "--data", str(pfile))
        v1 = float(out1.splitlines()[-2].split()[1])
        v2 = float(out2.splitlines()[-2].split()[1])
        assert abs(v1 - v2) < 1e-10

    def test_task_mismatch_is_config_error(self, trained, tmp_path, capsys):
        _, run_dir = trained
        other = tmp_path / "labels.jsonl"
        main(["generate", "--task", "degree", "--count", "4", "--out", str(other)])
        code, _, err = run(capsys, "eval", "--ckpt", str(run_dir / "checkpoint.json"),
                           "--data", str(other))
        assert code == errors.EXIT_CONFIG

    def test_fast_naive_loss_curves_agree(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        main(["generate", "--task", "spd2", "--count", "8", "--seed", "2",
              "--min-nodes", "4", "--max-nodes", "7", "--out", str(data)])
        args = ["--data", str(data), "--layers", "1", "--d-z", "16",
                "--ffn-dim", "16", "--heads", "2", "--L", "2", "--epochs", "2",
                "--batch", "4", "--seed", "1", "--pe", "grpe"]
        assert main(["train", *args, "--fast", "--out", str(tmp_path / "f")]) == 0
        assert main(["train", *args, "--naive", "--out", str(tmp_path / "n")]) == 0
        capsys.readouterr()
        f = (tmp_path / "f" / "metrics.tsv").read_text().strip().splitlines()[1:]
        n = (tmp_path / "n" / "metrics.tsv").read_text().strip().splitlines()[1:]
        for lf, ln in zip(f, n):
            assert abs(float(lf.split("\t")[1]) - float(ln.split("\t")[1])) < 1e-8

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        main(["generate", "--task", "spd2", "--count", "6", "--seed", "4",
              "--min-nodes", "4", "--max-nodes", "6", "--out", str(data)])
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"layers": 1, "d_z": 16, "ffn_dim": 16,
                                        "heads": 2, "epochs": 5}))
        capsys.readouterr()  # drop generate output
        code, out, _ = run(capsys, "train", "--data", str(data),
                           "--out", str(tmp_path / "run"), "--config", str(cfg_file),
                           "--epochs", "2", "--seed", "0")
        assert code == 0
        echoed = json.loads(out.splitlines()[0].split("model: ", 1)[1])
        assert echoed["layers"] == 1  # from file
        lines = (tmp_path / "run" / "metrics.tsv").read_text().strip().splitlines()
        assert len(lines) == 3  # flag --epochs 2 beats the file's 5

    def test_pe_none_trains_vanilla_baseline(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        main(["generate", "--task", "spd2", "--count", "6", "--seed", "5",
              "--min-nodes", "4", "--max-nodes", "6", "--out", str(data)])
        capsys.readouterr()
        code, out, _ = run(capsys, "train", "--data", str(data),
                           "--out", str(tmp_path / "run"), "--pe", "none",
                           "--layers", "1", "--d-z", "16", "--ffn-dim", "16",
                           "--heads", "2", "--epochs", "1", "--seed", "0")
        assert code == 0
        echoed = json.loads(out.splitlines()[0].split("model: ", 1)[1])
        assert echoed["pe_mode"] == "none"

    def test_train_rerun_byte_identical(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        main(["generate", "--task", "spd2", "--count", "6", "--seed", "8",
              "--min-nodes", "4", "--max-nodes", "6", "--out", str(data)])
        args = ["train", "--data", str(data), "--layers", "1", "--d-z", "16",
                "--ffn-dim", "16", "--heads", "2", "--L", "2", "--epochs", "2",
                "--seed", "3"]
        assert main([*args, "--out", str(tmp_path / "r1")]) == 0
        assert main([*args, "--out", str(tmp_path / "r2")]) == 0
        capsys.readouterr()
        for name in ("checkpoint.json", "metrics.tsv"):
            assert (tmp_path / "r1" / name).read_bytes() == \
                (tmp_path / "r2" / name).read_bytes()

    def test_default_L5_gives_nine_topology_rows(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        main(["generate", "--task", "spd2", "--count", "4", "--seed", "1",
              "--min-nodes", "4", "--max-nodes", "6", "--out", str(data)])
        run_dir = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run_dir),
                     "--layers", "1", "--d-z", "16", "--ffn-dim", "16",
                     "--heads", "2", "--L", "5", "--epochs", "1",
                     "--pe", "grpe"]) == 0
        capsys.readouterr()
        payload = json.loads((run_dir / "checkpoint.json").read_text())
        assert payload["shapes"]["topology.query"] == [9, 16]

    def test_explicit_flags_override_preset(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        main(["generate", "--task", "spd2", "--count", "4", "--seed", "2",
              "--min-nodes", "4", "--max-nodes", "5", "--out", str(data)])
        capsys.readouterr()
        code, out, _ = run(capsys, "train", "--data", str(data),
                           "--out", str(tmp_path / "run"), "--preset", "tiny",
                           "--layers", "1", "--epochs", "1", "--seed", "0")
        assert code == 0
        echoed = json.loads(out.splitlines()[0].split("model: ", 1)[1])
        assert echoed["layers"] == 1     # explicit flag wins
        assert echoed["d_z"] == 64       # preset fills the rest

    def test_config_file_accepts_every_train_key(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        main(["generate", "--task", "spd2", "--count", "4", "--seed", "4",
              "--min-nodes", "4", "--max-nodes", "6", "--out", str(data)])
        train_keys = {"weight_decay": 0.01, "grad_clip": 1.0, "warmup_steps": 2,
                      "lap_sign_flip": True, "stop_at_train_loss": 1e-6,
                      "beta1": 0.8, "beta2": 0.99, "adam_eps": 1e-7}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"layers": 1, "d_z": 16, "ffn_dim": 16, "heads": 2,
                                        "seed": 3, "epochs": 2, **train_keys}))
        capsys.readouterr()
        code, out, _ = run(capsys, "train", "--data", str(data),
                           "--out", str(tmp_path / "run"), "--config", str(cfg_file))
        assert code == 0
        model_cfg = json.loads(out.splitlines()[0].split("model: ", 1)[1])
        train_cfg = json.loads(out.splitlines()[1].split("train: ", 1)[1])
        assert {k: train_cfg[k] for k in train_keys} == train_keys
        assert train_cfg["epochs"] == 2
        # seed is the model seed, as with --seed; the trainer derives its own
        assert model_cfg["seed"] == 3 and train_cfg["seed"] is None

    def test_config_file_accepts_every_model_key(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        main(["generate", "--task", "spd2", "--count", "4", "--seed", "4",
              "--min-nodes", "4", "--max-nodes", "6", "--out", str(data)])
        model_keys = {"pe_mode": "graphormer", "use_topology": False, "use_edge": False,
                      "use_value": False, "graphormer_shared_w": True, "lap_pe_dim": 4,
                      "fast": False, "use_degree": False, "dropout": 0.1}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"layers": 1, "d_z": 16, "ffn_dim": 16, "heads": 2,
                                        "epochs": 1, **model_keys}))
        capsys.readouterr()
        code, out, _ = run(capsys, "train", "--data", str(data),
                           "--out", str(tmp_path / "run"), "--config", str(cfg_file))
        assert code == 0
        model_cfg = json.loads(out.splitlines()[0].split("model: ", 1)[1])
        assert {k: model_cfg[k] for k in model_keys} == model_keys

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        main(["generate", "--task", "spd2", "--count", "2", "--out", str(data)])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"hidden_dim": 32}))
        code, _, err = run(capsys, "train", "--data", str(data),
                           "--out", str(tmp_path / "x"), "--config", str(bad))
        assert code == errors.EXIT_CONFIG
        assert "hidden_dim" in err

    @pytest.mark.parametrize("key,value,expected", [("grad_clip", "big", "float or None"),
                                                    ("layers", "two", "int")])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, key, value, expected):
        data = tmp_path / "d.jsonl"
        main(["generate", "--task", "spd2", "--count", "2", "--out", str(data)])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({key: value, "epochs": 1}))
        code, _, err = run(capsys, "train", "--data", str(data),
                           "--out", str(tmp_path / "x"), "--config", str(bad))
        assert code == errors.EXIT_CONFIG
        assert repr(key) in err and f"expected {expected}" in err


class TestInputContract:
    """Inputs the CLI accepts either work or fail with their documented exit
    code and a message naming the problem."""

    @pytest.fixture
    def data(self, tmp_path):
        path = tmp_path / "d.jsonl"
        main(["generate", "--task", "spd2", "--count", "4", "--seed", "2",
              "--min-nodes", "4", "--max-nodes", "6", "--out", str(path)])
        return path

    @pytest.mark.parametrize("flag", ["--heads", "--ffn-dim"])
    def test_zero_width_is_config_error(self, data, tmp_path, capsys, flag):
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(tmp_path / "r"),
                           "--layers", "1", "--d-z", "16", "--ffn-dim", "16", "--heads", "2",
                           "--epochs", "1", flag, "0")
        assert code == errors.EXIT_CONFIG
        assert "heads must be >= 1" in err

    @pytest.mark.parametrize("key,value", [("grad_clip", 0.0), ("grad_clip", -1.0),
                                           ("warmup_steps", -1),
                                           ("lr_start", float("inf")), ("lr_end", float("nan")),
                                           ("weight_decay", float("nan")),
                                           ("adam_eps", float("inf"))])
    def test_bad_train_value_is_config_error(self, data, tmp_path, capsys, key, value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"layers": 1, "d_z": 16, "ffn_dim": 16, "heads": 2,
                                        "epochs": 1, key: value}))
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(tmp_path / "r"),
                           "--config", str(cfg_file))
        assert code == errors.EXIT_CONFIG
        assert key in err

    def test_non_finite_parameter_after_step_is_numeric_error(self, data, tmp_path, capsys):
        # lr * weight_decay overflows, so the one optimizer step leaves inf/NaN
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"layers": 1, "d_z": 16, "ffn_dim": 16, "heads": 2,
                                        "epochs": 1, "lr_start": 1e300, "lr_end": 1e299,
                                        "weight_decay": 1e300}))
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run(capsys, "train", "--data", str(data),
                               "--out", str(tmp_path / "r"), "--config", str(cfg_file))
        assert code == errors.EXIT_NUMERIC
        assert "'nodes.type_table'" in err
        assert not (tmp_path / "r" / "checkpoint.json").exists()

    def test_oversized_tables_refused_before_allocation(self, data, tmp_path):
        # each would allocate GiB-sized tables: L=1e9 (477 GiB of topology
        # rows), an edge type of 1e6 in a one-line graph, a vocabulary of 1e6;
        # then models of 1e8 width (6.71 GiB of topology rows at d_z), 1e8
        # layers and a 1e8-wide FFN (47.7 GiB)
        one_line = tmp_path / "one.jsonl"
        one_line.write_text('{"nodes":[0,1],"edges":[[0,1,1000000]],"target":0.5}\n')
        common = ["--layers", "1", "--d-z", "16", "--ffn-dim", "16", "--heads", "2",
                  "--epochs", "1", "--out", str(tmp_path / "r")]
        train = ["train", "--data", str(data)]
        results = run_memory_capped([
            train + ["--L", "1000000000"] + common,
            ["train", "--data", str(one_line)] + common,
            train + ["--node-vocab", "1000000"] + common,
            train + common + ["--d-z", "100000000", "--heads", "1"],
            train + common + ["--layers", "100000000"],
            train + common + ["--ffn-dim", "100000000"]])
        table_cap, param_cap = f"cap of {MAX_TABLE_ROWS}", f"cap of {MAX_PARAMETERS}"
        for (code, err), field, cap in zip(results, [
                "L=1000000000", "num_edge_types=1000001", "node_vocab=1000000",
                "parameters", "parameters", "parameters"], [table_cap] * 3 + [param_cap] * 3):
            assert code == errors.EXIT_CONFIG, err
            assert field in err and cap in err
        assert not (tmp_path / "r").exists()

    def test_checkpoint_with_oversized_tables_is_io_error(self, data, tmp_path):
        main(["train", "--data", str(data), "--out", str(tmp_path / "r"), "--layers", "1",
              "--d-z", "16", "--ffn-dim", "16", "--heads", "2", "--epochs", "1"])
        payload = json.loads((tmp_path / "r" / "checkpoint.json").read_text())
        argvs = []
        for key in ("L", "layers"):
            ck = tmp_path / f"big-{key}.json"
            ck.write_text(json.dumps({**payload, "config": {**payload["config"],
                                                            key: 1000000000}}))
            argvs.append(["eval", "--ckpt", str(ck), "--data", str(data)])
        results = run_memory_capped(argvs)
        for (code, err), named in zip(results, ["L=1000000000", "parameters"]):
            assert code == errors.EXIT_IO, err
            assert "bad config block" in err and named in err

    def test_selfcheck_zero_cases_is_config_error(self, capsys):
        code, out, err = run(capsys, "selfcheck", "--cases", "0")
        assert code == errors.EXIT_CONFIG
        assert "PASS" not in out and "cases" in err


class TestSelfcheck:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "--cases", "10")
        assert code == 0
        assert out.count("PASS") == 6

    def test_targets_reverification(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        main(["generate", "--task", "spd2", "--count", "20", "--seed", "6",
              "--out", str(data)])
        code, out, _ = run(capsys, "selfcheck", "--targets", str(data))
        assert code == 0
        assert "PASS" in out
        # corrupt one target and expect a check failure
        lines = data.read_text().strip().splitlines()
        rec = json.loads(lines[0])
        rec["target"] = rec["target"] + 0.25
        lines[0] = json.dumps(rec, separators=(",", ":"))
        data.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "selfcheck", "--targets", str(data))
        assert code == errors.EXIT_CHECK

    def test_targets_skip_one_node_records(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        main(["generate", "--task", "spd2", "--count", "3", "--seed", "6",
              "--out", str(data)])
        with open(data, "a", encoding="utf-8") as fh:
            fh.write('{"nodes":[0],"edges":[],"target":0.0}\n')
        capsys.readouterr()
        code, out, _ = run(capsys, "selfcheck", "--targets", str(data))
        assert code == 0
        assert "cases=3" in out and "skipped 1 one-node record" in out

    def test_single_suite_filter(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "--suite", "reduction", "--cases", "5")
        assert code == 0
        assert out.count("suite ") == 1
        assert "reduction" in out

    def test_gradients_suite_fails_on_a_skewed_backward(self, capsys, monkeypatch):
        from grpe import attention
        real = attention._grpe_scores_fast_bwd

        def skewed(d_scores, cache):
            dqh, dkh = real(d_scores, cache)
            return dqh, dkh * (1.0 + 1e-6)

        code, _, _ = run(capsys, "selfcheck", "--suite", "gradients", "--cases", "8")
        assert code == 0
        monkeypatch.setattr(attention, "_grpe_scores_fast_bwd", skewed)
        code, out, _ = run(capsys, "selfcheck", "--suite", "gradients", "--cases", "8")
        assert code == errors.EXIT_CHECK
        assert "suite gradients" in out and "FAIL" in out

    def test_batching_suite_fails_on_a_leaked_padded_row(self, capsys, monkeypatch):
        from grpe import model
        code, _, _ = run(capsys, "selfcheck", "--suite", "batching", "--cases", "20")
        assert code == 0
        # without the key mask, real nodes attend to the padded rows
        monkeypatch.setattr(model, "_key_bias", lambda sizes, n: None)
        code, out, _ = run(capsys, "selfcheck", "--suite", "batching", "--cases", "20")
        assert code == errors.EXIT_CHECK
        assert "suite batching" in out and "FAIL" in out

    def test_injected_fault_nonzero_exit(self, capsys):
        code, out, err = run(capsys, "selfcheck", "--suite", "bfs", "--cases", "3",
                             "--inject-fault")
        assert code == errors.EXIT_CHECK
        assert "FAIL" in out


class TestGradcheck:
    def test_small_model_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--layers", "1", "--d-z", "16",
                           "--ffn-dim", "16", "--heads", "2", "--L", "2",
                           "--nodes", "5", "--max-coords", "6", "--seed", "0")
        assert code == 0
        assert "overall worst_rel_err" in out

    def test_only_tables_filter(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--layers", "1", "--d-z", "16",
                           "--ffn-dim", "16", "--heads", "2", "--L", "2",
                           "--nodes", "5", "--max-coords", "6", "--only", "tables")
        assert code == 0
        groups = [l for l in out.splitlines() if l.startswith("group ")]
        assert len(groups) == 2
        assert all(("topology" in g or "edge" in g) for g in groups)

    def test_graphormer_groups_checked(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--layers", "1", "--d-z", "16",
                           "--ffn-dim", "16", "--heads", "2", "--L", "2",
                           "--nodes", "5", "--max-coords", "6", "--pe", "graphormer",
                           "--only", "graphormer")
        assert code == 0
        assert "group graphormer" in out

    def test_node_cap_enforced(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--nodes", "9")
        assert code == errors.EXIT_CONFIG


class TestDumpAttention:

    def test_dump_shapes_and_row_sums(self, dump_trained, tmp_path, capsys):
        data, run_dir = dump_trained
        out_dir = tmp_path / "dump"
        code, _, _ = run(capsys, "dump-attention", "--ckpt",
                         str(run_dir / "checkpoint.json"), "--data", str(data),
                         "--index", "0", "--out", str(out_dir))
        assert code == 0
        from grpe.graph import parse_graphs
        n = parse_graphs(data)[0].graph.num_nodes + 1  # virtual node attached
        layers = sorted(p for p in os.listdir(out_dir) if p.startswith("layer_"))
        assert len(layers) == 2
        for name in layers:
            rows = (out_dir / name).read_text().strip().splitlines()
            assert len(rows) == n
            for row in rows:
                vals = [float(v) for v in row.split("\t")]
                assert len(vals) == n
                assert abs(sum(vals) - 1.0) < 1e-9
        adj = (out_dir / "adjacency.tsv").read_text().strip().splitlines()
        assert len(adj) == n

    def test_rerun_byte_identical(self, dump_trained, tmp_path, capsys):
        data, run_dir = dump_trained
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        for d in (d1, d2):
            assert main(["dump-attention", "--ckpt", str(run_dir / "checkpoint.json"),
                         "--data", str(data), "--out", str(d)]) == 0
        capsys.readouterr()
        for name in os.listdir(d1):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_size_cap(self, dump_trained, capsys):
        data, run_dir = dump_trained
        code, _, err = run(capsys, "dump-attention", "--ckpt",
                           str(run_dir / "checkpoint.json"), "--data", str(data),
                           "--out", "/tmp/never", "--max-nodes", "3")
        assert code == errors.EXIT_CONFIG


class TestExitCodes:
    def test_missing_dataset_io(self, capsys):
        code, _, _ = run(capsys, "train", "--data", "/no/such/file.jsonl",
                         "--out", "/tmp/x")
        assert code == errors.EXIT_IO

    def test_malformed_dataset_io(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        code, _, err = run(capsys, "train", "--data", str(bad), "--out", "/tmp/x")
        assert code == errors.EXIT_IO
        assert "line 1" in err

    def test_non_utf8_dataset_io(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, "train", "--data", str(bad), "--out", str(tmp_path / "x"))
        assert code == errors.EXIT_IO
        assert str(bad) in err and "UTF-8" in err

    def test_bad_checkpoint_io(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        ck.write_text("{}")
        data = tmp_path / "d.jsonl"
        main(["generate", "--task", "spd2", "--count", "2", "--out", str(data)])
        code, _, _ = run(capsys, "eval", "--ckpt", str(ck), "--data", str(data))
        assert code == errors.EXIT_IO

    def test_checkpoint_not_an_object_io(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        ck.write_text("[1, 2, 3]")
        data = tmp_path / "d.jsonl"
        main(["generate", "--task", "spd2", "--count", "2", "--out", str(data)])
        code, _, err = run(capsys, "eval", "--ckpt", str(ck), "--data", str(data))
        assert code == errors.EXIT_IO
        assert "not a checkpoint" in err

    def test_checkpoint_without_shapes_io(self, trained, tmp_path, capsys):
        data, run_dir = trained
        payload = json.loads((run_dir / "checkpoint.json").read_text())
        del payload["shapes"]
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps(payload))
        code, _, err = run(capsys, "eval", "--ckpt", str(ck), "--data", str(data))
        assert code == errors.EXIT_IO
        assert "shapes" in err

    def test_eval_out_of_vocabulary_node_type(self, trained, tmp_path, capsys):
        _, run_dir = trained
        data = tmp_path / "oov.jsonl"
        data.write_text('{"nodes":[0,40,1],"edges":[[0,1,0],[1,2,0]],"target":0.5}\n')
        code, _, err = run(capsys, "eval", "--ckpt", str(run_dir / "checkpoint.json"),
                           "--data", str(data))
        assert code == errors.EXIT_CONFIG
        assert "node type 40" in err and "vocabulary" in err
