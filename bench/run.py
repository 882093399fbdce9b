"""Run one benchmark workload and print its result as the last line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; it reads the
program from ``src/`` next to this directory and writes only under
``bench/_work`` (inputs, removed at the end) and ``bench/_out`` (traces).
The inputs are made here from the seed; the timed work runs in a fresh
child process (``measure.py``), so its set-up is cold and its peak memory
is the workload's own.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # single-threaded BLAS, here and in the child

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 160
PROBES_PER_EPOCH = 3


def make_checkpoint(w, meta, workdir) -> dict:
    """Train the model that a workload only loads, one train() call per
    epoch, and save it after the first epoch and after the last. Records
    the time of each call (at reference speed, see ``speed.py``) and the
    final model's predictions on the first test graphs."""
    sys.path.insert(0, str(ROOT / "src"))
    from grpe import graph, model as gm, training
    from speed import Probe
    from workloads import model_config, train_kwargs

    samples = graph.parse_graphs(meta["ckpt_train"])
    model = gm.build_model(gm.ModelConfig(**model_config(w, w.variants[0])))
    tcfg = training.TrainConfig(**train_kwargs(w))
    paths = {"first_epoch": str(workdir / "first-epoch.ckpt.json"),
             "checkpoint": str(workdir / "model.ckpt.json")}
    probe = Probe()
    times = []
    for epoch in range(1, w.ckpt_epochs + 1):
        for _ in range(PROBES_PER_EPOCH):
            probe.run()
        t0 = time.perf_counter()
        training.train(model, samples, tcfg, stop_epoch=epoch)
        times.append(time.perf_counter() - t0)
        if epoch == 1:
            training.save_checkpoint(model, paths["first_epoch"])
    training.save_checkpoint(model, paths["checkpoint"])
    first = graph.parse_graphs(meta["test"])[:w.check_graphs]
    scale = probe.scale()
    return dict(paths, ckpt_train_s=[t * scale for t in times], ckpt_train_graphs=len(samples),
                ckpt_preds=[model.predict(s) for s in first])


def main(argv=None) -> int:
    from workloads import WORKLOADS, generate

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "grpe" / "__init__.py").is_file():
        print(f"error: the program's source {ROOT / 'src' / 'grpe'} is missing", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    workdir = BENCH / "_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        meta = generate(w, args.seed, workdir)
        if not w.trains_in_worker:
            meta.update(make_checkpoint(w, meta, workdir))
        (workdir / "meta.json").write_text(json.dumps(meta))
        cmd = [sys.executable, str(BENCH / "measure.py"), "--workload", w.name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir),
               "--spawned-at", repr(time.monotonic())]
        try:
            return subprocess.run(cmd, timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            print(f"error: {w.name} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
