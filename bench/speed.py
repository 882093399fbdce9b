"""A machine-speed probe, to put wall times on one scale.

The shared machine this benchmark was built on runs whole stretches of 2
to 60 seconds about a third faster than usual, at random; a 25-second run
can fall entirely inside one. Raw wall times of ten runs therefore split
into two modes, and no statistic taken inside one run can tell which mode
it was in. So the benchmark times a fixed computation of its own (the
probe: the independent forward pass of ``oracle`` on a fixed small graph
and fixed weights, the same kind of numpy-and-Python work as the program)
every quarter second between the program's calls, and scales the run's
wall times by ``REFERENCE_PROBE_S / median probe time``. The results are
the wall times on the reference machine in its usual state. One factor
per run, from a median, corrects the run's state without adding the
noise of single probes. The probe does not run the program, so a change
to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

from oracle import reference_predict
from workloads import SMALL, make_records

PROBE_EVERY_S = 0.25
PROBE_REPEATS = 4
# Median probe time on the reference machine (Intel Xeon vCPU at 2.1 GHz,
# single-threaded OpenBLAS) in its usual state.
REFERENCE_PROBE_S = 5.6e-3

_CONFIG = dict(layers=2, d_z=32, heads=4, L=5, num_edge_types=4, pe_mode="grpe",
               use_topology=True, use_edge=True, use_value=True, task="graph_regression")


class Probe:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self.record = make_records(rng, SMALL, 1)[0]
        shapes = {"nodes.type_table": (9, 32), "topology.query": (9, 32),
                  "topology.key": (9, 32), "topology.value": (9, 32),
                  "edge.query": (7, 32), "edge.key": (7, 32), "edge.value": (7, 32),
                  "head.weight": (32, 1), "head.bias": (1,)}
        for b in range(_CONFIG["layers"]):
            for name in ("attn.w_query", "attn.w_key", "attn.w_value", "attn.w_out",
                         "ffn_w1", "ffn_w2"):
                shapes[f"blocks.{b}.{name}"] = (32, 32)
            for name in ("ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias", "ffn_b1", "ffn_b2"):
                shapes[f"blocks.{b}.{name}"] = (32,)
        self.params = {k: rng.normal(0.0, 0.3, shape) for k, shape in shapes.items()}
        self.times = []
        self.last = -float("inf")

    def run(self):
        t0 = time.perf_counter()
        for _ in range(PROBE_REPEATS):
            reference_predict(self.params, _CONFIG, self.record)
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self.last = t1

    def maybe(self):
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.run()

    def scale(self) -> float:
        """Factor from this process's wall times to the reference machine's:
        the reference probe time over the median probe time here."""
        return REFERENCE_PROBE_S / float(np.median(self.times))
