"""Graph transformer with relative positional encoding.

Topology and edge relations between node pairs are bucketed into integer
index matrices; learnable encoding rows for those buckets interact with
queries, keys, and values inside self-attention. The package carries its
own numpy kernels with hand-wired backward passes, naive reference
kernels for every fast path, and a CLI for dataset generation, training,
and self-verification.
"""

from .errors import (CheckFailure, CheckpointError, ConfigError, GraphParseError,
                     GrpeError, NumericError, ShapeError)
from .graph import (Graph, GraphSample, attach_virtual_node, bfs_all_pairs,
                    edge_indices, parse_graphs, permute_graph, permute_sample,
                    topology_indices, write_graphs)
from .model import Model, ModelConfig, build_model, loss
from .synthetic import make_synthetic
from .tensor import Parameter, Tensor, finite_diff_check
from .training import (TrainConfig, evaluate, load_checkpoint, lr_at,
                       save_checkpoint, train)

__version__ = "0.1.0"

__all__ = [
    "CheckFailure", "CheckpointError", "ConfigError", "GraphParseError",
    "GrpeError", "NumericError", "ShapeError",
    "Graph", "GraphSample", "attach_virtual_node", "bfs_all_pairs",
    "edge_indices", "parse_graphs", "permute_graph", "permute_sample",
    "topology_indices", "write_graphs",
    "Model", "ModelConfig", "build_model", "loss",
    "make_synthetic",
    "Parameter", "Tensor", "finite_diff_check",
    "TrainConfig", "evaluate", "load_checkpoint", "lr_at",
    "save_checkpoint", "train",
    "__version__",
]
