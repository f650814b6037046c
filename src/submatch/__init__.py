"""Neural subgraph matching via order embeddings over anchored neighborhoods,
with an exact backtracking matcher as oracle and baseline."""

from .exact import MatchBudget, MatchOutcome, is_subgraph, is_subgraph_anchored
from .encoder import Checkpoint, EncoderConfig, encode, encode_all, load_checkpoint, save_checkpoint
from .graphs import AnchoredNeighborhood, LabeledGraph, k_hop_neighborhood
from .order import MarginConfig, intersection, violation
from .query import EmbeddingIndex, alignment, build_index, decide, vote
from .sampling import SamplerConfig, TrainingPair
from .training import TrainConfig, train

__all__ = [
    "AnchoredNeighborhood",
    "Checkpoint",
    "EmbeddingIndex",
    "EncoderConfig",
    "LabeledGraph",
    "MarginConfig",
    "MatchBudget",
    "MatchOutcome",
    "SamplerConfig",
    "TrainConfig",
    "TrainingPair",
    "alignment",
    "build_index",
    "decide",
    "encode",
    "encode_all",
    "intersection",
    "is_subgraph",
    "is_subgraph_anchored",
    "k_hop_neighborhood",
    "load_checkpoint",
    "save_checkpoint",
    "train",
    "violation",
    "vote",
]
