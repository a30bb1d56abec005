"""Desk-scale visual-text fusion transformer for video-based pedestrian
attribute recognition: verified autodiff tensor core, dual encoders,
fusion transformer with per-attribute heads, training and grouped-F1
evaluation harnesses.
"""

from .errors import DataError, UsageError, VerificationError, VtfError
from .fusion import ClassificationHeads, FusionConfig, TokenProjector
from .metrics import (GroupMetrics, MetricReport, decide, group_metrics,
                      macro_report)
from .model import ModelConfig, VideoAttributeModel, paper_scale_config
from .params import Parameter, ParameterSet, load_checkpoint, save_checkpoint
from .schema import AttributeGroup, AttributeSchema, default_schema, load_schema, save_schema
from .data import Dataset, SyntheticSpec, Tracklet, generate, load_dataset
from .tensor import (ContractError, DimensionError, Tape, Tensor, backward,
                     finite_diff_grad, no_grad)
from .text import (PromptTemplate, TextConfig, TextEncoder, TokenizerVocab,
                   attribute_sentences, build_vocab, split_expand, tokenize)
from .train import Adam, EpochLog, TrainConfig, bce_loss, evaluate, train
from .vision import VisionEncoder, VitConfig, pad_to_square

__version__ = "0.1.0"

__all__ = [
    "Adam", "AttributeGroup", "AttributeSchema", "ClassificationHeads",
    "ContractError", "DataError", "Dataset", "DimensionError", "EpochLog",
    "FusionConfig", "GroupMetrics", "MetricReport",
    "ModelConfig", "Parameter", "ParameterSet", "PromptTemplate",
    "SyntheticSpec", "Tape", "Tensor", "TextConfig", "TextEncoder",
    "TokenProjector", "TokenizerVocab", "Tracklet", "TrainConfig",
    "UsageError", "VerificationError", "VideoAttributeModel", "VisionEncoder",
    "VitConfig", "VtfError", "attribute_sentences", "backward", "bce_loss",
    "build_vocab", "decide", "default_schema", "evaluate", "finite_diff_grad",
    "generate", "group_metrics", "load_checkpoint", "load_dataset",
    "load_schema", "macro_report", "no_grad", "pad_to_square",
    "paper_scale_config", "save_checkpoint", "save_schema", "split_expand",
    "tokenize", "train",
]
