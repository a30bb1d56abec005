"""Desk-scale visual-text fusion transformer for video-based pedestrian
attribute recognition: verified autodiff tensor core, dual encoders,
fusion transformer with per-attribute heads, training and grouped-F1
evaluation harnesses.
"""

from .errors import DataError, UsageError, VerificationError
from .fusion import ClassificationHeads, FusionConfig
from .metrics import (GroupMetrics, MetricReport, decide, group_metrics,
                      macro_report)
from .model import ModelConfig, VideoAttributeModel
from .params import Parameter, ParameterSet, load_checkpoint, save_checkpoint
from .schema import AttributeGroup, AttributeSchema, default_schema, load_schema, save_schema
from .data import Dataset, SyntheticSpec, Tracklet, generate, load_dataset
from .tensor import Tape, Tensor, backward, finite_diff_grad, no_grad
from .text import TextConfig, TextEncoder, attribute_sentences, split_expand
from .train import Adam, EpochLog, TrainConfig, bce_loss, evaluate, train
from .vision import VisionEncoder, VitConfig, pad_to_square

__version__ = "0.1.0"

__all__ = [
    "Adam", "AttributeGroup", "AttributeSchema", "ClassificationHeads",
    "DataError", "Dataset", "EpochLog",
    "FusionConfig", "GroupMetrics", "MetricReport",
    "ModelConfig", "Parameter", "ParameterSet",
    "SyntheticSpec", "Tape", "Tensor", "TextConfig", "TextEncoder",
    "Tracklet", "TrainConfig",
    "UsageError", "VerificationError", "VideoAttributeModel", "VisionEncoder",
    "VitConfig", "attribute_sentences", "backward", "bce_loss",
    "decide", "default_schema", "evaluate", "finite_diff_grad",
    "generate", "group_metrics", "load_checkpoint", "load_dataset",
    "load_schema", "macro_report", "no_grad", "pad_to_square",
    "save_checkpoint", "save_schema", "split_expand", "train",
]
