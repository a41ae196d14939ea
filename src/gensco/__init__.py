"""Greedy passage-sequence selection for multi-hop question answering."""

from .models import (
    AnswerRecord,
    Dataset,
    MultiHopInstance,
    Passage,
    ScoredCandidate,
    SelectionTrace,
    StopReason,
    SubQuestion,
    Variant,
)
from .pipeline import PipelineConfig, run_instance

__all__ = [
    "AnswerRecord",
    "Dataset",
    "MultiHopInstance",
    "Passage",
    "PipelineConfig",
    "ScoredCandidate",
    "SelectionTrace",
    "StopReason",
    "SubQuestion",
    "Variant",
    "run_instance",
]

__version__ = "0.1.0"
