"""Curriculum learning laboratory.

Difficulty scoring, staircase pacing, class-balanced mini-batch sequencing,
a desk-scale SGD trainer with an experiment harness, gradient-coherence
analysis, and numerical verification of the prior-weighted utility results.
"""

from .data import (BayesMixture, Dataset, EmbeddingTable, generate_gaussian_mixture,
                   load_dataset_csv, stratified_split)
from .errors import (ConfigError, DataLoadError, ExperimentError, NumericalError,
                     ParameterError, TrainingDivergedError)
from .pacing import PacingSpec, num_steps, subset_size
from .scoring import (ScoreTable, invert, oracle_bayes_score, random_score,
                      score_by_model_loss, transfer_score)
from .sequencer import CurriculumPlan, balanced_prefix, build_plan
from .trainer import LearningCurve, LRSchedule, Model, ModelSpec, train_stack

__version__ = "0.1.0"

__all__ = [
    "BayesMixture", "Dataset", "EmbeddingTable",
    "generate_gaussian_mixture", "load_dataset_csv", "stratified_split",
    "ConfigError", "DataLoadError", "ExperimentError", "NumericalError",
    "ParameterError", "TrainingDivergedError",
    "PacingSpec", "num_steps", "subset_size",
    "ScoreTable", "invert", "oracle_bayes_score", "random_score",
    "score_by_model_loss", "transfer_score",
    "CurriculumPlan", "balanced_prefix", "build_plan",
    "LearningCurve", "LRSchedule", "Model", "ModelSpec", "train_stack",
]
