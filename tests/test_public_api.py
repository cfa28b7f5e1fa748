"""The package's public names, pinned: a stale export fails here, and a new
public name has to be added to this list on purpose."""
import curriculum_lab

PUBLIC = [
    "BayesMixture", "Dataset", "EmbeddingTable",
    "generate_gaussian_mixture", "load_dataset_csv",
    "ConfigError", "DataLoadError", "ExperimentError", "NumericalError",
    "ParameterError", "TrainingDivergedError",
    "PacingSpec", "num_steps", "subset_size",
    "ScoreTable", "invert", "oracle_bayes_score", "random_score",
    "score_by_model_loss", "transfer_score",
    "CurriculumPlan", "balanced_prefix", "build_plan",
    "LearningCurve", "LRSchedule", "Model", "ModelSpec", "train_stack",
]


def test_all_is_pinned():
    assert sorted(curriculum_lab.__all__) == sorted(PUBLIC)
    assert len(set(curriculum_lab.__all__)) == len(curriculum_lab.__all__)


def test_every_public_name_resolves():
    namespace = {}
    exec("from curriculum_lab import *", namespace)
    for name in PUBLIC:
        assert getattr(curriculum_lab, name) is namespace[name], name
