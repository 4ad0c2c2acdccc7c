"""Adaptive-boosted graph neural classification for tabular data.

Each boosting round picks one feature and a pairwise-difference threshold,
links samples whose values fall within it, trains an APPNP weak classifier
on that graph under the current sample weights, and combines the learners
with multi-class AdaBoost weighting.
"""

from .appnp import AppnpConfig, AppnpModel, TrainReport, predict, train_weak
from .boost import (BoostConfig, Ensemble, WeakRound, compute_alpha, fit,
                    predict_ensemble, transductive_scores, update_weights,
                    weighted_error)
from .config import RunConfig, load_config, parse_config
from .data import (Dataset, EncodingMeta, RawTable, apply_encoder,
                   fit_encoder, gen_synthetic, load_csv, split_rows)
from .errors import (ConfigError, DataError, GraphBoostError,
                     ModelFormatError, NoWeakLearnability, TrainingDiverged)
from .graph import (CandidateGraph, SparseAdjacency, ThresholdSet,
                    build_adjacency, enumerate_candidates, quantile_thresholds)
from .metrics import EvalReport, auroc_binary, evaluate_scores, weighted_auroc
from .model_io import load_ensemble, save_ensemble

__version__ = "0.1.0"
