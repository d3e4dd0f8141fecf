"""Multi-label classification with debiased contrastive training and
kNN-augmented inference.

The pieces compose in pipeline order: generate or load a dataset (``data``),
train the small encoder (``encoder``, ``losses``, ``training``), embed the
training set into a ``datastore``, predict with adaptive classifier/kNN
combination (``inference``), and score with ``metrics``. ``gradcheck``
validates every hand-derived gradient against finite differences, and ``cli``
wraps the workflow in subcommands.
"""

from .data import (
    DataFormatError,
    DatasetConfig,
    PackedSamples,
    Sample,
    frequency_groups,
    generate_synthetic,
    load_jsonl,
    load_packed,
    pack_samples,
    save_jsonl,
)
from .datastore import Datastore, DatastoreFormatError, InvalidKeyError, NonFiniteQueryError, retrieve_topk
from .encoder import (
    CheckpointError,
    EncoderConfig,
    EncoderState,
    ForwardTrace,
    backward,
    classify,
    forward,
    forward_batch,
    forward_rowwise,
    init_state,
    load_checkpoint,
    save_checkpoint,
)
from .inference import InferenceConfig, PredictionBundle, combine, debiased_lambda, high_confidence_subset, knn_predict, predict, predict_batch
from .losses import (
    BatchViews,
    bce_loss,
    contrastive_loss,
    contrastive_weight,
    label_similarity,
    pij,
    total_loss,
)
from .mathops import cosine_sim, make_rng, sigmoid, softmax_temp
from .metrics import ConfusionCounts, confusion, group_report, hamming_loss, macro_prf, micro_prf
from .training import AdamState, NonFiniteLossError, TrainConfig, Trainer, adam_step, train

__version__ = "0.1.0"
