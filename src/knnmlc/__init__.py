"""Multi-label classification with debiased contrastive training and
kNN-augmented inference.

The pieces compose in pipeline order: generate or load a dataset (``data``),
train the small encoder (``encoder``, ``losses``, ``training``), embed the
training set into a ``datastore``, predict with adaptive classifier/kNN
combination (``inference``), and score with ``metrics``. ``gradcheck``
validates every hand-derived gradient against finite differences, and ``cli``
wraps the workflow in subcommands.

Samples have one representation, the CSR arrays of ``PackedSamples``, and the
exported functions work on batches of them: a single sample is a batch of
one, ``split[i]``. The scalar and per-sample reference versions that the
tests check them against live in ``tests/oracles.py``, not in the package.
"""

from .data import (
    DataFormatError,
    DatasetConfig,
    PackedSamples,
    frequency_groups,
    generate_synthetic,
    load_jsonl,
    load_packed,
    pack_samples,
)
from .datastore import Datastore, DatastoreFormatError, InvalidKeyError, NonFiniteQueryError, search
from .encoder import (
    CheckpointError,
    EncoderConfig,
    EncoderState,
    ForwardTrace,
    backward,
    forward_batch,
    init_state,
    load_checkpoint,
    save_checkpoint,
)
from .inference import InferenceConfig, PredictionBundle, predict, predict_batch
from .losses import bce_loss, contrastive_embedding_grads, contrastive_loss_from_similarities, total_loss
from .mathops import make_rng, sigmoid, softmax_temp
from .metrics import ConfusionCounts, confusion, group_report, hamming_loss, macro_prf, micro_prf
from .training import AdamState, NonFiniteLossError, TrainConfig, Trainer, adam_step, train

__version__ = "0.1.0"
