"""Scalar and per-sample reference implementations that only tests use.

Each one computes, for one pair or one sample, what the package computes for
a whole batch at once; tests check the batched code against them. The
per-sample forms of the data are here too: a sample record (``Sample``), a
list of records packed (``pack``), the per-line dataset reader
(``load_jsonl``) and writer (``save_jsonl``), and the generator drawing
one sample at a time from its own raw words (``generate_synthetic``), the
reference of the row-block draw. ``masked_contrastive_loss``
is the contrastive loss as whole-matrix expressions, against which the
package's in-place pass is checked bit for bit, and ``cosine_sim_matrix``
the similarities it is handed. ``per_view_contrastive_loss`` is that pass
as it stood when it took one label row per view and formed the label work
on the (2N, 2N) grid, and ``trainer_step`` the training step of that time
(the 2N views by ``take``, a gather of rows with their ids, then that loss,
with the cosines by ``unit @ unit.T``), against which the
per-sample forms are checked bit for bit. ``predict_batch`` is the inference path as
it stood before its per-call checks and wrappers were trimmed, each stage
through the checked form the package once exported (``forward_rowwise``,
the dropout-off pass with its trace, then retrieval, the vote, the
high-confidence mask, lambda and the combination), against which
``inference.predict_batch`` is checked bit for bit, and
``state_to_payload`` the checkpoint dict whose ``json.dumps`` is
``model.json``, ``prediction_lines`` the predictions file as one ``json.dumps`` of a record
dict per row, against whose bytes the CLI's line writer is checked, and
``template_lines`` that writer as it stood before the ``floatrepr`` kernel
(``repr`` of each row and one ``%`` template per line). ``adam_step``
(one update per parameter tensor) and ``backward`` (each gradient its own
array) are the training step as it stood before parameters, gradients and
moments shared one flat buffer each, against which the flat forms are
checked bit for bit. ``unpack_strings_checked`` (one decode per string) and
``check_prediction_rows`` (a loop over decoded ids) are the id reader and
``eval``'s row checks as they stood before ids stayed packed in memory, and
``unit_columns`` the store's search matrix as it was formed at
construction, before it was formed on first use. ``store_file_bytes`` is the
datastore file (docs/formats.md) written value by value and bit by bit.
"""
import bisect
import json
import logging
import struct
from dataclasses import dataclass

import numpy as np

from knnmlc import encoder, training
from knnmlc.copies import pack_strings
from knnmlc.data import DataFormatError, PackedSamples, _cluster_draws, _gather, check_kind, cluster_layout, pack_samples
from knnmlc.datastore import Datastore, NonFiniteQueryError
from knnmlc.encoder import EncoderState, ForwardTrace, ParameterGradients, _gather_rows
from knnmlc.inference import InferenceConfig, PredictionBundle
from knnmlc.losses import (
    CONTRASTIVE_VARIANTS,
    bce_loss,
    contrastive_embedding_grads,
    contrastive_loss_from_similarities,
    total_loss,
)
from knnmlc.mathops import make_rng, sigmoid, unit_rows

logger = logging.getLogger(__name__)


@dataclass(eq=False)
class Sample:
    """One sample record: sparse features, a binary label vector of length C
    and an id, as one line of a dataset file holds them."""

    features: dict[int, float]
    labels: np.ndarray  # shape (C,), values in {0, 1}
    sample_id: str = ""

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int8)

    def __eq__(self, other):
        if not isinstance(other, Sample):
            return NotImplemented
        return (
            self.sample_id == other.sample_id
            and self.features == other.features
            and np.array_equal(self.labels, other.labels)
        )


def pack(samples, input_dim: int) -> PackedSamples:
    """A list of sample records as CSR arrays, features in each dict's order;
    a record without features holds one explicit zero at index 0. Indices
    are not checked against ``input_dim``: ``data.pack_samples`` does that."""
    features = [s.features or {0: 0.0} for s in samples]
    indptr = np.cumsum([0] + [len(f) for f in features], dtype=np.int64)
    return PackedSamples(
        indptr,
        np.array([k for f in features for k in f], dtype=np.int64),
        np.array([v for f in features for v in f.values()], dtype=np.float64),
        np.array([s.labels for s in samples], dtype=np.int8),
        input_dim,
        *pack_strings([s.sample_id for s in samples]),
    )


def cosine_sim_matrix(rows) -> np.ndarray:
    """All-pairs cosine similarities of the rows of an (n, d) array, clipped
    to [-1, 1], from ``np.linalg.norm``: the similarities a training step
    hands the contrastive loss. Raises ValueError for a zero-norm row."""
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("cosine similarity is undefined for zero-norm rows")
    unit = rows / norms[:, None]
    return np.clip(unit @ unit.T, -1.0, 1.0)


def contrastive_loss(embeddings, labels, tau1: float, variant: str = "dcl"):
    """The contrastive loss of a duplicated batch's 2N embeddings and its N
    samples' (N, C) labels, as a training step forms it: the package's
    similarity-space loss on their clipped cosines (``cosine_sim_matrix``).
    Returns (loss, gradient with respect to the similarities)."""
    return contrastive_loss_from_similarities(cosine_sim_matrix(embeddings), labels, tau1, variant)


def cosine_sim(a, b) -> float:
    """Cosine similarity of two equal-length vectors, in [-1, 1].

    Raises ValueError on length mismatch or zero-norm input (never a silent 0).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"cosine_sim expects equal-length 1-d vectors, got {a.shape} and {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine_sim is undefined for zero-norm input")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def logsumexp(a, axis=None):
    """log(sum(exp(a))) with max-subtraction, stable for large entries."""
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return float(out.ravel()[0]) if axis is None else np.squeeze(out, axis=axis)


def label_similarity(y_i, y_j) -> float:
    """Shared positive labels divided by the larger positive count, in [0, 1]:
    one entry of ``label_similarity_matrix``.

    A pair with no positive labels on either side is defined as 0 (maximally
    dissimilar) and logged.
    """
    y_i = np.asarray(y_i)
    y_j = np.asarray(y_j)
    if y_i.shape != y_j.shape:
        raise ValueError(f"label vectors must have equal length, got {y_i.shape} and {y_j.shape}")
    ni = int(y_i.sum())
    nj = int(y_j.sum())
    if ni == 0 and nj == 0:
        logger.warning("label_similarity of two all-zero label vectors; defining it as 0")
        return 0.0
    common = int(np.sum((y_i > 0) & (y_j > 0)))
    return common / max(ni, nj)


def contrastive_weight(l: float) -> float:
    """Negative-pair weight 2 - l, one entry of ``weight_matrix``: 1 for
    identical labels up to 2 for disjoint."""
    if not 0.0 <= l <= 1.0:
        raise ValueError(f"label similarity must lie in [0, 1], got {l}")
    return 2.0 - l


def pij(similarities, weights, tau1: float) -> np.ndarray:
    """Normalized weighted-softmax shares w_j exp(s_j/tau) / sum_k w_k exp(s_k/tau)
    over the given entries (the caller excludes the anchor itself): one row of
    the masked softmax in ``losses.contrastive_loss_from_similarities``."""
    if tau1 <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau1}")
    s = np.asarray(similarities, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if s.shape != w.shape or s.size == 0:
        raise ValueError("similarities and weights must be equal-length and nonempty")
    z = np.log(w) + s / tau1
    e = np.exp(z - np.max(z))
    return e / e.sum()


def label_similarity_matrix(labels: np.ndarray) -> np.ndarray:
    """All-pairs label similarities for (n, C) binary labels: shared positive
    labels over the larger positive count, in [0, 1]; ``label_similarity`` of
    every pair, as one matrix product.

    Rows with identical labels (in particular a sample and its own augmented
    view) get similarity 1. A pair of all-zero rows gets 0, and is logged.
    """
    y = np.asarray(labels, dtype=np.float64)
    counts = y.sum(axis=1)
    if np.any(counts == 0):
        logger.warning("label_similarity_matrix saw all-zero label rows; their pairs get 0")
    common = y @ y.T
    denom = np.maximum(counts[:, None], counts[None, :])
    with np.errstate(invalid="ignore", divide="ignore"):
        l = np.where(denom > 0, common / np.where(denom > 0, denom, 1.0), 0.0)
    return l


def weight_matrix(l: np.ndarray) -> np.ndarray:
    """Negative-pair weights 2 - l, ``contrastive_weight`` of every entry: 1
    for identical labels up to 2 for disjoint."""
    l = np.asarray(l, dtype=np.float64)
    if np.any(l < 0.0) or np.any(l > 1.0):
        raise ValueError("label similarities must lie in [0, 1]")
    return 2.0 - l


def positive_mask(labels: np.ndarray, variant: str) -> np.ndarray:
    """(2N, 2N) 0/1 matrix of each anchor's positives: its own augmented view,
    plus, for scl/wscl, every other row with an identical label vector
    (grouped by ``np.unique``)."""
    n2 = labels.shape[0]
    rows = np.arange(n2)
    if variant in ("scl", "wscl"):
        group = np.unique(labels, axis=0, return_inverse=True)[1].reshape(-1)
        positive = group[:, None] == group[None, :]
    else:
        positive = np.zeros((n2, n2), dtype=bool)
    positive[rows, (rows + n2 // 2) % n2] = True
    positive[rows, rows] = False
    return positive.astype(np.float64)


def masked_contrastive_loss(sims, labels, tau1: float, variant: str):
    """``losses.contrastive_loss_from_similarities`` as whole-matrix
    expressions, each forming a new array: the weights from
    ``label_similarity_matrix``, the positives from ``positive_mask``, and
    the diagonal excluded by ``np.where`` masks. The package's in-place pass
    must give the same bits. Returns (loss, gradient)."""
    s = np.asarray(sims, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int8)
    n2 = s.shape[0]
    if variant in ("dcl", "wscl"):
        w = weight_matrix(label_similarity_matrix(labels))
    else:
        w = np.ones((n2, n2), dtype=np.float64)
    positive = positive_mask(labels, variant)
    num_positive = positive.sum(axis=1)

    off_diag = ~np.eye(n2, dtype=bool)
    z = np.log(w) + s / tau1
    z_masked = np.where(off_diag, z, -np.inf)
    z_max = z_masked.max(axis=1, keepdims=True)
    expz = np.where(off_diag, np.exp(z_masked - z_max), 0.0)
    denom = expz.sum(axis=1, keepdims=True)
    p = expz / denom
    log_denom = np.log(denom[:, 0]) + z_max[:, 0]

    mean_positive = (positive * s).sum(axis=1) / num_positive
    loss = float(np.sum(log_denom - mean_positive / tau1))
    grad = p / tau1 - positive * (1.0 / (num_positive * tau1))[:, None]
    grad[np.arange(n2), np.arange(n2)] = 0.0
    return loss, grad


def per_view_contrastive_loss(sims, labels, tau1: float, variant: str = "dcl", workspace=None):
    """``losses.contrastive_loss_from_similarities`` as it stood when it took
    one (2N, C) label row per view and formed every label-derived matrix on
    the (2N, 2N) grid, with the positives' share subtracted under a ``where``
    mask; the package's per-sample form must give the same bits. Entry
    (i, j) appears only in anchor i's term.

    Returns (sum of per-anchor losses, gradient matrix of the same shape).
    Per anchor i: -mean over positives p of log(exp(s_ip/tau) /
    sum_{j != i} w_ij exp(s_ij/tau)). Computed via log-sum-exp so small
    temperatures cannot overflow. Labels must be 0/1; any other value is a
    ValueError naming it.

    ``workspace`` is an optional pair of (2N, 2N) float64 arrays that the
    call overwrites, neither of them ``sims``; the returned gradient is the
    first. Without it the call allocates both, so its gradient is its own.
    """
    if variant not in CONTRASTIVE_VARIANTS:
        raise ValueError(f"variant must be one of {CONTRASTIVE_VARIANTS}, got {variant!r}")
    if tau1 <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau1}")
    s = np.asarray(sims, dtype=np.float64)
    labels = np.asarray(labels)
    n2 = s.shape[0]
    if s.shape != (n2, n2) or n2 < 2 or n2 % 2 != 0:
        raise ValueError(f"similarity matrix must be square with even size >= 2, got {s.shape}")
    if labels.ndim != 2 or labels.shape[0] != n2:
        raise ValueError(f"labels of shape {labels.shape} do not give one row per view of a batch of {n2}")
    bad = labels[(labels != 0) & (labels != 1)]
    if bad.size:
        raise ValueError(f"labels must be 0 or 1, got {bad[0]}")
    rows = np.arange(n2)
    partners = (rows + n2 // 2) % n2
    z, pair = (np.empty((n2, n2)), np.empty((n2, n2))) if workspace is None else workspace
    if variant != "ucl":
        y = labels.astype(np.float64)
        counts = y.sum(axis=1)
        # shared positive labels of each pair, exact integers; the contiguous
        # copy of y.T makes this a gemm, several times faster than y @ y.T
        np.matmul(y, y.T.copy(), out=pair)

    positive = None
    if variant in ("scl", "wscl"):
        # two 0/1 rows are identical iff their overlap equals both counts
        positive = pair == counts[:, None]
        positive &= pair == counts
        positive[rows, rows] = False
        positive[rows, partners] = True
    if variant in ("dcl", "wscl"):
        # log w_ij = log(2 - l_ij), l_ij = overlap / max(count_i, count_j, 1)
        larger = np.maximum(counts, 1.0)
        np.maximum(larger[:, None], larger, out=z)
        pair /= z
        np.subtract(2.0, pair, out=pair)
        np.log(pair, out=pair)
        np.divide(s, tau1, out=z)
        z += pair
    else:
        np.divide(s, tau1, out=z)

    # row-wise softmax over j != i gives the P_ij shares of the denominator
    z[rows, rows] = -np.inf
    z_max = z.max(axis=1, keepdims=True)
    z -= z_max
    np.exp(z, out=z)
    denom = z.sum(axis=1, keepdims=True)
    log_denom = np.log(denom[:, 0]) + z_max[:, 0]
    z /= denom
    z /= tau1

    # the gradient P_ij / tau - [j is a positive of i] / (|positives of i| tau)
    if positive is None:
        mean_positive = s[rows, partners]
        z[rows, partners] -= 1.0 / tau1
    else:
        num_positive = np.count_nonzero(positive, axis=1)
        np.multiply(positive, s, out=pair)
        mean_positive = pair.sum(axis=1) / num_positive
        np.subtract(z, (1.0 / (num_positive * tau1))[:, None], out=z, where=positive)
    z[rows, rows] = 0.0
    loss = float(np.add.reduce(log_denom - mean_positive / tau1))
    return loss, z


def take(split: PackedSamples, rows) -> PackedSamples:
    """The given rows of ``split``, in the given order (repeats allowed),
    ids too: the gather the package's ``PackedSamples.take`` made before the
    training step drew its views with ``two_views``."""
    rows = np.asarray(rows, dtype=np.int64)
    indptr, pos = _gather(split.indptr, rows)
    id_offsets, id_pos = _gather(split.id_offsets, rows)
    return PackedSamples(
        indptr,
        split.indices[pos],
        split.values[pos],
        split.labels[rows],
        split.input_dim,
        id_offsets,
        split.id_bytes[id_pos],
    )


def trainer_step(trainer: training.Trainer) -> dict:
    """``trainer.step()`` as it stood with per-view labels: the N drawn rows
    taken twice by ``take`` (ids too), the contrastive loss by
    ``per_view_contrastive_loss`` on the views' (2N, C) labels with fresh
    arrays, then the package's backward pass, Adam step and validation."""
    cfg, state = trainer.cfg, trainer.state
    rows = trainer._next_batch()
    views = take(trainer.train_set, np.concatenate([rows, rows]))
    trace = encoder.forward_batch(state, views, rng=trainer.rng)
    bce, logit_grads = bce_loss(sigmoid(trace.logits), views.labels)
    unit, norms = unit_rows(trace.embedding)
    cos = unit @ unit.T
    con, grad_sims = per_view_contrastive_loss(cos.clip(-1.0, 1.0), views.labels, cfg.tau1, cfg.variant)
    emb_grads = cfg.alpha * contrastive_embedding_grads(unit, norms, cos, grad_sims) if cfg.alpha > 0.0 else None
    grads = encoder.backward(state, trace, grad_embedding=emb_grads, grad_logits=logit_grads)
    training.adam_step(state, grads, trainer.adam, lr=cfg.learning_rate)
    trainer.iteration += 1
    record = {"iteration": trainer.iteration, "bce": bce, "con": con, "total": total_loss(bce, con, cfg.alpha)}
    if trainer.valid_set is not None and trainer.iteration % trainer.eval_interval == 0:
        record["valid_micro_f1"] = trainer._validate()
    trainer.history.append(record)
    return record


def forward(state: EncoderState, sample: PackedSamples) -> ForwardTrace:
    """The dropout-off network on one sample, a batch of one of
    ``forward_rowwise``, so the result equals that sample's row in any
    inference batch; the trace holds the 1-d rows."""
    assert len(sample) == 1
    t = forward_rowwise(state, pack_samples(sample, state.config.input_dim))
    return ForwardTrace(t.inputs, t.pre_hidden[0], t.hidden[0], t.mask[0], t.embedding[0], t.logits[0])


def column_gather(w_in: np.ndarray, batch: PackedSamples) -> np.ndarray:
    """The (n, hidden) input-layer sums before the bias, as the sparse branch
    of ``forward_batch`` formed them before it shared the row gather: the
    ``w_in`` columns the features touch, scaled by their values and summed
    per row segment along axis 1."""
    columns = w_in[:, batch.indices] * batch.values
    return np.add.reduceat(columns, batch.indptr[:-1], axis=1).T


def draw_sample(cfg, words, clusters, cdf, sample_id: str) -> Sample:
    """One synthetic sample from its own 1 + C + 3T raw PCG64 words (Python
    ints), one scalar draw at a time: the layout ``data.generate_synthetic``
    reads in row blocks. A probability is drawn as ``(word >> 11) * 2**-53``
    and an index below n as ``word * n >> 64``, in Python's exact integers."""

    def u(word):
        return (word >> 11) * 2**-53

    in_labels, out_labels, add_p, own, shared = clusters[bisect.bisect_right(cdf, u(words[0]))]
    labels = np.zeros(cfg.num_classes, dtype=np.int8)
    for c in in_labels:
        labels[c] = u(words[1 + c]) < 1.0 - cfg.label_noise
    for c in out_labels:
        labels[c] = u(words[1 + c]) < add_p
    if not labels.any():
        labels[in_labels[0]] = 1

    features: dict[int, float] = {}
    for j in range(cfg.tokens_per_sample):
        noise, block, index = words[1 + cfg.num_classes + 3 * j : 4 + cfg.num_classes + 3 * j]
        if u(noise) < cfg.feature_noise:
            idx = index * cfg.vocab_size >> 64
        elif u(block) < cfg.shared_feature_frac:
            idx = int(shared[index * shared.size >> 64])
        else:
            idx = int(own[index * own.size >> 64])
        features[idx] = features.get(idx, 0.0) + 1.0
    return Sample(features=dict(sorted(features.items())), labels=labels, sample_id=sample_id)


def generate_synthetic(cfg):
    """(train, valid, test) lists of ``draw_sample`` samples, each reading
    the next 1 + C + 3T raw words of one PCG64 stream."""
    cfg.validate()
    bitgen = make_rng(cfg.seed).bit_generator
    layout = cluster_layout(cfg)
    clusters = _cluster_draws(cfg, layout)
    cdf = layout[3].cumsum()
    cdf = (cdf / cdf[-1]).tolist()
    width = 1 + cfg.num_classes + 3 * cfg.tokens_per_sample
    return tuple(
        [draw_sample(cfg, bitgen.random_raw(width).tolist(), clusters, cdf, f"{name}-{i:05d}") for i in range(size)]
        for name, size in (("train", cfg.train_size), ("valid", cfg.valid_size), ("test", cfg.test_size))
    )


def save_jsonl(samples, path, num_classes: int, vocab_size: int) -> None:
    """A dataset file as ``json.dumps`` writes each record dict, feature keys
    ascending."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"num_classes": int(num_classes), "vocab_size": int(vocab_size)}) + "\n")
        for s in samples:
            rec = {
                "id": s.sample_id,
                "features": {str(k): s.features[k] for k in sorted(s.features)},
                "labels": [int(c) for c in np.flatnonzero(s.labels)],
            }
            fh.write(json.dumps(rec) + "\n")


def load_jsonl(path):
    """The per-line dataset reader: (list of Sample records, num_classes,
    vocab_size) by one ``json.loads``, one int -> float dict and one label
    array per line, with the load rules of docs/formats.md checked in their
    order; a DataFormatError names the offending line."""
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line.strip():
            raise DataFormatError(f"{path}: missing header line")
        try:
            header = json.loads(header_line)
            num_classes, vocab_size = header["num_classes"], header["vocab_size"]
            check_kind("num_classes", num_classes, "int")
            check_kind("vocab_size", vocab_size, "int")
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: line 1: bad header ({exc})") from exc
        if num_classes < 1 or vocab_size < 1:
            raise DataFormatError(f"{path}: line 1: num_classes and vocab_size must be >= 1")

        samples = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                for value in rec["features"].values():
                    check_kind("a feature value", value, "float")
                for key in rec["features"]:
                    try:
                        canonical = str(int(key)) == key
                    except ValueError:
                        canonical = False
                    if not canonical:
                        raise ValueError(f"a feature key must be an integer as str() writes it, got {key!r}")
                features = {int(k): float(v) for k, v in rec["features"].items()}
                positives = rec["labels"]
                if not isinstance(positives, list):
                    raise TypeError(f"labels must be a list, got {positives!r}")
                for c in positives:
                    check_kind("a label", c, "int")
                sample_id = rec.get("id", "")
                check_kind("an id", sample_id, "str")
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
                raise DataFormatError(f"{path}: line {lineno}: malformed record ({exc})") from exc
            labels = np.zeros(num_classes, dtype=np.int8)
            for c in positives:
                if not 0 <= c < num_classes:
                    raise DataFormatError(
                        f"{path}: line {lineno}: label index {c} out of range for C={num_classes}"
                    )
                labels[c] = 1
            for k in features:
                if not 0 <= k < vocab_size:
                    raise DataFormatError(
                        f"{path}: line {lineno}: feature index {k} out of range for vocab_size={vocab_size}"
                    )
            samples.append(Sample(features=features, labels=labels, sample_id=sample_id))
    return samples, num_classes, vocab_size


def predict_batch(state: EncoderState, store: Datastore | None, samples: PackedSamples, cfg: InferenceConfig):
    """The whole inference path for a nonempty packed batch, one checked step
    after another: dropout-off forward (with its all-ones mask), retrieval
    in query blocks, the vote, the high-confidence mask, lambda and the
    combination, each through ``np.linalg.norm``, ``np.clip`` and the
    argument checks of its public form."""
    cfg.validate()
    batch = pack_samples(samples, state.config.input_dim)
    trace = forward_rowwise(state, batch)
    y_clf = _sigmoid(trace.logits)
    n = len(batch)

    if store is None and cfg.mode != "classifier_only":
        raise ValueError(f"mode {cfg.mode!r} requires a datastore")
    if store is not None and (store.dim != state.config.embed_dim or store.num_classes != state.config.num_classes):
        raise ValueError(
            f"datastore dims (d={store.dim}, C={store.num_classes}) do not match encoder "
            f"(d={state.config.embed_dim}, C={state.config.num_classes})"
        )
    # classifier_only never retrieves, with a store or without
    if store is None or cfg.mode == "classifier_only":
        indices = np.zeros((n, 0), dtype=np.int64)
        sims = np.zeros((n, 0))
        y_knn = np.zeros_like(y_clf)
    else:
        try:
            indices, sims = _retrieve_topk(store, trace.embedding, cfg.k)
        except NonFiniteQueryError as exc:
            raise NonFiniteQueryError(exc.row, exc.reason, batch[exc.row].ids()[0]) from None
        y_knn = _knn_predict(sims, store.values[indices], cfg.tau2)

    mask = _high_confidence_subset(y_clf, cfg.gamma)
    if cfg.mode == "classifier_only":
        lam = np.zeros(n)
    elif cfg.mode == "knn_only":
        lam = np.ones(n)
    elif cfg.mode == "fixed_lambda":
        lam = np.full(n, cfg.fixed_lambda_value)
    else:
        lam = _debiased_lambda(y_knn, mask)
    return PredictionBundle(
        y_clf=y_clf,
        y_knn=y_knn,
        high_conf_mask=mask,
        lam=lam,
        y_final=_combine(lam, y_knn, y_clf),
        neighbor_indices=indices,
        neighbor_sims=sims,
    )


def state_to_payload(state: EncoderState) -> dict:
    """A state's checkpoint payload with each parameter as nested lists: its
    ``json.dumps`` is ``model.json`` as ``knnmlc train`` wrote it before the
    ``floatrepr`` kernel, and ``encoder.save_checkpoint`` writes the same
    bytes. float64 values round-trip exactly, as json writes each one as its
    shortest ``repr``."""
    return {**encoder._payload_header(state), "params": {name: arr.tolist() for name, arr in state.param_items()}}


def prediction_lines(ids, bundle: PredictionBundle, y_pred: np.ndarray) -> bytes:
    """The preds.jsonl bytes of a bundle's rows as ``knnmlc predict`` wrote
    them before it rendered lines from the arrays: one record dict per row,
    each line ``json.dumps(record) + "\\n"``."""
    lines = []
    for i, sample_id in enumerate(ids):
        record = {
            "id": sample_id,
            "y_clf": bundle.y_clf[i].tolist(),
            "y_knn": bundle.y_knn[i].tolist(),
            "lambda": float(bundle.lam[i]),
            "y_final": bundle.y_final[i].tolist(),
            "y_pred": y_pred[i].tolist(),
            "neighbors": [
                {"index": index, "similarity": sim}
                for index, sim in zip(bundle.neighbor_indices[i].tolist(), bundle.neighbor_sims[i].tolist())
            ],
        }
        lines.append(json.dumps(record) + "\n")
    return "".join(lines).encode("utf-8")


# a preds.jsonl line and one neighbor pair as ``knnmlc predict`` rendered
# them before it laid the lines out as one uint8 matrix per block
_LINE = '{"id": %s, "y_clf": %s, "y_knn": %s, "lambda": %r, "y_final": %s, "y_pred": %s, "neighbors": [%s]}\n'
_NEIGHBOR = '{"index": %d, "similarity": %r}'


def template_lines(ids, bundle: PredictionBundle, y_pred: np.ndarray, block: int = 128):
    """The preds.jsonl bytes of a bundle's rows as ``knnmlc predict`` wrote
    them before the ``floatrepr`` kernel, one block of up to ``block`` lines
    at a time: one ``repr`` per row of each (n, C) array, ``%r`` of each
    lambda and one template per row for its k neighbor pairs."""
    n, k = bundle.neighbor_indices.shape
    neighbors = ", ".join([_NEIGHBOR] * k)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        pairs = np.empty((hi - lo, 2 * k), dtype=object)
        pairs[:, 0::2] = bundle.neighbor_indices[lo:hi]
        pairs[:, 1::2] = bundle.neighbor_sims[lo:hi]
        fields = zip(
            map(json.dumps, ids[lo:hi]),
            map(repr, bundle.y_clf[lo:hi].tolist()),
            map(repr, bundle.y_knn[lo:hi].tolist()),
            bundle.lam[lo:hi].tolist(),
            map(repr, bundle.y_final[lo:hi].tolist()),
            map(repr, y_pred[lo:hi].tolist()),
            map(neighbors.__mod__, map(tuple, pairs.tolist())),
        )
        yield "".join(map(_LINE.__mod__, fields)).encode("utf-8")


def forward_rowwise(state: EncoderState, batch: PackedSamples) -> ForwardTrace:
    """The dropout-off pass over a packed batch as one gather and plain
    expressions, with its trace (an all-ones mask): the pass
    ``encoder.rowwise_layers`` and ``encoder.rowwise_logits`` compute in row
    ranges, bit for bit."""
    w_rows = state.w_in.T
    if batch.indices.size >= state.config.input_dim:
        w_rows = np.ascontiguousarray(w_rows)
    pre_hidden = _gather_rows(w_rows, batch) + state.b_in
    hidden = np.tanh(pre_hidden) if state.config.activation == "tanh" else np.maximum(pre_hidden, 0.0)
    embedding = np.einsum("ij,kj->ik", hidden, state.w_emb) + state.b_emb
    logits = np.einsum("ij,kj->ik", embedding, state.w_clf) + state.b_clf
    return ForwardTrace(batch, pre_hidden, hidden, np.ones_like(hidden), embedding, logits)


def _sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom)


def _unit_keys(keys: np.ndarray) -> np.ndarray:
    unit = keys.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    return unit


def _retrieve_topk(store: Datastore, queries, k: int):
    """All queries in one block: a row's result does not depend on its block."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != store.dim:
        raise ValueError(f"queries shape {q.shape} != (n, {store.dim})")
    norms = np.linalg.norm(q, axis=1)
    if not np.isfinite(norms).all():
        raise NonFiniteQueryError(int(np.flatnonzero(~np.isfinite(norms))[0]), "cannot retrieve with a query that holds NaN or inf")
    if not norms.all():
        raise NonFiniteQueryError(int(np.flatnonzero(norms == 0.0)[0]), "cannot retrieve with a zero-norm query")
    return _topk_block(store, q / norms[:, None], min(k, store.count))


def _topk_block(store: Datastore, q: np.ndarray, k: int):
    count, d = store.keys.shape
    n = q.shape[0]
    approx = q.astype(np.float32) @ _unit_keys(store.keys).astype(np.float32).T
    kth = np.partition(approx, count - k, axis=1)[:, count - k].astype(np.float64)
    m = (d + 2) * 2.0**-24
    cutoff = np.minimum(kth, 1.0) - 4.0 * m / (1.0 - m)
    cutoff[cutoff <= -1.0] = -np.inf
    cutoff = np.nextafter(cutoff.astype(np.float32), np.float32(-np.inf))
    rows, cand = np.divmod(np.flatnonzero(approx >= cutoff[:, None]), count)
    exact = np.clip((_unit_keys(store.keys[cand]) * q[rows]).sum(axis=1), -1.0, 1.0)
    order = np.lexsort((cand, -exact, rows))
    take = order[np.searchsorted(rows, np.arange(n))[:, None] + np.arange(k)]
    return cand[take], exact[take]


def _knn_predict(sims, labels, tau2: float) -> np.ndarray:
    sims = np.asarray(sims, dtype=np.float64)
    if sims.shape[-1] == 0:
        raise ValueError("knn_predict requires at least one neighbor")
    labels = np.asarray(labels)
    if labels.shape[:-1] != sims.shape:
        raise ValueError(f"labels shape {labels.shape} does not match similarities {sims.shape}")
    if not np.all(np.isfinite(sims)):
        raise ValueError("softmax_temp received non-finite scores")
    z = sims / tau2
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    beta = e / e.sum(axis=-1, keepdims=True)
    return np.clip((beta[..., None] * labels).sum(axis=-2), 0.0, 1.0)


def _high_confidence_subset(y_clf, gamma: float) -> np.ndarray:
    return (np.asarray(y_clf, dtype=np.float64) >= gamma).astype(np.int8)


def _debiased_lambda(y_knn, mask):
    y_knn = np.asarray(y_knn, dtype=np.float64)
    mask = np.asarray(mask)
    if y_knn.shape != mask.shape:
        raise ValueError(f"mask shape {mask.shape} != prediction shape {y_knn.shape}")
    lam = np.where(mask > 0, y_knn, np.inf).min(axis=-1)
    return np.where(np.isinf(lam), 0.0, lam)[()]


def _combine(lam, y_knn, y_clf) -> np.ndarray:
    lam = np.asarray(lam, dtype=np.float64)
    if not np.all((lam >= 0.0) & (lam <= 1.0)):
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    y_knn = np.asarray(y_knn, dtype=np.float64)
    y_clf = np.asarray(y_clf, dtype=np.float64)
    if y_knn.shape != y_clf.shape:
        raise ValueError("prediction vectors must have equal length")
    lam = lam[..., None]
    return np.clip(lam * y_knn + (1.0 - lam) * y_clf, 0.0, 1.0)


def adam_step(state, grads, adam, lr, betas=(0.9, 0.999), eps=1e-8):
    """One bias-corrected Adam update, tensor by tensor: each parameter's
    moments (views of the flat moments) updated in place and two scratch
    arrays per parameter."""
    b1, b2 = betas
    adam.step += 1
    t = adam.step
    moments = zip(encoder._flat_views(adam.m_flat, state.shapes), encoder._flat_views(adam.v_flat, state.shapes))
    for (name, theta), (m, v) in zip(state.param_items(), moments):
        g = getattr(grads, name)
        if g.shape != theta.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter {name} shape {theta.shape}")
        scratch = np.multiply(g, 1.0 - b1)
        m *= b1
        m += scratch
        np.multiply(g, 1.0 - b2, out=scratch)
        scratch *= g
        v *= b2
        v += scratch
        step = np.divide(m, 1.0 - b1**t)
        step *= lr
        np.divide(v, 1.0 - b2**t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += eps
        step /= scratch
        theta -= step
    return state


def backward(state: EncoderState, trace: ForwardTrace, grad_embedding=None, grad_logits=None) -> ParameterGradients:
    """Reverse-mode gradients summed over the rows of a batch trace, each
    product and sum formed as its own array."""
    cfg = state.config
    if trace.embedding.ndim != 2:
        raise ValueError("backward needs a batch trace from forward_batch")
    n = trace.embedding.shape[0]
    if grad_embedding is None:
        d_embedding = np.zeros((n, cfg.embed_dim))
    else:
        d_embedding = np.asarray(grad_embedding, dtype=np.float64)
    if d_embedding.shape != (n, cfg.embed_dim):
        raise ValueError(f"grad_embedding shape {d_embedding.shape} != ({n}, {cfg.embed_dim})")
    if grad_logits is None:
        w_clf = np.zeros_like(state.w_clf)
        b_clf = np.zeros_like(state.b_clf)
    else:
        d_logits = np.asarray(grad_logits, dtype=np.float64)
        if d_logits.shape != (n, cfg.num_classes):
            raise ValueError(f"grad_logits shape {d_logits.shape} != ({n}, {cfg.num_classes})")
        w_clf = d_logits.T @ trace.embedding
        b_clf = d_logits.sum(axis=0)
        d_embedding = d_embedding + d_logits @ state.w_clf

    d_hidden = (d_embedding @ state.w_emb) * trace.mask
    if cfg.activation == "tanh":
        d_pre = d_hidden * (1.0 - trace.hidden**2)
    else:
        d_pre = d_hidden * (trace.pre_hidden > 0.0)
    return ParameterGradients(
        w_in=d_pre.T @ (trace.inputs.to_dense() if trace.dense is None else trace.dense),
        b_in=d_pre.sum(axis=0),
        w_emb=d_embedding.T @ (trace.hidden * trace.mask),
        b_emb=d_embedding.sum(axis=0),
        w_clf=w_clf,
        b_clf=b_clf,
    )


def unpack_strings_checked(offsets: np.ndarray, blob: np.ndarray):
    """The list of strings that (offsets, bytes) arrays hold, one decode per
    string, or None when the offsets do not run from 0 to the size of
    ``blob`` without decreasing or a string does not decode."""
    if not offsets.size or offsets[0] != 0 or offsets[-1] != blob.size or np.any(np.diff(offsets) < 0):
        return None
    data, bounds = blob.tobytes(), offsets.tolist()
    try:
        return [data[lo:hi].decode("utf-8", "surrogatepass") for lo, hi in zip(bounds, bounds[1:])]
    except UnicodeDecodeError:
        return None


def check_prediction_rows(path, pred_ids, gold_ids, y_pred: np.ndarray) -> None:
    """``eval``'s checks of each prediction row, row by row over decoded ids:
    DataFormatError for the first row whose decisions are not all 0 or 1 or
    whose nonempty id differs from a nonempty gold id."""
    undecided = (y_pred.view(np.uint8) > 1).any(axis=1).tolist()
    for i, (pred_id, gold_id) in enumerate(zip(pred_ids, gold_ids)):
        if undecided[i]:
            raise DataFormatError(f"{path}: record {i}: y_pred must be a list of {y_pred.shape[1]} values in {{0, 1}}")
        if pred_id and gold_id and pred_id != gold_id:
            raise DataFormatError(f"record {i}: prediction id {pred_id!r} != gold id {gold_id!r}")


def unit_columns(keys: np.ndarray) -> np.ndarray:
    """A store's (d, count) float32 search matrix as it was formed when the
    store was made: float64 unit rows, transposed, cast to float32."""
    return _unit_keys(np.asarray(keys, dtype=np.float32)).T.astype(np.float32, order="C")


def store_file_bytes(keys: np.ndarray, values: np.ndarray) -> bytes:
    """The bytes of a datastore file for float32 ``keys`` and 0/1 ``values``,
    one ``struct`` value at a time: the header, every key entry as a
    little-endian float32, and each label row as ceil(C/8) bytes with label
    c at bit 7 - c % 8 of byte c // 8 (big bit order, unused bits 0)."""
    count, dim = keys.shape
    num_classes = values.shape[1]
    out = [struct.pack("<4sHIIQ", b"NNDS", 1, dim, num_classes, count)]
    out += [struct.pack("<f", x) for x in keys.ravel().tolist()]
    for row in values.tolist():
        packed = bytearray((num_classes + 7) // 8)
        for c, bit in enumerate(row):
            packed[c // 8] |= bit << (7 - c % 8)
        out.append(bytes(packed))
    return b"".join(out)
