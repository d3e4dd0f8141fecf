"""Command-line workflow: gen-data, train, build-store, predict, eval,
ablate, gradcheck.

Configuration is one JSON file with optional sections "dataset", "encoder",
"train", and "inference"; every key has a default (see docs/formats.md for
the schema), so `{}` is a valid config. Each command records a manifest
(config snapshot, seed, artifact paths, timestamps; for gen-data, train,
build-store, predict and eval, which writes one only with --out, also the
stage timings and the software versions) next to its outputs, and commands are
deterministic given their config and seed.

Exit codes: 0 success, 2 missing file, 3 malformed config or data file
(including a datastore file with a zero-norm or non-finite key), 4 dimension
mismatch, 5 non-finite numbers at their source (a NaN or inf training loss,
a zero-norm or non-finite key while building a datastore, or, while
predicting, a NaN classifier probability or a query embedding that holds
NaN or inf or whose norm overflows or is zero, each named by its row and
id), 1 anything else.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, copies
from . import datastore as ds
from . import training
from .data import (
    DataFormatError,
    DatasetConfig,
    frequency_groups,
    generate_synthetic,
    load_labels,
    load_packed,
    save_splits,
)
from .encoder import CheckpointError, EncoderConfig, init_state, load_checkpoint, save_checkpoint
from .gradcheck import duplicated_views, gradient_check, run_gradcheck_suite
from .inference import INFERENCE_MODES, InferenceConfig, predict_batch
from .losses import CONTRASTIVE_VARIANTS
from .metrics import confusion, group_report, hamming_loss, macro_prf, micro_prf
from .training import NonFiniteLossError, TrainConfig, Trainer

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_FILE = 2
EXIT_FORMAT = 3
EXIT_DIMENSION = 4
EXIT_NON_FINITE = 5


class ConfigError(ValueError):
    """Raised for config files with unknown keys or bad values."""


class DimensionMismatchError(ValueError):
    """Raised when artifacts disagree on dimensions."""


def _dataclass_from_dict(cls, payload: dict, context: str, **supplied):
    """``cls(**payload, **supplied)``, validated; ConfigError naming ``context``
    for an unknown key (the ``supplied`` fields are not keys) or a bad value."""
    known = {f.name for f in dataclasses.fields(cls)} - set(supplied)
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}; known keys are {sorted(known)}")
    try:
        obj = cls(**payload, **supplied)
        obj.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc
    return obj


# the widths an encoder section leaves out; EncoderConfig has no default for them
_ENCODER_WIDTHS = {"hidden_dim": 24, "embed_dim": 12}


def _encoder_config(section: dict, input_dim: int, num_classes: int, context: str = "encoder") -> EncoderConfig:
    """The EncoderConfig of a config's encoder section, whose input_dim and
    num_classes come from the data."""
    return _dataclass_from_dict(
        EncoderConfig, {**_ENCODER_WIDTHS, **section}, context, input_dim=input_dim, num_classes=num_classes
    )


def load_config(path: str | None):
    """Parse the JSON config into (DatasetConfig, encoder section dict,
    TrainConfig, InferenceConfig). The encoder section stays a dict because
    input_dim and num_classes come from the dataset at train time; every
    section is checked here, before any data is read."""
    raw = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = set(raw) - {"dataset", "encoder", "train", "inference"}
    if unknown:
        raise ConfigError(f"{path}: unknown sections {sorted(unknown)}")
    for name, section in raw.items():
        if not isinstance(section, dict):
            raise ConfigError(f"{path}:{name}: a section must be a JSON object")
    dataset_cfg = _dataclass_from_dict(DatasetConfig, raw.get("dataset", {}), f"{path}:dataset")
    train_cfg = _dataclass_from_dict(TrainConfig, raw.get("train", {}), f"{path}:train")
    infer_cfg = _dataclass_from_dict(InferenceConfig, raw.get("inference", {}), f"{path}:inference")
    encoder_section = raw.get("encoder", {})
    # any dimension >= 1 stands in for the ones the data gives
    _encoder_config(encoder_section, 1, 1, f"{path}:encoder")
    return dataset_cfg, encoder_section, train_cfg, infer_cfg


def write_manifest(out_dir: Path, command: str, config_snapshot: dict, seed, artifacts: dict, **extra):
    manifest = {
        "command": command,
        "seed": seed,
        "config": config_snapshot,
        "artifacts": {name: str(p) for name, p in artifacts.items()},
        "created_unix": time.time(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **extra,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"manifest-{command}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return path


def _environment() -> dict:
    """The software versions a manifest records, the BLAS build numpy was
    built against among them (training bits depend on it)."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "knnmlc": __version__,
    }


def _config_snapshot(*cfgs, **extra):
    snap = {}
    for cfg in cfgs:
        snap[type(cfg).__name__] = dataclasses.asdict(cfg)
    snap.update(extra)
    return snap


def _dataset(path: Path) -> Path:
    """``path``, which must exist (FileNotFoundError otherwise)."""
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    return path


def _load_split(path: Path):
    """(PackedSamples, num_classes, vocab_size) of a dataset file."""
    return load_packed(_dataset(path))


def _load_matching_split(path: Path, num_classes: int, vocab_size: int, reference):
    """The PackedSamples of a dataset file whose header must agree with the
    ``reference`` (a split, or a checkpoint's input_dim and C);
    DimensionMismatchError names both otherwise."""
    samples, c, v = _load_split(path)
    if (c, v) != (num_classes, vocab_size):
        raise DimensionMismatchError(
            f"{path} (vocab={v}, C={c}) does not match {reference} (vocab={vocab_size}, C={num_classes})"
        )
    return samples


def _load_training_splits(data_dir: Path):
    """(train, valid, num_classes, vocab_size) of a dataset directory; valid
    is None without a valid.jsonl, and must agree with train.jsonl's header."""
    train_path, valid_path = data_dir / "train.jsonl", data_dir / "valid.jsonl"
    train, num_classes, vocab_size = _load_split(train_path)
    valid = _load_matching_split(valid_path, num_classes, vocab_size, train_path) if valid_path.exists() else None
    return train, valid, num_classes, vocab_size


# -- commands -------------------------------------------------------------


def cmd_gen_data(args) -> int:
    dataset_cfg, _, _, _ = load_config(args.config)
    if args.seed is not None:
        dataset_cfg.seed = args.seed
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    splits = generate_synthetic(dataset_cfg)
    drawn = time.perf_counter()
    artifacts = save_splits(splits, out_dir)
    write_manifest(
        out_dir,
        "gen-data",
        _config_snapshot(dataset_cfg),
        dataset_cfg.seed,
        artifacts,
        timings={"run_s": drawn - start, "save_s": time.perf_counter() - drawn},
        environment=_environment(),
    )
    print(f"wrote {dataset_cfg.train_size}/{dataset_cfg.valid_size}/{dataset_cfg.test_size} samples to {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    _, encoder_section, train_cfg, _ = load_config(args.config)
    if args.seed is not None:
        train_cfg.seed = args.seed
    start = time.perf_counter()
    train_samples, valid_samples, num_classes, vocab_size = _load_training_splits(Path(args.data))
    loaded = time.perf_counter()

    encoder_cfg = _encoder_config(encoder_section, input_dim=vocab_size, num_classes=num_classes)
    state = init_state(encoder_cfg, seed=train_cfg.seed)
    trainer = Trainer(train_samples, valid_samples, state, train_cfg)
    run_start = time.perf_counter()
    trainer.run()
    run_end = time.perf_counter()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "model.json"
    history_path = out_dir / "history.jsonl"
    save_checkpoint(trainer.best_state(), ckpt_path)
    with open(history_path, "w", encoding="utf-8") as fh:
        for record in trainer.history:
            fh.write(json.dumps(record) + "\n")
    saved = time.perf_counter()
    run_s = run_end - run_start
    write_manifest(
        out_dir,
        "train",
        _config_snapshot(encoder_cfg, train_cfg),
        train_cfg.seed,
        {"checkpoint": ckpt_path, "history": history_path},
        timings={
            "load_s": loaded - start,
            "run_s": run_s,
            "save_s": saved - run_end,
            "iterations_per_s": trainer.iteration / run_s if trainer.iteration else 0.0,
        },
        environment=_environment(),
    )
    last_f1 = next(
        (r["valid_micro_f1"] for r in reversed(trainer.history) if "valid_micro_f1" in r), None
    )
    best_f1 = trainer.best_validation_f1
    print(
        f"trained {trainer.iteration} iterations; best valid micro-F1 "
        f"{best_f1 if best_f1 is not None else float('nan'):.4f} "
        f"(last {last_f1 if last_f1 is not None else float('nan'):.4f}); saved {ckpt_path}"
    )
    return EXIT_OK


def cmd_build_store(args) -> int:
    # NaN fails both comparisons
    if not 0.0 < args.fraction <= 1.0:
        raise ConfigError(f"--fraction must lie in (0, 1], got {args.fraction}")
    if not Path(args.checkpoint).exists():
        raise FileNotFoundError(f"checkpoint not found: {args.checkpoint}")
    start = time.perf_counter()
    state = load_checkpoint(args.checkpoint)
    train_samples = _load_matching_split(
        Path(args.train_file), state.config.num_classes, state.config.input_dim, f"checkpoint {args.checkpoint}"
    )
    loaded = time.perf_counter()
    store = ds.build(state, train_samples, fraction=args.fraction)
    built = time.perf_counter()
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    ds.save(store, out_path)
    write_manifest(
        out_path.parent,
        "build-store",
        {"checkpoint": str(args.checkpoint), "train_file": str(args.train_file), "fraction": args.fraction},
        None,
        {"datastore": out_path},
        timings={"load_s": loaded - start, "run_s": built - loaded, "save_s": time.perf_counter() - built},
        environment=_environment(),
    )
    print(f"built datastore with {store.count} entries (d={store.dim}, C={store.num_classes}) at {out_path}")
    return EXIT_OK


# samples per predict_batch call: bounds the (rows, k, C) neighbor-vote
# temporaries and the forward trace; rows do not depend on the split
_PREDICT_CHUNK = 1024
# prediction lines rendered, joined and written at a time: bounds the
# block's strings
_LINE_BLOCK = 128

# a preds.jsonl line and one neighbor pair: ``json.dumps`` of the record
# dict (its key order, default separators). Every value is finite
# (``predict_batch`` checks), and a finite float is written by json as its
# ``repr``, so ``repr`` of a row list is the JSON of the row.
_LINE = '{"id": %s, "y_clf": %s, "y_knn": %s, "lambda": %r, "y_final": %s, "y_pred": %s, "neighbors": [%s]}\n'
_NEIGHBOR = '{"index": %d, "similarity": %r}'


def _predict_chunks(state, store, samples, infer_cfg):
    """(chunk of a packed split, its PredictionBundle) over the rows in order."""
    for start in range(0, len(samples), _PREDICT_CHUNK):
        chunk = samples[start : start + _PREDICT_CHUNK]
        yield chunk, predict_batch(state, store, chunk, infer_cfg)


def _prediction_lines(ids, bundle, y_pred):
    """The bytes of the preds.jsonl lines of a chunk's rows (docs/formats.md),
    one block of up to ``_LINE_BLOCK`` lines at a time, rendered straight
    from the bundle's arrays: one ``repr`` per row of each (n, C) array and
    one template per row for its k neighbor pairs."""
    n, k = bundle.neighbor_indices.shape
    neighbors = ", ".join([_NEIGHBOR] * k)
    for lo in range(0, n, _LINE_BLOCK):
        hi = min(lo + _LINE_BLOCK, n)
        # each row's (index, similarity) pairs in turn, as Python ints and floats
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


def cmd_predict(args) -> int:
    _, _, _, infer_cfg = load_config(args.config)
    if args.mode is not None:
        infer_cfg.mode = args.mode
        infer_cfg.validate()
    if not Path(args.checkpoint).exists():
        raise FileNotFoundError(f"checkpoint not found: {args.checkpoint}")
    start = time.perf_counter()
    state = load_checkpoint(args.checkpoint)
    store = None
    if args.store is not None:
        if not Path(args.store).exists():
            raise FileNotFoundError(f"datastore not found: {args.store}")
        store = ds.load(args.store)
        if store.dim != state.config.embed_dim or store.num_classes != state.config.num_classes:
            raise DimensionMismatchError(
                f"datastore (d={store.dim}, C={store.num_classes}) does not match checkpoint "
                f"(embed_dim={state.config.embed_dim}, C={state.config.num_classes})"
            )
    elif infer_cfg.mode != "classifier_only":
        raise ConfigError(f"mode {infer_cfg.mode!r} requires --store")
    samples = _load_matching_split(
        Path(args.test_file), state.config.num_classes, state.config.input_dim, f"checkpoint {args.checkpoint}"
    )
    loaded = time.perf_counter()
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    # each chunk's decisions, and the seconds spent predicting
    decisions, run_s = [np.zeros((0, state.config.num_classes), dtype=np.int8)], 0.0

    def lines():
        nonlocal run_s
        t0 = time.perf_counter()
        for chunk, bundle in _predict_chunks(state, store, samples, infer_cfg):
            run_s += time.perf_counter() - t0
            decisions.append(bundle.decisions(infer_cfg.decision_threshold))
            yield from _prediction_lines(chunk.ids(), bundle, decisions[-1])
            t0 = time.perf_counter()

    digest = copies.write_hashed(out_path, lines())
    y_pred = np.concatenate(decisions)
    arrays = {"y_pred": y_pred, "id_offsets": samples.id_offsets, "id_bytes": samples.id_bytes}
    copies.write_copy(out_path, _PREDICTIONS_COPY_VERSION, digest, arrays)
    write_manifest(
        out_path.parent,
        "predict",
        _config_snapshot(infer_cfg, checkpoint=str(args.checkpoint), store=str(args.store)),
        None,
        {"predictions": out_path},
        timings={"load_s": loaded - start, "run_s": run_s, "save_s": time.perf_counter() - loaded - run_s},
        environment=_environment(),
    )
    print(f"wrote {len(samples)} predictions ({infer_cfg.mode}) to {out_path}")
    return EXIT_OK


# the packed copy of a predictions file (see docs/formats.md): the y_pred
# rows and the ids, {name: (dtype, ndim)}
_PREDICTIONS_COPY_VERSION = 1
_PREDICTIONS_COPY_MEMBERS = {"y_pred": (np.int8, 2), "id_offsets": (np.int64, 1), "id_bytes": (np.uint8, 1)}


def _decision_error(path, i: int, num_classes: int) -> DataFormatError:
    return DataFormatError(f"{path}: record {i}: y_pred must be a list of {num_classes} values in {{0, 1}}")


def _parse_predictions(path, num_classes: int) -> dict:
    """The arrays of a predictions file as its packed copy holds them: the
    (n, C) int8 ``y_pred`` and the ids (``id_offsets``, ``id_bytes``). Every record must be
    an object whose ``y_pred`` is a list of ``num_classes`` JSON integers
    (not true/false or 1.0) and whose ``id``, if given, is a string (a
    missing id is ""); whether each value is 0 or 1 is checked on the
    array."""
    ids, rows = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path}: line {lineno}: malformed record ({exc})") from exc
            i = len(rows)
            row = rec.get("y_pred") if isinstance(rec, dict) else None
            if not (isinstance(row, list) and len(row) == num_classes and all(type(x) is int for x in row)):
                raise _decision_error(path, i, num_classes)
            sample_id = rec.get("id", "")
            if not isinstance(sample_id, str):
                raise DataFormatError(f"{path}: record {i}: id must be a string, got {sample_id!r}")
            ids.append(sample_id)
            rows.append(row)
    try:
        y_pred = np.array(rows, dtype=np.int8)
    except OverflowError:
        # a value outside int8 is no decision either; keep it one for the 0/1 check
        y_pred = np.array([[min(max(x, -1), 2) for x in row] for row in rows], dtype=np.int8)
    id_offsets, id_bytes = copies.pack_strings(ids)
    return {"y_pred": y_pred.reshape(len(rows), num_classes), "id_offsets": id_offsets, "id_bytes": id_bytes}


def _read_predictions(path, num_classes: int) -> dict:
    """``_parse_predictions``, served from the packed copy that predict (or
    an earlier miss) wrote when it stands for the file's bytes and holds
    rows of ``num_classes``."""

    def from_copy(arrays):
        offsets, y_pred = arrays["id_offsets"], arrays["y_pred"]
        if not copies.strings_valid(offsets, arrays["id_bytes"]) or y_pred.shape != (offsets.size - 1, num_classes):
            return None
        return arrays

    return copies.load(
        path,
        _PREDICTIONS_COPY_VERSION,
        _PREDICTIONS_COPY_MEMBERS,
        lambda p: _parse_predictions(p, num_classes),
        from_copy,
        dict,
    )


def _check_predictions(path, preds: dict, gold) -> None:
    """The checks of each prediction row, whether the file or its packed copy
    gave it: DataFormatError naming the first row whose decisions are not
    all 0 or 1 or whose nonempty id differs from a nonempty gold id."""
    y_pred, offsets, blob = preds["y_pred"], preds["id_offsets"], preds["id_bytes"]
    undecided = (y_pred.view(np.uint8) > 1).any(axis=1)
    # the ids are decoded only when their packed arrays differ from the gold
    # ids' (UTF-8 with surrogatepass is one to one, so equal arrays are equal ids)
    pred_ids = gold_ids = ()
    if not (np.array_equal(offsets, gold.id_offsets) and np.array_equal(blob, gold.id_bytes)):
        pred_ids, gold_ids = copies.unpack_strings(offsets, blob), gold.ids()
    mismatched = np.zeros_like(undecided)
    mismatched[: len(pred_ids)] = [bool(p and g and p != g) for p, g in zip(pred_ids, gold_ids)]
    bad = np.flatnonzero(undecided | mismatched)
    if not bad.size:
        return
    i = int(bad[0])
    if undecided[i]:
        raise _decision_error(path, i, y_pred.shape[1])
    raise DataFormatError(f"record {i}: prediction id {pred_ids[i]!r} != gold id {gold_ids[i]!r}")


def _metrics_report(gold_rows, pred_rows, groups=None):
    counts = confusion(gold_rows, pred_rows)
    micro = micro_prf(counts)
    macro = macro_prf(counts)
    report = {
        "micro_precision": micro[0],
        "micro_recall": micro[1],
        "micro_f1": micro[2],
        "macro_precision": macro[0],
        "macro_recall": macro[1],
        "macro_f1": macro[2],
        "hamming_loss": hamming_loss(gold_rows, pred_rows),
        "num_samples": int(np.asarray(gold_rows).shape[0]),
    }
    if groups is not None:
        report["groups"] = {
            str(g): rec for g, rec in group_report(counts, groups).items()
        }
    return report


def _format_report(report: dict) -> str:
    lines = [
        f"{'metric':<18} {'value':>8}",
        f"{'-' * 18} {'-' * 8}",
    ]
    for key in ("micro_precision", "micro_recall", "micro_f1", "macro_precision", "macro_recall", "macro_f1", "hamming_loss"):
        lines.append(f"{key:<18} {report[key]:>8.4f}")
    if "groups" in report:
        lines.append("")
        lines.append(f"{'group':<8} {'labels':>7} {'micro-F1':>9} {'defined':>8}")
        for g, rec in report["groups"].items():
            lines.append(f"{g:<8} {len(rec['labels']):>7} {rec['f1']:>9.4f} {str(rec['defined']):>8}")
    return "\n".join(lines)


def cmd_eval(args) -> int:
    if args.num_groups < 0:
        raise ConfigError(f"--num-groups must be >= 0, got {args.num_groups}")
    if not Path(args.predictions).exists():
        raise FileNotFoundError(f"predictions file not found: {Path(args.predictions)}")
    start = time.perf_counter()
    gold, num_classes, _ = _load_split(Path(args.gold))
    preds = _read_predictions(args.predictions, num_classes)
    load_s = time.perf_counter() - start
    y_pred = preds["y_pred"]
    if len(y_pred) != len(gold):
        raise DataFormatError(f"predictions ({len(y_pred)}) and gold ({len(gold)}) disagree on sample count")
    _check_predictions(args.predictions, preds, gold)

    groups = None
    if args.num_groups:
        source = Path(args.groups_from) if args.groups_from else Path(args.gold)
        group_start = time.perf_counter()
        group_labels, group_classes = load_labels(_dataset(source))
        load_s += time.perf_counter() - group_start
        if group_classes != num_classes:
            raise DimensionMismatchError(
                f"--groups-from {source} (C={group_classes}) does not match the gold file {args.gold} (C={num_classes})"
            )
        groups = frequency_groups(group_labels, num_groups=args.num_groups)
    report = _metrics_report(gold.labels, y_pred, groups)
    ran = time.perf_counter()
    print(_format_report(report))
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        write_manifest(
            out_path.parent,
            "eval",
            {"predictions": str(args.predictions), "gold": str(args.gold), "num_groups": args.num_groups,
             "groups_from": args.groups_from},
            None,
            {"report": out_path},
            timings={"load_s": load_s, "run_s": ran - start - load_s, "save_s": time.perf_counter() - ran},
            environment=_environment(),
        )
        print(f"wrote metrics to {out_path}")
    return EXIT_OK


def _eval_mode(state, store, samples, infer_cfg, mode=None, **overrides):
    cfg = dataclasses.replace(infer_cfg, **({"mode": mode} if mode else {}), **overrides)
    gold = samples.labels
    pred = np.concatenate(
        [bundle.decisions(cfg.decision_threshold) for _, bundle in _predict_chunks(state, store, samples, cfg)]
    )
    counts = confusion(gold, pred)
    return micro_prf(counts)[2], macro_prf(counts)[2]


def cmd_ablate(args) -> int:
    _, encoder_section, train_cfg, infer_cfg = load_config(args.config)
    # every sweep value is checked before any data is read or model trained
    sweeps = {"k": ("--k-values", args.k_values or []), "gamma": ("--gamma-values", args.gamma_values or [])}
    for field, (flag, values) in sweeps.items():
        for value in values:
            try:
                dataclasses.replace(infer_cfg, **{field: value}).validate()
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{flag} {value}: {exc}") from exc
    for fraction in args.store_fractions or []:
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(f"--store-fractions must lie in (0, 1], got {fraction}")
    if args.seed is not None:
        train_cfg.seed = args.seed
    data_dir = Path(args.data)
    train_samples, valid_samples, num_classes, vocab_size = _load_training_splits(data_dir)
    test_samples = _load_matching_split(data_dir / "test.jsonl", num_classes, vocab_size, data_dir / "train.jsonl")
    encoder_cfg = _encoder_config(encoder_section, input_dim=vocab_size, num_classes=num_classes)

    rows = []

    def add_row(section, name, micro, macro):
        rows.append({"section": section, "name": name, "micro_f1": micro, "macro_f1": macro})

    # one model per contrastive variant, each evaluated end to end
    states = {
        variant: training.train(train_samples, valid_samples, encoder_cfg, dataclasses.replace(train_cfg, variant=variant))[0]
        for variant in CONTRASTIVE_VARIANTS
    }

    base_state = states[train_cfg.variant]
    base_store = ds.build(base_state, train_samples)
    for mode in ("classifier_only", "knn_only", "denn", "fixed_lambda"):
        add_row("mode", mode, *_eval_mode(base_state, base_store, test_samples, infer_cfg, mode=mode))
    for variant in CONTRASTIVE_VARIANTS:
        store = base_store if variant == train_cfg.variant else ds.build(states[variant], train_samples)
        add_row("variant", variant, *_eval_mode(states[variant], store, test_samples, infer_cfg, mode="denn"))
    for field, (_, values) in sweeps.items():
        for value in values:
            scores = _eval_mode(base_state, base_store, test_samples, infer_cfg, mode="denn", **{field: value})
            add_row(f"sweep_{field}", str(value), *scores)
    for fraction in args.store_fractions or []:
        store = ds.build(base_state, train_samples, fraction=fraction)
        add_row("sweep_store_fraction", str(fraction), *_eval_mode(base_state, store, test_samples, infer_cfg, mode="denn"))

    print(f"{'section':<22} {'name':<16} {'micro-F1':>9} {'macro-F1':>9}")
    print(f"{'-' * 22} {'-' * 16} {'-' * 9} {'-' * 9}")
    for row in rows:
        print(f"{row['section']:<22} {row['name']:<16} {row['micro_f1']:>9.4f} {row['macro_f1']:>9.4f}")

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        table_path = out_dir / "ablation.jsonl"
        with open(table_path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        write_manifest(
            out_dir,
            "ablate",
            _config_snapshot(encoder_cfg, train_cfg, infer_cfg),
            train_cfg.seed,
            {"table": table_path},
        )
        print(f"wrote ablation table to {table_path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if not (math.isfinite(args.step) and args.step > 0.0):
        raise ConfigError(f"--step must be finite and > 0, got {args.step}")
    if args.configs < 1:
        raise ConfigError(f"--configs must be >= 1, got {args.configs}")
    if args.dims:
        try:
            dims = [int(x) for x in args.dims.split(",")]
            input_dim, hidden_dim, embed_dim, num_classes, batch = dims
        except ValueError as exc:
            raise ConfigError(f"--dims must be 'input,hidden,embed,classes,batch', got {args.dims!r}") from exc
        if min(dims) < 1:
            raise ConfigError(f"--dims values must all be >= 1, got {args.dims!r}")
        rng = np.random.default_rng(seed)
        config = EncoderConfig(input_dim, hidden_dim, embed_dim, num_classes, dropout_rate=0.1)
        state = init_state(config, seed=seed)
        nnz = max(1, input_dim // 3)
        rows = []
        for _ in range(batch):
            idx = rng.choice(input_dim, size=nnz, replace=False)
            labels = np.zeros(num_classes, dtype=np.int8)
            labels[rng.integers(num_classes)] = 1
            rows.append((idx, rng.uniform(0.5, 2.0, nnz), labels))
        views = duplicated_views(*zip(*rows), input_dim)
        masks = (rng.random((len(views), hidden_dim)) >= 0.1).astype(np.float64) / 0.9
        reports = [gradient_check(state, views, masks, alpha=0.1, tau1=0.05, step=args.step)]
    else:
        reports = run_gradcheck_suite(num_configs=args.configs, seed=seed, step=args.step)
    worst = 0.0
    all_passed = True
    for i, report in enumerate(reports):
        status = "pass" if report.passed else "FAIL"
        print(
            f"config {i:>3}: {status}  max_rel_error={report.max_rel_error:.3e} "
            f"worst={report.worst_param} params={report.num_params}"
        )
        worst = max(worst, report.max_rel_error)
        all_passed = all_passed and report.passed
    print(f"{'PASS' if all_passed else 'FAIL'}: {len(reports)} configurations, max relative error {worst:.3e}")
    return EXIT_OK if all_passed else EXIT_ERROR


# -- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knnmlc",
        description="Multi-label classification with contrastive training and kNN-augmented inference.",
    )
    parser.add_argument("--config", default=None, help="JSON config file (all sections optional)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output directory for train/valid/test.jsonl")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True, help="directory holding train.jsonl (and valid.jsonl)")
    p.add_argument("--out", required=True, help="output directory for model.json and history.jsonl")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("build-store", help="embed the training set into a datastore")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--train-file", required=True)
    p.add_argument("--out", required=True, help="datastore output path")
    p.add_argument("--fraction", type=float, default=1.0, help="leading fraction of the training set")
    p.set_defaults(func=cmd_build_store)

    p = sub.add_parser("predict", help="write per-sample prediction records")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--store", default=None)
    p.add_argument("--test-file", required=True)
    p.add_argument("--mode", default=None, choices=INFERENCE_MODES)
    p.add_argument("--out", required=True, help="predictions output path (.jsonl)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--predictions", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--num-groups", type=int, default=0, help="add a per-frequency-group report")
    p.add_argument("--groups-from", default=None, help="dataset whose frequencies define the groups (default: gold)")
    p.add_argument("--out", default=None, help="also write the report as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="compare inference modes and contrastive variants")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--k-values", type=int, nargs="*", default=None)
    p.add_argument("--gamma-values", type=float, nargs="*", default=None)
    p.add_argument("--store-fractions", type=float, nargs="*", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of the analytic gradients")
    p.add_argument("--configs", type=int, default=20, help="number of random configurations")
    p.add_argument("--dims", default=None, help="fixed dims 'input,hidden,embed,classes,batch'")
    p.add_argument("--step", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except (ConfigError, DataFormatError, CheckpointError, ds.DatastoreFormatError) as exc:
        print(f"error: bad input format: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except DimensionMismatchError as exc:
        print(f"error: dimension mismatch: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (NonFiniteLossError, ds.InvalidKeyError, ds.NonFiniteQueryError) as exc:
        print(f"error: non-finite numbers: {exc}", file=sys.stderr)
        return EXIT_NON_FINITE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
