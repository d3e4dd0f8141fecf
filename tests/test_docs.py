"""docs/formats.md against the code it documents."""
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from knnmlc import cli, data, datastore, encoder, training
from knnmlc.cli import _encoder_config, load_config
from knnmlc.data import DatasetConfig
from knnmlc.encoder import EncoderConfig
from knnmlc.inference import InferenceConfig
from knnmlc.training import TrainConfig

REPO = Path(__file__).resolve().parent.parent
FORMATS = REPO / "docs" / "formats.md"
SECTIONS = {"dataset": DatasetConfig, "encoder": EncoderConfig, "train": TrainConfig, "inference": InferenceConfig}
# the encoder's input_dim and num_classes come from the dataset header
FROM_DATA = {"input_dim", "num_classes"}
KIND_NAMES = {"int": "integer", "float": "number", "str": "string"}


def settable_fields(section):
    return [f for f in dataclasses.fields(SECTIONS[section]) if not (section == "encoder" and f.name in FROM_DATA)]


def documented_keys(section):
    """{key: (kind, default)} from the section's table in docs/formats.md."""
    text = FORMATS.read_text(encoding="utf-8")
    body = text.split(f"### `{section}`\n", 1)[1].split("\n### ", 1)[0].split("\n## ", 1)[0]
    rows = {}
    for line in body.splitlines():
        match = re.fullmatch(r"\| `(\w+)` +\| (\w+) +\| (\S+) +\|.*\|", line)
        if match:
            key, kind, default = match.groups()
            assert key not in rows, f"{section}.{key} listed twice"
            rows[key] = (kind, json.loads(default.strip("`")))
    return rows


def empty_config_values(section):
    """The config object an empty section gives."""
    dataset_cfg, encoder_section, train_cfg, infer_cfg = load_config(None)
    if section == "encoder":
        return _encoder_config(encoder_section, 1, 1)
    return {"dataset": dataset_cfg, "train": train_cfg, "inference": infer_cfg}[section]


@pytest.mark.parametrize("section", SECTIONS)
def test_key_tables_list_each_settable_field_with_its_kind_and_default(section):
    defaults = empty_config_values(section)
    want = {f.name: (KIND_NAMES[f.type], getattr(defaults, f.name)) for f in settable_fields(section)}
    got = documented_keys(section)
    assert got == want
    # 0 == 0.0, so the default's type is compared too
    for key, (_, default) in got.items():
        assert type(default) is type(want[key][1]), key


def test_the_documented_count_of_settable_values():
    count = sum(len(settable_fields(section)) for section in SECTIONS)
    assert count == 30
    assert f"A config holds {count} settable" in " ".join(FORMATS.read_text(encoding="utf-8").split())


def test_the_readme_library_snippet_runs_as_written(capsys):
    text = (REPO / "README.md").read_text(encoding="utf-8")
    snippet = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert capsys.readouterr().out
    # predict on test[0] is row 0 of predict_batch, bit for bit
    bundle, row = namespace["bundle"], namespace["batch"].row(0)
    for field in ("y_clf", "y_knn", "y_final", "neighbor_indices", "neighbor_sims"):
        assert getattr(bundle, field).tobytes() == getattr(row, field).tobytes(), field
    assert bundle.lam == row.lam


# each packed-copy kind: its docs/formats.md heading, version and member table
COPY_KINDS = {
    "### Dataset splits (`<split>.jsonl.packed`)": (data._READER_VERSION, data._COPY_MEMBERS),
    "### Checkpoints (`model.json.packed`)": (encoder._COPY_VERSION, encoder._COPY_MEMBERS),
    "### Predictions (`preds.jsonl.packed`)": (cli._PREDICTIONS_COPY_VERSION, cli._PREDICTIONS_COPY_MEMBERS),
}


def documented_members(heading):
    """{array: (dtype, ndim, holds)} from the member table under ``heading``."""
    text = FORMATS.read_text(encoding="utf-8")
    body = text.split(f"\n{heading}\n", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in body.splitlines():
        match = re.fullmatch(r"\| `(\w+)` +\| (\w+) +\| (\(.*?\)) +\| (.*)\|", line)
        if match:
            name, dtype, shape, holds = match.groups()
            assert name not in rows, f"{heading}: {name} listed twice"
            rows[name] = (dtype, len([d for d in shape.strip("()").split(",") if d.strip()]), holds)
    return rows


@pytest.mark.parametrize("heading", COPY_KINDS)
def test_each_copy_member_table_is_the_code_dtype_table(heading):
    version, members = COPY_KINDS[heading]
    documented = documented_members(heading)
    want = {"version": ("int64", 0), "digest": ("uint8", 1)}
    want.update({name: (np.dtype(dtype).name, ndim) for name, (dtype, ndim) in members.items()})
    assert {name: row[:2] for name, row in documented.items()} == want
    assert list(documented) == list(want)
    assert f"(currently {version})" in documented["version"][2]


def test_the_trainer_checkpoint_member_table_is_the_code_dtype_table():
    heading = "## Trainer checkpoints (`Trainer.save_checkpoint`, binary)"
    documented = documented_members(heading)
    want = {name: (np.dtype(dtype).name, ndim) for name, (dtype, ndim) in training._TRAINER_MEMBERS.items()}
    assert {name: row[:2] for name, row in documented.items()} == want
    assert list(documented) == list(want)
    text = FORMATS.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    assert f"| `version`        | `{training._TRAINER_VERSION}` (rejected if different)" in text


def test_the_trainer_checkpoint_header_table_lists_each_saved_key(tmp_path):
    text = FORMATS.read_text(encoding="utf-8")
    body = text.split("\nThe header is one JSON object:\n\n", 1)[1].split("\n\n", 1)[0]
    documented = [re.match(r"\| `(\w+)` ", line).group(1) for line in body.splitlines()[2:]]
    train_s, valid_s, _ = data.generate_synthetic(DatasetConfig(num_classes=4, num_clusters=2, train_size=20,
                                                                valid_size=5, test_size=5, vocab_size=10))
    trainer = training.Trainer(train_s, valid_s, encoder.init_state(EncoderConfig(10, 4, 3, 4)), TrainConfig(max_iters=1))
    trainer.run()
    trainer.save_checkpoint(tmp_path / "trainer.npz")
    with np.load(tmp_path / "trainer.npz", allow_pickle=False) as npz:
        assert documented == list(json.loads(npz["header"].tobytes()))


def size_words(nbytes: int) -> str:
    """A range size as the README writes it: whole MB, else whole KB."""
    return f"{nbytes >> 20} MB" if nbytes % (1 << 20) == 0 else f"{nbytes >> 10} KB"


def test_the_documented_range_sizes_and_unit_share_are_the_code_constants():
    # a retune of a range size or of the scaling share cannot leave README's
    # design notes or docs/formats.md stale
    text = " ".join((REPO / "README.md").read_text(encoding="utf-8").split())
    assert f"row ranges whose block stays near {size_words(encoder._GATHER_BLOCK_BYTES)}" in text
    assert f"ranges whose trace stays near {size_words(datastore._BUILD_TRACE_BYTES)}" in text
    assert f"fewer than 1 in {encoder._SCALE_ALL_SHARE} of its feature values" in text
    assert f"row ranges of about {size_words(datastore._NORM_RANGE_BYTES)} of squares" in text
    formats = " ".join(FORMATS.read_text(encoding="utf-8").split())
    assert f"fewer than 1 in {encoder._SCALE_ALL_SHARE} of the batch's feature values" in formats


def test_the_documented_retrieval_constants_are_the_code_constants():
    # a retune of the group bound, its fallback or a block size cannot leave
    # README's retrieval note stale
    text = " ".join((REPO / "README.md").read_text(encoding="utf-8").split())
    groups = datastore._GROUPS_PER_NEIGHBOR
    assert f"maximum over {groups} strided groups per neighbor (key i in group i mod {groups}k)" in text
    assert f"more than {groups}k keys" in text
    assert f"Blocks of fewer than {datastore._BOUND_MIN_ENTRIES} similarities" in text
    assert f"more than {datastore._FALLBACK_MULTIPLE} candidates per neighbor" in text
    assert f"{datastore._CANDIDATE_BYTES} bytes per candidate" in text
    assert f"chunks of about {size_words(datastore._RESCORE_BYTES)} of float64 operands" in text
    assert f"column blocks of {datastore._COLUMN_BLOCK} keys" in text
    formats = " ".join(FORMATS.read_text(encoding="utf-8").split())
    assert f"in column blocks of {datastore._COLUMN_BLOCK} keys, each key divided by its norm" in formats
