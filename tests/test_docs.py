"""docs/formats.md against the code it documents."""
import dataclasses
import json
import re
from pathlib import Path

import pytest

from knnmlc.cli import _encoder_config, load_config
from knnmlc.data import DatasetConfig
from knnmlc.encoder import EncoderConfig
from knnmlc.inference import InferenceConfig
from knnmlc.training import TrainConfig

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"
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
