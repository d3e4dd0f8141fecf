"""The benchmark's workloads: one knnmlc config each, derived from the shipped
``configs/default.json``, plus how many single queries each run sends.

The dataset seed is not part of a workload: the benchmark passes its
``--seed`` to ``gen-data``, so the same seed gives the same inputs.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

# A run is at least MIN_ROUNDS rounds of the pipeline, so that each stage's
# median has six samples spread over the run. Every round sends three blocks
# of single library queries, at least 2000 queries per run in all.
MIN_ROUNDS = 6
QUERIES_PER_BLOCK = -(-2000 // (MIN_ROUNDS * 3))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict

    @property
    def train_samples_per_run(self) -> int:
        """Samples one ``train`` call consumes: iterations x batch size."""
        train = self.config["train"]
        return train["max_iters"] * min(train["batch_size"], self.config["dataset"]["train_size"])


def _with(base: dict, **sections) -> dict:
    cfg = copy.deepcopy(base)
    for section, overrides in sections.items():
        cfg[section].update(overrides)
    return cfg


def load_workloads(root: Path) -> dict[str, Workload]:
    with open(root / "configs" / "default.json", "r", encoding="utf-8") as fh:
        default = json.load(fh)
    workloads = [
        Workload(
            name="default",
            why="the shipped config: per-call Python overhead in training dominates, so batching the training step shows here",
            config=default,
        ),
        Workload(
            name="large",
            why="a 20k x 32 store: exact top-k retrieval dominates, so retrieval changes show and training changes barely do",
            config=_with(
                default,
                dataset={
                    "num_classes": 48,
                    "num_clusters": 16,
                    "vocab_size": 2000,
                    "train_size": 20000,
                    "valid_size": 500,
                    "test_size": 300,
                },
                encoder={"hidden_dim": 64, "embed_dim": 32},
                train={"max_iters": 100},
            ),
        ),
        Workload(
            name="wide-batch",
            why="wscl at batch 128: the pairwise contrastive loss takes a large share of each step, so losses changes show",
            # 75 x 128 samples: as many as the default's 300 x 32
            config=_with(default, train={"variant": "wscl", "batch_size": 128, "max_iters": 75}),
        ),
    ]
    return {w.name: w for w in workloads}
