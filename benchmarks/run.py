#!/usr/bin/env python3
"""Benchmark for knnmlc: the README quickstart pipeline, end to end and per layer.

    python3 benchmarks/run.py --workload default --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

One workload per process. A run generates the workload's data (``gen-data``,
three times: the set-up), then repeats rounds of ``train`` -> ``build-store``
-> ``predict`` -> ``eval`` through ``knnmlc.cli.main`` in-process, with
blocks of single library queries (``knnmlc.predict``) between the stages and
a sample of the host reference kernels after every step, until ``--seconds``
have passed and at least the workload's minimum number of rounds ran. Every
output is checked against the benchmark's own computations (``oracle.py``).
The last line of standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``. ``--workload all`` runs
every workload, untraced and traced, each in its own process. See
benchmarks/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os

# The process runs pinned to one CPU (host.pin_to_one_cpu) with one BLAS
# thread, so that the host speed sampled next to the program is the speed the
# program ran at. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import host  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import MIN_ROUNDS, QUERIES_PER_BLOCK, load_workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".bench_work"
RESULTS_DIR = ".bench_results"

SETUP_REPEATS = 3
TOPK_CHECKS_PER_ROUND = 50
STORE_ENTRY_CHECKS = 200
MAX_ERRORS_KEPT = 50
# between single queries the main thread samples the host this often
QUERY_SAMPLE_EVERY_S = 0.01

END_TO_END = [
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("train_samples_per_s", "samples/s"),
    ("build_entries_per_s", "entries/s"),
    ("predict_qps", "queries/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("micro_f1", "ratio"),
    ("macro_f1", "ratio"),
    ("peak_rss_mb", "MB"),
]
# Every time above is reported at reference speed: scaled by the host speed
# sampled while it was measured (host.py; README.md says why). The run
# record keeps the raw figures too.

PER_LAYER = [
    ("data.self_s", "s"),
    ("data.calls", "count"),
    ("data.load_jsonl.self_s", "s"),
    ("encoder.self_s", "s"),
    ("encoder.calls", "count"),
    ("encoder.forward.calls", "count"),
    ("encoder.forward.self_s", "s"),
    ("encoder.backward.calls", "count"),
    ("encoder.backward.self_s", "s"),
    ("losses.self_s", "s"),
    ("losses.calls", "count"),
    ("losses.contrastive_loss.self_s", "s"),
    ("losses.contrastive_loss_from_similarities.self_s", "s"),
    ("losses.bce_loss.self_s", "s"),
    ("mathops.self_s", "s"),
    ("mathops.calls", "count"),
    ("training.self_s", "s"),
    ("training.calls", "count"),
    ("training.adam_step.self_s", "s"),
    ("training.classifier_micro_f1.self_s", "s"),
    ("datastore.self_s", "s"),
    ("datastore.calls", "count"),
    ("datastore.retrieve_topk.self_s", "s"),
    ("datastore.retrieve_topk.calls", "count"),
    ("inference.self_s", "s"),
    ("inference.calls", "count"),
    ("inference.knn_predict.self_s", "s"),
    ("metrics.self_s", "s"),
    ("metrics.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.cmd_predict.self_s", "s"),
    ("host.ref_interp_ms", "ms"),
    ("host.ref_stream_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_s", "s"),
]


class StageFailed(RuntimeError):
    """A CLI stage exited non-zero; later stages have no input."""


class Ops:
    """Operations attempted and failed: CLI stages, single queries, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            room = MAX_ERRORS_KEPT - len(self.errors)
            self.errors.extend(list(errors)[: max(room, 0)])
        return not errors


def import_program(root: Path):
    """Import knnmlc from the checkout's ``src``, never from site-packages."""
    src = root / "src"
    if not (src / "knnmlc" / "__init__.py").is_file() or not (root / "configs" / "default.json").is_file():
        raise SystemExit(f"error: {root} is not a knnmlc checkout (needs src/knnmlc and configs/default.json)")
    sys.path.insert(0, str(src))
    import knnmlc
    import knnmlc.cli

    if Path(knnmlc.__file__).resolve().parent != (src / "knnmlc").resolve():
        raise SystemExit(f"error: imported knnmlc from {knnmlc.__file__}, not from {src}")
    # cli.main configures logging only when no handler exists; keep the
    # program's INFO lines out of the benchmark's output
    logging.getLogger().addHandler(logging.NullHandler())
    return knnmlc


class Run:
    """One workload, one seed: set-up, timed rounds, checks, metrics."""

    def __init__(self, knnmlc, workload, seed: int, seconds: float, trace: bool, pinned_cpu: int):
        self.k = knnmlc
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.pinned_cpu = pinned_cpu
        self.work = ROOT / WORK_DIR / f"{workload.name}-s{seed}-p{os.getpid()}"
        self.cfg_path = self.work / "config.json"
        self.data = self.work / "data0"
        self.ref = host.HostReference(seed)
        self.ops = Ops()
        self.tracer = Tracer(knnmlc) if trace else None
        # perf_counter (start, end) of every timed stage, by stage name
        self.timed: dict[str, list] = defaultdict(list)
        # perf_counter (start, end) of every single query
        self.queries: list = []
        self.rounds: list[dict] = []
        self.setup_trace = None
        self._pending_queries: list = []

    # -- stages ------------------------------------------------------------

    def _cli(self, name: str, argv) -> float:
        """Run one CLI command in-process, output suppressed; the host
        reference kernels are sampled right after it."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            self.ref.start()
            start = time.perf_counter()
            try:
                rc = self.k.cli.main([str(a) for a in argv])
            finally:
                end = time.perf_counter()
                self.ref.stop()
        self.ref.sample()
        if not self.ops.record([] if rc == 0 else [f"{name}: exit code {rc}: {sink.getvalue()[-400:]}"]):
            raise StageFailed(f"{name} exited with code {rc}:\n{sink.getvalue()[-2000:]}")
        self.timed[name].append((start, end))
        return end - start

    def _gen_data(self, out: Path, name: str = "setup") -> float:
        return self._cli(name, ["--config", self.cfg_path, "--seed", self.seed, "gen-data", "--out", out])

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            json.dump(self.wl.config, fh, indent=2)
        self.ref.sample()
        if self.trace:
            # one untraced and one traced set-up, for the overhead
            self._gen_data(self.data, "setup_untraced")
            self.tracer.reset()
            self.tracer.install()
            try:
                self._gen_data(self.work / "data1")
            finally:
                self.tracer.uninstall()
            self.setup_trace = self.tracer.summary()
            copies = [self.work / "data1"]
        else:
            for i in range(SETUP_REPEATS):
                self._gen_data(self.work / f"data{i}")
            copies = [self.work / f"data{i}" for i in range(1, SETUP_REPEATS)]
        for copy in copies:
            for split in ("train", "valid", "test"):
                same = (copy / f"{split}.jsonl").read_bytes() == (self.data / f"{split}.jsonl").read_bytes()
                self.ops.record([] if same else [f"gen-data is not deterministic: {copy.name}/{split}.jsonl differs"])
            shutil.rmtree(copy)
        self._load_check_inputs()

    def _load_check_inputs(self) -> None:
        """Inputs of the oracle and of the library queries, read once."""
        cfg = self.wl.config
        num_classes, vocab, self.test_records = oracle.read_dataset(self.data / "test.jsonl")
        self.test_x = oracle.dense_features(self.test_records, vocab)
        self.test_gold = oracle.label_matrix(self.test_records, num_classes)
        rng = np.random.default_rng(self.seed)
        n_train = cfg["dataset"]["train_size"]
        self.store_idx = np.sort(rng.choice(n_train, size=min(STORE_ENTRY_CHECKS, n_train), replace=False))
        train_recs = oracle.read_dataset_lines(self.data / "train.jsonl", self.store_idx)
        self.store_x = oracle.dense_features(train_recs, vocab)
        self.store_gold = oracle.label_matrix(train_recs, num_classes)
        self.query_order = rng.permutation(len(self.test_records))
        self.query_cursor = 0
        self.lib_samples = self.k.load_jsonl(self.data / "test.jsonl")[0]
        self.infer_cfg = self.k.InferenceConfig(**{**cfg["inference"], "mode": "denn"})

    # -- rounds ------------------------------------------------------------

    def _round_dir(self, index: int) -> Path:
        return self.work / ("round0" if index == 0 else "round")

    def run_round(self, index: int, traced: bool) -> None:
        out = self._round_dir(index)
        if index:
            shutil.rmtree(out, ignore_errors=True)
        cfg, data = self.cfg_path, self.data
        model, store, preds, report = out / "model" / "model.json", out / "store.bin", out / "preds.jsonl", out / "report.json"
        if traced:
            self.tracer.reset()
            self.tracer.install()
        start = time.perf_counter()
        try:
            self._cli("train", ["--config", cfg, "train", "--data", data, "--out", out / "model"])
            self._cli("build", ["--config", cfg, "build-store", "--checkpoint", model,
                                "--train-file", data / "train.jsonl", "--out", store])
            if index == 0:
                self.lib_state = self.k.load_checkpoint(model)
                self.lib_store = self.k.datastore.load(store)
            self._query_block()
            self._cli("predict", ["--config", cfg, "predict", "--checkpoint", model, "--store", store,
                                  "--test-file", data / "test.jsonl", "--mode", "denn", "--out", preds])
            self._query_block()
            self._cli("eval", ["eval", "--predictions", preds, "--gold", data / "test.jsonl", "--num-groups", 4,
                               "--groups-from", data / "train.jsonl", "--out", report])
            self._query_block()
            self._check_round(index, model, store, preds, report)
        finally:
            end = time.perf_counter()
            if traced:
                self.tracer.uninstall()
        record = {"index": index, "traced": traced, "start": start, "end": end}
        if traced:
            record["trace"] = self.tracer.summary()
        self.rounds.append(record)

    def _query_block(self) -> None:
        """Closed loop, one caller: each query is sent when the previous one
        returned. The host is sampled between queries, never during one."""
        last_sample = time.perf_counter()
        for _ in range(QUERIES_PER_BLOCK):
            i = int(self.query_order[self.query_cursor % len(self.query_order)])
            self.query_cursor += 1
            sample = self.lib_samples[i]
            try:
                t0 = time.perf_counter()
                bundle = self.k.predict(self.lib_state, self.lib_store, sample, self.infer_cfg)
                t1 = time.perf_counter()
            except Exception as exc:  # a failed query is counted, the run goes on
                self.ops.record([f"library predict on {sample.sample_id}: {type(exc).__name__}: {exc}"])
                continue
            self.queries.append((t0, t1))
            self._pending_queries.append((i, _bundle_fields(bundle)))
            if t1 - last_sample >= QUERY_SAMPLE_EVERY_S:
                self.ref.sample_interp()
                last_sample = time.perf_counter()
        self.ref.sample()

    # -- checks ------------------------------------------------------------

    def _check_round(self, index: int, model: Path, store: Path, preds: Path, report_path: Path) -> None:
        inf = self.wl.config["inference"]
        records = oracle.read_predictions(preds)
        self.ops.record([] if len(records) == len(self.test_records) else [f"{len(records)} prediction records"])
        if index == 0:
            self.records0 = {r["id"]: r for r in records}
        params = oracle.read_checkpoint(model)
        keys, labels = oracle.read_store(store)
        emb, y_clf = oracle.forward(params, self.test_x)
        for row, rec in enumerate(records):
            want_id = self.test_records[row]["id"]
            self.ops.record([] if rec["id"] == want_id else [f"record {row} has id {rec['id']}, expected {want_id}"])
            self.ops.record(oracle.check_forward(rec, emb[row], y_clf[row], keys))
            self.ops.record(oracle.check_denn(rec, labels, inf["tau2"], inf["gamma"], inf["decision_threshold"]))
        rng = np.random.default_rng([self.seed, index])
        for row in rng.choice(len(records), size=min(TOPK_CHECKS_PER_ROUND, len(records)), replace=False):
            self.ops.record(oracle.check_topk(records[row], emb[row], keys, inf["k"]))
        store_emb, _ = oracle.forward(params, self.store_x)
        for j, entry in enumerate(self.store_idx):
            self.ops.record(oracle.check_store_entry(keys[entry], labels[entry], store_emb[j], self.store_gold[j], int(entry)))
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        self.ops.record(oracle.check_f1(self.test_gold, records, report))
        if index == 0:
            self.report0 = report
        else:
            base = self._round_dir(0)
            for path in (model, store, preds, report_path):
                same = path.read_bytes() == (base / path.relative_to(self._round_dir(index))).read_bytes()
                self.ops.record([] if same else [f"round {index}: {path.name} differs from round 0 (same seed)"])
        # library queries of this round against the CLI records, bit for bit
        for i, fields in self._pending_queries:
            self.ops.record(_agreement(fields, self.records0[self.test_records[i]["id"]]))
        self._pending_queries.clear()

    # -- driving -----------------------------------------------------------

    def measure(self) -> None:
        self.setup()
        start = time.perf_counter()
        index = 0
        min_rounds = 2 if self.trace else MIN_ROUNDS
        while index < min_rounds or time.perf_counter() - start < self.seconds:
            if self.trace:
                # pairs of (untraced, traced) rounds
                self.run_round(index, traced=False)
                self.run_round(index + 1, traced=True)
                index += 2
            else:
                self.run_round(index, traced=False)
                index += 1

    def cleanup(self) -> None:
        self.ref.close()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- metrics -------------------------------------------------------------

    def _values(self, how: str) -> dict:
        """End-to-end values, times either as measured (``raw``) or scaled to
        reference speed (``reference``): x nominal / the interp kernel time
        sampled during the interval."""

        def scaled(start, end):
            if how == "raw":
                return end - start
            return (end - start) * host.NOMINAL_INTERP_MS / self.ref.interp_near(start, end)

        def times(stage):
            return [scaled(start, end) for start, end in self.timed[stage]]

        wl = self.wl
        latencies_ms = [scaled(start, end) * 1e3 for start, end in self.queries]
        return {
            "setup_s": statistics.median(times("setup")),
            "pipeline_s": statistics.median(map(sum, zip(*(times(s) for s in ("train", "build", "predict", "eval"))))),
            "train_samples_per_s": statistics.median(wl.train_samples_per_run / t for t in times("train")),
            "build_entries_per_s": statistics.median(wl.config["dataset"]["train_size"] / t for t in times("build")),
            "predict_qps": statistics.median(len(self.test_records) / t for t in times("predict")),
            "query_p50_ms": float(np.percentile(latencies_ms, 50)),
            "query_p99_ms": float(np.percentile(latencies_ms, 99)),
        }

    def end_to_end(self) -> dict:
        self.estimates = {how: self._values(how) for how in ("raw", "reference")}
        values = dict(self.estimates["reference"])
        values.update(
            micro_f1=self.report0["micro_f1"],
            macro_f1=self.report0["macro_f1"],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    def per_layer(self) -> dict:
        """Layer self times and counts of the traced set-up plus one traced
        round. Times are at reference speed, each traced part scaled by one
        factor, so that the layers' self times and the untraced remainder
        still add up to the part's wall time."""

        def factor(start, end):
            return host.NOMINAL_INTERP_MS / self.ref.interp_near(start, end)

        def wall(start, end):
            return (end - start) * factor(start, end)

        traced = [r for r in self.rounds if r["traced"]]
        untraced = {r["index"]: r for r in self.rounds if not r["traced"]}
        # the traced round of median wall time stands for all of them
        chosen = sorted(traced, key=lambda r: wall(r["start"], r["end"]))[(len(traced) - 1) // 2]
        setup_span, setup_plain = self.timed["setup"][0], self.timed["setup_untraced"][0]
        parts = [(self.setup_trace, factor(*setup_span)), (chosen["trace"], factor(chosen["start"], chosen["end"]))]
        total_wall = wall(*setup_span) + wall(chosen["start"], chosen["end"])
        values = {
            "host.ref_interp_ms": statistics.median(self.ref.interp_ms),
            "host.ref_stream_ms": statistics.median(self.ref.stream_ms),
            "trace.overhead_s": wall(*setup_span) - wall(*setup_plain) + statistics.median(
                wall(r["start"], r["end"]) - wall(untraced[r["index"] - 1]["start"], untraced[r["index"] - 1]["end"])
                for r in traced
            ),
            "trace.wall_s": total_wall,
            "trace.untraced_s": total_wall - sum(summary["outermost_s"] * f for summary, f in parts),
        }
        metrics = {}
        for name, unit in PER_LAYER:
            if name not in values:
                key, kind = name.rsplit(".", 1)
                if kind == "calls":
                    values[name] = sum(summary["calls"].get(key, 0) for summary, _ in parts)
                else:
                    values[name] = sum(summary["self_s"].get(key, 0.0) * f for summary, f in parts)
            metrics[name] = {"value": values[name], "unit": unit}
        return metrics

    def record(self, metrics: dict) -> dict:
        return {
            "workload": self.wl.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "machine": host.machine_facts(),
            "attempted": self.ops.attempted,
            "failed": self.ops.failed,
            "errors": self.ops.errors,
            "metrics": metrics,
            "nominal_interp_ms": host.NOMINAL_INTERP_MS,
            "estimates": getattr(self, "estimates", None),
            "pinned_cpu": self.pinned_cpu,
            "host": {"interp_ms": self.ref.interp_ms, "stream_ms": self.ref.stream_ms},
            "timed": dict(self.timed),
            "queries": self.queries,
            "query_count": len(self.queries),
            "rounds": [{k: v for k, v in r.items() if k != "trace"} for r in self.rounds],
            "layers": self.setup_trace and {"setup": self.setup_trace, "rounds": [r.get("trace") for r in self.rounds]},
        }


def _bundle_fields(bundle) -> dict:
    # y_clf, y_knn, lam and y_final are the documented library result; the
    # neighbor list is compared while it is a list of (index, similarity)
    # objects, and y_knn covers the neighbors bit for bit either way
    neighbors = getattr(bundle, "neighbors", None)
    try:
        pairs = [(int(n.index), float(n.similarity)) for n in neighbors]
    except (TypeError, AttributeError):
        pairs = None
    return {
        "y_clf": np.asarray(bundle.y_clf).tolist(),
        "y_knn": np.asarray(bundle.y_knn).tolist(),
        "lambda": float(bundle.lam),
        "y_final": np.asarray(bundle.y_final).tolist(),
        "neighbors": pairs,
    }


def _agreement(fields: dict, record: dict) -> list[str]:
    """The library call and the CLI record agree bit for bit."""
    errors = [f"{record['id']}: library {key} != CLI {key}" for key in ("y_clf", "y_knn", "lambda", "y_final") if fields[key] != record[key]]
    if fields["neighbors"] is not None:
        cli_pairs = [(n["index"], n["similarity"]) for n in record["neighbors"]]
        if fields["neighbors"] != cli_pairs:
            errors.append(f"{record['id']}: library neighbors != CLI neighbors")
    return errors


def _print_metrics(metrics: dict) -> None:
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:>14.6g}  {m['unit']}")


def run_one(args) -> int:
    knnmlc = import_program(ROOT)
    workloads = load_workloads(ROOT)
    if args.workload not in workloads:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)} or 'all'")
    run = Run(knnmlc, workloads[args.workload], args.seed, args.seconds, bool(args.trace), host.pin_to_one_cpu())
    try:
        run.measure()
        metrics = run.per_layer() if args.trace else run.end_to_end()
    except StageFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.cleanup()
    record = run.record(metrics)
    results = ROOT / RESULTS_DIR
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(run.rounds)} rounds, "
          f"{record['query_count']} single queries, {run.ops.attempted} operations, {run.ops.failed} failed")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in record["machine"].items()))
    for err in run.ops.errors[:10]:
        print(f"FAILED: {err}")
    _print_metrics(metrics)
    if args.trace:
        wall, rest = metrics["trace.wall_s"]["value"], metrics["trace.untraced_s"]["value"]
        layers = sorted({name.split(".", 1)[0] for summary in (run.setup_trace, run.rounds[-1]["trace"]) for name in summary["self_s"]})
        print(f"traced set-up + round: layer self times ({', '.join(layers)}) {wall - rest:.4f} s"
              f" + untraced remainder {rest:.4f} s = wall {wall:.4f} s at reference speed;"
              f" tracing overhead {metrics['trace.overhead_s']['value']:.4f} s")
    print(json.dumps({"correct": run.ops.failed == 0, "attempted": run.ops.attempted, "failed": run.ops.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    combined, attempted, failed, correct = {}, 0, 0, True
    for name in load_workloads(ROOT):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"error: {name} (trace {trace}) exited with code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["correct"]
            combined.update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="default, large, wide-batch or all")
    parser.add_argument("--seed", type=int, default=1, help="dataset seed passed to gen-data")
    parser.add_argument("--seconds", type=float, default=15.0, help="minimum measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
