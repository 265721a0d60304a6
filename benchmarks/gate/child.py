"""Fresh-process steps of the repository benchmark (see ``run.py``).

Each subcommand runs in its own interpreter, started by ``run.py`` with
``PYTHONPATH`` pointing at the checkout's ``src`` and the BLAS thread
count pinned.  It reads a JSON spec, calls only public ``repro``
functions, and writes one JSON result file:

``prep``         generate the seeded inputs of a fit workload (CSV files,
                 held-out probe rows) and record the run environment;
``fit``          the timed unit of ``fit-*``: import ``repro``,
                 ``read_csv``, build the imputer (set-up ends here),
                 ``GrimpImputer.impute``, ``write_csv`` and the output
                 checks; then, optionally, single-row requests for
                 held-out rows through an in-process ``Dispatcher`` and
                 ``save_checkpoint``;
``layers``       per-layer timings of the traced run, on the workload's
                 first input, each a call into one layer's public function;
``serve-prep``   the training CSV and the request pool of ``serve-open``;
``serve-check``  parity of the served responses against an in-process
                 ``InferenceEngine``, their scores, and (traced run) the
                 engine and dispatcher layer timings.

Usage: ``python child.py <subcommand> SPEC.json OUT.json``
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from procfs import peak_rss_mb
from repro.core import GrimpImputer
from repro.data import MISSING, read_csv, write_csv


def table_seed(seed: int, index: int) -> int:
    """Seed of input ``index`` of a run seeded ``seed``."""
    return seed * 1000 + index


# ----------------------------------------------------------------------
# prep
# ----------------------------------------------------------------------
def run_environment() -> dict:
    import os
    import platform

    import scipy

    from repro.parallel import schedulable_cores

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "schedulable_cores": schedulable_cores(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def write_input(table, fraction: float, seed: int, folder: Path) -> None:
    """Mask ``fraction`` of the cells (MCAR) and write the CSV inputs."""
    from repro.corruption import inject_mcar

    folder.mkdir(parents=True, exist_ok=True)
    corruption = inject_mcar(table, fraction, np.random.default_rng(seed))
    write_csv(corruption.dirty, folder / "dirty.csv")
    write_csv(corruption.clean, folder / "clean.csv")
    (folder / "cells.json").write_text(json.dumps(
        [[row, column] for row, column in corruption.injected]))


def probe_records(table, fraction: float, seed: int) -> list[dict]:
    """Held-out rows with MCAR-masked cells, as JSON request records."""
    from repro.corruption import inject_mcar
    from repro.serve import table_to_records

    corruption = inject_mcar(table, fraction, np.random.default_rng(seed))
    return table_to_records(corruption.dirty)


def cmd_prep(spec: dict) -> dict:
    from repro.datasets import load

    work = Path(spec["work"])
    rows, probes = spec["rows"], spec["probe_rows"]
    for index in range(spec["n_inputs"]):
        seed = table_seed(spec["seed"], index)
        table = load(spec["dataset"], n_rows=rows + probes, seed=seed)
        write_input(table.select_rows(np.arange(rows)), spec["fraction"],
                    seed, work / f"in{index}")
        records = probe_records(
            table.select_rows(np.arange(rows, rows + probes)),
            spec["fraction"], seed + 1)
        (work / f"in{index}" / "probe.json").write_text(json.dumps(records))
    return {"environment": run_environment()}


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------
def load_corruption(folder: Path, dirty):
    from repro.corruption import Corruption

    clean = read_csv(folder / "clean.csv")
    cells = [(row, column) for row, column in
             json.loads((folder / "cells.json").read_text())]
    return Corruption(dirty=dirty, clean=clean, injected=cells)


def check_output(dirty, imputed, path: Path) -> list[str]:
    """Every missing cell filled, no observed cell changed, CSV round-trip."""
    problems = []
    back = read_csv(path, kinds=dict(imputed.kinds))
    if back.to_rows() != imputed.to_rows():
        problems.append("output CSV does not round-trip through read_csv")
    unfilled = back.missing_cells()
    if unfilled:
        problems.append(f"{len(unfilled)} cells left unfilled")
    changed = 0
    for column in dirty.column_names:
        for before, after in zip(dirty.column(column), back.column(column)):
            if before is not MISSING and before != after:
                changed += 1
    if changed:
        problems.append(f"{changed} observed cells changed")
    return problems


def score(corruption, imputed) -> dict:
    """Accuracy and the mean-imputation-relative RMSE of one output.

    ``rmse_ratio`` is each numerical column's RMSE over the masked cells
    divided by the RMSE of column-mean imputation on the same cells,
    averaged over columns.  The raw RMSE is dominated by heavy-tailed
    columns and moves with the generated table far more than with the
    model, so only the ratio is gated; the raw value is still recorded.
    """
    from repro.baselines import ModeMeanImputer
    from repro.metrics import evaluate_imputation

    result = evaluate_imputation(corruption, imputed)
    reference = evaluate_imputation(
        corruption, ModeMeanImputer().impute(corruption.dirty))
    ratios = [result.per_column_rmse[column] /
              reference.per_column_rmse[column]
              for column in sorted(result.per_column_rmse)
              if reference.per_column_rmse.get(column)]
    return {"accuracy": result.accuracy, "n_categorical":
            result.n_categorical, "rmse": result.rmse,
            "rmse_ratio": float(np.mean(ratios)),
            "fill_rate": result.fill_rate}


def serve_leg(imputer, records: list[dict], warmup: int,
              requests: int) -> list[float]:
    """Seconds per single-row request, sent one at a time through
    ``Dispatcher.submit`` (one worker): the serving tier of ``repro
    serve --serve-workers 1`` without its HTTP front."""
    from repro.serve import Dispatcher, InferenceEngine

    latencies = []
    dispatcher = Dispatcher(InferenceEngine(imputer), workers=1)
    try:
        if not dispatcher.wait_ready(60.0):
            raise RuntimeError("dispatcher worker did not become ready")
        for position in range(warmup + requests):
            record = records[position % len(records)]
            started = time.perf_counter()
            filled = dispatcher.submit([record])
            if position >= warmup:
                latencies.append(time.perf_counter() - started)
            if any(value is None for value in filled[0].values()):
                raise RuntimeError("dispatcher left a cell unfilled")
    finally:
        dispatcher.stop()
    return latencies


def timings_summary(timings: dict) -> dict:
    """The coarse ``timings_`` spans and fit meta the benchmark reports."""
    return {"phases": {path: entry for path, entry in timings.items()
                       if path != "meta"},
            "meta": timings.get("meta", {})}


def cmd_fit(spec: dict) -> dict:
    folder = Path(spec["input"])
    dirty = read_csv(folder / "dirty.csv")
    imputer = GrimpImputer(**spec["config"])
    ready = time.monotonic()

    started = time.perf_counter()
    imputed = imputer.impute(dirty)
    fit_s = time.perf_counter() - started

    output = folder.parent / f"out-{spec['index']}.csv"
    write_csv(imputed, output)
    problems = check_output(dirty, imputed, output)
    result = {"ready": ready, "fit_s": fit_s, "problems": problems,
              "timings": timings_summary(imputer.timings_),
              "peak_rss_mb": peak_rss_mb()}
    result.update(score(load_corruption(folder, dirty),
                        read_csv(output, kinds=dict(imputed.kinds))))
    if spec.get("events"):
        result["events"] = imputer.trace_.to_events()
    if spec.get("requests"):
        records = json.loads((folder / "probe.json").read_text())
        result["serve_s"] = serve_leg(imputer, records, spec["warmup"],
                                      spec["requests"])
    if spec.get("checkpoint"):
        from repro.serve import save_checkpoint

        save_checkpoint(imputer, spec["checkpoint"])
    return result


# ----------------------------------------------------------------------
# layers (traced run only)
# ----------------------------------------------------------------------
class Layers:
    """Times calls into single layers and keeps their spans in memory."""

    def __init__(self):
        from repro.telemetry import Tracer

        self.tracer = Tracer()
        self.metrics: dict[str, float] = {}

    def time(self, name: str, fn, repeats: int = 1):
        """Run ``fn`` ``repeats`` times under a span; keep the median."""
        seconds = []
        for _ in range(repeats):
            with self.tracer.span(name) as span:
                value = fn()
            seconds.append(span.duration)
        self.metrics[f"{name}_s"] = statistics.median(seconds)
        return value


def task_loss(model, h, normalized, table_graph, encoders, samples):
    """The full-graph training loss, built from public model calls."""
    from repro.core import build_sample_indices, samples_by_task
    from repro.tensor import cross_entropy, mse_loss

    total = None
    for column, group in samples_by_task(
            samples, normalized.column_names).items():
        if not group:
            continue
        indices = build_sample_indices(normalized, table_graph, group)
        output = model.task_output(column,
                                   model.training_vectors(h, indices))
        if normalized.is_categorical(column):
            targets = np.array([encoders[column].encode(sample.target_value)
                                for sample in group], dtype=np.int64)
            loss = cross_entropy(output, targets)
        else:
            targets = np.array([float(sample.target_value)
                                for sample in group], dtype=np.float32)
            loss = mse_loss(output.reshape(len(group)), targets)
        total = loss if total is None else total + loss
    return total


def spmm_ratio(plan, raw, width: int, repeats: int) -> float:
    """``sparse_matmul`` over plain scipy ``csr @ dense``, same operator.

    Uses the edge type with the most stored entries; calls alternate so
    drift hits both sides alike.
    """
    from repro.gnn import sparse_matmul
    from repro.tensor import Tensor

    edge_type = max(raw, key=lambda name: raw[name].nnz)
    operator, matrix = plan[edge_type], raw[edge_type].tocsr()
    dense = np.random.default_rng(0).standard_normal(
        (matrix.shape[1], width)).astype(np.float32)
    matrix = matrix.astype(np.float32)
    tensor = Tensor(dense)
    ours, theirs = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        sparse_matmul(operator, tensor)
        ours.append(time.perf_counter() - started)
        started = time.perf_counter()
        matrix @ dense
        theirs.append(time.perf_counter() - started)
    return statistics.median(ours) / statistics.median(theirs)


def cmd_layers(spec: dict) -> dict:
    from repro.core import (GrimpConfig, GrimpModel, build_training_corpus,
                            split_corpus)
    from repro.data import NumericNormalizer, TableEncoder
    from repro.embeddings import initialize_node_features
    from repro.gnn import MessagePassingPlan, column_adjacencies
    from repro.graph import build_table_graph
    from repro.nn import Adam, Parameter

    config = GrimpConfig(**spec["config"])
    dtype = np.dtype(config.dtype)
    folder = Path(spec["input"])
    layers = Layers()
    metrics = layers.metrics
    repeats = spec["repeats"]

    dirty = layers.time("data.read_csv",
                        lambda: read_csv(folder / "dirty.csv"), repeats)
    normalized = layers.time(
        "data.normalize", lambda: NumericNormalizer().fit_transform(dirty),
        repeats)

    def corpus():
        samples = build_training_corpus(normalized)
        return split_corpus(samples, config.validation_fraction,
                            np.random.default_rng(config.seed))

    train, validation = layers.time("core.corpus", corpus, repeats)
    held_out = {sample.cell for sample in validation}
    table_graph = layers.time(
        "graph.build",
        lambda: build_table_graph(normalized, exclude_cells=held_out),
        repeats)
    metrics["graph.nodes"] = table_graph.graph.n_nodes
    metrics["graph.edges"] = table_graph.graph.n_edges()
    features = layers.time("embeddings.features", lambda:
                           initialize_node_features(
                               table_graph, normalized,
                               strategy=config.feature_strategy,
                               dim=config.feature_dim, seed=config.seed,
                               embdi_kwargs=config.embdi_kwargs or None))
    if config.feature_strategy == "embdi":
        walk_and_sgns(layers, table_graph, normalized, config)

    edge_types = list(normalized.column_names)

    def plan():
        raw = column_adjacencies(table_graph, normalization="row",
                                 edge_types=edge_types)
        return raw, MessagePassingPlan(raw, dtype=dtype,
                                       build_backward=True)

    raw, message_plan = layers.time("gnn.plan", plan, repeats)
    metrics["gnn.spmm_numpy_ratio"] = spmm_ratio(
        message_plan, raw, config.gnn_dim, spec["spmm_repeats"])

    encoders = TableEncoder(normalized)
    cardinalities = {column: encoders.cardinality(column)
                     for column in normalized.categorical_columns}
    model = GrimpModel(normalized, cardinalities,
                       features.attribute_vectors, config,
                       np.random.default_rng(config.seed),
                       gnn_edge_types=edge_types)
    model.node_features = Parameter(features.node_vectors)
    model.astype(dtype)
    model.train()
    optimizer = Adam(model.parameters(), lr=config.lr)
    forward, backward, step = [], [], []
    for _ in range(repeats):
        optimizer.zero_grad()
        with layers.tracer.span("gnn.forward") as span:
            h = model.node_representations(message_plan,
                                           model.node_features)
        forward.append(span.duration)
        loss = task_loss(model, h, normalized, table_graph, encoders,
                         train)
        with layers.tracer.span("tensor.backward") as span:
            loss.backward()
        backward.append(span.duration)
        with layers.tracer.span("nn.adam_step") as span:
            optimizer.clip_grad_norm(5.0)
            optimizer.step()
        step.append(span.duration)
    metrics["gnn.forward_s"] = statistics.median(forward)
    metrics["tensor.backward_s"] = statistics.median(backward)
    metrics["nn.adam_step_s"] = statistics.median(step)

    if config.fanout is not None:
        sampling_layers(layers, raw, dtype, normalized, table_graph, train,
                        config, model.shared.gnn.n_layers)
    return {"metrics": metrics, "events": layers.tracer.to_events()}


def walk_and_sgns(layers: Layers, table_graph, normalized, config) -> None:
    """The EmbDI stages, timed apart: walk generation, then SGNS."""
    from repro.embeddings import (EmbdiEmbedder, SkipGram, build_walk_graph,
                                  generate_walk_matrix)

    settings = EmbdiEmbedder(dim=config.feature_dim, seed=config.seed,
                             **config.embdi_kwargs)
    walk_graph = build_walk_graph(table_graph, normalized)
    matrix, lengths = layers.time("embeddings.walks", lambda:
                                  generate_walk_matrix(
                                      walk_graph, settings.walks_per_node,
                                      settings.walk_length,
                                      np.random.default_rng(config.seed)))
    pairs = SkipGram.pairs_from_matrix(matrix, lengths,
                                       window=settings.window)
    layers.time("embeddings.sgns", lambda: SkipGram(
        table_graph.graph.n_nodes, dim=settings.dim,
        negatives=settings.negatives, seed=config.seed).train(
            pairs, epochs=settings.epochs))


def sampling_layers(layers: Layers, raw, dtype, normalized, table_graph,
                    train, config, n_layers: int) -> None:
    """``FrozenGraph.freeze`` and ``NeighborSampler.sample`` per batch."""
    from repro.core import build_sample_indices
    from repro.sampling import FrozenGraph, NeighborSampler

    frozen = layers.time("sampling.freeze",
                         lambda: FrozenGraph.freeze(raw, dtype=dtype))
    sampler = NeighborSampler(frozen, fanout=config.fanout)
    null_index = table_graph.graph.n_nodes
    indices = build_sample_indices(normalized, table_graph, train)
    rng = np.random.default_rng(config.seed)
    seconds, nodes = [], []
    for start in range(0, indices.shape[0], config.batch_size):
        batch = indices[start:start + config.batch_size]
        seeds = batch[batch != null_index]
        if seeds.size == 0:
            continue
        with layers.tracer.span("sampling.sample") as span:
            subgraph = sampler.sample(seeds, n_layers, rng)
        seconds.append(span.duration)
        nodes.append(subgraph.nodes.size)
    layers.metrics["sampling.sample_ms"] = 1e3 * statistics.median(seconds)
    layers.metrics["sampling.subgraph_nodes"] = float(np.mean(nodes))


# ----------------------------------------------------------------------
# serve-open
# ----------------------------------------------------------------------
def cmd_serve_prep(spec: dict) -> dict:
    """Write the training CSV and the request pool.

    The pool's bodies come from held-out rows the model never saw;
    ``multi`` bodies carry ``multi_rows`` consecutive held-out rows.
    """
    from repro.corruption import inject_mcar
    from repro.datasets import load
    from repro.serve import table_to_records

    work = Path(spec["work"])
    rows, held = spec["rows"], spec["held_out_rows"]
    seed = table_seed(spec["seed"], 0)
    table = load(spec["dataset"], n_rows=rows + held, seed=seed)
    write_input(table.select_rows(np.arange(rows)), spec["fraction"], seed,
                work / "in0")
    clean = table.select_rows(np.arange(rows, rows + held))
    corruption = inject_mcar(clean, spec["fraction"],
                             np.random.default_rng(seed + 1))
    dirty_records = table_to_records(corruption.dirty)
    clean_records = table_to_records(corruption.clean)
    size = spec["multi_rows"]
    singles = [[row] for row in range(held)]
    multis = [list(range(start, start + size))
              for start in range(0, held - size + 1, size)]
    pool = {"rows": dirty_records, "clean": clean_records,
            "single": singles, "multi": multis,
            "kinds": dict(clean.kinds)}
    (work / "pool.json").write_text(json.dumps(pool))
    return {"environment": run_environment()}


def close_enough(served, expected, kind: str, tolerance: float) -> bool:
    if kind == "categorical":
        return served == expected
    if served is None or expected is None:
        return served is expected
    return abs(served - expected) <= tolerance


def cmd_serve_check(spec: dict) -> dict:
    """Parity and scores of the served responses (pure post-processing).

    Every served categorical cell must equal the in-process engine's on
    the same request body.  Numerical cells agree within ``rtol`` times
    the column's largest magnitude in the pool: batch composition
    changes GEMM blocking, and denormalizing turns the float32 rounding
    into an error in the column's units, so a value near zero in a
    column of thousands carries an absolute error of that scale.
    """
    from repro.corruption import Corruption
    from repro.serve import InferenceEngine, load_imputer, records_to_table

    work = Path(spec["work"])
    pool = json.loads((work / "pool.json").read_text())
    responses = json.loads(Path(spec["responses"]).read_text())
    kinds = pool["kinds"]
    columns = list(kinds)
    tolerance = {column: spec["rtol"] * max(
        [1.0] + [abs(row[column]) for row in pool["clean"]
                 if kinds[column] == "numerical" and row[column] is not None])
        for column in columns}
    engine = InferenceEngine(load_imputer(work / "model.ckpt"))
    expected: dict[tuple, list] = {}
    mismatched = 0
    served_rows, request_rows = [], []
    for kind, index, body in responses:
        rows = pool[kind][index]
        key = (kind, index)
        if key not in expected:
            expected[key] = engine.impute_records(
                [pool["rows"][row] for row in rows])
        reference = expected[key]
        if len(body) != len(rows) or any(
                not close_enough(served.get(column), wanted[column],
                                 kinds[column], tolerance[column])
                for served, wanted in zip(body, reference)
                for column in columns):
            mismatched += 1
            continue
        served_rows.extend(body)
        request_rows.extend(rows)

    result = {"mismatched": mismatched, "answered": len(responses)}
    if request_rows:
        dirty = records_to_table([pool["rows"][row] for row in request_rows],
                                 columns, kinds)
        clean = records_to_table([pool["clean"][row]
                                  for row in request_rows], columns, kinds)
        cells = [(row, column) for row in range(dirty.n_rows)
                 for column in columns if dirty.is_missing(row, column)]
        served = records_to_table(served_rows, columns, kinds)
        result.update(score(Corruption(dirty=dirty, clean=clean,
                                       injected=cells), served))
    if spec.get("layers"):
        result["metrics"], result["events"] = serve_layers(spec, pool)
    return result


def serve_layers(spec: dict, pool: dict) -> tuple[dict, list]:
    """``load_imputer``, engine pin, and per-request engine and dispatcher
    times, one request at a time, with nothing else running."""
    from repro.serve import Dispatcher, InferenceEngine, load_imputer

    layers = Layers()
    work = Path(spec["work"])
    imputer = layers.time("serve.load",
                          lambda: load_imputer(work / "model.ckpt"),
                          spec["repeats"])
    engine = layers.time("serve.pin", lambda: InferenceEngine(imputer),
                         spec["repeats"])
    bodies = {kind: [[pool["rows"][row] for row in rows]
                     for rows in pool[kind][:spec["requests"]]]
              for kind in ("single", "multi")}
    metrics = layers.metrics
    for kind, requests in bodies.items():
        seconds = []
        for body in requests:
            with layers.tracer.span(f"serve.engine.{kind}") as span:
                engine.impute_records(body)
            seconds.append(span.duration)
        metrics[f"serve.engine_ms.{kind}"] = 1e3 * statistics.median(seconds)
    dispatcher = Dispatcher(engine, workers=1)
    try:
        dispatcher.wait_ready(60.0)
        for kind, requests in bodies.items():
            seconds = []
            for body in requests:
                with layers.tracer.span(f"serve.dispatch.{kind}") as span:
                    dispatcher.submit(body)
                seconds.append(span.duration)
            metrics[f"serve.dispatch_ms.{kind}"] = \
                1e3 * statistics.median(seconds)
    finally:
        dispatcher.stop()
    return metrics, layers.tracer.to_events()


COMMANDS = {"prep": cmd_prep, "fit": cmd_fit, "layers": cmd_layers,
            "serve-prep": cmd_serve_prep, "serve-check": cmd_serve_check}


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in COMMANDS:
        print(__doc__, file=sys.stderr)
        return 2
    spec_path, out = Path(argv[1]), Path(argv[2])
    result = COMMANDS[argv[0]](json.loads(spec_path.read_text()))
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
