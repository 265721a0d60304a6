"""The repository benchmark: end-to-end and per-layer numbers for GRIMP.

Run from the root of a checkout::

    python3 benchmarks/gate/run.py --workload fit-full --seed 1 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
separate traced run.  The line before it records the run environment.
A record of every sample goes to ``BENCH_gate_<workload>.json``
(``BENCH_gate_trace_<workload>.json`` when tracing, with the spans in
``BENCH_gate_trace_spans_<workload>.json``).

This driver imports nothing from ``repro``: every step that does runs in
a fresh interpreter (``child.py``, ``loadgen.py``, ``python -m repro
serve``), so imports are paid and timed the way a user pays them, and
each process's peak memory is its own.  Each child gets the BLAS thread
count of ``--blas-threads``, ``PYTHONPATH=src`` and no ``REPRO_*``
variable the workload does not set itself.

Workloads (the seed picks the generated tables and request schedule;
the program only ever sees the CSV files and HTTP requests):

``fit-full``     ``repro impute``'s default path: fasttext features, the
                 full graph, float32, a fixed epoch count.  Training
                 dominates, so tensor/gnn/nn/trainer changes show here.
``fit-sampled``  EmbDI features and serial neighbour-sampled minibatches
                 on a table twice as tall: the only workload where the
                 walk kernel, SGNS and the sampler do timed work, and
                 where the same tensor code runs as many small ops.
``serve-open``   ``repro serve`` with one pre-fork worker, sent single-
                 and multi-row requests for rows the model never saw,
                 first open loop at a fixed rate, then closed loop: the
                 only workload that exercises the HTTP, dispatch,
                 worker, batcher and engine layers.

Every workload reports every end-to-end metric.  On ``fit-*`` the
``serve_*`` metrics come from single-row requests for held-out rows,
sent one at a time after each fit through an in-process ``Dispatcher``
(one worker) over the model just fitted; each fit gives its own p50,
p99 and request rate, and the run reports their medians over its fits,
so one fit that lands in a slow stretch of the machine does not set the
tail.  On ``serve-open`` ``fit_s`` is the median of the fits of its
training table, the first of which writes the checkpoint it serves.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from loadgen import send
from procfs import cpu_ticks, peak_rss_mb, steal_share

GATE = Path(__file__).resolve().parent

#: Fits per fit-* run, at least; more start while ``--seconds`` lasts.
MIN_FITS = 3
#: Distinct inputs per fit-* run.  Fits cycle through them, so each
#: later fit of an input must reproduce its first fit bit for bit.
FIT_INPUTS = 2
#: Single-row requests served after each fit of a fit-* run: five
#: samples beyond each fit's p99.
SERVE_REQUESTS = 500
#: ``repro serve`` starts per serve-open run; ``setup_s`` is their median.
SERVER_STARTS = 3
#: Ceiling on one run, well inside the three minutes a run may take.
RUN_BUDGET_S = 150.0

FIT_FULL = {
    "dataset": "adult", "rows": 1000, "fraction": 0.2, "probe_rows": 1000,
    "config": {"epochs": 10, "patience": 10},
}
FIT_SAMPLED = {
    "dataset": "adult", "rows": 2000, "fraction": 0.2, "probe_rows": 1000,
    "config": {"feature_strategy": "embdi", "epochs": 2, "patience": 2,
               "batch_size": 2048, "fanout": 1,
               "embdi_kwargs": {"walks_per_node": 2, "epochs": 1}},
}
SERVE_OPEN = {
    "dataset": "adult", "rows": 1000, "fraction": 0.2,
    # A multi-row request carries 32 rows, the default max_batch_size of
    # repro serve, so it fills one micro-batch on its own.  The 10% share
    # of such requests is an assumption: there is no traffic data to
    # draw it from.
    "held_out_rows": 1600, "multi_rows": 32, "multi_share": 0.1,
    # Fewer epochs than fit-full, so that three fits (fit_s is their
    # median; the first writes the checkpoint) fit in the run.
    "fits": 3, "config": {"epochs": 3, "patience": 3},
    # Nominal phase: open loop, paced at about a quarter of the
    # closed-loop rate, so latency measures the request path rather than
    # queueing, with ten samples beyond the p99.  At twice the rate a
    # stall of the server backs later requests up behind the generator's
    # few connections, which widened the p99's spread over seeds.
    # Closed-loop phase: every sender posts its next request as soon as
    # the last is answered.
    "phases": [{"rate": 50.0, "count": 1000},
               {"closed": True, "count": 500}],
}
#: Seconds a generator request may take; a failed request counts as
#: taking this long.
REQUEST_TIMEOUT_S = 10.0

END_TO_END = {
    "setup_s": "s", "fit_s": "s", "peak_rss_mb": "MB",
    "accuracy": "fraction", "rmse_ratio": "ratio", "serve_p50_ms": "ms",
    "serve_p99_ms": "ms", "serve_capacity_rps": "req/s",
}
PER_LAYER = {
    "data.read_csv_s": "s", "data.normalize_s": "s", "core.corpus_s": "s",
    "graph.build_s": "s", "graph.nodes": "count", "graph.edges": "count",
    "embeddings.features_s": "s", "embeddings.walks_s": "s",
    "embeddings.sgns_s": "s", "gnn.plan_s": "s", "gnn.forward_s": "s",
    "gnn.spmm_numpy_ratio": "ratio", "tensor.backward_s": "s",
    "nn.adam_step_s": "s", "trainer.epoch_s": "s", "trainer.epochs": "count",
    "trainer.forward_s": "s", "trainer.backward_s": "s",
    "trainer.validate_s": "s", "trainer.fill_s": "s",
    "sampling.freeze_s": "s", "sampling.sample_ms": "ms",
    "sampling.compile_s": "s", "sampling.plan_cache_hit_ratio": "ratio",
    "sampling.subgraph_nodes": "count", "arena.pool_hit_ratio": "ratio",
    "arena.peak_mb": "MB", "serve.load_s": "s", "serve.pin_s": "s",
    "serve.engine_ms.single": "ms", "serve.engine_ms.multi": "ms",
    "serve.dispatch_ms.single": "ms", "serve.dispatch_ms.multi": "ms",
    "serve.http_ms.single": "ms", "serve.http_ms.multi": "ms",
    "serve.generator_lag_ms": "ms", "serve.batch_rows": "rows",
    "serve.rejected": "count", "serve.errors": "count",
    "parallel.shm_leaked": "count", "trace.overhead_ratio": "ratio",
}


class ChildFailed(RuntimeError):
    """A benchmark child process exited non-zero or timed out."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Run:
    """One benchmark invocation: its work dir, child environment, record."""

    def __init__(self, args: argparse.Namespace, root: Path):
        self.args = args
        self.root = root
        self.work = root / ".bench_work" / \
            f"{args.workload}-{args.seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        threads = str(args.blas_threads)
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        self.env.update(PYTHONPATH=str(root / "src"),
                        OPENBLAS_NUM_THREADS=threads,
                        OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                        PYTHONUNBUFFERED="1")
        self.record: dict = {"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace}
        self.problems: list[str] = []
        self.events: list[dict] = []
        self._children = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def child(self, command: str, spec: dict, telemetry: bool = False,
              timeout: float = 120.0) -> tuple[dict, float]:
        """Run ``child.py command`` in a fresh interpreter.

        Returns its result and the monotonic time just before it was
        spawned (``setup_s`` is measured from there).
        """
        self._children += 1
        tag = f"{command}-{self._children}"
        spec_path = self.work / f"{tag}.spec.json"
        out_path = self.work / f"{tag}.out.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(self.env, REPRO_TELEMETRY="1") if telemetry else self.env
        with open(self.work / f"{tag}.log", "w") as log:
            spawned = time.monotonic()
            process = subprocess.Popen(
                [sys.executable, str(GATE / "child.py"), command,
                 str(spec_path), str(out_path)],
                cwd=self.root, env=env, stdout=log, stderr=log)
            try:
                code = process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                raise ChildFailed(f"{tag} timed out after {timeout} s")
        if code != 0:
            tail = (self.work / f"{tag}.log").read_text()[-2000:]
            raise ChildFailed(f"{tag} exited {code}:\n{tail}")
        return json.loads(out_path.read_text()), spawned


# ----------------------------------------------------------------------
# fit-full / fit-sampled
# ----------------------------------------------------------------------
def run_fit(run: Run, workload: dict) -> tuple[dict, int, int]:
    args = run.args
    config = dict(workload["config"], seed=args.seed)
    prep, _ = run.child("prep", {
        "work": str(run.work), "seed": args.seed,
        "dataset": workload["dataset"], "rows": workload["rows"],
        "fraction": workload["fraction"],
        "probe_rows": workload["probe_rows"], "n_inputs": FIT_INPUTS})
    run.record["environment"] = prep["environment"]

    started = time.monotonic()
    fits, failed, first = [], 0, {}
    index, last = 0, 0.0
    # Start another fit only if it should end within the measured window.
    while index < MIN_FITS or \
            time.monotonic() - started + last < args.seconds:
        if time.monotonic() - started > RUN_BUDGET_S:
            break
        begun = time.monotonic()
        which = index % FIT_INPUTS
        spec = {"input": str(run.work / f"in{which}"), "index": index,
                "config": config, "warmup": 20,
                "requests": 0 if args.trace else SERVE_REQUESTS}
        index += 1
        try:
            result, spawned = run.child("fit", spec)
        except ChildFailed as error:
            failed += 1
            run.problems.append(str(error))
            continue
        finally:
            last = time.monotonic() - begun
        result["setup_s"] = result.pop("ready") - spawned
        result["input"], result["index"] = which, spec["index"]
        problems = fit_problems(result, config, first.get(which))
        first.setdefault(which, result)
        if problems:
            failed += 1
            run.problems.extend(problems)
        fits.append(result)
    attempted = index
    setups = [fit["setup_s"] for fit in fits]
    run.record["setups_s"] = setups
    run.record["fits"] = [{key: value for key, value in fit.items()
                           if key != "serve_s"} for fit in fits]
    if len(first) < FIT_INPUTS:
        run.problems.append("not every input was fitted")
        return {}, attempted, failed
    if args.trace:
        return fit_layers(run, config, fits), attempted, failed
    serving = [serve_figures(fit["serve_s"]) for fit in fits]
    run.record["serving"] = serving

    distinct = [next(fit for fit in fits if fit["input"] == which)
                for which in range(FIT_INPUTS)]
    metrics = {
        "setup_s": statistics.median(setups),
        "fit_s": statistics.median(fit["fit_s"] for fit in fits),
        "peak_rss_mb": statistics.median(fit["peak_rss_mb"] for fit in fits),
        "accuracy": sum(fit["accuracy"] * fit["n_categorical"]
                        for fit in distinct) /
        sum(fit["n_categorical"] for fit in distinct),
        "rmse_ratio": statistics.mean(fit["rmse_ratio"] for fit in distinct),
    }
    metrics.update({name: statistics.median(figures[name]
                                            for figures in serving)
                    for name in serving[0]})
    return metrics, attempted, failed


def fit_problems(result: dict, config: dict, reference: dict | None
                 ) -> list[str]:
    """A fit's output problems, plus a wrong epoch count, plus scores
    that differ from ``reference``, an earlier fit of the same input."""
    problems = list(result["problems"])
    epochs = result["timings"]["phases"]["fit/train/epoch"]["count"]
    if epochs != config["epochs"]:
        problems.append(f"trained {epochs} epochs, configured "
                        f"{config['epochs']}")
    if reference is not None:
        scores = [(fit["accuracy"], fit["rmse"], fit["rmse_ratio"])
                  for fit in (result, reference)]
        if scores[0] != scores[1]:
            problems.append(f"scores {scores[0]} differ from "
                            f"{scores[1]}, an earlier fit's of the same "
                            f"input")
    return problems


def serve_figures(latencies: list[float]) -> dict:
    """The ``serve_*`` figures of one fit's sequential requests."""
    return {"serve_p50_ms": 1e3 * percentile(latencies, 0.50),
            "serve_p99_ms": 1e3 * percentile(latencies, 0.99),
            "serve_capacity_rps": len(latencies) / sum(latencies)}


def phase(fit: dict, *paths: str) -> float:
    phases = fit["timings"]["phases"]
    return sum(phases.get(path, {}).get("seconds", 0.0) for path in paths)


def trainer_metrics(fit: dict) -> dict:
    """Per-layer numbers copied from one fit's coarse ``timings_``."""
    phases, meta = fit["timings"]["phases"], fit["timings"]["meta"]
    epochs = phases["fit/train/epoch"]["count"]
    cache = meta.get("sampling", {}).get("plan_cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    arena = meta.get("arena", {}).get("fit", {})
    rents = arena.get("pool_hits", 0) + arena.get("pool_misses", 0)
    return {
        "trainer.epochs": epochs,
        "trainer.epoch_s": phase(fit, "fit/train/epoch") / max(epochs, 1),
        "trainer.forward_s": phase(fit, "fit/train/epoch/forward",
                                   "fit/train/epoch/batch/forward"),
        "trainer.backward_s": phase(fit, "fit/train/epoch/backward",
                                    "fit/train/epoch/batch/backward"),
        "trainer.validate_s": phase(fit, "fit/train/epoch/validate"),
        "trainer.fill_s": phase(fit, "fit/fill"),
        "sampling.compile_s": phase(fit, "fit/train/epoch/batch/compile"),
        "sampling.plan_cache_hit_ratio":
            cache.get("hits", 0) / lookups if lookups else 0.0,
        "arena.pool_hit_ratio":
            arena.get("pool_hits", 0) / rents if rents else 0.0,
        "arena.peak_mb": arena.get("peak_bytes", 0) / 2 ** 20,
    }


def fit_layers(run: Run, config: dict, fits: list[dict]) -> dict:
    """The traced run's per-layer numbers for a fit workload."""
    untraced = [trainer_metrics(fit) for fit in fits]
    metrics = {name: statistics.median(entry[name] for entry in untraced)
               for name in untraced[0]}
    traced, _ = run.child("fit", {
        "input": str(run.work / "in0"), "index": "traced",
        "config": config, "events": True}, telemetry=True)
    metrics["trace.overhead_ratio"] = traced["fit_s"] / statistics.median(
        fit["fit_s"] for fit in fits if fit["input"] == 0)
    run.events.extend(traced["events"])
    layers, _ = run.child("layers", {
        "input": str(run.work / "in0"), "config": config, "repeats": 3,
        "spmm_repeats": 50})
    metrics.update(layers["metrics"])
    run.events.extend(layers["events"])
    return metrics


# ----------------------------------------------------------------------
# serve-open
# ----------------------------------------------------------------------
class Server:
    """``python -m repro serve`` in its own process, one pre-fork worker."""

    def __init__(self, run: Run, checkpoint: Path, number: int):
        self.log = open(run.work / f"server-{number}.log", "w")
        self.spawned = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(checkpoint),
             "--serve-workers", "1", "--port", "0"],
            cwd=run.root, env=run.env, stdout=subprocess.PIPE,
            stderr=self.log, text=True)
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn to the first 200 from ``/healthz``."""
        deadline = self.spawned + timeout
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else ""
        if "http://" not in line:
            raise ChildFailed(f"server did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])
        while time.monotonic() < deadline:
            try:
                status, _ = get(self.port, "/healthz")
            except OSError:
                status = None
            if status == 200:
                return time.monotonic() - self.spawned
            time.sleep(0.005)
        raise ChildFailed("server not ready within the deadline")

    def workers(self) -> list[int]:
        """Pids of the server's worker processes (not its resource
        tracker)."""
        pid = self.process.pid
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            children = [int(child) for child in handle.read().split()]
        workers = []
        for child in children:
            with open(f"/proc/{child}/cmdline", "rb") as cmdline:
                if b"resource_tracker" not in cmdline.read():
                    workers.append(child)
        return workers

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server plus its worker processes, in MB."""
        return sum(peak_rss_mb(pid)
                   for pid in [self.process.pid] + self.workers())

    def stop(self) -> None:
        """SIGTERM (the graceful drain path), then wait for the exit.

        A server that does not drain in time is killed, and so are any
        workers it leaves behind.
        """
        if self.process.poll() is None:
            workers = self.workers()
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            for pid in workers:
                reap(pid)
        self.process.stdout.close()
        self.log.close()


def reap(pid: int, timeout: float = 10.0) -> None:
    """Kill a leftover worker (not our child) and wait until it is gone
    or a zombie."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                if handle.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return
            os.kill(pid, signal.SIGKILL)
        except (FileNotFoundError, ProcessLookupError):
            return
        time.sleep(0.05)


def get(port: int, path: str) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def shm_segments() -> set[str]:
    return set(os.listdir("/dev/shm"))


def nominal_summary(records: list) -> dict:
    """p50/p99 from the due time (a failed request counts as taking the
    generator's timeout, longer than any answered one) and the
    generator's own lateness."""
    latencies = [record[5] if record[6] == 200 else REQUEST_TIMEOUT_S
                 for record in records]
    lateness = [record[4] for record in records]
    return {"requests": len(records),
            "p50_ms": 1e3 * percentile(latencies, 0.50),
            "p99_ms": 1e3 * percentile(latencies, 0.99),
            "lateness_p99_ms": 1e3 * percentile(lateness, 0.99)}


def capacity(records: list) -> float:
    """Requests answered 200 per second by the closed-loop phase's
    senders: the throughput at that many concurrent connections (the
    generator's thread count, at most the schedulable cores).  So few
    requests in flight form small micro-batches and never reach the
    admission bound, so the rate reflects per-request latency (batching
    window, IPC, HTTP) as much as engine speed."""
    answered = [record for record in records if record[6] == 200]
    if not answered:
        return 0.0
    elapsed = max(record[3] + record[5] for record in answered) - \
        min(record[3] for record in records)
    return len(answered) / elapsed


def run_serve(run: Run, workload: dict) -> tuple[dict, int, int]:
    args = run.args
    prep, _ = run.child("serve-prep", {
        "work": str(run.work), "seed": args.seed,
        "dataset": workload["dataset"], "rows": workload["rows"],
        "held_out_rows": workload["held_out_rows"],
        "fraction": workload["fraction"],
        "multi_rows": workload["multi_rows"]})
    run.record["environment"] = prep["environment"]
    checkpoint = run.work / "model.ckpt"
    pool_path = run.work / "pool.json"
    config = dict(workload["config"], seed=args.seed)
    fits = []
    for index in range(workload["fits"]):
        spec = {"input": str(run.work / "in0"), "index": index,
                "config": config}
        if index == 0:
            spec["checkpoint"] = str(checkpoint)
        fitted, _ = run.child("fit", spec)
        run.problems.extend(fit_problems(fitted, config,
                                         fits[0] if fits else None))
        fits.append(fitted)
    run.record["fits_s"] = [fit["fit_s"] for fit in fits]
    shm_before = shm_segments()

    # Only the last server start gets traffic.
    setups, server = [], None
    try:
        for number in range(SERVER_STARTS):
            server = Server(run, checkpoint, number)
            setups.append(server.wait_ready())
            if number < SERVER_STARTS - 1:
                server.stop()
                server = None
        layer_metrics = sequential_http(run, server.port, pool_path) \
            if args.trace else {}
        records = load_traffic(run, server.port, workload, pool_path)
        status, payload = get(server.port, "/metrics")
        served = json.loads(payload) if status == 200 else {}
        peak = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    responses_path = run.work / "responses.json"
    responses_path.write_text(json.dumps(
        [[record[1], record[2], record[7]] for record in records
         if record[6] == 200]))
    check, _ = run.child("serve-check", {
        "work": str(run.work), "responses": str(responses_path),
        "rtol": args.rtol, "layers": bool(args.trace), "repeats": 3,
        "requests": 50})
    leaked = len(shm_segments() - shm_before)

    nominal = nominal_summary([record for record in records
                               if record[0] == 0])
    closed = [record for record in records if record[0] == 1]
    run.record["nominal"] = nominal
    run.record["server_metrics"] = {key: served.get(key) for key in
                                    ("requests", "errors", "rejected",
                                     "mean_batch_size")}
    outcomes: dict[str, int] = {}
    for record in records:
        outcomes[str(record[6])] = outcomes.get(str(record[6]), 0) + 1
    run.record["outcomes"] = outcomes
    unanswered = sum(count for status, count in outcomes.items()
                     if status != "200")
    failed = unanswered + check["mismatched"]
    if unanswered:
        run.problems.append(f"{unanswered} requests not answered 200: "
                            f"{outcomes}")
    if check["mismatched"]:
        run.problems.append(f"{check['mismatched']} served responses "
                            f"differ from the in-process engine")
    if leaked:
        run.problems.append(f"{leaked} /dev/shm segments leaked")

    metrics = {
        "setup_s": statistics.median(setups),
        "fit_s": statistics.median(fit["fit_s"] for fit in fits),
        "peak_rss_mb": peak,
        "accuracy": check.get("accuracy", 0.0),
        "rmse_ratio": check.get("rmse_ratio", 0.0),
        "serve_p50_ms": nominal["p50_ms"],
        "serve_p99_ms": nominal["p99_ms"],
        "serve_capacity_rps": capacity(closed),
    }
    run.record["setups_s"] = setups
    if args.trace:
        layer_metrics.update(check["metrics"])
        run.events.extend(check["events"])
        layer_metrics.update({
            "serve.generator_lag_ms": nominal["lateness_p99_ms"],
            "serve.batch_rows": served.get("mean_batch_size", 0.0),
            "serve.rejected": served.get("rejected", 0),
            "serve.errors": served.get("errors", 0),
            "parallel.shm_leaked": leaked,
        })
        metrics = layer_metrics
    return metrics, len(records), failed


def sequential_http(run: Run, port: int, pool_path: Path) -> dict:
    """Per-request HTTP latency, one request at a time, nothing else
    running (the traced run's ``serve.http_ms.*``)."""
    pool = json.loads(pool_path.read_text())
    metrics = {}
    for kind, key in (("single", "row"), ("multi", "rows")):
        seconds = []
        for members in pool[kind][:50]:
            rows = [pool["rows"][row] for row in members]
            body = json.dumps({key: rows[0] if kind == "single" else rows})
            started = time.perf_counter()
            status, _ = send(port, body.encode(), REQUEST_TIMEOUT_S)
            seconds.append(time.perf_counter() - started)
            if status != 200:
                run.problems.append(f"sequential {kind} request got "
                                    f"{status}")
        metrics[f"serve.http_ms.{kind}"] = 1e3 * statistics.median(seconds)
    return metrics


def load_traffic(run: Run, port: int, workload: dict,
                 pool_path: Path) -> list:
    """Run the load generator process against the server."""
    spec = {"port": port, "seed": run.args.seed, "pool": str(pool_path),
            "threads": max(1, min(4, len(os.sched_getaffinity(0)))),
            "timeout_s": REQUEST_TIMEOUT_S,
            "multi_share": workload["multi_share"],
            "phases": workload["phases"]}
    run.record["generator_threads"] = spec["threads"]
    spec_path = run.work / "loadgen.spec.json"
    out_path = run.work / "loadgen.out.json"
    spec_path.write_text(json.dumps(spec))
    with open(run.work / "loadgen.log", "w") as log:
        process = subprocess.Popen(
            [sys.executable, str(GATE / "loadgen.py"), str(spec_path),
             str(out_path)], cwd=run.root, env=run.env, stdout=log,
            stderr=log)
        try:
            code = process.wait(timeout=RUN_BUDGET_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise ChildFailed("load generator timed out")
    if code != 0:
        raise ChildFailed(f"load generator exited {code}")
    records = json.loads(out_path.read_text())
    return [record if record is not None else
            [None, None, None, 0.0, 0.0, REQUEST_TIMEOUT_S, "error", None]
            for record in records]


# ----------------------------------------------------------------------
WORKLOADS = {"fit-full": (run_fit, FIT_FULL),
             "fit-sampled": (run_fit, FIT_SAMPLED),
             "serve-open": (run_serve, SERVE_OPEN)}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS threads of every workload process")
    parser.add_argument("--rtol", type=float, default=1e-4,
                        help="served-vs-in-process tolerance on numerical "
                             "cells, relative to the column's largest "
                             "magnitude")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("run from the root of a checkout: src/repro is missing",
              file=sys.stderr)
        return 2
    run = Run(args, root)
    ticks = cpu_ticks()
    try:
        runner, workload = WORKLOADS[args.workload]
        metrics, attempted, failed = runner(run, workload)
    finally:
        run.close()
    # Tail latencies and fit times track this on a shared virtual machine.
    run.record["cpu_steal_share"] = steal_share(ticks, cpu_ticks())
    names = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in names if name not in metrics]
    if args.trace:
        # Layers a workload does not exercise read 0.
        run.record["not_measured"] = missing
    elif missing and not run.problems:
        run.problems.append(f"metrics not measured: {missing}")
    for name, value in list(metrics.items()):
        if not math.isfinite(value):
            run.problems.append(f"{name} is {value}")
            metrics[name] = 0.0
    run.record["problems"] = run.problems
    run.record["metrics"] = metrics
    suffix = "trace_" if args.trace else ""
    Path(f"BENCH_gate_{suffix}{args.workload}.json").write_text(
        json.dumps(run.record, indent=1, default=str))
    if args.trace:
        Path(f"BENCH_gate_trace_spans_{args.workload}.json").write_text(
            json.dumps(run.events))
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(run.record.get("environment", {})))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                           "unit": unit} for name, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
