"""Canonical performance benchmark: the numbers behind ``BENCH_perf.json``.

``repro bench`` measures the throughput of the pipeline's hot paths
— featurization, training epochs, inference, online serving — plus the
wall-clock of a
multi-model experiment run serially versus through the parallel runner,
and writes one canonical JSON file (``BENCH_perf.json`` at the repo root
by default).  That file is the repo's perf trajectory: every optimisation
PR regenerates it, and ``scripts/smoke.sh`` fails if any recorded
throughput regresses more than :data:`REGRESSION_FACTOR`× against the
committed baseline.

The train-epoch section times the same model/optimizer arithmetic under
both batch-delivery strategies — the historical per-batch fancy indexing
(:func:`repro.core.make_batch` per step) and the current once-per-epoch
permutation gather (:class:`repro.core.batching.EpochBatches`) — so the
batching change's effect stays visible in the trajectory.  The
train-epoch, inference and serving sections additionally run a taped leg
(``*.taped.*`` metric families) through the execution tape
(:mod:`repro.nn.tape`), recording the speedup ratio and a bitwise
``identical`` cross-check against the untaped leg; the serving taped leg
also enables the vectorized featurizer and the eager batcher flush, i.e.
the full current serving defaults, while the untaped leg replicates the
historical stack.  The experiment
section re-runs the same task set in fresh caches both ways and records
whether the results matched bitwise, making every bench run also a
determinism check.

All numbers are honest wall-clock measurements on the current machine;
the parallel speedup in particular scales with available cores
(``cpu_count`` is recorded alongside it for interpretation).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np

from .config import get_scale
from .obs import Histogram, MetricsRegistry, get_logger, get_registry

_log = get_logger(__name__)

BENCH_SCHEMA_VERSION = 1
DEFAULT_BENCH_PATH = "BENCH_perf.json"
#: A recorded throughput may not drop below 1/REGRESSION_FACTOR of the
#: committed baseline (generous: benchmarks run on heterogeneous machines).
REGRESSION_FACTOR = 2.0


@contextmanager
def _cache_dir(path: Optional[str] = None) -> Iterator[str]:
    """Temporarily point ``REPRO_CACHE_DIR`` at a (fresh) directory."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    target = path or tempfile.mkdtemp(prefix="repro_bench_")
    os.environ["REPRO_CACHE_DIR"] = target
    try:
        yield target
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous


def bench_featurization(scale_name: str) -> Dict[str, float]:
    """Items/sec of a cold FeatureBuilder.build() (simulation excluded)."""
    from .city import simulate_city
    from .features import FeatureBuilder

    scale = get_scale(scale_name)
    dataset = simulate_city(scale.simulation)
    started = time.perf_counter()
    train, test = FeatureBuilder(dataset, scale.features).build()
    seconds = time.perf_counter() - started
    items = train.n_items + test.n_items
    return {
        "featurize.items": float(items),
        "featurize.seconds": seconds,
        "featurize.items_per_sec": items / seconds if seconds else 0.0,
    }


def _legacy_epoch(model, train_set, optimizer, loss_fn, rng, batch_size):
    """The pre-optimisation inner loop, replicated exactly: per-batch
    fancy indexing of every field, and the per-step ``model.parameters()``
    walk through the gradient-norm measurement."""
    from .core import batch_targets, make_batch
    from .nn import Tensor, clip_gradients, iterate_minibatches

    total = 0.0
    for indices in iterate_minibatches(
        train_set.n_items, batch_size, shuffle=True, rng=rng
    ):
        batch = make_batch(train_set, indices)
        targets = batch_targets(train_set, indices)
        optimizer.zero_grad()
        loss = loss_fn(model(batch), Tensor(targets))
        loss.backward()
        clip_gradients(model.parameters(), float("inf"))
        optimizer.step()
        total += loss.item()
    return total


def bench_train_epoch(scale_name: str, epochs: int = 2) -> Dict[str, float]:
    """Train-epoch throughput: legacy loop, epoch-gather, and taped.

    All three paths run identical arithmetic (same model seed, same
    shuffle stream); the ``identical`` metric asserts that by comparing
    the untaped and taped runs' final weights bitwise.  The taped leg's
    time includes the one-off trace cost — honest for short runs.
    """
    from .core import BasicDeepSD, InputScales, Trainer, TrainingConfig
    from .nn import Adam, losses

    scale = get_scale(scale_name)
    with _cache_dir():
        from .experiments.context import ExperimentContext

        context = ExperimentContext(scale=scale)
        train_set = context.train_set
        n_areas = context.dataset.n_areas

    def fresh_model():
        model = BasicDeepSD(
            n_areas,
            scale.features.window_minutes,
            scale.embeddings,
            dropout=0.1,
            seed=1,
        )
        model.input_scales = InputScales.from_example_set(train_set)
        model.train()
        return model

    config = TrainingConfig(epochs=epochs, best_k=1, seed=1)
    loss_fn = losses.get(config.loss)

    # Legacy path: per-batch make_batch gathers.
    model = fresh_model()
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    started = time.perf_counter()
    for _ in range(epochs):
        _legacy_epoch(model, train_set, optimizer, loss_fn, rng, config.batch_size)
    legacy_seconds = time.perf_counter() - started

    def trainer_run(use_tape: bool):
        """Trainer epochs, each timed into a quantile sketch so the
        trajectory records tail latency, not just the mean."""
        model = fresh_model()
        trainer = Trainer(model, config, use_tape=use_tape)
        optimizer = Adam(model.parameters(), lr=config.learning_rate)
        rng = np.random.default_rng(config.seed)
        sketch = Histogram()
        started = time.perf_counter()
        for _ in range(epochs):
            epoch_started = time.perf_counter()
            trainer._run_epoch(train_set, optimizer, rng)
            sketch.observe(time.perf_counter() - epoch_started)
        return model, time.perf_counter() - started, sketch

    # Current module-dispatch path: once-per-epoch permutation gather.
    model, gather_seconds, epoch_sketch = trainer_run(use_tape=False)
    # Taped path: same gathers, forward/backward/optimizer replayed
    # through the execution tape.
    taped_model, taped_seconds, taped_sketch = trainer_run(use_tape=True)
    state, taped_state = model.state_dict(), taped_model.state_dict()
    identical = all(
        np.array_equal(state[name], taped_state[name]) for name in state
    )

    items = float(train_set.n_items * epochs)
    return {
        "train_epoch.items": items,
        "train_epoch.epochs": float(epochs),
        "train_epoch.batch_gather.seconds": legacy_seconds,
        "train_epoch.batch_gather.items_per_sec": (
            items / legacy_seconds if legacy_seconds else 0.0
        ),
        "train_epoch.seconds": gather_seconds,
        "train_epoch.items_per_sec": items / gather_seconds if gather_seconds else 0.0,
        "train_epoch.speedup_vs_batch_gather": (
            legacy_seconds / gather_seconds if gather_seconds else 0.0
        ),
        "train_epoch.p95_ms": _quantile_ms(epoch_sketch, 0.95),
        "train_epoch.taped.seconds": taped_seconds,
        "train_epoch.taped.items_per_sec": (
            items / taped_seconds if taped_seconds else 0.0
        ),
        "train_epoch.taped.speedup": (
            gather_seconds / taped_seconds if taped_seconds else 0.0
        ),
        "train_epoch.taped.p95_ms": _quantile_ms(taped_sketch, 0.95),
        "train_epoch.taped.identical": float(identical),
    }


def _quantile_ms(histogram: Histogram, q: float) -> float:
    """A sketch quantile, in milliseconds (0.0 when nothing was observed)."""
    value = histogram.quantile(q)
    return value * 1000.0 if value is not None else 0.0


def bench_inference(scale_name: str) -> Dict[str, float]:
    """Single-pass prediction throughput over the train set.

    Module dispatch vs the forward execution tape, with a bitwise
    ``identical`` cross-check of the two output arrays.
    """
    from .core import BasicDeepSD, InputScales, Trainer

    scale = get_scale(scale_name)
    with _cache_dir():
        from .experiments.context import ExperimentContext

        context = ExperimentContext(scale=scale)
        example_set = context.train_set
        n_areas = context.dataset.n_areas
    model = BasicDeepSD(
        n_areas,
        scale.features.window_minutes,
        scale.embeddings,
        dropout=0.0,
        seed=1,
    )
    model.input_scales = InputScales.from_example_set(example_set)
    trainer = Trainer(model, use_tape=False)
    trainer._predict_current(example_set)  # warm up
    started = time.perf_counter()
    outputs = trainer._predict_current(example_set)
    seconds = time.perf_counter() - started

    taped_trainer = Trainer(model, use_tape=True)
    taped_trainer._predict_current(example_set)  # warm up (traces the tape)
    started = time.perf_counter()
    taped_outputs = taped_trainer._predict_current(example_set)
    taped_seconds = time.perf_counter() - started
    return {
        "inference.items": float(example_set.n_items),
        "inference.seconds": seconds,
        "inference.items_per_sec": (
            example_set.n_items / seconds if seconds else 0.0
        ),
        "inference.taped.seconds": taped_seconds,
        "inference.taped.items_per_sec": (
            example_set.n_items / taped_seconds if taped_seconds else 0.0
        ),
        "inference.taped.speedup": (
            seconds / taped_seconds if taped_seconds else 0.0
        ),
        "inference.taped.identical": float(np.array_equal(outputs, taped_outputs)),
    }


def bench_serving(scale_name: str) -> Dict[str, float]:
    """Serving throughput: cold micro-batched queries and warm cache hits.

    Stands up a full :class:`repro.serving.PredictionService` (untrained
    weights — throughput does not depend on the parameter values) and
    drives it from a few submitter threads, the same concurrency shape
    the HTTP front-end produces.  The cold pass answers distinct queries
    through featurize + forward; the warm pass re-asks them and must be
    answered from the LRU cache.

    Two legs: the base ``serving.*`` family replicates the historical
    stack (module dispatch, per-row featurization, lingering batcher);
    ``serving.*.taped.*`` runs the current defaults — forward tape,
    vectorized featurizer, eager flush.  ``serving.taped.identical``
    asserts both legs returned bitwise-identical predictions for every
    query.
    """
    import threading

    from .core import BasicDeepSD, InputScales, Trainer
    from .serving import PredictionService, ServingConfig

    scale = get_scale(scale_name)
    with _cache_dir():
        from .experiments.context import ExperimentContext

        context = ExperimentContext(scale=scale)
        dataset = context.dataset
        train_set = context.train_set

    L = scale.features.window_minutes
    slots = range(L, 1440 - scale.features.gap_minutes, 7)
    queries = [
        (area, day, slot)
        for area in range(dataset.n_areas)
        for day in range(1, dataset.n_days)
        for slot in slots
    ][:600]

    def build_service(taped: bool):
        model = BasicDeepSD(
            dataset.n_areas,
            scale.features.window_minutes,
            scale.embeddings,
            dropout=0.0,
            seed=1,
        )
        model.input_scales = InputScales.from_example_set(train_set)
        # Private registry: per-request latency quantiles for THIS leg
        # only, resettable between the cold and warm passes.
        registry = MetricsRegistry()
        service = PredictionService(
            Trainer(model, use_tape=taped),
            dataset,
            scale.features,
            train_set.scalers,
            serving_config=ServingConfig(
                max_batch=32, max_wait_ms=2.0, eager_flush=taped
            ),
            registry=registry,
        )
        return service, registry

    def run_leg(taped: bool, cold_name: str, warm_name: str):
        service, registry = build_service(taped)
        results: Dict[tuple, float] = {}

        def drive(chunk):
            for query in chunk:
                results[query] = service.predict(*query)

        def timed_pass() -> float:
            n_threads = 4
            chunks = [queries[i::n_threads] for i in range(n_threads)]
            threads = [
                threading.Thread(target=drive, args=(chunk,)) for chunk in chunks
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return time.perf_counter() - started

        def request_quantiles(prefix: str) -> Dict[str, float]:
            sketch = registry.histograms.get(
                "repro.serving.request_seconds", Histogram()
            )
            return {
                f"{prefix}.p50_ms": _quantile_ms(sketch, 0.50),
                f"{prefix}.p95_ms": _quantile_ms(sketch, 0.95),
                f"{prefix}.p99_ms": _quantile_ms(sketch, 0.99),
            }

        service.predict(*queries[0])  # warm up imports and the first profile
        registry.reset()
        cold_seconds = timed_pass()
        metrics = request_quantiles(cold_name)
        registry.reset()
        warm_seconds = timed_pass()
        metrics.update(request_quantiles(warm_name))
        service.close()
        items = float(len(queries))
        metrics.update(
            {
                f"{cold_name}.seconds": cold_seconds,
                f"{cold_name}.items_per_sec": (
                    items / cold_seconds if cold_seconds else 0.0
                ),
                f"{warm_name}.seconds": warm_seconds,
                f"{warm_name}.items_per_sec": (
                    items / warm_seconds if warm_seconds else 0.0
                ),
            }
        )
        return metrics, results

    base, base_results = run_leg(False, "serving.cold", "serving.warm")
    taped, taped_results = run_leg(
        True, "serving.cold.taped", "serving.warm.taped"
    )
    metrics = {"serving.items": float(len(queries))}
    metrics.update(base)
    metrics.update(taped)
    metrics["serving.cold.taped.speedup"] = (
        base["serving.cold.seconds"] / taped["serving.cold.taped.seconds"]
        if taped["serving.cold.taped.seconds"]
        else 0.0
    )
    metrics["serving.warm.taped.speedup"] = (
        base["serving.warm.seconds"] / taped["serving.warm.taped.seconds"]
        if taped["serving.warm.taped.seconds"]
        else 0.0
    )
    metrics["serving.taped.identical"] = float(base_results == taped_results)
    return metrics


def bench_experiment(
    scale_name: str, workers: int = 2, experiment: str = "table2"
) -> Dict[str, float]:
    """Serial vs parallel wall-clock of one multi-model experiment.

    Each mode runs in its own fresh cache directory, so both pay the full
    simulate + featurize + train cost; ``identical`` records whether the
    two runs' result rows matched exactly (the runner's determinism
    guarantee, doubling as a self-check of every bench run).
    """
    from .experiments import runner
    from .experiments.context import ExperimentContext

    def one_run(n_workers: int):
        with _cache_dir():
            context = ExperimentContext(scale=get_scale(scale_name))
            started = time.perf_counter()
            result, _ = runner.run_experiment(
                experiment, context, workers=n_workers
            )
            return result, time.perf_counter() - started

    serial_result, serial_seconds = one_run(1)
    parallel_result, parallel_seconds = one_run(workers)
    return {
        "experiment.serial_seconds": serial_seconds,
        "experiment.parallel_seconds": parallel_seconds,
        "experiment.workers": float(workers),
        "experiment.speedup": (
            serial_seconds / parallel_seconds if parallel_seconds else 0.0
        ),
        "experiment.identical": float(serial_result == parallel_result),
    }


def run_bench(
    scale_name: str = "tiny",
    *,
    workers: int = 2,
    epochs: int = 2,
    experiment: str = "table2",
) -> dict:
    """Run every section and assemble the ``BENCH_perf.json`` payload."""
    registry = get_registry()
    metrics: Dict[str, float] = {}
    for section, fn in (
        ("featurize", lambda: bench_featurization(scale_name)),
        ("train_epoch", lambda: bench_train_epoch(scale_name, epochs)),
        ("inference", lambda: bench_inference(scale_name)),
        ("serving", lambda: bench_serving(scale_name)),
        ("experiment", lambda: bench_experiment(scale_name, workers, experiment)),
    ):
        _log.event("bench.section", section=section)
        with registry.timer(f"repro.bench.{section}.seconds"):
            metrics.update(fn())
    for name, value in metrics.items():
        registry.gauge(f"repro.bench.{name}", value)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_by": "repro bench",
        "scale": scale_name,
        "experiment": experiment,
        "cpu_count": os.cpu_count() or 1,
        "metrics": metrics,
    }


def write_bench(payload: dict, path: str = DEFAULT_BENCH_PATH) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_bench(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


#: Latency metrics gated by :func:`find_regressions` — these fail in the
#: opposite direction from throughput: current must not EXCEED baseline
#: by more than the factor.
LATENCY_GATES = (
    "serving.cold.p99_ms",
    "serving.warm.p99_ms",
    # End-to-end single-item fleet latency through the router: the batch
    # transport plane must never buy its throughput with p99 (gated
    # alongside serving.fleet.items_per_sec, which the items_per_sec
    # sweep below picks up once the baseline records it).
    "serving.fleet.p99_ms",
)


def find_regressions(
    current: dict, baseline: dict, factor: float = REGRESSION_FACTOR
) -> List[str]:
    """Metrics that regressed more than ``factor``× against baseline.

    ``*.items_per_sec`` metrics gate on throughput drops; the
    :data:`LATENCY_GATES` tail-latency metrics gate on increases.
    Absolute seconds vary with scale/epoch knobs and the experiment
    speedup varies with core count, so neither is gated.  Returns
    human-readable findings (empty = no regression).
    """
    findings = []
    base_metrics = baseline.get("metrics", {})
    current_metrics = current.get("metrics", {})
    for name, value in current_metrics.items():
        if not name.endswith("items_per_sec"):
            continue
        reference = base_metrics.get(name)
        if not reference or reference <= 0:
            continue
        if value < reference / factor:
            findings.append(
                f"{name}: {value:.1f} items/s is more than {factor:g}x below "
                f"baseline {reference:.1f} items/s"
            )
    for name in LATENCY_GATES:
        value = current_metrics.get(name)
        reference = base_metrics.get(name)
        if not value or not reference or reference <= 0:
            continue
        if value > reference * factor:
            findings.append(
                f"{name}: {value:.2f} ms is more than {factor:g}x above "
                f"baseline {reference:.2f} ms"
            )
    return findings
