"""Order observations racing live featurization must never leave stale state.

One thread serves the dispatcher's view of "now" — ``predict_batch`` and
``predict`` over every area — while another ingests order observations
at distinct cells just before now.  An observation lands while a
micro-batch may be featurizing the same ``(area, day)``; without
serialization the batch can fill the cache after the observation's
invalidation, or store a profile built from the replaced counts, and the
stale answer outlives the write.  After both threads finish, every
answer around now must equal, bitwise, that of a fresh service that
applied the same observations.
"""

import copy
import threading

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.serving import PredictionService, ServingConfig

pytestmark = pytest.mark.serving

DAY = 8
NOW = 700
N_OBSERVATIONS = 402  # 67 minutes just before now, in every area


def _service(checkpoint, dataset, scale):
    return PredictionService.from_checkpoint(
        checkpoint,
        dataset,
        scale.features,
        serving_config=ServingConfig(max_batch=8, max_wait_ms=0.0),
        registry=MetricsRegistry(),
    )


def _observations(dataset):
    """Distinct (area, minute) order cells just before now, shuffled."""
    rng = np.random.default_rng(13)
    per_area = N_OBSERVATIONS // dataset.n_areas
    cells = [
        (area, minute)
        for area in range(dataset.n_areas)
        for minute in range(NOW - per_area, NOW)
    ]
    rng.shuffle(cells)
    return [
        (int(area), int(minute),
         int(dataset.valid_counts[area, DAY, minute]) + 1 + int(rng.integers(4)))
        for area, minute in cells
    ]


def test_answers_match_a_fresh_service_after_racing_order_observes(
    checkpoint, dataset, scale
):
    L = scale.features.window_minutes
    areas = range(dataset.n_areas)
    observations = _observations(dataset)
    service = _service(checkpoint, copy.deepcopy(dataset), scale)
    done = threading.Event()
    errors = []

    def reader():
        try:
            now_items = [(area, DAY, NOW) for area in areas]
            while not done.is_set():
                service.predict_batch(now_items)
                for item in now_items:
                    service.predict(*item)
        except Exception as error:  # pragma: no cover — surfaced below
            errors.append(error)

    def writer():
        try:
            for area, minute, valid in observations:
                service.observe("orders", DAY, minute, area_id=area, valid=valid)
        except Exception as error:  # pragma: no cover — surfaced below
            errors.append(error)
        finally:
            done.set()

    threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors

    fresh = _service(checkpoint, copy.deepcopy(dataset), scale)
    try:
        for area, minute, valid in observations:
            fresh.observe("orders", DAY, minute, area_id=area, valid=valid)
        window = [
            (area, DAY, slot)
            for area in areas
            for slot in range(NOW - 100, NOW + L + 80)
        ]
        expected = [result.gap for result in fresh.predict_batch(window)]
        served = [service.predict(*item).gap for item in window]
    finally:
        fresh.close()
        service.close()
    wrong = [
        (item, got, want)
        for item, got, want in zip(window, served, expected)
        if got != want
    ]
    assert not wrong, f"{len(wrong)} of {len(window)} stale answers: {wrong[:5]}"
