"""Serving with the execution tape keeps the bitwise determinism contract.

The service's historical guarantee: a gap served alone equals the same gap
served inside any micro-batch, bit for bit (``batch_invariant()``).  The
taped path replaces module dispatch entirely, so these tests pin that a
tape-enabled service returns exactly the bits a tape-disabled one does —
across batch sizes, threads, and the small-block tapes short batches use.
"""

import threading

from repro.serving import PredictionService, ServingConfig


def _make_service(checkpoint, dataset, scale, *, use_tape, max_batch=8):
    return PredictionService.from_checkpoint(
        checkpoint,
        dataset,
        scale.features,
        serving_config=ServingConfig(
            max_batch=max_batch,
            max_wait_ms=1.0,
            cache_size=1,  # effectively uncached: every query recomputes
            use_tape=use_tape,
        ),
    )


def _queries(dataset, scale, n=40):
    L = scale.features.window_minutes
    hi = 1440 - scale.features.gap_minutes
    out = []
    for i in range(n):
        out.append(
            (
                i % dataset.n_areas,
                (3 * i) % dataset.n_days,
                L + (37 * i) % (hi - L),
            )
        )
    return out


def test_taped_service_matches_module_service(checkpoint, dataset, scale):
    queries = _queries(dataset, scale)
    taped = _make_service(checkpoint, dataset, scale, use_tape=True)
    plain = _make_service(checkpoint, dataset, scale, use_tape=False)
    try:
        assert taped._engine.trainer.use_tape is True
        assert plain._engine.trainer.use_tape is False
        for query in queries:
            got = taped.predict(*query).gap
            want = plain.predict(*query).gap
            assert got == want, query
    finally:
        taped.close()
        plain.close()


def test_taped_service_batch_invariant(checkpoint, dataset, scale):
    """Single-query bits equal concurrently-batched bits with the tape on."""
    queries = _queries(dataset, scale)
    service = _make_service(checkpoint, dataset, scale, use_tape=True)
    try:
        singles = {q: service.predict(*q).gap for q in queries}

        results = {}
        errors = []

        def drive(thread_id, n_threads=4):
            try:
                for index, query in enumerate(queries):
                    if index % n_threads == thread_id:
                        results[query] = service.predict(*query).gap
            except Exception as error:  # pragma: no cover — surfaced below
                errors.append(error)

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        for query in queries:
            assert results[query] == singles[query], query
    finally:
        service.close()
