"""Keep-alive round trips must not wait out Nagle plus delayed ACK.

A reply written as two ``send()`` calls (head, then body) on a socket
without ``TCP_NODELAY`` sits in the kernel until the client ACKs the
head, and the client delays that ACK by ~40 ms — on every keep-alive
reply.  Here a client that sends each request in one write issues 50
sequential ``/predict`` calls on one connection against the threaded
front-end, the selector loop, and a router in front of one worker (two
hops).  The median round trip must stay far below the stall.
"""

import copy
import json
import statistics
import threading
import time

import pytest

from repro.obs import MetricsRegistry
from repro.serving import (
    FleetConfig,
    FleetSupervisor,
    PredictionService,
    ServingConfig,
    build_router,
    build_server,
)
from repro.serving.loadtest import _RawClient

pytestmark = pytest.mark.serving

N_CALLS = 50
MEDIAN_BUDGET_MS = 10.0


def _median_round_trip_ms(address, scale):
    L = scale.features.window_minutes
    client = _RawClient(address, timeout=10.0)
    try:
        samples = []
        for i in range(N_CALLS):
            body = {"area": i % 6, "day": 2, "timeslot": L + 7 * i}
            request = client.format_request("/predict", body)
            start = time.perf_counter()
            client.send(request)
            status, payload = client.read_response()
            samples.append((time.perf_counter() - start) * 1e3)
            assert status == 200, payload
            assert "gap" in json.loads(payload)
    finally:
        client.close()
    return statistics.median(samples)


@pytest.mark.parametrize("io_loop", ["threaded", "selector"])
def test_single_hop_round_trip_is_fast(io_loop, checkpoint, dataset, scale):
    service = PredictionService.from_checkpoint(
        checkpoint,
        copy.deepcopy(dataset),
        scale.features,
        serving_config=ServingConfig(),
        registry=MetricsRegistry(),
    )
    server = build_server(service, io_loop=io_loop)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        address = "127.0.0.1:%d" % server.server_address[1]
        median = _median_round_trip_ms(address, scale)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        service.close()
    assert median < MEDIAN_BUDGET_MS, f"{io_loop} median {median:.1f} ms"


def test_router_in_front_of_one_worker_is_fast(
    checkpoint, dataset, scale, tmp_path
):
    city = tmp_path / "city.npz"
    dataset.save(city)
    fleet = FleetSupervisor(
        FleetConfig(
            city=str(city),
            checkpoint=str(checkpoint),
            scale="tiny",
            workers=1,
            run_dir=str(tmp_path / "run"),
        ),
        registry=MetricsRegistry(),
    )
    fleet.start()
    server = build_router(fleet)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        address = "127.0.0.1:%d" % server.server_address[1]
        median = _median_round_trip_ms(address, scale)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        fleet.shutdown()
    assert median < MEDIAN_BUDGET_MS, f"router median {median:.1f} ms"
