"""Workload generator and load generator tests.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from perfbench import gen
from perfbench.loadgen import Phase, run_open_loop


def _stream_ops(seed, n):
    return gen.FleetStream(np.random.default_rng(seed)).take(n)


def test_same_seed_same_stream():
    a = np.random.default_rng(7)
    b = np.random.default_rng(7)
    assert np.array_equal(gen.poisson_schedule(a, 20.0, 30.0),
                          gen.poisson_schedule(b, 20.0, 30.0))
    assert np.array_equal(gen.uniform_queries(a, 500), gen.uniform_queries(b, 500))
    assert _stream_ops(3, 2000) == _stream_ops(3, 2000)
    assert _stream_ops(3, 200) != _stream_ops(4, 200)


@pytest.mark.parametrize("rate", [10.0, 20.0, 400.0])
def test_poisson_schedule_matches_rate(rate):
    duration = 20000.0 / rate
    times = gen.poisson_schedule(np.random.default_rng(1), rate, duration)
    assert np.all(np.diff(times) > 0)
    assert times[0] >= 0 and times[-1] < duration
    # 20000 expected arrivals: the count is within 4 standard deviations.
    assert abs(len(times) - 20000) < 4 * np.sqrt(20000)
    gaps = np.diff(times)
    assert abs(gaps.mean() * rate - 1.0) < 0.03
    # Exponential gaps: the coefficient of variation is 1.
    assert abs(gaps.std() / gaps.mean() - 1.0) < 0.05


def _valid(area, day, slot):
    return (0 <= area < gen.N_AREAS and 0 <= day < gen.N_DAYS
            and gen.SLOT_LO <= slot <= gen.SLOT_HI)


def test_queries_lie_in_the_valid_range():
    queries = gen.uniform_queries(np.random.default_rng(2), 20000)
    assert all(_valid(*q) for q in queries)
    # Uniform over the whole city: every area, day and both slot extremes.
    assert set(queries[:, 0]) == set(range(gen.N_AREAS))
    assert set(queries[:, 1]) == set(range(gen.N_DAYS))
    assert all(_valid(*item) for item in gen.warmup_items())
    assert len(set((a, d) for a, d, _ in gen.warmup_items())) == gen.N_AREAS * gen.N_DAYS


def test_fleet_stream_ops_are_valid_and_mixed():
    stream = gen.FleetStream(np.random.default_rng(5))
    ops = stream.take(4000)
    paths = [op.path for op in ops]
    for op in ops:
        if op.path == "/predict":
            assert _valid(op.body["area"], op.body["day"], op.body["timeslot"])
        elif op.path == "/predict_batch":
            items = op.body["items"]
            assert len(items) == gen.N_AREAS
            assert all(_valid(i["area"], i["day"], i["timeslot"]) for i in items)
        else:
            body = op.body
            assert body["kind"] in gen.OBSERVE_KINDS
            assert 0 <= body["minute"] < 1440 and 0 <= body["day"] < gen.N_DAYS
            if body["kind"] != "weather":
                assert 0 <= body["area"] < gen.N_AREAS
    assert abs(paths.count("/predict") / 4000 - 0.75) < 0.03
    assert abs(paths.count("/observe") / 4000 - 0.20) < 0.03
    assert abs(paths.count("/predict_batch") / 4000 - 0.05) < 0.015
    assert stream.day >= gen.TRAIN_DAYS


def test_observe_cells_are_distinct_and_before_now():
    stream = gen.FleetStream(np.random.default_rng(9))
    cells = []
    for _ in range(6000):
        now = stream.now
        op = stream.take(1)[0]
        if op.path == "/observe":
            assert op.body["minute"] < now
            cells.append(gen.observe_cell(op.body))
    assert len(cells) > 1000
    assert len(cells) == len(set(cells))


def test_verification_items_cover_the_swept_span():
    items = gen.verification_items(15, 600, 610)
    assert all(_valid(*item) for item in items)
    slots = {s for a, d, s in items if d == 15}
    assert slots == set(range(600, 631))
    assert {d for _, d, _ in items} == set(range(15, gen.N_DAYS))


class _Echo(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 - BaseHTTPRequestHandler API
        body = self.rfile.read(int(self.headers["Content-Length"]))
        status = 500 if json.loads(body).get("fail") else 200
        payload = json.dumps({"echo": json.loads(body)}).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def test_open_loop_accounting():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Echo)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        ops = [gen.Op("/x", {"i": i, "fail": i % 10 == 0}) for i in range(60)]
        dues = gen.poisson_schedule(np.random.default_rng(0), 200.0, 10.0)[:60]
        phase = run_open_loop(server.server_address, ops, dues, Phase("t"),
                              rid_base=1000)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert (phase.sent, phase.ok, phase.failed) == (60, 54, 6)
    assert sorted(r[1] for r in phase.records) == list(range(1000, 1060))
    assert all(r[2] <= r[3] <= r[4] for r in phase.records)
    assert min(phase.late_ms) >= 0.0
