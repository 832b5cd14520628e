"""The three benchmark workloads: train, serve_cold and fleet_mixed.

Each ``run_*`` function drives the program only through its public entry
points (library calls for the offline pipeline, ``python -m repro serve``
over HTTP for serving) and returns a :class:`Outcome`.  Untraced runs
produce the end-to-end metrics; traced runs (``trace=True``) produce the
per-layer metrics from :mod:`perfbench.spans`.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import re
import resource
import select
import shutil
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import analysis, gen, spans
from .loadgen import HttpConn, Phase, run_open_loop, tail_summary

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
HOOK_DIR = Path(__file__).resolve().parent / "hook"

#: train: Trainer.fit epochs (fixed, so test MAE is a function of the seed).
TRAIN_EPOCHS = 8
#: Setups per run; setup_s reports their median.
TRAIN_SETUPS = 2
SERVE_SETUPS = 2
#: Epochs of the checkpoint the serving workloads load (input prep only).
PREP_EPOCHS = 1
#: Fixed open-loop rates, req/s.  serve_cold runs at a quarter of its
#: ceiling: at half, the TCP stall share drifts and the median with it.
RATES = {"serve_cold": 10.0, "fleet_mixed": 10.0}
CONNECTIONS = 2
#: Latency limit for max_rate: the tail percentile must stay under it.
LIMIT_MS = 250.0
#: Seconds of the closed loop that measures capacity before the ladder.
ESTIMATE_S = 4.0
#: Geometric rate ladder: RUNG_BASE * 2 ** (k / RUNGS_PER_OCTAVE).
RUNG_BASE = 10.0
RUNGS_PER_OCTAVE = 16
MAX_RUNG = 128           # 2560 req/s: over 30x today's ceilings
#: Shares of --seconds spent in the fixed-rate phase and the rate ladder.
FIXED_SHARE = 0.5
LADDER_SHARE = 0.5
#: Generator lateness bound; beyond it the run is invalid.
LATE_P50_MS = 2.0
LATE_P99_MS = 25.0
#: serve_cold: responses compared bitwise with the in-process oracle.
VERIFY_SAMPLE = 150
#: Relative tolerance on the recorded test MAE of the train workload.
MAE_RTOL = 1e-9

#: Seconds a server may take to print its ready banner.
START_TIMEOUT = 60.0

_BANNER = re.compile(r"^serving \S+ on http://(\S+):(\d+)")


@dataclass
class Outcome:
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _scale(seed: int):
    from repro.config import bench_scale, with_seed

    return with_seed(bench_scale(), int(seed))


def _code_hash() -> str:
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _build_model(kind: str, n_areas: int, scale):
    from repro.core import AdvancedDeepSD, BasicDeepSD

    cls = AdvancedDeepSD if kind == "advanced" else BasicDeepSD
    return cls(n_areas, scale.features.window_minutes, scale.embeddings,
               dropout=0.1, seed=1)


def _trainer(kind: str, n_areas: int, scale, epochs: int):
    from repro.core import Trainer, TrainingConfig

    model = _build_model(kind, n_areas, scale)
    return Trainer(model, TrainingConfig(epochs=epochs, best_k=min(10, epochs), seed=1))


def prepare_serving_inputs(seed: int, kind: str) -> Tuple[str, str]:
    """City ``.npz`` and checkpoint dir for a serving workload, cached per
    (source tree, seed, model) under ``.perfbench/cache``.  Input prep, not
    measured: ``repro simulate`` + ``featurize`` + ``train`` equivalents."""
    from repro.city import CityDataset, simulate_city
    from repro.features import FeatureBuilder

    base = WORK / "cache" / _code_hash() / f"seed-{seed}"
    city_path = base / "city.npz"
    ckpt_dir = base / f"ckpt-{kind}"
    done = ckpt_dir / "DONE"
    if done.exists():
        return str(city_path), str(ckpt_dir)
    base.mkdir(parents=True, exist_ok=True)
    scale = _scale(seed)
    if city_path.exists():
        city = CityDataset.load(str(city_path))
    else:
        city = simulate_city(scale.simulation)
        city.save(str(base / "city.tmp.npz"))
        os.replace(base / "city.tmp.npz", city_path)
    train_set, test_set = FeatureBuilder(city, scale.features).build()
    if ckpt_dir.exists():
        shutil.rmtree(ckpt_dir)
    trainer = _trainer(kind, train_set.n_areas, scale, PREP_EPOCHS)
    trainer.fit(train_set, eval_set=test_set, checkpoint_dir=str(ckpt_dir))
    done.write_text("ok\n")
    return str(city_path), str(ckpt_dir)


def _arrays_equal(a, b) -> bool:
    """Bitwise equality of every array and scalar attribute of two objects."""
    left, right = vars(a), vars(b)
    if left.keys() != right.keys():
        return False
    for name, value in left.items():
        other = right[name]
        if isinstance(value, np.ndarray):
            if (value.dtype != other.dtype or value.shape != other.shape
                    or value.tobytes() != other.tobytes()):
                return False
        elif value != other:
            return False
    return True


def _same_float(a: float, b: float) -> bool:
    return struct.pack("<d", float(a)) == struct.pack("<d", float(b))


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def _percentile(values, pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), pct, method="higher"))


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------


def _step_timer(steps: List[float]):
    """Wrap ``EpochBatches.batches`` to time each training step: the span
    between handing out a minibatch and being asked for the next one."""
    from repro.core import batching

    original = batching.EpochBatches.batches

    def batches(self, batch_size):
        for item in original(self, batch_size):
            handed = time.perf_counter()
            yield item
            steps.append(time.perf_counter() - handed)

    batching.EpochBatches.batches = batches
    return lambda: setattr(batching.EpochBatches, "batches", original)


def _setup_train(seed: int, scratch: Path, out: Outcome):
    """simulate -> build -> save both splits -> load, as ``repro simulate /
    featurize / train`` do.  Returns (seconds, train_set, test_set, mb)."""
    import repro.city as city_mod
    from repro.features import ExampleSet, FeatureBuilder

    scale = _scale(seed)
    start = time.perf_counter()
    city = city_mod.simulate_city(scale.simulation)
    train_set, test_set = FeatureBuilder(city, scale.features).build()
    paths = [scratch / "train.npz", scratch / "test.npz"]
    train_set.save(str(paths[0]))
    test_set.save(str(paths[1]))
    loaded = [ExampleSet.load(str(p)) for p in paths]
    seconds = time.perf_counter() - start
    mb = sum(p.stat().st_size for p in paths) / 2**20
    out.check(_arrays_equal(train_set, loaded[0]) and _arrays_equal(test_set, loaded[1]),
              "ExampleSet save->load round-trip is not bitwise-equal")
    return seconds, loaded[0], loaded[1], mb


def _fit(kind, train_set, test_set, scale, epochs):
    trainer = _trainer(kind, train_set.n_areas, scale, epochs)
    steps: List[float] = []
    restore = _step_timer(steps)
    try:
        start = time.perf_counter()
        trainer.fit(train_set, eval_set=test_set)
        seconds = time.perf_counter() - start
    finally:
        restore()
    return trainer, seconds, steps


def expected_mae(seed: int) -> Optional[float]:
    path = Path(__file__).resolve().parent / "expected_mae.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    value = table.get("mae", {}).get(str(seed))
    return None if value is None else float(value)


def run_train(seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    out = Outcome()
    scale = _scale(seed)
    rec = spans.install(spans.Recorder()) if trace else None
    setups = []
    mb = 0.0
    train_set = test_set = None
    try:
        for _ in range(1 if trace else TRAIN_SETUPS):
            train_set = test_set = None  # release the previous copy first
            secs, train_set, test_set, mb = _setup_train(seed, scratch, out)
            setups.append(secs)
        if trace:
            rec.uninstall()
            _, ref_secs, ref_steps = _fit("advanced", train_set, test_set, scale, 2)
            spans.install(rec)
        trainer, fit_secs, steps = _fit("advanced", train_set, test_set, scale,
                                        TRAIN_EPOCHS)
        predictions = trainer.predict(test_set)
    finally:
        if rec is not None:
            rec.uninstall()
    finite = bool(np.all(np.isfinite(predictions)))
    out.check(finite, "test predictions are not all finite")
    mae = float(np.mean(np.abs(predictions - test_set.gaps.astype(np.float64))))
    want = expected_mae(seed)
    if want is not None:
        out.check(abs(mae - want) <= MAE_RTOL * abs(want),
                  f"test MAE {mae!r} != recorded {want!r}")
    steps_ms = np.asarray(steps) * 1e3
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.detail.update({
        "setup_s": setups, "fit_s": fit_secs, "epochs": TRAIN_EPOCHS,
        "train_items": int(train_set.n_items), "test_mae": mae,
        "mae_recorded": want, "steps_ms": tail_summary(steps_ms),
    })
    if not trace:
        m = out.metrics
        m["setup_s"] = (_median(setups), "s")
        m["peak_rss_mb"] = (rss_mb, "MB")
        m["throughput_per_s"] = (TRAIN_EPOCHS * train_set.n_items / fit_secs, "1/s")
        m["success_ratio"] = (1.0 - out.failed / out.attempted, "ratio")
        return out
    span_set = spans.SpanSet([{"pid": os.getpid(), "spans": rec.spans,
                               "events": rec.events}])
    out.metrics.update(analysis.layer_metrics(span_set))
    out.metrics["features.saved_mb"] = (mb, "MB")
    overhead = (_median(steps_ms) - _median(np.asarray(ref_steps) * 1e3))
    out.metrics["trace.overhead_pct"] = (
        100.0 * overhead / _median(np.asarray(ref_steps) * 1e3), "%")
    out.detail["breakdown"] = analysis.train_breakdown(span_set, setups[0], fit_secs)
    out.metrics["trace.unaccounted_pct"] = (out.detail["breakdown"]["unaccounted_pct"], "%")
    return out


# ----------------------------------------------------------------------
# Serving: process control
# ----------------------------------------------------------------------


class Server:
    """One ``python -m repro serve`` process (single or fleet router)."""

    def __init__(self, city: str, checkpoint: str, scratch: Path, *, workers: int = 1,
                 trace_dir: Optional[Path] = None, tag: str = "serve") -> None:
        env = dict(os.environ)
        paths = [str(ROOT / "src")]
        if trace_dir is not None:
            paths.insert(0, str(HOOK_DIR))
            env["PERFBENCH_SPANS_DIR"] = str(trace_dir)
            env["PERFBENCH_ROOT"] = str(ROOT)
        env["PYTHONPATH"] = os.pathsep.join(paths)
        cmd = [sys.executable, "-m", "repro", "serve", "--city", city,
               "--checkpoint", checkpoint, "--scale", "bench", "--quiet"]
        if workers > 1:
            run_dir = scratch / f"{tag}-fleet"
            run_dir.mkdir(parents=True, exist_ok=True)
            cmd += ["--workers", str(workers), "--fleet-run-dir", str(run_dir)]
        self.stderr_path = scratch / f"{tag}.err"
        self.launched = time.perf_counter()
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                         cwd=str(scratch), env=env)
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
        line = self.proc.stdout.readline().decode("utf-8", "replace") if ready else ""
        match = _BANNER.match(line)
        if not match:
            self.kill()
            raise RuntimeError(f"server did not start: {line!r} "
                               f"{self.stderr_path.read_text()[-2000:]}")
        self.ready = time.perf_counter()
        self.address = (match.group(1), int(match.group(2)))

    def pids(self) -> List[int]:
        """This process and its children (fleet workers)."""
        pids = [self.proc.pid]
        task_dir = Path(f"/proc/{self.proc.pid}/task")
        for task in task_dir.iterdir() if task_dir.exists() else []:
            try:
                pids += [int(p) for p in (task / "children").read_text().split()]
            except OSError:
                pass
        return pids

    def peak_rss_mb(self) -> float:
        total = 0.0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
            if match:
                total += int(match.group(1)) / 1024.0
        return total

    def get_json(self, path: str):
        conn = HttpConn(*self.address)
        try:
            status, payload = conn.request("GET", path)
        finally:
            conn.close()
        return status, (json.loads(payload) if path != "/metrics" else payload.decode())

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful ``POST /shutdown`` (traced servers write their spans on
        the way out), escalating to :meth:`kill` after ``timeout``."""
        conn = HttpConn(*self.address)
        try:
            conn.request("POST", "/shutdown", b"{}")
        except OSError:
            pass
        finally:
            conn.close()
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        self.proc.stdout.close()

    def kill(self) -> None:
        """SIGKILL the server and its workers and wait until all are gone.
        Untraced runs end this way: a graceful fleet shutdown waits out
        its workers' keep-alive drain, which measures nothing."""
        pids = self.pids()
        for pid in reversed(pids):
            try:
                os.kill(pid, 9)
            except OSError:
                pass
        self.proc.wait()
        deadline = time.monotonic() + 10.0
        for pid in pids[1:]:
            while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        if self.proc.stdout and not self.proc.stdout.closed:
            self.proc.stdout.close()


def _post_json(conn: HttpConn, path: str, body: dict):
    status, payload = conn.request("POST", path, json.dumps(body).encode())
    return status, json.loads(payload)


def _start_and_warm(city, ckpt, scratch, workers, trace_dir, tag, out):
    """Launch, wait for the banner, then touch every (area, day) once.
    Returns the live server and its set-up seconds."""
    server = Server(city, ckpt, scratch, workers=workers, trace_dir=trace_dir, tag=tag)
    conn = HttpConn(*server.address)
    try:
        items = gen.warmup_items()
        status, payload = _post_json(conn, "/predict_batch", gen.batch_body(items))
        out.check(status == 200 and payload.get("count") == len(items),
                  f"warm-up batch failed: {status}")
    finally:
        conn.close()
    return server, time.perf_counter() - server.launched


def _rung(k: int) -> float:
    return RUNG_BASE * 2.0 ** (k / RUNGS_PER_OCTAVE)


def _rung_below(rate: float) -> int:
    return int(np.floor(RUNGS_PER_OCTAVE * np.log2(rate / RUNG_BASE) + 1e-9))


def _probe(server, take_ops, rng, k, duration, conns, rid_base, check):
    """One ladder rung.  Passes iff nothing failed, the tail latency stays
    under the limit and the backlog does not grow (the last third's mean
    latency is within 50 ms of the first third's)."""
    rate = _rung(k)
    dues = gen.poisson_schedule(rng, rate, duration)
    phase = Phase(f"ladder@{rate:.1f}", rate=rate)
    run_open_loop(server.address, take_ops(len(dues)), dues, phase, conns=conns,
                  rid_base=rid_base, check=check, abort_latency_s=4 * LIMIT_MS / 1e3)
    lat = np.asarray(phase.latencies_ms)
    third = max(1, len(lat) // 3)
    growing = len(lat) == 0 or lat[-third:].mean() > lat[:third].mean() + 50.0
    passed = (not phase.aborted and phase.failed == 0 and not growing
              and _percentile(lat, 99) <= LIMIT_MS)
    return passed, phase


def _ladder(server, load: "_Load", budget_s, conns, rid_base, phases):
    """``(capacity, max_rate)`` measured within ``budget_s`` seconds.

    Capacity comes from a closed loop of ``ESTIMATE_S`` seconds over the
    same connections: each sends its next request as soon as the previous
    reply arrives.  ``max_rate`` is the highest ladder rung that passes.
    The search starts at the rung under 70 % of capacity and brackets the
    pass/fail boundary: up one rung after a pass, down four after a fail
    while nothing has passed, then bisecting, until the boundary is found
    or the time budget runs out."""
    deadline = time.perf_counter() + budget_s
    probe_s = 2.5
    est = Phase("capacity")
    n_est = 16000
    # Every request is due at once.  The ops come from a peek so that the
    # stream only consumes the ones actually sent.
    run_open_loop(server.address, load.peek_ops(n_est), np.zeros(n_est), est,
                  conns=conns, rid_base=rid_base, check=load.check, until_s=ESTIMATE_S)
    load.take_ops(max((r[0] for r in est.records), default=-1) + 1)
    rid_base += n_est
    phases.append(est)
    capacity = est.sent / ESTIMATE_S
    k = min(max(_rung_below(0.7 * max(capacity, 1.0)), -4 * RUNGS_PER_OCTAVE), MAX_RUNG)
    best = worst = None
    while time.perf_counter() + probe_s < deadline:
        passed, phase = _probe(server, load.take_ops, load.rng, k, probe_s, conns,
                               rid_base, load.check)
        phases.append(phase)
        rid_base += phase.scheduled
        if passed:
            best = k
        else:
            worst = k
        if best is not None and worst is not None:
            if worst - best <= 1:
                break
            k = (best + worst) // 2
        elif best is not None:
            if best >= MAX_RUNG:
                break
            k = best + 1
        else:
            k = worst - 4
    return capacity, (_rung(best) if best is not None else 0.0)


def _generator_valid(phase: Phase, out: Outcome) -> None:
    """A run whose generator fell behind its schedule is invalid."""
    late = np.asarray(phase.late_ms)
    p50, p99 = float(np.median(late)), float(np.percentile(late, 99))
    valid = p50 <= LATE_P50_MS and p99 <= LATE_P99_MS
    out.detail["generator_valid"] = valid
    if not valid:
        out.problems.append(f"load generator ran late: p50 {p50:.2f} ms, p99 {p99:.2f} "
                            f"ms (bounds {LATE_P50_MS}/{LATE_P99_MS} ms)")


@dataclass
class _Load:
    """What a serving workload sends and how it checks the answers."""

    workers: int
    city: str
    ckpt: str
    ops: list                 # fixed-rate phase requests
    dues: np.ndarray          # their due times
    rate: float
    rng: np.random.Generator
    take_ops: object          # n -> the next n ladder requests
    peek_ops: object          # n -> the next n requests, not consumed
    check: object             # loadgen check callback (records answers)
    verify: object            # (server, out) -> None; adds to attempted/failed
    reset: object = None      # clears what check recorded


def _run_serving(load: _Load, seconds: float, trace: bool, scratch: Path) -> Outcome:
    out = Outcome()
    if trace:
        return _traced_serving(load, scratch, out)
    setups, phases = [], []
    server = None
    for i in range(SERVE_SETUPS):
        if server is not None:
            server.kill()
        server, secs = _start_and_warm(load.city, load.ckpt, scratch, load.workers,
                                       None, f"setup{i}", out)
        setups.append(secs)
    conns = [HttpConn(*server.address) for _ in range(CONNECTIONS)]
    try:
        fixed = run_open_loop(server.address, load.ops, load.dues,
                              Phase("fixed", rate=load.rate), conns=conns,
                              check=load.check)
        phases.append(fixed)
        _generator_valid(fixed, out)
        capacity, max_rate = _ladder(server, load, LADDER_SHARE * seconds, conns,
                                     len(load.ops), phases)
        for conn in conns:
            conn.close()
        load.verify(server, out)
        peak = server.peak_rss_mb()
    finally:
        for conn in conns:
            conn.close()
        server.kill()
    for phase in phases:
        out.attempted += phase.sent
        out.failed += phase.failed
    # Single predicts only: the read latency a dispatcher waits for.  The
    # fleet's observe and tick requests are a slower class; mixed in, they
    # put the median near the edge between the classes.
    lat = np.asarray([(recv - due) * 1e3 if ok else np.inf
                      for i, _, due, _, recv, ok in fixed.records
                      if load.ops[i].path == "/predict"])
    out.metrics.update({
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
        "throughput_per_s": (capacity, "1/s"),
        "success_ratio": (1.0 - out.failed / max(out.attempted, 1), "ratio"),
    })
    out.detail.update({"setups_s": setups, "capacity_rps": capacity,
                       "max_rate_rps": max_rate,
                       "fixed_latency_ms": tail_summary(lat),
                       "phases": [p.summary() for p in phases]})
    return out


# ----------------------------------------------------------------------
# serve_cold
# ----------------------------------------------------------------------


def _cold_ops(rng):
    def make(n):
        return [gen.Op("/predict", {"area": int(a), "day": int(d), "timeslot": int(s)})
                for a, d, s in gen.uniform_queries(rng, n)]
    return make


def _oracle(city: str, ckpt: str):
    """An in-process PredictionService over the same city and checkpoint."""
    from repro.city import CityDataset
    from repro.config import bench_scale
    from repro.serving import PredictionService

    return PredictionService.from_checkpoint(ckpt, CityDataset.load(city),
                                             bench_scale().features)


def _compare(out: Outcome, got: List[float], want: List[float], what: str,
             items: list) -> int:
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if not _same_float(g, w)]
    wrong = len(bad) + abs(len(got) - len(want))
    out.attempted += len(want)
    out.failed += wrong
    if wrong:
        out.problems.append(f"{wrong} of {len(want)} {what} differ bitwise from "
                            "the in-process PredictionService")
    out.detail["verified"] = {"items": len(want), "wrong": wrong, "first_wrong": [
        {"item": items[i], "got": got[i], "want": want[i]} for i in bad[:5]]}
    return wrong


def run_serve_cold(seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    rng = np.random.default_rng([seed, 1])
    city, ckpt = prepare_serving_inputs(seed, "advanced")
    rate = RATES["serve_cold"]
    dues = gen.poisson_schedule(rng, rate, FIXED_SHARE * seconds)
    make = _cold_ops(rng)
    ops = make(len(dues))
    sample = set(np.linspace(0, len(ops) - 1, min(VERIFY_SAMPLE, len(ops))).astype(int))
    answers: Dict[int, float] = {}

    def check(i, op, status, payload):
        if i in sample and op is ops[i]:
            answers[i] = json.loads(payload)["gap"]
        return True

    def verify(server, out):
        idx = sorted(answers)
        with _oracle(city, ckpt) as oracle:
            want = oracle.predict_batch([tuple(ops[i].body.values()) for i in idx])
        _compare(out, [answers[i] for i in idx], [w.gap for w in want],
                 "sampled /predict answers", [ops[i].body for i in idx])

    return _run_serving(_Load(1, city, ckpt, ops, dues, rate, rng, make, make,
                              check, verify), seconds, trace, scratch)


# ----------------------------------------------------------------------
# fleet_mixed
# ----------------------------------------------------------------------


def run_fleet_mixed(seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    rng = np.random.default_rng([seed, 2])
    city, ckpt = prepare_serving_inputs(seed, "basic")
    rate = RATES["fleet_mixed"]
    stream = gen.FleetStream(rng)
    dues = gen.poisson_schedule(rng, rate, FIXED_SHARE * seconds)
    ops = stream.take(len(dues))
    acked: List[dict] = []

    def check(i, op, status, payload):
        if op.path == "/observe":
            acked.append(op.body)
        return True

    def verify(server, out):
        """After the load, the fleet's answers equal those of one process
        that applied the same observations (distinct cells, so their
        arrival order does not matter)."""
        items = gen.verification_items(stream.day, stream.start_minute, stream.now)
        got: List[float] = []
        conn = HttpConn(*server.address)
        try:
            for start in range(0, len(items), 200):
                status, payload = _post_json(conn, "/predict_batch",
                                             gen.batch_body(items[start:start + 200]))
                got += [r["gap"] for r in payload["results"]] if status == 200 else []
        finally:
            conn.close()
        with _oracle(city, ckpt) as oracle:
            for body in acked:
                oracle.observe(body["kind"], body["day"], body["minute"],
                               area_id=body.get("area"), **body["values"])
            want = [r.gap for r in oracle.predict_batch(items)]
        _compare(out, got, want, "verification answers after the load", items)
        # A wrong answer in an area that took an orders observation points
        # at the observe/featurize race described in perfbench/README.md.
        wrong_areas = sorted({item[0] for item, g, w in zip(items, got, want)
                              if not _same_float(g, w)})
        order_areas = sorted({b["area"] for b in acked if b["kind"] == "orders"})
        stats = server.get_json("/stats")[1]["fleet"]
        out.detail.update({"observes_acked": len(acked), "day": stream.day,
                           "wrong_areas": wrong_areas, "orders_observed_areas": order_areas,
                           "minutes": [stream.start_minute, stream.now],
                           "journal_entries": stats["journal_entries"],
                           "respawns": stats["respawns"]})

    return _run_serving(
        _Load(2, city, ckpt, ops, dues, rate, rng, stream.take,
              lambda n: copy.deepcopy(stream).take(n), check, verify, acked.clear),
        seconds, trace, scratch)


# ----------------------------------------------------------------------
# Traced serving runs
# ----------------------------------------------------------------------


def _traced_serving(load: _Load, scratch: Path, out: Outcome) -> Outcome:
    """The fixed-rate phase on a fresh untraced server, then on a fresh
    traced one with the same requests.  Per-layer metrics come from the
    traced servers' spans; tracing overhead is the difference in median
    latency between the two."""
    results = {}
    for mode in ("untraced", "traced"):
        if load.reset is not None:
            load.reset()
        trace_dir = scratch / "spans" if mode == "traced" else None
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
        server, _ = _start_and_warm(load.city, load.ckpt, scratch, load.workers,
                                    trace_dir, mode, out)
        conns = [HttpConn(*server.address) for _ in range(CONNECTIONS)]
        stats, metrics_text = {}, ""
        try:
            phase = run_open_loop(server.address, load.ops, load.dues,
                                  Phase(f"fixed_{mode}", rate=load.rate), conns=conns,
                                  check=load.check)
            for conn in conns:
                conn.close()
            out.attempted += phase.sent
            out.failed += phase.failed
            if mode == "traced":
                _generator_valid(phase, out)
                load.verify(server, out)
                if load.workers > 1:
                    stats = server.get_json("/stats")[1]
                    metrics_text = server.get_json("/metrics")[1]
        finally:
            for conn in conns:
                conn.close()
            # Only the traced server has spans to write on a graceful exit.
            server.stop() if mode == "traced" else server.kill()
        results[mode] = phase
    span_set = spans.SpanSet(spans.load_dumps(str(scratch / "spans")))
    traced, untraced = results["traced"], results["untraced"]
    out.metrics.update(analysis.layer_metrics(span_set))
    out.metrics.update(analysis.serving_metrics(span_set, traced, stats, metrics_text))
    p50_t, p50_u = _median(traced.latencies_ms), _median(untraced.latencies_ms)
    out.metrics["trace.overhead_pct"] = (100.0 * (p50_t - p50_u) / p50_u, "%")
    breakdown = analysis.request_breakdown(span_set, traced, load.ops)
    out.detail["breakdown"] = breakdown
    out.metrics["trace.unaccounted_pct"] = (breakdown["unaccounted_pct"], "%")
    out.detail["phases"] = [untraced.summary(), traced.summary()]
    return out


WORKLOADS = {
    "train": run_train,
    "serve_cold": run_serve_cold,
    "fleet_mixed": run_fleet_mixed,
}
