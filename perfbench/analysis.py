"""Per-layer metrics and stage breakdowns from recorded spans."""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

from .spans import SpanSet

Metrics = Dict[str, Tuple[float, str]]

TAPE_STEPS = ("nn.train_forward", "nn.train_backward", "nn.train_clip",
              "nn.train_optim")

#: Every per-layer metric a traced run reports, with its unit.  A layer the
#: workload never calls reads 0.
PER_LAYER = {
    "city.simulate_s": "s", "city.load_s": "s",
    "features.build_s": "s", "features.save_s": "s", "features.saved_mb": "MB",
    "features.load_s": "s", "features.profile_builds": "count",
    "features.profile_build_ms": "ms",
    "nn.train_forward_s": "s", "nn.train_backward_s": "s", "nn.train_clip_s": "s",
    "nn.train_optim_s": "s", "nn.traces": "count", "nn.trace_s": "s",
    "nn.replay_ms": "ms", "nn.replay_live_ratio": "ratio",
    "core.gather_s": "s", "core.fit_s": "s", "core.epoch_other_s": "s",
    "core.forward_ms": "ms", "core.featurize_ms": "ms",
    "serving.predict_ms": "ms", "serving.queue_wait_ms": "ms",
    "serving.batch_items": "items", "serving.cache_hit_ratio": "ratio",
    "serving.observe_ms": "ms", "serving.invalidated_per_observe": "entries",
    "http.handle_ms": "ms", "http.wire_ms": "ms",
    "router.handle_ms": "ms", "router.upstream_ms": "ms", "router.upstream_calls": "count",
    "router.coalesced_items": "items", "router.retries": "count",
    "fleet.broadcast_ms": "ms", "fleet.journal_len": "entries",
    "loadgen.late_ms": "ms", "loadgen.sent": "count", "loadgen.ok": "count",
    "loadgen.failed": "count",
    "trace.overhead_pct": "%", "trace.unaccounted_pct": "%",
}


def complete(metrics: Metrics) -> Metrics:
    """``metrics`` plus a 0 for every per-layer metric it lacks."""
    out = {name: (0.0, unit) for name, unit in PER_LAYER.items()}
    out.update(metrics)
    return out


def _median_ms(values: List[float]) -> float:
    return float(np.median(values) * 1e3) if values else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _within(spans: SpanSet, name: str, outer: List[dict]) -> List[dict]:
    """Spans called ``name`` that start inside one of ``outer`` (same pid)."""
    found = []
    for span in spans.by_name.get(name, []):
        for host in outer:
            if (span["pid"] == host["pid"] and host["start"] <= span["start"]
                    and span["end"] <= host["end"]):
                found.append(span)
                break
    return found


def layer_metrics(spans: SpanSet) -> Metrics:
    """Every per-layer metric that spans alone determine (0 when the
    workload never calls the layer)."""
    m: Metrics = {}
    total = spans.total
    m["city.simulate_s"] = (total("city.simulate"), "s")
    m["city.load_s"] = (total("city.load"), "s")
    m["features.build_s"] = (total("features.build"), "s")
    m["features.save_s"] = (total("features.save"), "s")
    m["features.saved_mb"] = (0.0, "MB")
    m["features.load_s"] = (total("features.load"), "s")
    profiles = spans.durations("features.profile")
    m["features.profile_builds"] = (float(len(profiles)), "count")
    m["features.profile_build_ms"] = (_median_ms(profiles), "ms")
    for step in TAPE_STEPS:
        m[f"{step}_s"] = (total(step), "s")
    m["nn.traces"] = (float(len(spans.durations("nn.trace"))), "count")
    m["nn.trace_s"] = (total("nn.trace"), "s")
    replays = spans.by_name.get("nn.replay", [])
    m["nn.replay_ms"] = (_median_ms([s["dur"] for s in replays]), "ms")
    rows = sum(s["extra"].get("rows", 0) for s in replays)
    live = sum(s["extra"].get("live", 0) for s in replays)
    m["nn.replay_live_ratio"] = (live / rows if rows else 0.0, "ratio")

    fits = spans.by_name.get("core.fit", [])
    gathers = [s for s in spans.by_name.get("core.epoch_batches", [])
               if s["extra"].get("gather")]
    m["core.gather_s"] = (float(sum(s["dur"] for s in gathers)), "s")
    m["core.fit_s"] = (float(sum(s["dur"] for s in fits)), "s")
    inside = sum(s["dur"] for s in gathers)
    for name in TAPE_STEPS + ("nn.trace",):
        inside += sum(s["dur"] for s in _within(spans, name, fits))
    m["core.epoch_other_s"] = (max(0.0, m["core.fit_s"][0] - inside) if fits else 0.0,
                               "s")
    m["core.forward_ms"] = (_median_ms(spans.durations("core.predict")), "ms")
    featurize = []
    for host_name in ("serving.batch", "core.predict_many"):
        for host in spans.by_name.get(host_name, []):
            forward = _within(spans, "core.predict", [host])
            featurize.append(host["dur"] - sum(s["dur"] for s in forward))
    m["core.featurize_ms"] = (_median_ms(featurize), "ms")

    m["serving.predict_ms"] = (_median_ms(spans.durations("serving.predict")), "ms")
    m["serving.queue_wait_ms"] = (_median_ms(spans.durations("serving.queue_wait")),
                                  "ms")
    batches = spans.by_name.get("serving.batch", [])
    m["serving.batch_items"] = (_mean([s["extra"]["items"] for s in batches]), "items")
    gets = spans.events.get("serving.cache_get", [])
    m["serving.cache_hit_ratio"] = (_mean([1.0 if g else 0.0 for g in gets]), "ratio")
    m["serving.observe_ms"] = (_median_ms(spans.durations("serving.observe")), "ms")
    m["serving.invalidated_per_observe"] = (
        _mean(spans.events.get("serving.invalidated", [])), "entries")
    m["http.handle_ms"] = (_median_ms(spans.durations("http.handle")), "ms")
    m["router.handle_ms"] = (_median_ms(spans.durations("router.handle")), "ms")
    m["router.upstream_ms"] = (_median_ms(spans.durations("router.upstream")), "ms")
    m["router.upstream_calls"] = (float(len(spans.durations("router.upstream"))),
                                  "count")
    coalesced = spans.by_name.get("router.batch", [])
    m["router.coalesced_items"] = (_mean([s["extra"]["items"] for s in coalesced]),
                                   "items")
    m["fleet.broadcast_ms"] = (_median_ms(spans.durations("fleet.broadcast")), "ms")
    return m


def _prom_counter(text: str, name: str) -> float:
    match = re.search(rf"^{re.escape(name)}(?:_total)?(?:{{[^}}]*}})? (\S+)$", text,
                      re.MULTILINE)
    return float(match.group(1)) if match else 0.0


def serving_metrics(spans: SpanSet, phase, stats: dict, metrics_text: str) -> Metrics:
    """Metrics that join spans with the client's records or server state."""
    m: Metrics = {}
    by_rid = spans.by_rid()
    wire = []
    for _, rid, _, sent, recv, ok in phase.records:
        hops = _hops(by_rid.get(rid, []))
        if ok and hops is not None:
            outer, upstream_wire = hops
            wire.append((recv - sent) - outer["dur"] + upstream_wire)
    m["http.wire_ms"] = (_median_ms(wire), "ms")
    m["router.retries"] = (_prom_counter(metrics_text, "repro_fleet_router_retries"),
                           "count")
    fleet = stats.get("fleet", {}) if stats else {}
    m["fleet.journal_len"] = (float(fleet.get("journal_entries", 0)), "entries")
    late = np.asarray(phase.late_ms)
    m["loadgen.late_ms"] = (float(np.percentile(late, 99)) if len(late) else 0.0, "ms")
    m["loadgen.sent"] = (float(phase.sent), "count")
    m["loadgen.ok"] = (float(phase.ok), "count")
    m["loadgen.failed"] = (float(phase.failed), "count")
    return m


def _hops(spans: List[dict]):
    """(outermost server handle, wire time of the router->worker hops)
    for one request's spans, or None when the server recorded none."""
    handles = [s for s in spans if s["name"] in ("http.handle", "router.handle")]
    if not handles:
        return None
    outer = min(handles, key=lambda s: s["start"])
    upstream_wire = 0.0
    for up in (s for s in spans if s["name"] == "router.upstream"):
        inner = [h for h in spans if h["name"] == "http.handle"
                 and h["pid"] != up["pid"]
                 and up["start"] <= h["start"] and h["end"] <= up["end"]]
        if inner:
            upstream_wire += up["dur"] - max(h["dur"] for h in inner)
    return outer, upstream_wire


def request_breakdown(spans: SpanSet, phase, ops) -> dict:
    """Split each single /predict's latency (from due time) into client
    wait, wire and per-layer self times; the rest is unaccounted."""
    by_rid = spans.by_rid()
    rows: List[Dict[str, float]] = []
    latencies, unaccounted = [], []
    for i, rid, due, sent, recv, ok in phase.records:
        if not ok or ops[i].path != "/predict":
            continue
        spans_r = by_rid.get(rid, [])
        hops = _hops(spans_r)
        if hops is None:
            continue
        outer, upstream_wire = hops
        row: Dict[str, float] = defaultdict(float)
        row["client.wait"] = sent - due
        row["http.wire"] = (recv - sent) - outer["dur"] + upstream_wire
        for span in spans_r:
            if span["name"] == "router.upstream":
                continue  # its time is the worker's spans plus wire
            row[span["name"]] += span["self"]
        latency = recv - due
        latencies.append(latency)
        unaccounted.append(latency - sum(row.values()))
        rows.append(row)
    if not latencies:
        return {"requests": 0, "unaccounted_pct": 0.0}
    mean_latency = float(np.mean(latencies))
    stages = {name: [row.get(name, 0.0) for row in rows]
              for name in sorted(set().union(*rows))}
    return {
        "requests": len(latencies),
        "latency_mean_ms": mean_latency * 1e3,
        "latency_p50_ms": float(np.median(latencies)) * 1e3,
        "stages_mean_ms": {k: float(np.mean(v)) * 1e3 for k, v in stages.items()},
        "stages_p50_ms": {k: float(np.median(v)) * 1e3 for k, v in stages.items()},
        "unaccounted_mean_ms": float(np.mean(unaccounted)) * 1e3,
        "unaccounted_pct": 100.0 * float(np.mean(unaccounted)) / mean_latency,
    }


def train_breakdown(spans: SpanSet, setup_s: float, fit_s: float) -> dict:
    """setup = simulate + build + save + load (+ rest); fit = gather + tape
    steps + traces (+ the rest: eval, batching, bookkeeping)."""
    setup_parts = {name: spans.total(name) for name in
                   ("city.simulate", "features.build", "features.save", "features.load")}
    fits = spans.by_name.get("core.fit", [])
    fit_parts = {"core.gather": sum(s["dur"] for s in spans.by_name.get(
        "core.epoch_batches", []) if s["extra"].get("gather"))}
    for name in TAPE_STEPS + ("nn.trace",):
        fit_parts[name] = sum(s["dur"] for s in _within(spans, name, fits))
    setup_rest = setup_s - sum(setup_parts.values())
    fit_rest = fit_s - sum(fit_parts.values())
    return {
        "setup_s": setup_s, "setup_parts_s": setup_parts, "setup_unaccounted_s": setup_rest,
        "fit_s": fit_s, "fit_parts_s": fit_parts, "fit_other_s": fit_rest,
        "unaccounted_pct": 100.0 * setup_rest / setup_s,
    }
