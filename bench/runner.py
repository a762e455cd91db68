"""One run of one workload in this process: measure, check, report.

The end-to-end pass runs with tracing off (no wrapper installed); the
traced pass installs the wrappers of :mod:`bench.layers` and reports the
per-layer metrics.  Work is fixed, not time: ``--seconds`` selects how many
steady cycles are timed (sized for the recording host), so exact counts
repeat and two commits are compared on identical work.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
from pathlib import Path

from . import host
from .layers import ENTRY_POINTS, PER_LAYER, View, layer_shares
from .trace import Tracer
from .workloads import BY_NAME, Run

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: (name, unit, better): what a user of the system would see
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cycle_s", "s", "lower"),
    ("elem_cycles_per_s", "elem.cycle/s", "higher"),
    ("scenario_cycles_per_s", "job.cycle/s", "higher"),
    ("dof_steps_per_s", "dof.step/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
]
E2E_UNITS = {name: unit for name, unit, _ in END_TO_END}
LAYER_UNITS = {m.name: m.unit for m in PER_LAYER}


def timed_cycles(workload, seconds: float, smoke: bool) -> int:
    """Timed cycles per replica."""
    return 2 if smoke else max(1, round(workload.cycles_per_10s * seconds / 10))


def end_to_end(run: Run) -> dict:
    rss_kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    rate = lambda key: sum(r[key] for r in run.cycles) / run.wall_s  # noqa: E731
    return {
        "setup_s": min(run.setup_samples),
        "wall_s": run.wall_s,
        "cycle_s": statistics.median(r["seconds"] for r in run.cycles),
        "elem_cycles_per_s": rate("elements"),
        "scenario_cycles_per_s": rate("scenarios"),
        "dof_steps_per_s": rate("dof_steps"),
        "peak_rss_mb": rss_kib / 1024.0,
    }


def _flatten(diag: dict) -> dict:
    """``{key: [values]}`` for scalar and per-job diagnostics alike."""
    return {k: list(v) if isinstance(v, (list, tuple)) else [v] for k, v in diag.items()}


def result_rel_dev(workload, records: list, reference: list) -> tuple[float, bool]:
    """Largest relative deviation of the diagnostics from the pinned ones
    and whether every diagnostic is within its tolerance.  Cycles beyond
    the pinned ones are not compared."""
    worst, ok = 0.0, True
    tols = getattr(workload, "diag_tol", {})
    for rec, ref in zip(records, reference):
        got, want = _flatten(rec["diag"]), _flatten(ref)
        for key, ref_values in want.items():
            for a, b in zip(got[key], ref_values):
                dev = abs(a - b) / abs(b) if a == a else float("inf")
                if dev > tols.get(key, workload.result_tol):
                    ok = False
                if key not in tols:
                    worst = max(worst, dev)
    return worst, ok


def load_reference(name: str) -> dict | None:
    if not REFERENCE_PATH.exists():
        return None
    with open(REFERENCE_PATH) as f:
        return json.load(f).get(name)


def run_one(name: str, seed: int, seconds: float, traced: bool, smoke: bool = False,
            trace_out: str | None = None) -> dict:
    """Run ``name`` once and return its document."""
    workload = BY_NAME[name]
    load_start = os.getloadavg()[0]
    inputs = workload.inputs(seed, smoke)
    tracer = Tracer(enabled=traced)
    tracer.install(ENTRY_POINTS)
    try:
        run = workload.run(
            inputs, 1 if traced else 2 if smoke else workload.replicas,
            timed_cycles(workload, seconds, smoke), tracer,
        )
    finally:
        tracer.uninstall()
    records = run.cold + run.cycles
    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    doc = {
        "workload": name, "seed": seed, "seconds": seconds, "smoke": smoke,
        "traced": traced, "noisy": host.is_noisy(load_start),
        "attempted": attempted, "failed": failed,
        "ops_failed_frac": failed / attempted,
        "checks": dict(run.checks), "notes": dict(run.notes),
        "cycle_seconds": [r["seconds"] for r in run.cycles],
        "replica_cycle_seconds": [[r["seconds"] for r in rep] for rep in run.replicas],
        "setup_seconds": list(run.setup_samples),
        "diagnostics": [r["diag"] for r in records],
        "elements": [r["elements"] for r in records],
    }
    reference = load_reference(name) if seed == 0 and not smoke else None
    if reference is not None:
        dev, ok = result_rel_dev(workload, records, reference["diagnostics"])
        doc["result_rel_dev"] = dev
        doc["checks"]["matches_reference"] = ok
    doc["correct"] = failed == 0 and all(doc["checks"].values())
    if traced:
        cycle_sum = sum(doc["cycle_seconds"])
        view = View(tracer, run.wall_s, cycle_sum, run.counters)
        doc["per_layer"] = {m.name: m.fn(view) for m in PER_LAYER}
        doc["layer_shares"] = layer_shares(view)
        doc["layer_calls"] = {layer: view.layer_calls(layer) for layer in doc["layer_shares"]
                              if layer != "unattributed"}
        doc["trace_unresolved"] = list(tracer.unresolved)
        doc["traced_wall_s"] = run.wall_s
        if trace_out:
            tracer.write_chrome_trace(trace_out, name)
    else:
        doc["end_to_end"] = end_to_end(run)
    doc["host"] = {**host.fingerprint(), "loadavg_1min_start": load_start,
                   "loadavg_1min_end": os.getloadavg()[0]}
    return doc


def print_run(doc: dict) -> None:
    """Every metric by name with its unit, then the one-line result the
    benchmark contract asks for (last line of standard output)."""
    name = doc["workload"]
    if doc["noisy"]:
        print(f"NOISY: 1-min load average {doc['host']['loadavg_1min_start']:.2f} "
              f"exceeded nproc/2 before {name} started")
    if doc["traced"]:
        units, values = LAYER_UNITS, doc["per_layer"]
        shares = ", ".join(f"{k} {100 * v:.1f}%" for k, v in doc["layer_shares"].items()
                           if v >= 0.0005)
        print(f"[{name}] self-time share of traced wall: {shares}")
    else:
        units, values = E2E_UNITS, doc["end_to_end"]
    for key, value in values.items():
        print(f"[{name}] {key} = {value:.6g} {units[key]}")
    print(f"[{name}] ops_failed_frac = {doc['ops_failed_frac']:.6g} "
          f"({doc['failed']} of {doc['attempted']})")
    if "result_rel_dev" in doc:
        print(f"[{name}] result_rel_dev = {doc['result_rel_dev']:.3e}")
    for check, passed in doc["checks"].items():
        print(f"[{name}] check {check}: {'ok' if passed else 'FAILED'}")
    print(json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"], "failed": doc["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
