"""Sets of runs: every workload x reps in fresh subprocesses, the
cross-workload checks, the repeat check and the reference writer.

Each (workload, rep) is its own process so that peak RSS, the operator
caches and the SPMD thread pool are per run.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile

from . import host, runner
from .layers import PER_LAYER
from .workloads import WORKLOADS

DEFAULT_REPS = 3
#: convect_gmg must reproduce convect_amg's physics on identical inputs
GMG_VS_AMG_TOL = 1e-3


def load_benchmark_json() -> dict:
    with open(runner.ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _write(path: str | None, doc: dict) -> None:
    if path:
        with open(path, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")


def single(args) -> int:
    doc = runner.run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                         smoke=args.smoke, trace_out=args.trace_out)
    _write(args.out, doc)
    runner.print_run(doc)
    return 0


# -- a set of runs -----------------------------------------------------------


def _child(name: str, args, traced: bool, tmpdir: str, trace_out: str | None = None) -> dict:
    out = os.path.join(tmpdir, f"{name}.{int(traced)}.json")
    cmd = [sys.executable, "-m", "bench", "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(traced)), "--out", out]
    if args.smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    done = subprocess.run(cmd, cwd=runner.ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{done.stderr}")
    with open(out) as f:
        return json.load(f)


def _quartiles(values: list) -> dict:
    q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                  else [values[0]] * 3)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def run_set(args, names: list, traced: bool, reps: int) -> dict:
    """All ``names`` x ``reps`` end-to-end runs plus one traced run each."""
    units = runner.E2E_UNITS
    load_start = os.getloadavg()[0]
    doc = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
           "reps": reps, "noisy": host.is_noisy(load_start), "workloads": {},
           "host": {**host.fingerprint(), "loadavg_1min_start": load_start}}
    if doc["noisy"]:
        print("NOISY: 1-min load average exceeded nproc/2 before the set started")
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=os.getcwd()) as tmp:
        for name in names:
            runs = [_child(name, args, False, tmp) for _ in range(reps)]
            entry = {
                "end_to_end": {
                    key: {"value": statistics.median(r["end_to_end"][key] for r in runs),
                          "unit": units[key],
                          "runs": [r["end_to_end"][key] for r in runs]}
                    for key in units
                },
                # one cycle's wall, pooled over the reps
                "cycle_s_pooled": _quartiles([s for r in runs for s in r["cycle_seconds"]]),
                "ops_failed_frac": max(r["ops_failed_frac"] for r in runs),
                "result_rel_dev": max((r["result_rel_dev"] for r in runs
                                       if "result_rel_dev" in r), default=None),
                "correct": all(r["correct"] for r in runs),
                "checks": runs[0]["checks"], "notes": runs[0]["notes"],
                "diagnostics": runs[0]["diagnostics"], "elements": runs[0]["elements"],
            }
            if traced:
                trace_out = None if args.smoke else f"bench_trace.{name}.json"
                t = _child(name, args, True, tmp, trace_out)
                entry.update(per_layer=t["per_layer"], layer_shares=t["layer_shares"],
                             layer_calls=t["layer_calls"],
                             trace_unresolved=t["trace_unresolved"])
                entry["correct"] = entry["correct"] and t["correct"]
                # as measured: the traced pass over one untraced pass, the
                # first replica (the per-layer trace.overhead_frac is the
                # calibrated estimate)
                first_pass = statistics.median(
                    sum(r["replica_cycle_seconds"][0]) for r in runs)
                entry["trace_overhead_measured_frac"] = t["traced_wall_s"] / first_pass - 1.0
            doc["workloads"][name] = entry
            _print_entry(name, entry)
    doc["cross_checks"] = _cross_checks(doc["workloads"])
    for check, passed in doc["cross_checks"].items():
        print(f"cross-check {check}: {'ok' if passed else 'FAILED'}")
    doc["host"]["loadavg_1min_end"] = os.getloadavg()[0]
    return doc


def _print_entry(name: str, entry: dict) -> None:
    for key, m in entry["end_to_end"].items():
        print(f"[{name}] {key} = {m['value']:.6g} {m['unit']}")
    c = entry["cycle_s_pooled"]
    print(f"[{name}] cycle_s pooled: median {c['median']:.4g} s, quartiles "
          f"{c['q1']:.4g}-{c['q3']:.4g} s, n = {c['n']}")
    print(f"[{name}] ops_failed_frac = {entry['ops_failed_frac']:.6g}")
    if entry["result_rel_dev"] is not None:
        print(f"[{name}] result_rel_dev = {entry['result_rel_dev']:.3e}")
    for check, passed in entry["checks"].items():
        print(f"[{name}] check {check}: {'ok' if passed else 'FAILED'}")
    if "per_layer" in entry:
        for key, value in entry["per_layer"].items():
            print(f"[{name}] {key} = {value:.6g} {runner.LAYER_UNITS[key]}")
        shares = ", ".join(f"{k} {100 * v:.1f}%" for k, v in entry["layer_shares"].items())
        print(f"[{name}] self-time share of traced wall: {shares}")
        print(f"[{name}] trace overhead measured: "
              f"{100 * entry['trace_overhead_measured_frac']:.2f}%")


def _cross_checks(workloads: dict) -> dict:
    checks = {}
    amg, gmg = workloads.get("convect_amg"), workloads.get("convect_gmg")
    if amg and gmg:
        checks["gmg_same_elements_as_amg"] = amg["elements"] == gmg["elements"]
        checks["gmg_physics_matches_amg"] = all(
            abs(g[k] - a[k]) <= GMG_VS_AMG_TOL * abs(a[k])
            for a, g in zip(amg["diagnostics"], gmg["diagnostics"])
            for k in ("vrms", "nusselt")
        )
    return checks


def _names(args) -> list:
    return [args.workload] if args.workload else [w.name for w in WORKLOADS]


def _set_ok(doc: dict) -> bool:
    return (all(e["correct"] for e in doc["workloads"].values())
            and all(doc["cross_checks"].values()))


def full(args) -> int:
    doc = run_set(args, _names(args), bool(args.trace), args.reps or DEFAULT_REPS)
    _write(args.out, doc)
    print(json.dumps(doc, sort_keys=True))
    return 0 if _set_ok(doc) else 1


# -- repeat check ------------------------------------------------------------


def repeat_check(args) -> int:
    """Two sets of the same code: every end-to-end pair within its bound,
    every exact count identical."""
    bounds = {m["name"]: m["bound"] for m in load_benchmark_json()["end_to_end"]}
    exact = [m.name for m in PER_LAYER if m.exact]
    reps = args.reps or DEFAULT_REPS
    a = run_set(args, _names(args), True, reps)
    b = run_set(args, _names(args), True, reps)
    rows, violations = [], 0
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for key, bound in bounds.items():
            va, vb = wa["end_to_end"][key]["value"], wb["end_to_end"][key]["value"]
            diff = abs(vb - va) / va
            ok = diff <= bound
            rows.append({"workload": name, "metric": key, "a": va, "b": vb,
                         "rel_diff": diff, "bound": bound, "ok": ok})
            print(f"[{name}] {key}: {va:.6g} vs {vb:.6g}, rel diff {diff:.4f} "
                  f"(bound {bound}) {'ok' if ok else 'VIOLATION'}")
            violations += not ok
        for key in exact:
            va, vb = wa["per_layer"][key], wb["per_layer"][key]
            if va != vb:
                print(f"[{name}] {key}: exact count differs: {va} vs {vb} VIOLATION")
                rows.append({"workload": name, "metric": key, "a": va, "b": vb, "ok": False})
                violations += 1
    violations += not (_set_ok(a) and _set_ok(b))
    print(f"repeat check: {violations} violation(s)")
    _write(args.out, {"a": a, "b": b, "comparison": rows, "violations": violations})
    return 1 if violations else 0


# -- reference values ----------------------------------------------------------


def write_reference(args) -> int:
    """Pin the seed-0 diagnostics of every workload.  Refuses when ``src/``
    differs from HEAD: reference values belong to a committed program."""
    status = host.dirty_paths("src")
    if status is None or status:
        print("refusing to write reference values: src/ is not a clean git checkout",
              file=sys.stderr)
        return 1
    args.seed, args.smoke = 0, False
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=os.getcwd()) as tmp:
        reference = {
            w.name: {"diagnostics": _child(w.name, args, False, tmp)["diagnostics"]}
            for w in WORKLOADS
        }
    reference["_provenance"] = {"seed": 0, "seconds": args.seconds, **host.fingerprint()}
    _write(str(runner.REFERENCE_PATH), reference)
    print(f"wrote {runner.REFERENCE_PATH}")
    return 0
