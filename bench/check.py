"""``python3 -m bench --check``: validate ``BENCHMARK.json`` against the
registry in this package and scan ``bench/`` for knobs it must not use.
Runs no workload.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .layers import PER_LAYER
from .runner import END_TO_END, ROOT
from .workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
MAX_BOUND = 0.25

#: selectors of duplicate code paths that a later simplification removes;
#: the benchmark must survive that, so it may not name them (spelled in
#: pieces so that this file passes its own scan)
FORBIDDEN = ["_algo" + "rithm=", "vari" + "ant=", "fem_" + "variant", "lega" + "cy_",
             "REPRO_SPMD_" + "BACKEND"]


def _same(kind: str, declared: list, registry: dict, keys: tuple) -> list:
    """Problems where the declared metrics differ from the registry's."""
    problems = []
    names = [m.get("name") for m in declared]
    for extra in sorted(set(names) - set(registry)):
        problems.append(f"{kind} metric {extra!r} is declared but never emitted")
    for missing in sorted(set(registry) - set(names)):
        problems.append(f"{kind} metric {missing!r} is emitted but not declared")
    if len(names) != len(set(names)):
        problems.append(f"{kind} metric names repeat")
    for m in declared:
        if set(m) != set(keys):
            problems.append(f"{kind} metric {m.get('name')!r} must have exactly the keys {keys}")
        elif m["name"] in registry:
            unit, better = registry[m["name"]]
            if (m["unit"], m["better"]) != (unit, better):
                problems.append(f"{kind} metric {m['name']!r}: declared "
                                f"{m['unit']}/{m['better']}, registry {unit}/{better}")
        if not NAME.match(str(m.get("name"))):
            problems.append(f"bad metric name {m.get('name')!r}")
        if not UNIT.match(str(m.get("unit"))):
            problems.append(f"bad unit {m.get('unit')!r} of {m.get('name')!r}")
    return problems


def problems_of(doc: dict) -> list:
    problems = []
    if set(doc) != KEYS:
        problems.append(f"keys must be exactly {sorted(KEYS)}")
        return problems
    if doc["paths"] != ["bench"]:
        problems.append('paths must be ["bench"]')
    if not (isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    declared = {w.get("name"): w for w in doc["workloads"]}
    if list(declared) != [w.name for w in WORKLOADS]:
        problems.append("workloads differ from the registry "
                        f"({[w.name for w in WORKLOADS]})")
    if not 2 <= len(doc["workloads"]) <= 8:
        problems.append("2 to 8 workloads")
    for w in doc["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(str(w.get("name"))):
            problems.append(f"workload entry {w!r} needs exactly a valid name and a why")
        elif len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"why of {w['name']} must be one line of at most 200 characters")
    e2e = {name: (unit, better) for name, unit, better in END_TO_END}
    problems += _same("end-to-end", doc["end_to_end"], e2e, ("name", "unit", "better", "bound"))
    for m in doc["end_to_end"]:
        bound = m.get("bound")
        if not (isinstance(bound, (int, float)) and 0 < bound <= MAX_BOUND):
            problems.append(f"end-to-end metric {m.get('name')!r} needs a bound in (0, {MAX_BOUND}]")
    if not any((m.get("name"), m.get("unit"), m.get("better")) == ("setup_s", "s", "lower")
               for m in doc["end_to_end"]):
        problems.append("setup_s (s, lower) must be an end-to-end metric")
    if not 1 <= len(doc["end_to_end"]) <= 16:
        problems.append("1 to 16 end-to-end metrics")
    layer = {m.name: (m.unit, m.better) for m in PER_LAYER}
    problems += _same("per-layer", doc["per_layer"], layer, ("name", "unit", "better"))
    if not 1 <= len(doc["per_layer"]) <= 128:
        problems.append("1 to 128 per-layer metrics")
    for m in PER_LAYER:
        if not m.moves.strip():
            problems.append(f"per-layer metric {m.name!r} names no end-to-end metric it moves")
    return problems


def forbidden_knobs(root: Path) -> list:
    problems = []
    for path in sorted(root.rglob("*")):
        if path.suffix not in (".py", ".json") or not path.is_file():
            continue
        text = path.read_text()
        for knob in FORBIDDEN:
            if knob in text:
                problems.append(f"{path.relative_to(root.parent)} uses the knob {knob!r}")
    return problems


def main() -> int:
    path = ROOT / "BENCHMARK.json"
    if path.stat().st_size > 64 * 1024:
        problems = ["BENCHMARK.json is larger than 64 KiB"]
    else:
        with open(path) as f:
            problems = problems_of(json.load(f))
    problems += forbidden_knobs(ROOT / "bench")
    for p in problems:
        print(f"BENCHMARK.json check: {p}")
    print(f"BENCHMARK.json check: {len(problems)} problem(s)")
    return 1 if problems else 0
