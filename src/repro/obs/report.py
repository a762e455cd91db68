"""Paper-style scalability reports from measured phase records.

Combines per-rank :class:`~repro.obs.timer.PhaseTimer` results with the
:class:`~repro.parallel.machine.MachineModel` to emit the structure of
the paper's Tables IV-VI: a per-phase breakdown (seconds, percent of
wall-clock, load imbalance, communication volume) plus the AMR / Stokes
/ advection component split with a modeled comm-vs-compute share at
paper-scale core counts.

Measured-vs-modeled policy (DESIGN.md section 5): the simulated-rank
transport is shared memory, so the *measured* wall time is taken as the
compute time; the machine model prices each phase's recorded
communication tally at the requested core counts and the comm share at
``P`` is ``t_comm(P) / (wall + t_comm(P))`` — the same additive
composition the scaling harness uses.

Example::

    per_rank = run_spmd(4, kernel)             # kernel returns timer.results()
    rep = obs.generate_report(per_rank, executed_ranks=4)
    print(obs.markdown_report(rep))
    rep["fractions"]["amr"]                    # the Figure-7 headline number
"""

from __future__ import annotations

import math

from ..parallel.machine import RANGER, MachineModel
from .timer import imbalance

__all__ = [
    "PHASE_GROUPS",
    "classify_phase",
    "model_phase_comm",
    "generate_report",
    "markdown_report",
    "job_phases",
]

#: top-level phase name -> report component (everything else is "other";
#: :func:`classify_phase` looks past ``fleet`` and ``job:<id>`` segments)
PHASE_GROUPS = {
    "amr": "amr",
    "stokes": "stokes",
    "advection": "advection",
    "checkpoint": "checkpoint",
}

#: default modeled core counts: executed scale up to the paper's largest
#: Ranger run (Table VI, 62,464 cores)
DEFAULT_CORE_COUNTS = (1, 8, 1024, 62464)


def classify_phase(path: str) -> str:
    """Report component of a phase path, from its first segment after a
    leading ``fleet`` segment and any ``job:<id>`` segment (the fleet's
    batched and job-tagged phases aggregate like the drivers' own).

    Example::

        classify_phase("amr/balance")              # -> "amr"
        classify_phase("stokes/minres")            # -> "stokes"
        classify_phase("fleet/stokes")             # -> "stokes"
        classify_phase("fleet/job:j3/checkpoint")  # -> "checkpoint"
        classify_phase("io")                       # -> "other"
    """
    parts = path.split("/")
    if parts[0] == "fleet":
        parts = parts[1:]
    parts = [seg for seg in parts if not seg.startswith("job:")]
    return PHASE_GROUPS.get(parts[0] if parts else "", "other")


def job_phases(results: dict) -> dict:
    """Group job-id-tagged phase records by job.

    The fleet service tags per-job work by opening phases whose path
    contains a ``job:<id>`` segment (``fleet/job:j3/checkpoint``, ...).
    Given one rank's :meth:`~repro.obs.timer.PhaseTimer.results`, this
    returns ``{job_id: {subpath: record}}`` where ``subpath`` is the
    path below the job segment (``""`` for the segment itself) — the
    per-tenant metering view the fleet accountant renders.

    Example::

        with obs.phase("fleet/job:j3/checkpoint"):
            ...
        job_phases(timer.results())  # -> {"j3": {"checkpoint": {...}}}
    """
    out: dict[str, dict] = {}
    for path, rec in results.items():
        parts = path.split("/")
        for i, seg in enumerate(parts):
            if seg.startswith("job:") and len(seg) > 4:
                job_id = seg[4:]
                sub = "/".join(parts[i + 1 :])
                out.setdefault(job_id, {})[sub] = rec
                break
    return out


def _roots(paths) -> list[str]:
    """Paths with no recorded proper ancestor (their walls don't overlap)."""
    all_paths = set(paths)
    out = []
    for p in paths:
        parts = p.split("/")
        if any("/".join(parts[:i]) in all_paths for i in range(1, len(parts))):
            continue
        out.append(p)
    return sorted(out)


def model_phase_comm(entry: dict, p: int, machine: MachineModel = RANGER) -> float:
    """Modeled communication seconds of one phase's median-rank tally at
    ``p`` cores.

    The timer records per-phase totals (messages, bytes, collective
    calls, contributed collective bytes), not per-collective-name
    detail, so collectives are priced with the log-tree formula of the
    allreduce family: ``calls * ceil(log2 p) * alpha + bytes *
    ceil(log2 p) * beta``.  Point-to-point traffic is priced directly.

    Example::

        t = model_phase_comm(report["phases"]["amr/balance"], 62464)
    """
    if p <= 1:
        return 0.0
    lg = math.ceil(math.log2(p))
    msgs = entry["p2p_messages"]["median"]
    nbytes = entry["p2p_bytes"]["median"]
    calls = entry["collective_calls"]["median"]
    cbytes = entry["collective_bytes"]["median"]
    return (
        machine.t_p2p(nbytes, msgs)
        + calls * lg * machine.alpha
        + cbytes * lg * machine.beta
    )


def generate_report(
    per_rank: list[dict],
    machine: MachineModel = RANGER,
    core_counts=DEFAULT_CORE_COUNTS,
    executed_ranks: int | None = None,
) -> dict:
    """Build the Table IV-VI-style report from per-rank phase results.

    Parameters
    ----------
    per_rank:
        One :meth:`~repro.obs.timer.PhaseTimer.results` dict per rank.
    machine:
        Machine model pricing the communication tallies.
    core_counts:
        Core counts at which the comm-vs-compute split is modeled.
    executed_ranks:
        Rank count of the measured run (defaults to ``len(per_rank)``).

    Returns a dict with ``phases`` (every recorded path: wall min /
    median / max seconds, percent of wall, imbalance, comm volume,
    modeled comm seconds per core count, summed counters), ``groups``
    (AMR / Stokes / advection / checkpoint / other components with
    wall fractions and modeled comm shares), ``counters`` (summed
    timer-level counters recorded outside any phase), ``fractions``
    (the headline component split), and ``total_wall_s``.

    Example::

        rep = generate_report([timer.results()], core_counts=(1, 1024))
        assert abs(sum(rep["fractions"].values()) - 1.0) < 1e-12
    """
    p_exec = executed_ranks if executed_ranks is not None else max(len(per_rank), 1)
    imb = imbalance(per_rank)
    # timer-level counters (recorded outside any phase) are surfaced
    # separately; the "" record carries no wall time
    top = imb.pop("", None)
    roots = _roots(imb.keys())
    total_wall = sum(imb[p]["wall_s"]["max"] for p in roots)
    total_sum = sum(imb[p]["wall_s"]["sum"] for p in roots)

    phases: dict[str, dict] = {}
    for path, e in imb.items():
        is_root = path in roots
        phases[path] = {
            "group": classify_phase(path),
            "root": is_root,
            "count": e["count"],
            "wall_s": e["wall_s"],
            "self_s": e["self_s"],
            "pct_of_wall": (
                100.0 * e["wall_s"]["max"] / total_wall if total_wall > 0 else 0.0
            ),
            "imbalance": e["imbalance"],
            "p2p_messages": e["p2p_messages"],
            "p2p_bytes": e["p2p_bytes"],
            "collective_calls": e["collective_calls"],
            "collective_bytes": e["collective_bytes"],
            "flops": e["flops"],
            "counters": e["counters"],
            "comm_model_s": {
                str(p): model_phase_comm(e, p, machine) for p in core_counts
            },
        }

    groups: dict[str, dict] = {}
    for g in ("amr", "stokes", "advection", "checkpoint", "other"):
        g_roots = [p for p in roots if classify_phase(p) == g]
        wall = sum(imb[p]["wall_s"]["max"] for p in g_roots)
        wall_sum = sum(imb[p]["wall_s"]["sum"] for p in g_roots)
        comm_model = {
            str(pc): sum(model_phase_comm(imb[p], pc, machine) for p in g_roots)
            for pc in core_counts
        }
        counters: dict = {}
        for p in g_roots:
            for k, v in imb[p]["counters"].items():
                counters[k] = counters.get(k, 0) + v
        groups[g] = {
            "phases": g_roots,
            "wall_s": wall,
            "fraction": wall_sum / total_sum if total_sum > 0 else 0.0,
            "comm_model_s": comm_model,
            "comm_fraction": {
                pc: t / (wall + t) if (wall + t) > 0 else 0.0
                for pc, t in comm_model.items()
            },
            "counters": counters,
        }

    return {
        "executed_ranks": p_exec,
        "machine": machine.name,
        "core_counts": list(core_counts),
        "total_wall_s": total_wall,
        "phases": phases,
        "groups": groups,
        "counters": dict(top["counters"]) if top is not None else {},
        "fractions": {g: groups[g]["fraction"] for g in groups},
        "amr_fraction": groups["amr"]["fraction"],
    }


def _fmt_s(v: float) -> str:
    return f"{v:.4f}" if v >= 1e-4 or v == 0 else f"{v:.2e}"


def markdown_report(report: dict, title: str = "Per-phase breakdown") -> str:
    """Render a :func:`generate_report` result as markdown tables in the
    structure of the paper's Table IV: one row per phase with seconds,
    percent of wall-clock and communication volume, followed by the
    component summary (AMR / Stokes / advection) with the modeled comm
    share per core count.

    Example::

        md = markdown_report(rep)
        assert "| Phase |" in md and "AMR" in md
    """
    p_exec = report["executed_ranks"]
    cores = report["core_counts"]
    p_big = str(cores[-1])
    lines = [
        f"## {title}",
        "",
        f"Executed on {p_exec} simulated rank(s); machine model "
        f"`{report['machine']}`; total wall {_fmt_s(report['total_wall_s'])} s.",
        "",
        "| Phase | max s | median s | % of wall | imbalance | p2p msgs "
        f"| MB | coll. calls | modeled comm @{p_big} (s) |",
        "|---|---:|---:|---:|---:|---:|---:|---:|---:|",
    ]
    order = sorted(
        report["phases"].items(), key=lambda kv: -kv[1]["wall_s"]["max"]
    )
    for path, e in order:
        mb = (e["p2p_bytes"]["median"] + e["collective_bytes"]["median"]) / 1e6
        name = path if e["root"] else "&nbsp;&nbsp;" + path
        lines.append(
            f"| {name} | {_fmt_s(e['wall_s']['max'])} "
            f"| {_fmt_s(e['wall_s']['median'])} "
            f"| {e['pct_of_wall']:.1f} | {e['imbalance']:.2f} "
            f"| {int(e['p2p_messages']['median'])} | {mb:.3f} "
            f"| {int(e['collective_calls']['median'])} "
            f"| {_fmt_s(e['comm_model_s'][p_big])} |"
        )
    lines += [
        "",
        "## Component summary (AMR / Stokes / advection split)",
        "",
        "| Component | seconds | fraction of wall | "
        + " | ".join(f"comm share @{p}" for p in cores)
        + " |",
        "|---|---:|---:|" + "---:|" * len(cores),
    ]
    label = {
        "amr": "AMR (all tree/mesh functions)",
        "stokes": "Stokes solve",
        "advection": "Advection (energy transport)",
        "checkpoint": "Checkpoint I/O",
        "other": "Other",
    }
    for g, e in report["groups"].items():
        if e["wall_s"] == 0 and not e["phases"]:
            continue
        shares = " | ".join(
            f"{100 * e['comm_fraction'][str(p)]:.1f}%" for p in cores
        )
        lines.append(
            f"| {label[g]} | {_fmt_s(e['wall_s'])} "
            f"| {100 * e['fraction']:.1f}% | {shares} |"
        )
    lines.append("")
    lines.append(
        "Measured wall times are taken as compute (shared-memory "
        "transport); the comm share at P cores adds the machine-modeled "
        "communication time of the recorded per-phase tallies."
    )
    return "\n".join(lines)
