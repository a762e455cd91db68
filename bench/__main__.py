"""``python3 -m bench``: the one benchmark command.

With ``--workload NAME`` and no ``--reps``: one run in this process, as the
benchmark contract drives it (``--workload --seed --seconds --trace 0|1``);
the last line of standard output is the contract's JSON object.  Otherwise:
every workload (or the one named), ``--reps`` runs each in fresh
subprocesses plus, with ``--trace``, one traced run each.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench import host


def parse(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="run only this workload")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the generated inputs (default 0; reference values "
                         "exist for 0, other seeds are checked by invariants)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed section the cycle counts are sized for "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                    help="1: traced pass (per-layer metrics); 0: end-to-end pass")
    ap.add_argument("--reps", type=int, default=None,
                    help="end-to-end runs per workload, each in a fresh subprocess "
                         "(default 3 when no single run is asked for)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes for the self-tests; smoke numbers are never compared")
    ap.add_argument("--out", metavar="PATH", help="write the JSON document here")
    ap.add_argument("--trace-out", metavar="PATH",
                    help="single traced run: write the Chrome-trace JSON here")
    ap.add_argument("--check", action="store_true",
                    help="validate BENCHMARK.json against the registry; run nothing")
    ap.add_argument("--repeat-check", action="store_true",
                    help="run two full sets back to back and compare them against the "
                         "declared bounds")
    ap.add_argument("--write-reference", action="store_true",
                    help="pin the seed-0 diagnostics in bench/reference.json "
                         "(refuses when src/ differs from HEAD)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    host.pin_environment()  # before NumPy is imported anywhere in this process
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "repro").is_dir():
        print(f"bench: the program under test is missing ({src / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.check:
        from bench import check

        return check.main()
    from bench import suite

    if args.seconds is None:
        args.seconds = float(suite.load_benchmark_json()["run_seconds"])
    if args.write_reference:
        return suite.write_reference(args)
    if args.repeat_check:
        return suite.repeat_check(args)
    if args.workload and args.reps is None:
        return suite.single(args)
    return suite.full(args)


if __name__ == "__main__":
    sys.exit(main())
