"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload laplace --seed 1 --seconds 45 --trace 0

Run from the repository root.  A workload is an input family
(``families.py``); every workload runs the same three phases on its
family's matrices, each for its share of ``--seconds``, in turns (see
:func:`run_all`): ``spmv`` (Table 1, one bound SpMV per format),
``service`` (open-loop compile and CG-solve requests) and ``spmd``
(Table 2, SPMD CG).  The inputs are made from ``--seed``; every output
is checked against references computed apart from the program
(``checks.py``), and the last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end figures, with tracing off;
with ``--trace 1`` they are the per-layer figures from a run whose
layers are wrapped in spans (``tracing.py``), and each phase's spans are
written to ``perfbench/out/``.  See ``perfbench/README.md`` for what
each figure means and which end-to-end figure each layer figure should
move.

``setup_s`` is the median of three set-ups: this process's own (timed
from the first import) and two more, each in a fresh interpreter
(``--setup-only``), so lazy imports and first compiles are paid every
time, as a user pays them.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("laplace", "blocked")
#: phase modules in the order they are set up and run, with the share of
#: ``--seconds`` each measures.  The service gets the most: its figures
#: rest on the few seconds its worker is busy (a fifth of its time), and
#: the SpMV figures on calls of ~2–10 ms that need little time.
PHASES = {"spmv": 0.2, "service": 0.5, "spmd": 0.3}
#: seconds of one untraced cycle, in which every phase takes one turn
CYCLE_S = 5.0
#: set-ups in fresh interpreters, besides this process's own
EXTRA_SETUPS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it as JSON and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def fresh_setups(args) -> list[float]:
    """Set-up seconds of ``EXTRA_SETUPS`` fresh interpreters."""
    out = []
    for _ in range(EXTRA_SETUPS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def setup_all(args, clock):
    """Set up every phase; if one fails, tear down those already up."""
    from families import FAMILIES

    fam = FAMILIES[args.workload]
    states = []
    try:
        for name, share in PHASES.items():
            mod = __import__(f"phase_{name}")
            states.append((name, share, mod, mod.setup(args.seed, clock, fam)))
    except BaseException:
        teardown_all(states)
        raise
    return states


def teardown_all(states) -> None:
    for _, _, mod, st in reversed(states):
        mod.teardown(st)


def run_all(args, states):
    """Measure every phase for its share of ``--seconds``.

    Untraced, the phases take turns, ``CYCLE_S`` seconds for a round of
    turns, so each one samples the whole run: the host's speed for
    interpreted code drifts by ±25% over seconds to tens of seconds, and
    a phase measured in one block would read whichever stretch it fell
    in.  A turn runs whole operations until the phase has used its share
    of the cycles so far, so a long operation that overruns one turn
    shortens the next.  Traced, each phase runs in one block with a span
    recorder of its own."""
    from common import Outcome

    if args.trace:
        from tracing import SpanRecorder

        outs = []
        for name, share, mod, st in states:
            recorder = SpanRecorder()
            outs.append(mod.run(st, share * args.seconds, recorder))
            recorder.dump(
                HERE / "out" / f"trace-{args.workload}-{name}-seed{args.seed}.json",
                {"workload": args.workload, "phase": name, "seed": args.seed,
                 "seconds": share * args.seconds},
            )
    else:
        cycles = max(1, round(args.seconds / CYCLE_S))
        accs = [mod.begin(st, share * args.seconds, cycles) for _, share, mod, st in states]
        used = [0.0] * len(states)
        for c in range(cycles):
            for i, ((_, share, mod, st), acc) in enumerate(zip(states, accs)):
                budget = share * args.seconds * (c + 1) / cycles - used[i]
                t0 = time.perf_counter()
                mod.measure(st, acc, budget)
                used[i] += time.perf_counter() - t0
        outs = [mod.finish(st, acc) for (_, _, mod, st), acc in zip(states, accs)]

    total = Outcome()
    for out in outs:
        total.attempted += out.attempted
        total.metrics.update(out.metrics)
        total.layers.update(out.layers)
        total.failures.extend(out.failures)
        total.problems.extend(out.problems)
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    import numpy  # noqa: F401
    import repro  # noqa: F401

    from common import SetupClock, peak_rss_mb

    clock = SetupClock()
    clock.seconds["imports"] = time.perf_counter() - T_START
    states = setup_all(args, clock)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": clock.total()}))
            return 0
        out = run_all(args, states)
    finally:
        teardown_all(states)

    if args.trace:
        for phase, s in clock.seconds.items():
            out.layers[f"setup.{phase}_s"] = (s, "s")
        out.layers["compiler.first_compile_ms"] = (1e3 * clock.seconds["first_compile"], "ms")
        figures = out.layers
    else:
        figures = out.metrics
        figures["setup_s"] = (
            statistics.median([clock.total(), *fresh_setups(args)]), "s",
        )
        figures["peak_rss_mb"] = (peak_rss_mb(), "MB")

    for failure in out.failures:
        print(f"perfbench: operation failed: {failure}", file=sys.stderr)
    for problem in out.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": float(v), "unit": unit}
            for name, (v, unit) in sorted(figures.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
