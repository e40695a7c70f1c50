"""factoreq benchmark: run one workload in process through ``cli.run``.

    python3 perfbench/run.py --workload span|regconst|profiles \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; factoreq is imported from its ``src/``.
One caller issues one command at a time (a closed loop, no threads) and
repeats whole passes over the workload's command list for ``--seconds``.
Every distinct output is checked against the benchmark's own computation
(``checks.py``); a wrong value, verdict or exit code fails the command.

Times are seconds at a fixed reference speed: the measured seconds times
REF_SECONDS over the mean time of a reference loop sampled between the
commands of the same run (see ``Speed``).  The raw seconds and the speed
factor go to standard error.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` untraced and traced passes
alternate and the metrics are the per-layer ones (``tracer.py``).
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = ".perfbench"          # generated inputs and spans, under ROOT
SETUP_REPEATS = 21
WORKLOADS = ("span", "regconst", "profiles")

# The reference loop's time on the 2-core VM the figures in README.md come
# from, when nothing else ran.  Fixed for good: changing it rescales every
# time this benchmark reports.
REF_SECONDS = 0.009
REF_EVERY = 0.1                 # seconds of commands per reference sample
REF_BURST = 30                  # most samples taken after one command

sys.path.insert(0, HERE)
import oracle      # noqa: E402
import workloads   # noqa: E402
from tracer import Tracer  # noqa: E402


_REF_INT_A, _REF_INT_B = 3 ** 1500, 5 ** 1400


def _reference_loop():
    """Fixed work of the two kinds factoreq does: small dicts, tuples and
    frozensets (group and relation code), then big-integer products and
    divisions (determinants and HNF), about half the time each.  All of it
    is freed again, so the cyclic GC sees no net allocation and the time
    depends on the CPU's speed, not on the program's heap."""
    table = {}
    for i in range(3000):
        key = frozenset((i * j) % 97 for j in range(3))
        table[i % 251] = (key, table.get((i * 7) % 251, (None, 0))[1] + 1)
    x = _REF_INT_A
    for i in range(140):
        x = (x * _REF_INT_B) // (_REF_INT_B + i)


class Speed:
    """How fast the CPU runs during this run, relative to REF_SECONDS.

    On a shared VM other tenants take the CPU away in bursts whose density
    drifts over tens of seconds, so raw times of one run spread by 10-30%
    from the next.  The reference loop, sampled between commands all
    through the run, slows down with them; scaling by it cancels the drift.
    """

    def __init__(self):
        self.samples = []
        self.last = 0.0

    def sample(self):
        start = time.perf_counter()
        _reference_loop()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def catch_up(self):
        """One sample per REF_EVERY seconds since the last, so that each
        stretch of the run weighs in the mean by its length."""
        due = int((time.perf_counter() - self.last) / REF_EVERY)
        for _ in range(min(due, REF_BURST)):
            self.sample()

    def factor(self):
        return REF_SECONDS / statistics.fmean(self.samples)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_factoreq():
    """Import factoreq afresh from this checkout's src/ only."""
    for name in [m for m in sys.modules
                 if m == "factoreq" or m.startswith("factoreq.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import factoreq.cli
    where = os.path.dirname(os.path.abspath(factoreq.__file__))
    if where != os.path.join(SRC, "factoreq"):
        raise ImportError(f"factoreq imported from {where}, not from src/")
    return factoreq.cli


def setup(workload, seed, speed):
    """Import factoreq and generate the inputs, SETUP_REPEATS times.

    Returns (cli module, commands, median raw seconds).  The oracle's group
    models are built before timing starts: they serve the checks and are
    no part of a user's set-up.  Each purged copy of factoreq is cyclic
    garbage (module dict <-> function globals); a collection after each
    repeat, outside the timing, frees it, so that only the last copy is
    alive afterwards.
    """
    for spec in workloads.specs(workload):
        oracle.model(spec).classes()
    os.makedirs(WORKDIR, exist_ok=True)
    times = []
    for _ in range(SETUP_REPEATS):
        cli = commands = None
        gc.collect()
        speed.sample()
        start = time.perf_counter()
        cli = _import_factoreq()
        commands = workloads.build(workload, seed, WORKDIR)
        times.append(time.perf_counter() - start)
    gc.collect()
    return cli, commands, statistics.median(times)


def run_pass(cli, commands, verifier, speed, tracer=None):
    """One pass over the commands, outputs handed to the verifier; returns
    (pass seconds, per-command seconds).  Each command starts from an empty
    young GC generation, as in a fresh process, so its time does not depend
    on what ran before it.  Reference samples and collections fall between
    commands and count in neither."""
    times, results = [], []
    if tracer:
        tracer.install()
    try:
        for index, command in enumerate(commands):
            gc.collect()
            out, err = io.StringIO(), io.StringIO()
            if tracer:
                tracer.begin_command(index)
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(command.argv)
            times.append(time.perf_counter() - start)
            results.append((code, out.getvalue(), err.getvalue()))
            speed.catch_up()
    finally:
        if tracer:
            tracer.uninstall()
    verifier.record(results)
    return sum(times), times


class Verifier:
    """Keeps each distinct (command, output) once, checks it once after the
    measurement, and counts every attempt that produced a wrong one."""

    def __init__(self, commands):
        self.commands = commands
        self.seen = {}             # (index, code, stdout, stderr) -> attempts
        self.attempted = 0
        self.reasons = {}

    def record(self, results):
        for index, (code, out, err) in enumerate(results):
            key = (index, code, out, err)
            self.seen[key] = self.seen.get(key, 0) + 1
            self.attempted += 1

    def verify(self):
        """Number of failed attempts."""
        failed = 0
        for (index, code, out, err), attempts in self.seen.items():
            reason = self.commands[index].check(code, out)
            if reason:
                if err:
                    reason += f" (stderr: {err.strip()})"
                self.reasons[" ".join(self.commands[index].argv)] = reason
                failed += attempts
        return failed


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "factoreq", "cli.py")):
        print(f"error: no factoreq package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    speed = Speed()
    cli, commands, setup_raw = setup(args.workload, args.seed, speed)
    # setup() ends with a collection, so only live objects are frozen: the
    # benchmark's own and factoreq's modules, never scanned again
    gc.freeze()

    verifier = Verifier(commands)
    untraced, traced = [], []       # (pass seconds, per-command seconds)
    tracers = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        # traced runs alternate which kind of pass goes first, so that the
        # slower first pass of a run does not bias trace.overhead_s
        if args.trace and len(traced) % 2:
            tracers.append(Tracer())
            traced.append(run_pass(cli, commands, verifier, speed,
                                   tracers[-1]))
        untraced.append(run_pass(cli, commands, verifier, speed))
        if args.trace and len(traced) < len(untraced):
            tracers.append(Tracer())
            traced.append(run_pass(cli, commands, verifier, speed,
                                   tracers[-1]))
        now = time.perf_counter()
        # whole passes only: start another one if it should end in time
        if now + (now - pass_start) - start > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = verifier.verify()
    for argv_text, reason in sorted(verifier.reasons.items()):
        print(f"FAILED {argv_text}: {reason}", file=sys.stderr)

    scale = speed.factor()
    walls = [wall for wall, _ in untraced]
    if args.trace:
        metrics = _layer_metrics(tracers, traced, walls, scale)
    else:
        # each command's median over the passes: one burst of contention
        # during one pass does not move it
        typical = [statistics.median(ts)
                   for ts in zip(*(t for _, t in untraced))]
        metrics = {
            "setup_s": _metric(setup_raw * scale, "s"),
            "wall_s": _metric(statistics.fmean(walls) * scale, "s"),
            "cmd_p50_ms": _metric(1000 * statistics.median(typical) * scale,
                                  "ms"),
            "cmd_max_s": _metric(max(typical) * scale, "s"),
            "peak_rss_mib": _metric(peak_rss_mib, "MiB"),
        }
    print(f"{args.workload}: {len(commands)} commands x {len(untraced)} "
          f"untraced + {len(traced)} traced passes; raw pass seconds "
          f"{[round(w, 3) for w in walls]}; raw set-up {setup_raw:.4f} s; "
          f"speed factor {scale:.4f} from {len(speed.samples)} reference "
          f"samples", file=sys.stderr)
    # No command is expected to fail, so any wrong output makes the run
    # incorrect.
    print(json.dumps({"correct": failed == 0,
                      "attempted": verifier.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_metrics(tracers, traced, untraced_walls, scale):
    """Per-layer metrics: times are means over the traced passes, counts
    come from the first traced pass (each pass repeats them exactly)."""
    per_pass = [t.metrics() for t in tracers]
    out = {}
    for name, value in per_pass[0].items():
        if name.endswith("_s"):
            out[name] = _metric(
                statistics.fmean(m[name] for m in per_pass) * scale, "s")
        elif name.endswith("_ratio"):
            out[name] = _metric(value, "ratio")
        else:
            out[name] = _metric(value, "count")
    traced_wall = statistics.fmean(wall for wall, _ in traced)
    out["trace.wall_s"] = _metric(traced_wall * scale, "s")
    out["trace.overhead_s"] = _metric(
        (traced_wall - statistics.fmean(untraced_walls)) * scale, "s")
    tracers[0].write(os.path.join(WORKDIR, "spans.jsonl"))
    return out


if __name__ == "__main__":
    sys.exit(main())
