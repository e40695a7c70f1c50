"""Print a sha256 of every benchmark command's ``--json`` output.

    python3 perfbench/digest.py

Runs one untraced pass of each workload from the inputs of seed 0 and
prints ``<sha256 of stdout> <exit code> <workload> <argv>`` per command,
sorted, then one digest over all lines.  A change meant to keep every
output byte-identical (a performance change) must leave the final line
unchanged; diff the full listing of two commits to find the command that
moved.  The listing is computed afresh each time and is no pass/fail
check of any workload.
"""

import hashlib
import os
import sys

import run


def main():
    if not os.path.isfile(os.path.join(run.SRC, "factoreq", "cli.py")):
        print(f"error: no factoreq package under {run.SRC}", file=sys.stderr)
        return 2
    os.chdir(run.ROOT)
    lines = []
    for workload in run.WORKLOADS:
        speed = run.Speed()
        cli, commands, _ = run.setup(workload, 0, speed)
        outputs = run.Verifier(commands)
        run.run_pass(cli, commands, outputs, speed)
        for index, code, out, _ in outputs.seen:
            argv = " ".join(commands[index].argv)
            digest = hashlib.sha256(out.encode()).hexdigest()
            lines.append(f"{digest} {code} {workload} {argv}")
    lines.sort()
    print("\n".join(lines))
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"total {total} over {len(lines)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
