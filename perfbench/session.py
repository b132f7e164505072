"""Worker process: runs whole rounds of a workload's CLI session for a time budget.

Usage: python3 perfbench/session.py PLAN.json RESULT.json

Each step calls ``vowelkit.cli.run_cli`` in this process, as the ``vowelkit``
console script does, with stdout captured. Only the ``run_cli`` call is timed.
A new round starts only if the mean round so far still fits in the budget, so
every run attempts whole rounds. Between rounds (outside the timed calls) two
fresh interpreters import ``vowelkit.cli`` to time command start-up, so those
samples are spread over the run as well. With ``"trace": true`` in the plan,
layer spans are recorded (see layertrace.py) and written next to the result.
"""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time


def _run_step(run_cli, argv):
    # a `vowelkit` command starts with an empty heap: collect the previous
    # call's garbage before the clock starts, not inside the timed call
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = run_cli(list(argv))
        seconds = time.perf_counter() - t0
    return rc, seconds, out.getvalue(), err.getvalue()


def _time_setup():
    """Wall time of a fresh interpreter importing vowelkit.cli, as every command starts."""
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls the child in sleeps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import vowelkit.cli"], check=True)
    return time.perf_counter() - t0


def main(plan_path, result_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = None
    if plan["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    import vowelkit.cli as cli

    budget = float(plan["seconds"])
    rounds = []
    setup_times = []
    reference = None
    mismatches = 0
    start = time.perf_counter()
    while True:
        steps, outputs = [], []
        for step in plan["steps"]:
            rc, seconds, out, err = _run_step(cli.run_cli, step["argv"])
            record = {"cmd": step["cmd"], "rc": rc, "seconds": seconds, "stderr": err}
            for path in step.get("keep", ()) if rc == 0 else ():
                with open(path) as fh:
                    record.setdefault("kept", {})[path] = fh.read()
            steps.append(record)
            outputs.append(out)
        if tracer is not None:
            tracer.mark_round()
        if reference is None:
            reference = outputs
        else:
            mismatches += sum(a != b for a, b in zip(outputs, reference))
        rounds.append(steps)
        for _ in range(plan["setup_spawns_per_round"]):
            setup_times.append(_time_setup())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > budget:
            break
    while len(setup_times) < plan["setup_spawns_min"]:
        setup_times.append(_time_setup())
    result = {
        "rounds": rounds,
        "setup_times": setup_times,
        "measured_s": time.perf_counter() - start,
        "stdout": reference,
        "stdout_mismatches": mismatches,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(result_path + ".spans.json")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
