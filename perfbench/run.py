"""vowelkit benchmark: one workload, one run, one JSON line of results.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload grid-solver --seed 1 --seconds 40 --trace 0

The run writes the workload's synthetic corpus, times the interpreter start-up
of a `vowelkit` command, then runs whole rounds of the workload's CLI session in
a worker process (perfbench/session.py) for --seconds, checks every output
against perfbench/checks.py, and prints the metrics as the last stdout line.
--trace 1 runs the same session with layer spans and prints per-layer metrics.
BLAS is held at one thread, because grid results depend on the thread count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SPAWNS_PER_ROUND = 2
SETUP_SPAWNS_MIN = 7
WORKER_TIMEOUT_S = 150
KKT_TOL = 1e-3  # the grid config's and SvmParams' default


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_session(plan, work):
    """Run session.py to completion; returns its result and its peak RSS in MB."""
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "session.py"), plan_path,
                             result_path], env=child_env(), cwd=ROOT)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            fail(f"session did not finish within {WORKER_TIMEOUT_S} s")
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        fail(f"session exited with {proc.returncode}")
    with open(result_path) as fh:
        result = json.load(fh)
    spans = None
    if plan["trace"]:
        with open(result_path + ".spans.json") as fh:
            spans = json.load(fh)
    return result, usage.ru_maxrss * 1024 / 1e6, spans  # ru_maxrss is in KiB on Linux


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "seed": seed}


def program():
    """The program functions the checks use, imported from the checkout's src/."""
    sys.path.insert(0, SRC)
    import vowelkit
    from vowelkit.experiment import frontend_for, parse_report_csv, selection_for
    from vowelkit.frame_select import select_frames

    if not os.path.abspath(vowelkit.__file__).startswith(SRC + os.sep):
        fail(f"imported vowelkit from {vowelkit.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        RawSignal=vowelkit.RawSignal, extract_features=vowelkit.extract_features,
        frontend_for=frontend_for, selection_for=selection_for, select_frames=select_frames,
        load_model=vowelkit.load_model, save_model=vowelkit.save_model,
        parse_report_csv=parse_report_csv)


def count_operations(plan, result, vk):
    """Attempted and failed operations: every CLI command and every pair solve."""
    k = len(plan["phonemes"])
    pairs = k * (k - 1) // 2
    attempted = failed = 0
    for steps in result["rounds"]:
        for step, out in zip(steps, result["stdout"]):
            attempted += 1
            failed += step["rc"] != 0
            if step["cmd"] == "grid" and "kept" in step:
                for row in vk.parse_report_csv(next(iter(step["kept"].values()))):
                    done, total = (int(v) for v in row["converged_pairs"].split("/"))
                    attempted += total
                    failed += total - done
            elif step["cmd"] == "train" and step["rc"] == 0:
                attempted += pairs
                line = [ln for ln in out.splitlines() if ln.startswith("trained ")][-1]
                failed += pairs - int(line.split("(")[1].split()[0])
    return attempted, failed


def run_checks(plan, result, vk, work):
    """Every output check; returns (problems, facts for the results file)."""
    import numpy as np

    import checks

    problems = []
    facts = {}
    tokens = plan["tokens"]
    train = [t for t in tokens if t["split"] == "train"]
    test = [t for t in tokens if t["split"] == "test"]
    stdout = dict(zip((s["cmd"] for s in plan["steps"]), result["stdout"]))
    for steps in result["rounds"]:
        for step in steps:
            if step["rc"] != 0:
                problems.append(f"{step['cmd']} exited {step['rc']}: {step['stderr'].strip()}")
    if result["stdout_mismatches"]:
        problems.append(f"{result['stdout_mismatches']} command outputs differ between rounds")
    first_out = {}
    for step, out in zip(plan["steps"], result["stdout"]):
        if first_out.setdefault(tuple(step["argv"]), out) != out:
            problems.append(f"repeated {step['cmd']} printed different output within a round")

    cfg = [ln for ln in open(plan["config"]) if ln.split("=")[0].strip() in
           ("kernels", "features", "c", "sigma", "k", "methods")]
    n_cells = 1
    for line in cfg:
        n_cells *= len(line.split("=")[1].split())
    cells = checks.check_report(vk, plan["grid_out"], n_cells, len(train), len(test), problems)
    last = stdout["grid"].strip().splitlines()[-1]
    if not last.startswith(f"{n_cells} cells (0 failed)"):
        problems.append(f"grid printed {last!r}")

    k = len(plan["phonemes"])
    line = [ln for ln in stdout["train"].splitlines() if ln.startswith("trained ")]
    if not line or not line[-1].startswith(f"trained {k * (k - 1) // 2} binary models") or \
            not line[-1].endswith(f"on {len(train)} tokens"):
        problems.append(f"train printed {line!r}")

    rows = checks.Rows(vk)
    # the model written by `train`
    model_path = plan["model"]
    checks.check_resave(vk, model_path, work, problems)
    model = checks.parse_svmodel(model_path)
    x, labels, _spans = checks.label_matrix(rows, model, train, plan["feature"], plan["frames"])
    facts["kkt_worst_train"] = checks.check_kkt(model, x, labels, KKT_TOL, "train model",
                                                problems)
    x, labels, spans = checks.label_matrix(rows, model, test, plan["feature"], plan["frames"])
    token_preds = checks.check_evaluate(model, x, labels, spans, stdout["evaluate"], len(test),
                                        problems)
    by_wav = {}
    for token, vote in zip(test, token_preds):
        by_wav.setdefault(token["wav"], []).append((token, vote))
    for step, out in zip(plan["steps"], result["stdout"]):
        if step["cmd"] == "predict":
            wav = step["argv"][step["argv"].index("--audio") + 1]
            utt_tokens, votes = zip(*by_wav[wav])
            checks.check_predict(model, utt_tokens, votes, out, problems)

    # the model written by `grid --save-best`
    best_path = os.path.join(plan["grid_out"], "best.svmodel")
    checks.check_resave(vk, best_path, work, problems)
    best = checks.parse_svmodel(best_path)
    cell = checks.best_cell(cells)
    if (best["kernel"]["kind"], best["kernel"].get("sigma"), best["pairs"][0]["C"]) != \
            (cell["kernel"], cell["sigma"], cell["C"]):
        problems.append(f"best.svmodel is not the best report cell {cell['kernel']} "
                        f"C={cell['C']} sigma={cell['sigma']}")
    frames = f"{cell['method']}:{cell['K']}"
    x, labels, _spans = checks.label_matrix(rows, best, train, cell["feature"], frames)
    facts["kkt_worst_best"] = checks.check_kkt(best, x, labels, KKT_TOL, "best model",
                                               problems)
    facts["best_cell"] = [cell["kernel"], cell["feature"], cell["C"], cell["sigma"], frames]
    facts["n_sv_rows"] = int(sum(len(p["sv"]) for p in model["pairs"]))
    facts["n_sv_unique"] = int(np.unique(np.vstack([p["sv"] for p in model["pairs"]]),
                                         axis=0).shape[0])
    return problems, facts


def main():
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (os.path.join(SRC, "vowelkit", "cli.py"),
                   os.path.join(ROOT, "tests", "conftest.py")):
        if not os.path.isfile(needed):
            fail(f"missing {os.path.relpath(needed, ROOT)}; run from a vowelkit checkout")
    vk = program()
    env = environment(args.seed)
    if env["blas_threads"] not in (None, 1):
        fail(f"BLAS runs {env['blas_threads']} threads; the benchmark needs 1")

    work = os.path.join(HERE, "work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        phases = {"start": time.perf_counter()}
        plan = workloads.build(ROOT, args.workload, args.seed, work)
        plan["seconds"] = args.seconds
        plan["trace"] = bool(args.trace)
        plan["setup_spawns_per_round"] = SETUP_SPAWNS_PER_ROUND
        plan["setup_spawns_min"] = SETUP_SPAWNS_MIN
        phases["corpus"] = time.perf_counter()
        result, peak_rss_mb, spans = run_session(plan, work)
        phases["session"] = time.perf_counter()
        attempted, failed = count_operations(plan, result, vk)
        try:
            problems, facts = run_checks(plan, result, vk, work)
        except Exception:  # noqa: BLE001 - a check that cannot run is a failed check
            traceback.print_exc()
            problems, facts = ["the output checks raised an exception"], {}
        model_mb = os.path.getsize(plan["model"]) / 1e6
        phases["checks"] = time.perf_counter()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = result["rounds"]

    samples = {cmd: [s["seconds"] for r in rounds for s in r if s["cmd"] == cmd]
               for cmd in ("grid", "train", "evaluate", "predict")}
    samples["setup"] = result["setup_times"]
    end_to_end = {
        "setup_s": (statistics.median(samples["setup"]), "s"),
        "grid_s": (statistics.median(samples["grid"]), "s"),
        "train_s": (statistics.median(samples["train"]), "s"),
        "evaluate_s": (statistics.median(samples["evaluate"]), "s"),
        "predict_ms": (1000.0 * statistics.median(samples["predict"]), "ms"),
        "model_mb": (model_mb, "MB"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if spans is not None:
        import layertrace

        metrics = layertrace.layer_metrics(spans)
    else:
        metrics = end_to_end
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "rounds": len(rounds), "measured_s": result["measured_s"],
              "samples": samples,
              "phase_s": {k: phases[k] - phases["start"] for k in phases},
              "attempted": attempted, "failed": failed,
              "problems": problems, "facts": facts,
              "end_to_end": {k: v[0] for k, v in end_to_end.items()},
              "metrics": {k: v[0] for k, v in metrics.items()}}
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    with open(os.path.join(results_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print("# env " + json.dumps(env))
    print(f"# rounds {len(rounds)} measured {result['measured_s']:.3f} s; "
          f"facts {json.dumps(facts)}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
