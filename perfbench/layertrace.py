"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces each layer-boundary function listed in LAYERS with
a wrapper, in every loaded ``vowelkit`` module that binds the function, since
modules bind imported names at import time. A wrapper records one span (name,
start, end, parent span, thread) and a few counts read from the arguments or
the returned object. Spans stay in memory until ``write``.

Helpers beneath a boundary (per-frame PLP steps, the SMO's inner loops) are not
wrapped: their time is part of their layer's self time, and wrapping calls made
once per frame would cost more than the work they time.
"""

import functools
import importlib
import json
import statistics
import sys
import threading
import time

LAYERS = {
    "cli": ("run_cli",),
    "corpus": ("load_audio", "load_phn", "load_corpus_tokens"),
    "frontend": ("extract_features",),
    "frame_select": ("select_frames", "fcm_cluster"),
    "preprocessing": ("fit_scaler", "apply_scaler"),
    "kernels": ("gram_matrix",),
    "svm": ("smo_train", "decision_values"),
    "multiclass": ("train_ovo", "predict_ovo_batch", "predict_phoneme", "save_model",
                   "load_model"),
    "experiment": ("extract_token_features", "build_dataset", "evaluate", "grid_search",
                   "emit_report"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _rows(result):
    return {"rows": int(result.shape[0])}


def _smo(result):
    return {"iters": int(result.n_iter), "not_converged": int(not result.converged),
            "n_sv": int(result.sv_alphas.size)}


def _saved_model(args):
    import numpy as np

    svs = [b.support_vectors for b in args[0].binaries]
    stacked = np.vstack(svs) if svs else np.zeros((0, 0))
    return {"sv_rows": int(stacked.shape[0]),
            "sv_unique": int(np.unique(stacked, axis=0).shape[0]) if stacked.size else 0}


# span name -> (reads arguments?, function giving the span's counts)
COUNTERS = {
    "svm.smo_train": (False, _smo),
    "kernels.gram_matrix": (False, lambda r: {"entries": int(r.shape[0] * r.shape[1])}),
    "frontend.extract_features": (False, _rows),
    "frame_select.fcm_cluster": (False, lambda r: {"iters": int(r.n_iter)}),
    "svm.decision_values": (False, _rows),
    "multiclass.predict_ovo_batch": (False, _rows),
    "multiclass.save_model": (True, _saved_model),
    "experiment.evaluate": (True, lambda a: {"test_rows": int(a[1].X.shape[0])}),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name index, start, end, parent index or -1, thread index, counts]
        self.round_ends = []
        self._local = threading.local()
        self._threads = {}
        self._patched = []

    def _wrap(self, name, fn):
        reads_args, counter = COUNTERS.get(name, (False, None))
        spans, local, threads = self.spans, self._local, self._threads
        name_index = SPAN_NAMES.index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                thread = threads.setdefault(threading.get_ident(), len(threads))
                spans[index] = [name_index, start, end, parent, thread, None]
            if counter is not None:
                spans[index][5] = counter(args if reads_args else result)
            return result

        return wrapper

    def install(self):
        for mod in LAYERS:
            importlib.import_module(f"vowelkit.{mod}")
        for mod, fns in LAYERS.items():
            home = sys.modules[f"vowelkit.{mod}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("vowelkit"):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def mark_round(self):
        self.round_ends.append(len(self.spans))

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": SPAN_NAMES, "round_ends": self.round_ends,
                       "spans": self.spans}, fh)


def layer_metrics(trace):
    """Per-round layer figures from a written trace.

    ``<layer>.s`` is the median over rounds of the summed self time (span
    duration minus its direct children's durations) and ``<layer>.calls`` the
    mean number of calls per round; counts are per-round means as well.
    """
    names = trace["names"]
    spans = [[names[n], *rest] for n, *rest in trace["spans"]]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _tid, _counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    # descendant predict_ovo_batch rows of each evaluate span
    eval_rows = {}
    for idx, (name, _s, _e, parent, _t, counts) in enumerate(spans):
        if name == "multiclass.predict_ovo_batch":
            p = parent
            while p >= 0 and spans[p][0] != "experiment.evaluate":
                p = spans[p][3]
            if p >= 0:
                eval_rows[p] = eval_rows.get(p, 0) + counts["rows"]

    per_round = []
    begin = 0
    for end_idx in trace["round_ends"]:
        self_s = {n: 0.0 for n in trace["names"]}
        calls = {n: 0 for n in trace["names"]}
        totals = {}
        for idx in range(begin, end_idx):
            name, start, end, _parent, _tid, counts = spans[idx]
            self_s[name] += (end - start) - child_time[idx]
            calls[name] += 1
            for key, value in (counts or {}).items():
                totals[(name, key)] = totals.get((name, key), 0) + value
            if name == "experiment.evaluate":
                totals[("evaluate", "predicted_rows")] = (
                    totals.get(("evaluate", "predicted_rows"), 0) + eval_rows.get(idx, 0))
        per_round.append((self_s, calls, totals))
        begin = end_idx

    rounds = len(per_round)
    out = {}

    def mean_total(key):
        return sum(t.get(key, 0) for _s, _c, t in per_round) / rounds

    for name in trace["names"]:
        out[f"{name}.s"] = (statistics.median(s[name] for s, _c, _t in per_round), "s")
        out[f"{name}.calls"] = (sum(c[name] for _s, c, _t in per_round) / rounds, "count")
    out["svm.smo_iters"] = (mean_total(("svm.smo_train", "iters")), "count")
    out["svm.not_converged"] = (mean_total(("svm.smo_train", "not_converged")), "count")
    out["svm.n_sv"] = (mean_total(("svm.smo_train", "n_sv")), "count")
    out["kernels.entries"] = (mean_total(("kernels.gram_matrix", "entries")), "count")
    out["frontend.frames"] = (mean_total(("frontend.extract_features", "rows")), "count")
    out["frame_select.fcm_iters"] = (mean_total(("frame_select.fcm_cluster", "iters")), "count")
    out["svm.decision_values.rows"] = (mean_total(("svm.decision_values", "rows")), "count")
    out["multiclass.predict_ovo_batch.rows"] = (
        mean_total(("multiclass.predict_ovo_batch", "rows")), "count")
    out["multiclass.sv_rows"] = (mean_total(("multiclass.save_model", "sv_rows")), "count")
    out["multiclass.sv_unique"] = (mean_total(("multiclass.save_model", "sv_unique")), "count")
    test_rows = mean_total(("experiment.evaluate", "test_rows"))
    predicted = mean_total(("evaluate", "predicted_rows"))
    out["experiment.evaluate.rows_per_test_row"] = (
        predicted / test_rows if test_rows else 0.0, "ratio")
    out["trace.spans"] = (len(spans) / rounds, "count")
    return out
