"""Output checks made apart from the program.

The program's front end and frame selection turn audio into feature rows (they
are not under test here); everything after that is recomputed with this
file's own code: the .svmodel parser, min-max scaling, kernel formulas,
decision values, the KKT conditions and the one-vs-one vote. Each check
appends a message to ``problems`` when it fails.
"""

import json
import os
import wave

import numpy as np

# Frames whose smallest pair |f| lies within this distance of zero are exempt
# from the vote comparison: a sign there can flip with summation order.
F_ZERO_TOL = 1e-7
# Slack on kkt_tol for rounding between the program's and these kernel formulas.
KKT_SLACK = 1e-9


# --- model file -------------------------------------------------------------


def parse_svmodel(path):
    """Read a version-1 .svmodel file into plain arrays."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    it = iter(lines)
    magic, version = next(it).split()
    if magic != "vowelkit-svmodel" or version != "1":
        raise ValueError(f"{path}: not a version-1 vowelkit model")
    model = {"labels": next(it).split()[1:]}
    kernel = next(it).split()[1:]
    model["kernel"] = {"kind": kernel[0]}
    model["kernel"].update({k: float(v) for k, v in (f.split("=") for f in kernel[1:])})
    model["fingerprint"] = next(it).split()[1]
    line = next(it)
    if line == "scaler none":
        model["scaler"] = None
    else:
        mins = np.array([float(v) for v in line.split()[1:]])
        maxs = np.array([float(v) for v in next(it).split()[1:]])
        model["scaler"] = (mins, maxs)
    n_pairs = int(next(it).split()[1])
    pairs = []
    for _ in range(n_pairs):
        fields = next(it).split()
        attrs = dict(f.split("=") for f in fields[3:])
        rows = [next(it).split()[1:] for _ in range(int(attrs["nsv"]))]
        table = np.array(rows, dtype=float).reshape(len(rows), -1)
        pairs.append({"i": int(fields[1]), "j": int(fields[2]), "bias": float(attrs["bias"]),
                      "C": float(attrs["C"]), "converged": attrs["converged"] == "1",
                      "alpha": table[:, 0], "y": table[:, 1], "sv": table[:, 2:]})
    if next(it) != "end":
        raise ValueError(f"{path}: missing end marker")
    model["pairs"] = pairs
    return model


def scale(model, x):
    if model["scaler"] is None:
        return x
    mins, maxs = model["scaler"]
    span = maxs - mins
    out = np.clip((x - mins) / np.where(span > 0.0, span, 1.0), 0.0, 1.0)
    out[:, span == 0.0] = 0.0
    return out


def kernel(spec, x, y):
    """K(x_i, y_j) from the kernel definitions, without the program's Gram code."""
    kind = spec["kind"]
    if kind == "rbf":
        step = max(1, 2_000_000 // max(1, y.size))
        d2 = np.vstack([((x[a : a + step, None, :] - y[None, :, :]) ** 2).sum(axis=2)
                        for a in range(0, len(x), step)])
        return np.exp(-spec["sigma"] * d2)
    dots = np.einsum("id,jd->ij", x, y)
    if kind == "polynomial":
        return (spec["sigma"] * dots + spec["r"]) ** int(spec["d"])
    if kind == "sigmoid":
        return np.tanh(spec["sigma"] * dots + spec["r"])
    if kind == "linear":
        return dots
    raise ValueError(f"unknown kernel {kind!r}")


def decision(model, pair, x):
    return kernel(model["kernel"], x, pair["sv"]) @ (pair["alpha"] * pair["y"]) + pair["bias"]


def vote(model, x):
    """Frame predictions and, per frame, the smallest |f| over the pairs.

    Documented rule: pair (i, j) votes i when f >= 0, else j; the most votes
    win, ties go to the largest |f|-sum and then to the lowest class id.
    """
    k = len(model["labels"])
    votes = np.zeros((len(x), k), dtype=int)
    strength = np.zeros((len(x), k))
    margin = np.full(len(x), np.inf)
    for pair in model["pairs"]:
        f = decision(model, pair, x)
        win_i = f >= 0.0
        votes[win_i, pair["i"]] += 1
        votes[~win_i, pair["j"]] += 1
        strength[:, pair["i"]] += np.abs(f)
        strength[:, pair["j"]] += np.abs(f)
        margin = np.minimum(margin, np.abs(f))
    preds = []
    for row in range(len(x)):
        tied = [c for c in range(k) if votes[row, c] == votes[row].max()]
        best = max(strength[row, c] for c in tied)
        preds.append(min(c for c in tied if strength[row, c] == best))
    return np.array(preds, dtype=int), margin


def token_vote(preds):
    """Frame majority; a tie goes to the middle frame's class if it is tied."""
    counts = np.bincount(preds)
    tied = [c for c in range(counts.size) if counts[c] == counts.max()]
    middle = int(preds[(len(preds) - 1) // 2])
    return tied[0] if len(tied) == 1 else (middle if middle in tied else tied[0])


# --- feature rows -----------------------------------------------------------


class Rows:
    """Selected (unscaled) frames per generated token, via the program's front end."""

    def __init__(self, vk):
        self.vk = vk
        self._audio = {}
        self._feats = {}

    def audio(self, path):
        if path not in self._audio:
            with wave.open(path, "rb") as wf:
                raw = wf.readframes(wf.getnframes())
                rate = wf.getframerate()
            self._audio[path] = (np.frombuffer(raw, dtype="<i2").astype(float) / 32768.0, rate)
        return self._audio[path]

    def token(self, token, feature, frames):
        key = (token["wav"], token["begin"], feature)
        if key not in self._feats:
            samples, rate = self.audio(token["wav"])
            piece = self.vk.RawSignal(samples[token["begin"] : token["end"]], rate)
            self._feats[key] = self.vk.extract_features(piece, self.vk.frontend_for(feature))
        method, k = frames.split(":")
        return self.vk.select_frames(self._feats[key], self.vk.selection_for(method, int(k)))


def label_matrix(rows, model, tokens, feature, frames):
    """Scaled rows, frame labels and row spans for `tokens`."""
    index = {name: i for i, name in enumerate(model["labels"])}
    parts, labels, spans, start = [], [], [], 0
    for token in tokens:
        picked = rows.token(token, feature, frames)
        parts.append(picked)
        labels.extend([index[token["label"]]] * len(picked))
        spans.append((start, start + len(picked)))
        start += len(picked)
    return scale(model, np.vstack(parts)), np.array(labels), spans


# --- checks -----------------------------------------------------------------


def check_kkt(model, x, labels, kkt_tol, name, problems):
    """Every converged pair satisfies the KKT conditions on its training rows.

    Returns the worst residual over converged pairs: how far y*f lies on the
    wrong side of 1 for each multiplier's bound.
    """
    worst = 0.0
    for pair in model["pairs"]:
        mask = (labels == pair["i"]) | (labels == pair["j"])
        xp = x[mask]
        yp = np.where(labels[mask] == pair["i"], 1.0, -1.0)
        alpha = np.zeros(len(xp))
        for sv, a, y in zip(pair["sv"], pair["alpha"], pair["y"]):
            d = np.abs(xp - sv).max(axis=1)
            hit = int(np.argmin(d))
            if d[hit] > 1e-9 or yp[hit] != y:
                problems.append(f"{name}: pair {pair['i']}-{pair['j']} has a support vector "
                                f"that is not one of its training rows")
                return worst
            alpha[hit] = a
        if not pair["converged"]:
            continue
        yf = yp * decision(model, pair, xp)
        at_zero = alpha <= 0.0
        at_c = alpha >= pair["C"]
        free = ~at_zero & ~at_c
        residual = np.zeros(len(xp))
        residual[at_zero] = np.maximum(0.0, 1.0 - yf[at_zero])
        residual[at_c] = np.maximum(0.0, yf[at_c] - 1.0)
        residual[free] = np.abs(yf[free] - 1.0)
        worst = max(worst, float(residual.max()))
        if residual.max() > kkt_tol + KKT_SLACK:
            problems.append(f"{name}: pair {pair['i']}-{pair['j']} reported converged but "
                            f"violates KKT by {residual.max():.6g} > kkt_tol {kkt_tol}")
    return worst


def check_resave(vk, path, scratch, problems):
    """load_model + save_model reproduces the file byte for byte."""
    copy = os.path.join(scratch, "resaved.svmodel")
    vk.save_model(vk.load_model(path), copy)
    with open(path, "rb") as a, open(copy, "rb") as b:
        if a.read() != b.read():
            problems.append(f"{os.path.basename(path)} does not re-save byte-identically")
    os.remove(copy)


def check_report(vk, grid_out, n_cells, n_train, n_test, problems):
    """report.csv parses back to the JSON report; counts match the corpus."""
    with open(os.path.join(grid_out, "report.csv")) as fh:
        rows = vk.parse_report_csv(fh.read())
    with open(os.path.join(grid_out, "report.json")) as fh:
        cells = json.load(fh)["cells"]
    if len(rows) != n_cells or len(cells) != n_cells:
        problems.append(f"grid report has {len(rows)} CSV / {len(cells)} JSON cells, "
                        f"expected {n_cells}")
        return cells
    for row, cell in zip(rows, cells):
        for col, value in row.items():
            if value != cell[col]:
                problems.append(f"report.csv column {col} reads {value!r}, "
                                f"report.json has {cell[col]!r}")
        if (cell["n_train"], cell["n_test"]) != (n_train, n_test) or cell["skipped"] or \
                cell["error"]:
            problems.append(f"grid cell {cell['kernel']} C={cell['C']} sigma={cell['sigma']}: "
                            f"n_train={cell['n_train']} n_test={cell['n_test']} "
                            f"skipped={cell['skipped']} error={cell['error']!r}, expected "
                            f"{n_train}/{n_test}/0/''")
    return cells


def best_cell(cells):
    """The cell `grid --save-best` documents: highest (phoneme_acc, frame_acc), first wins."""
    ok = [c for c in cells if not c["error"]]
    return max(ok, key=lambda c: (c["phoneme_acc"], c["frame_acc"]))


def check_evaluate(model, x, labels, spans, stdout, n_test, problems):
    """Printed accuracies against our vote; returns per-token (label, exempt) votes."""
    preds, margin = vote(model, x)
    exempt = margin <= F_ZERO_TOL
    token_preds = [(token_vote(preds[a:b]), bool(exempt[a:b].any())) for a, b in spans]
    frame_acc = 100.0 * float(np.mean(preds == labels))
    phoneme_acc = 100.0 * sum(p == labels[a] for (p, _e), (a, _b) in zip(token_preds, spans)) \
        / len(spans)
    printed = dict(line.split(": ", 1) for line in stdout.splitlines()
                   if ": " in line and not line.startswith("#"))
    if int(printed.get("n_test_tokens", -1)) != n_test or printed.get("skipped_tokens") != "0":
        problems.append(f"evaluate: n_test_tokens {printed.get('n_test_tokens')} skipped "
                        f"{printed.get('skipped_tokens')}, expected {n_test} and 0")
    slack_f = 100.0 * int(exempt.sum()) / len(preds) + 0.005
    slack_p = 100.0 * sum(e for _p, e in token_preds) / len(spans) + 0.005
    for key, mine, slack in (("frame_accuracy", frame_acc, slack_f),
                             ("phoneme_accuracy", phoneme_acc, slack_p)):
        if abs(float(printed.get(key, "nan")) - mine) > slack:
            problems.append(f"evaluate: {key} printed {printed.get(key)}, recomputed {mine:.2f}")
    return token_preds


def check_predict(model, tokens, token_preds, stdout, problems):
    """Each `utt begin end label pred` line against the generated token and our vote."""
    lines = [ln.split() for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    if len(lines) != len(tokens):
        problems.append(f"predict printed {len(lines)} token lines for {len(tokens)} tokens")
        return
    for fields, token, (pred, exempt) in zip(lines, tokens, token_preds):
        if fields[1:4] != [str(token["begin"]), str(token["end"]), token["label"]]:
            problems.append(f"predict line {fields} does not match token {token}")
        elif not exempt and fields[4] != model["labels"][pred]:
            problems.append(f"predict labelled {token['wav']}@{token['begin']} {fields[4]}, "
                            f"recomputed {model['labels'][pred]}")
