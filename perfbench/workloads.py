"""Workload definitions: seeded synthetic corpora and the CLI session each round runs.

Corpora are written with ``make_corpus``, ``synth_token`` and ``write_wav``
from ``tests/conftest.py``; the program only ever sees the WAV/.phn files.
Every generated token is recorded in a manifest so the checks can compare the
program's counts and predictions with what was actually written.
"""

import importlib.util
import os
import shutil

import numpy as np

RATE = 16000
FIVE_VOWELS = ("aa", "ao", "eh", "iy", "uw")

# (F1, F2) in Hz for all 20 vowels of the toolkit's inventory; the five
# shared with tests/conftest.py keep their values there.
TWENTY_FORMANTS = {
    "aa": (730.0, 1090.0), "ae": (660.0, 1720.0), "ah": (640.0, 1190.0),
    "ao": (570.0, 840.0), "aw": (680.0, 1310.0), "ax": (500.0, 1500.0),
    "ax-h": (460.0, 1420.0), "axr": (470.0, 1270.0), "ay": (710.0, 1420.0),
    "eh": (530.0, 1840.0), "er": (490.0, 1350.0), "ey": (440.0, 2100.0),
    "ih": (390.0, 1990.0), "ix": (410.0, 1800.0), "iy": (270.0, 2290.0),
    "ow": (450.0, 880.0), "oy": (550.0, 960.0), "uh": (440.0, 1020.0),
    "uw": (300.0, 870.0), "ux": (320.0, 1600.0),
}

# Corpus make-up per workload (tokens per class and split); README.md explains
# each choice. The training splits come from a fixed seed, so the pair solves,
# and the ones that stop at max_iter, are the same for every --seed.
TRAIN_SEED = 7
GRID_SOLVER = dict(train_tokens=18, test_tokens=6, n_samples=1024, noise=0.9, jitter=0.25,
                   predicts=8, block_repeats=3)
FEATURES_FCM = dict(train_tokens=4, test_tokens=4, n_samples=3200, noise=0.9, jitter=0.25,
                    tokens_per_utterance=10, gap=320, block_repeats=1)
OVO20 = dict(train_tokens=6, test_tokens=3, n_samples=1024, noise=0.5, jitter=0.1,
             tokens_per_utterance=10, gap=320, block_repeats=1)

GRID_SOLVER_CFG = """\
[experiment]
phonemes = aa ao eh iy uw
seed = 0

[grid]
kernels = polynomial rbf sigmoid
features = mfcc36
c = 10 10000
sigma = 0.027 2
k = 3
methods = middle
"""

FEATURES_FCM_CFG = """\
[experiment]
phonemes = aa ao eh iy uw
seed = 0

[grid]
kernels = rbf
features = mfcc36 plp36
c = 10
sigma = 0.027
k = 3 7
methods = middle fcm
"""

OVO20_CFG = """\
[grid]
kernels = rbf
features = mfcc36
c = 10
sigma = 0.027
k = 3
methods = middle
"""

WORKLOADS = ("grid-solver", "features-fcm", "ovo20")


def load_conftest(root):
    """Import tests/conftest.py from the checkout by path (it is not a package)."""
    path = os.path.join(root, "tests", "conftest.py")
    spec = importlib.util.spec_from_file_location("vowelkit_tests_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _make_split(conftest, corpus, split, spec, seed):
    """One split of the five vowels by make_corpus: one token per file."""
    scratch = corpus + ".part"
    count = spec[f"{split}_tokens"]
    conftest.make_corpus(scratch, formants={k: conftest.SYNTH_FORMANTS[k] for k in FIVE_VOWELS},
                         tokens_per_class=count, train_frac=1.0 if split == "train" else 0.0,
                         seed=seed, n_samples=spec["n_samples"], noise=spec["noise"],
                         jitter=spec["jitter"])
    shutil.move(os.path.join(scratch, split), os.path.join(corpus, split))
    shutil.rmtree(scratch)
    tokens = []
    base = os.path.join(corpus, split)
    for label in sorted(os.listdir(base)):
        for name in sorted(os.listdir(os.path.join(base, label))):
            if name.endswith(".wav"):
                stem = os.path.join(base, label, name[:-4])
                tokens.append({"split": split, "wav": stem + ".wav", "phn": stem + ".phn",
                               "begin": 0, "end": spec["n_samples"], "label": label})
    return tokens


def _make_utterances(conftest, corpus, split, formants, spec, rng):
    """Utterances of several vowel tokens separated by quiet non-vowel stretches."""
    n, gap, per_utt = spec["n_samples"], spec["gap"], spec["tokens_per_utterance"]
    order = [lab for lab in sorted(formants) for _ in range(spec[f"{split}_tokens"])]
    rng.shuffle(order)
    tokens = []
    for u in range(0, len(order), per_utt):
        d = os.path.join(corpus, split, f"s{u // per_utt:03d}")
        os.makedirs(d, exist_ok=True)
        parts = [rng.normal(0.0, 0.01, gap)]
        lines = [f"0 {gap} h#"]
        pos = gap
        for lab in order[u : u + per_utt]:
            f1, f2 = formants[lab]
            parts.append(conftest.synth_token(rng, f1, f2, n_samples=n, noise=spec["noise"],
                                              jitter=spec["jitter"]))
            parts.append(rng.normal(0.0, 0.01, gap))
            tokens.append({"split": split, "wav": os.path.join(d, "utt.wav"),
                           "phn": os.path.join(d, "utt.phn"),
                           "begin": pos, "end": pos + n, "label": lab})
            lines.append(f"{pos} {pos + n} {lab}")
            lines.append(f"{pos + n} {pos + n + gap} pau")
            pos += n + gap
        lines[-1] = lines[-1].replace("pau", "h#")
        conftest.write_wav(os.path.join(d, "utt.wav"), np.concatenate(parts), rate=RATE)
        with open(os.path.join(d, "utt.phn"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return tokens


def _predict_utterances(tokens, count):
    """The first `count` test utterances, in sorted path order (all when None)."""
    wavs = sorted({t["wav"] for t in tokens if t["split"] == "test"})
    return wavs if count is None else wavs[:count]


def build(root, workload, seed, work):
    """Write the workload's corpus and config under `work`; return its session plan.

    The plan lists the CLI argument vectors of one round and everything the
    checks need to know about the generated inputs.
    """
    conftest = load_conftest(root)
    corpus = os.path.join(work, "corpus")
    out = os.path.join(work, "out")
    cfg = os.path.join(work, "grid.cfg")
    os.makedirs(out, exist_ok=True)
    if workload == "grid-solver":
        spec = GRID_SOLVER
        tokens = (_make_split(conftest, corpus, "train", spec, TRAIN_SEED)
                  + _make_split(conftest, corpus, "test", spec, seed))
        cfg_text, workers, frames, feature = GRID_SOLVER_CFG, 2, "middle:3", "mfcc36"
        phonemes = " ".join(FIVE_VOWELS)
    elif workload == "features-fcm":
        spec = FEATURES_FCM
        five = {k: conftest.SYNTH_FORMANTS[k] for k in FIVE_VOWELS}
        tokens = (_make_split(conftest, corpus, "train", spec, TRAIN_SEED)
                  + _make_utterances(conftest, corpus, "test", five, spec,
                                     np.random.default_rng(seed)))
        cfg_text, workers, frames, feature = FEATURES_FCM_CFG, 2, "fcm:7", "plp36"
        phonemes = " ".join(FIVE_VOWELS)
    elif workload == "ovo20":
        spec = OVO20
        tokens = (_make_utterances(conftest, corpus, "train", TWENTY_FORMANTS, spec,
                                   np.random.default_rng(TRAIN_SEED))
                  + _make_utterances(conftest, corpus, "test", TWENTY_FORMANTS, spec,
                                     np.random.default_rng(seed)))
        cfg_text, workers, frames, feature = OVO20_CFG, 1, "middle:3", "mfcc36"
        phonemes = None
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(cfg, "w") as fh:
        fh.write(cfg_text)

    model = os.path.join(out, "model.svmodel")
    common = ["--feature", feature, "--frames", frames]
    if phonemes:
        common += ["--phonemes", phonemes]
    grid_out = os.path.join(out, "grid")
    steps = [
        {"cmd": "grid", "argv": ["grid", "--config", cfg, "--corpus", corpus, "--out", grid_out,
                                 "--workers", str(workers), "--save-best"],
         "keep": [os.path.join(grid_out, "report.csv")]},
    ]
    block = [
        {"cmd": "train", "argv": ["train", "--corpus", corpus, "--out", model] + common},
        {"cmd": "evaluate", "argv": ["evaluate", "--model", model, "--corpus", corpus] + common},
    ]
    for wav in _predict_utterances(tokens, spec.get("predicts")):
        block.append({"cmd": "predict", "argv": ["predict", "--model", model, "--audio", wav,
                                                 "--phn", wav[:-4] + ".phn"] + common})
    steps += block * spec["block_repeats"]
    return {
        "workload": workload, "seed": seed, "corpus": corpus, "config": cfg, "grid_out": grid_out,
        "model": model, "feature": feature, "frames": frames,
        "phonemes": phonemes.split() if phonemes else sorted(TWENTY_FORMANTS),
        "tokens": tokens, "steps": steps,
    }
