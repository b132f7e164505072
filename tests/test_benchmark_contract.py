"""What the benchmark in perfbench/ needs from the program, checked without running it.

The benchmark wraps program functions by name, imports others, reads model
files with its own parser and runs a CLI session of its own flags and grid
config.  A name that leaves the program, a model file that parser cannot read,
or a flag or config key the CLI drops, passes every other test and fails only
the benchmark run.  These tests read perfbench/ and never change it.
"""

import ast
import configparser
import importlib
import importlib.util
import os

import numpy as np
import pytest

import vowelkit
from test_multiclass import blob_dataset, shared_sv_model
from vowelkit import cli
from vowelkit.corpus import load_corpus_tokens
from vowelkit.experiment import ExperimentConfig, extract_token_features, frontend_for, plan_grid
from vowelkit.kernels import Polynomial, Rbf
from vowelkit.multiclass import save_model, train_ovo
from vowelkit.preprocessing import fit_scaler
from vowelkit.svm import SvmParams

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(REPO, "perfbench")


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _program_imports():
    """(module, name) for each name that run.py's program() imports or reads off vowelkit."""
    with open(os.path.join(PERFBENCH, "run.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    program = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "program")
    names = []
    for node in ast.walk(program):
        if isinstance(node, ast.ImportFrom):
            names += [(node.module, alias.name) for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "vowelkit"):
            names.append(("vowelkit", node.attr))
    return names


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in _perfbench_module("layertrace").LAYERS.items()
    for name in names])
def test_every_traced_layer_exists(module, name):
    assert callable(getattr(importlib.import_module(f"vowelkit.{module}"), name, None))


def test_every_name_the_checks_import_exists():
    names = _program_imports()
    assert ("vowelkit.experiment", "parse_report_csv") in names
    missing = [(module, name) for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


@pytest.mark.parametrize("kernel", [Rbf(0.5), Polynomial(0.05, 1.0, 3)],
                         ids=lambda k: type(k).__name__)
def test_saved_model_parses_with_the_benchmark_reader(tmp_path, kernel):
    data = blob_dataset(4, per_class=10, seed=3, spread=3.0)
    model = train_ovo(data, SvmParams(C=10.0, kernel=kernel), fingerprint="f",
                      scaler=fit_scaler(data.X))
    save_model(model, tmp_path / "m.svmodel")
    parsed = _perfbench_module("checks").parse_svmodel(str(tmp_path / "m.svmodel"))
    assert [(pair["i"], pair["j"]) for pair in parsed["pairs"]] == model.pair_index
    assert ([pair["sv"].shape for pair in parsed["pairs"]]
            == [b.support_vectors.shape for b in model.binaries])
    assert all(np.array_equal(pair["alpha"], b.sv_alphas)
               for pair, b in zip(parsed["pairs"], model.binaries))


def test_shared_vectors_parse_with_the_benchmark_reader(tmp_path):
    model = shared_sv_model(Rbf(0.5))
    save_model(model, tmp_path / "m.svmodel")
    parsed = _perfbench_module("checks").parse_svmodel(str(tmp_path / "m.svmodel"))
    assert len(parsed["pairs"]) == len(model.binaries)
    for pair, binary in zip(parsed["pairs"], model.binaries):
        assert np.array_equal(pair["sv"], binary.support_vectors)
        assert np.array_equal(pair["alpha"], binary.sv_alphas)


@pytest.mark.parametrize("workload", _perfbench_module("workloads").WORKLOADS)
def test_benchmark_session_parses_and_plans(tmp_path, workload):
    plan = _perfbench_module("workloads").build(REPO, workload, 1, str(tmp_path))
    parser = cli.build_parser()
    grid_steps = []
    for step in plan["steps"]:
        args = parser.parse_args(step["argv"])
        assert args.command == step["cmd"]
        if args.command == "grid":
            assert "--workers" in step["argv"] and args.workers >= 1
            grid_steps.append(args)
        else:
            cli._parse_frames(args.frames)
    assert len(grid_steps) == 1
    written = configparser.ConfigParser()
    written.read(grid_steps[0].config)
    assert [(section, key) for section in written.sections() for key in written[section]
            if (section, key) not in cli._CONFIG_KEYS] == []
    values = cli._load_config_file(grid_steps[0].config)
    cells, groups = plan_grid(ExperimentConfig(**dict(values, corpus_root=plan["corpus"])))
    assert [c.error for c in cells if c.error] == []
    assert sum(len(group) for _frontend, _selection, group in groups) == len(cells)


@pytest.mark.parametrize("workload", _perfbench_module("workloads").WORKLOADS)
def test_extracted_features_equal_the_checks_per_token_calls(tmp_path, workload):
    # the checks recompute each token's features with one extract_features call on the
    # samples their own WAV reader gives; the program extracts a corpus in stacks
    plan = _perfbench_module("workloads").build(REPO, workload, 1, str(tmp_path))
    rows = _perfbench_module("checks").Rows(vowelkit)
    tokens = load_corpus_tokens(plan["corpus"])
    assert len(tokens) == len(plan["tokens"])
    for feature in ("mfcc36", "plp36"):
        got = {(os.path.abspath(token.audio_path), token.begin): feats
               for token, feats in extract_token_features(tokens, frontend_for(feature))}
        for token in plan["tokens"]:
            samples, rate = rows.audio(token["wav"])
            piece = vowelkit.RawSignal(samples[token["begin"] : token["end"]], rate)
            want = vowelkit.extract_features(piece, frontend_for(feature))
            assert np.array_equal(got[(os.path.abspath(token["wav"]), token["begin"])], want)
