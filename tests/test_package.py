import ast
import importlib
import inspect
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import edgeplacer
from edgeplacer.harness import SWEEP_AXES, config_from_dict

PUBLIC = {
    "ACCURACY_PRESETS", "BUDGET_PRESETS", "ExperimentConfig", "FrameInput",
    "PolicyConfig", "PredictorSpec", "RunRecord", "Scenario", "SlotTable",
    "bound_constant_B", "brute_force_frame",
    "brute_force_horizon", "frame_decide", "frame_objective",
    "generate_scenario", "latency_rows", "lm_decide",
    "max_slot_migration_cost", "plm_decide", "predict_epochs", "run",
    "simulate", "sweep", "synthetic_trace",
}


def test_public_names():
    assert len(edgeplacer.__all__) == len(PUBLIC) == 24
    assert set(edgeplacer.__all__) == PUBLIC
    assert all(hasattr(edgeplacer, name) for name in PUBLIC)
    # no exported name hides the submodule it shares a name with
    for name in ("harness", "model", "policies", "predict"):
        module = getattr(edgeplacer, name)
        assert inspect.ismodule(module)
        assert module is sys.modules[f"edgeplacer.{name}"]


def test_python_O_removes_no_check():
    # python -O strips assert statements and code under __debug__; the
    # package's checks raise instead, so they hold under -O too
    package = Path(edgeplacer.__file__).parent
    sources = sorted(package.rglob("*.py"))
    stripped = [
        f"{path.relative_to(package.parent)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert package / "harness.py" in sources
    assert not stripped, f"python -O removes: {', '.join(stripped)}"


def test_every_source_file_parses_as_python_3_10():
    # pyproject.toml promises Python 3.10. feature_version is best-effort:
    # ast rejects much, not all, of the syntax newer than 3.10 (except*,
    # for one), and a 3.10 interpreter remains the real check.
    root = Path(__file__).resolve().parents[1]
    sources = [path for part in ("src", "tests", "bench", "demos")
               for path in sorted((root / part).rglob("*.py"))]
    assert len(sources) > 20
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
    # the guard itself: 3.11's except* is refused
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))


def test_no_run_imports_numpy_ma():
    # numpy.ma, about 1 MB that np.unique and a few other conveniences
    # import, would add to every run's start-up time and peak memory; a
    # fresh interpreter shows what the package, every policy, every
    # predictor and verify import
    script = """if True:
        import contextlib, io, sys
        from edgeplacer import ExperimentConfig, PredictorSpec, cli, run
        from edgeplacer.harness import POLICIES
        from edgeplacer.predict import PREDICTOR_KINDS
        for policy in POLICIES:
            run(ExperimentConfig(policy=policy, horizon=30))
        for kind in PREDICTOR_KINDS:
            run(ExperimentConfig(policy="psp", horizon=30,
                                 predictor=PredictorSpec(kind=kind)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--instances", "5"]) == 0
        print("numpy.ma" in sys.modules)
    """
    src = str(Path(edgeplacer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_harness_uses_no_private_name_of_policies():
    # the frame solver's kernel, pruning and two certificates have one
    # home: the engine reaches them only through policies.frame_solver and
    # the pruning through policies.kept_columns
    package = Path(edgeplacer.__file__).parent
    tree = ast.parse((package / "harness.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "policies" for alias in node.names]
    read = [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "policies"]
    assert "frame_solver" in imported
    assert not [name for name in imported + read if name.startswith("_")]


def test_readme_config_example_follows_the_schema():
    # README's config example and its sweep axes cannot keep a setting the
    # schema no longer has
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"### Config schema \(JSON\)\n\n```json\n(.*?)```",
                        readme, re.S)
    config_from_dict(json.loads(example.group(1)))
    axes = re.search(r"^- `sweep\.axis`: `([^`]*)`", readme, re.M)
    assert tuple(a.strip() for a in axes.group(1).split("|")) == SWEEP_AXES


def test_the_bench_finds_every_name_it_reads_but_twelve():
    # bench/spans.py wraps package names given as strings and reports one
    # the package no longer has as absent, its span reading 0. These twelve
    # are absent today; a refactor that hides one more span fails here.
    spans = runpy.run_path(str(Path(__file__).resolve().parents[1]
                               / "bench" / "spans.py"))
    absent = {f"{module}.{attr}"
              for module, attr, _ in spans["SPANS"] + spans["COUNTERS"]
              if getattr(importlib.import_module(f"edgeplacer.{module}"),
                         attr, None) is None}
    assert absent == {
        "harness.predict", "harness.osp_decide", "harness.psp_frame_decide",
        "harness.pspwu_frame_decide", "harness.am_decide",
        "harness.nm_decide", "harness.slot_outcome", "harness.advance",
        "policies.service_latency", "policies.migration_cost",
        "model.service_latency", "model.migration_cost"}
    # bench/run.py's run_stats reads it through getattr for
    # sim.frame_dev_frac_max
    assert callable(edgeplacer.harness.max_slot_migration_cost)
