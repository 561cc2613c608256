from __future__ import annotations

import importlib.util
import os
import sys
import types

import clogsim.cli
import clogsim.engine
import clogsim.hydraulics
import clogsim.model
import clogsim.sediment

from conftest import REPO_ROOT

BENCHMARKS = REPO_ROOT / "benchmarks"


def test_harness_wraps_names_that_exist(monkeypatch):
    # the traced benchmark wraps clogsim's functions by name: a refactor
    # that moves or deletes one fails here rather than in a traced run
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        # recorded, so that the value the harness sets on import is undone
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location("benchmark_run", BENCHMARKS / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)

    pkg = types.SimpleNamespace(cli=clogsim.cli, engine=clogsim.engine,
                                hydraulics=clogsim.hydraulics, model=clogsim.model,
                                sediment=clogsim.sediment)
    tracer = run.Tracer()
    try:
        run.install_spans(tracer, pkg, {})
        assert tracer.spans
    finally:
        tracer.restore()
    assert clogsim.engine.solve_pressures is clogsim.hydraulics.solve_pressures
