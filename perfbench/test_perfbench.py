"""Self-test of the benchmark: every workload once at a tiny size, traced.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import run
import tracing
import workloads

sys.path.insert(0, run.SRC)


@pytest.fixture
def workdir():
    os.makedirs(run.TMP_DIR, exist_ok=True)
    path = tempfile.mkdtemp(dir=run.TMP_DIR)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_tiny_workload_passes_and_self_times_add_up(name, workdir):
    workload = workloads.BUILDERS[name](3, workdir, tiny=True)
    stats, sink = tracing.LayerStats(), []
    outcomes = run.run_cycles(workload, 0.0, workdir, stats=stats, sink=sink)
    assert [(o.kind, o.error) for o in outcomes] == [(o.kind, None) for o in outcomes]
    assert {o.traced for o in outcomes} == {True, False}
    total_self = 0.0
    for _, payload in sink:
        result = json.loads(payload)
        spans = result["spans"]
        roots = [s for s in spans if s[3] == -1]
        assert [s[0] for s in roots] == ["cli.main"]
        own = tracing.self_times(spans)
        assert min(own) >= -1e-9
        # self times partition the root span; the rest of the report time is
        # the benchmark's own (the root wrapper)
        assert math.isclose(sum(own), roots[0][2] - roots[0][1], rel_tol=1e-9, abs_tol=1e-12)
        benchmark_own = result["elapsed"] - sum(own)
        assert 0.0 <= benchmark_own <= 0.01 * result["elapsed"] + 1e-3
        total_self += sum(own)
    assert stats.traced_self_s == pytest.approx(total_self)


def test_library_functions_are_wrapped_in_every_namespace(workdir):
    workload = workloads.symmetric_pairs(5, workdir, tiny=True)
    report = next(r for r in workload.reports if r.kind.startswith("hyperpolar"))
    outcome, result, _ = run.run_report(report, os.path.join(workdir, "out.json"), traced=True)
    assert outcome.error is None
    spans = result["spans"]
    parents = {s[0]: spans[s[3]][0] for s in spans if s[3] >= 0}
    assert parents["roots.restricted_root_decomposition"] == "hyperpolar.section_orthogonality_check"
    assert parents["algebras.load_algebra"] == "hyperpolar.section_orthogonality_check"


def test_every_per_layer_metric_is_computed(workdir):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workload = workloads.operator_files(7, workdir, tiny=True)
    outcomes, value = run.per_layer(workload, workdir, 0.0, run.environment())
    assert all(o.error is None for o in outcomes)
    values = {m["name"]: value(m["name"]) for m in spec["per_layer"]}
    assert all(math.isfinite(v) for v in values.values())
    # a trace report evaluates reg_trace_info and trace_square_info twice each
    assert values["spectral.repeat_frac"] > 0.0
    assert values["src_lines.total"] >= sum(v for k, v in values.items()
                                            if k.startswith("src_lines.") and k != "src_lines.total")
    assert values["env.blas_threads"] == 1


def test_fails_without_sources(workdir):
    with tempfile.TemporaryDirectory(dir=workdir) as d:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), d)
        shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)),
                        os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "holonomy",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=d, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
