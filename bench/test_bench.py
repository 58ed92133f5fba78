"""The benchmark's own checks: run with ``python3 -m pytest bench``.

They run real CLI invocations (under a minute in all) and are not part of
the repository's test suite.
"""

import copy
import json
import os
import time

import pytest

import reference
import run
from spans import SPAN_NAMES
from workloads import SEED_POOL, WORKLOADS, invoke

SEED = SEED_POOL[0]


def execute(name, ref, workers, tag, traced=False):
    return run.execute(WORKLOADS[name], ref, SEED, workers, tag, time.monotonic() + 300, traced)


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_cal", "cpu_cal", "steps_per_cal", "setup_s", "peak_rss_mb"}
    reported = {f"{name}.{kind}" for name in SPAN_NAMES for kind in run.PER_LAYER_UNITS}
    reported |= set(run.EXTRA_UNITS)
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


@pytest.fixture(scope="module")
def traced():
    """One traced --workers 1 execution per workload, at the default seed."""
    return {name: execute(name, reference.load(name), 1, "test-traced", traced=True)
            for name in WORKLOADS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_outputs_match_reference_bytes(traced, name):
    assert traced[name].ok and traced[name].check.identical


@pytest.mark.parametrize("name", ["lyapunov", "classical"])
def test_worker_count_and_tracing_change_no_output_byte(traced, name):
    wl = WORKLOADS[name]
    pooled = execute(name, reference.load(name), wl.workers, "test-pooled")
    assert pooled.ok and pooled.check.identical
    assert pooled.check.hashes == traced[name].check.hashes


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_bypassed_layers_make_no_calls(traced, name):
    values = run.layer_metrics(traced[name], traced[name], traced[name])
    assert run.called_layers(values) == WORKLOADS[name].called


def test_perturbed_reference_fails_loudly(capsys):
    ref = reference.load("density")
    sha = ref["seeds"][str(SEED)]["density.ini/isolated_moments.csv"]

    # Same values under another hash: not identical, but within tolerance.
    relabelled = copy.deepcopy(ref)
    relabelled["files"]["other"] = relabelled["files"][sha]
    relabelled["seeds"][str(SEED)]["density.ini/isolated_moments.csv"] = "other"
    ok = execute("density", relabelled, 1, "test-relabelled")
    assert ok.ok and not ok.check.identical

    perturbed = copy.deepcopy(relabelled)
    perturbed["files"]["other"]["values"][5][3] *= 1.0 + 1e-6
    bad = execute("density", perturbed, 1, "test-perturbed")
    assert not bad.ok
    out = capsys.readouterr().out
    assert "FAILED" in out and "isolated_moments.csv" in out
    assert "'c_xx [length^2]': worst deviation" in out and "row 5" in out


def test_invocation_past_its_timeout_is_killed():
    outdir = os.path.join(run.OUT, "runs", "test-timeout", "lyapunov")
    start = time.monotonic()
    inv = invoke(run.ROOT, "lyapunov.ini", SEED, 2, outdir, timeout=0.5)
    assert inv.rc != 0 and "killed after" in inv.log
    assert time.monotonic() - start < 5
