"""Reach: src/qcond holds what the qcond CLI runs.

Every def of the package, methods and closures included, must be called
by some CLI run below or be listed in ALLOWED with the reason it stays.
An ALLOWED entry that a run reaches, or that no longer exists, fails too,
so the list cannot go stale.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import qcond

PACKAGE = Path(qcond.__file__).resolve().parent
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Definitions that no CLI run calls, each with the reason it stays.
ALLOWED = {
    "qdyn.DensityStepper.unconditional": "the reference side of quantum passivity (ROADMAP item 3)",
    "qdyn.DensityStepper._decoherence": "the backaction damping of unconditional",
    "qdyn.DensityStepper._renormalize": "the trace renormalization of unconditional",
    "lyap.classical_paired_run": "the classical exponent of ROADMAP item 2, and the cheap path "
                                 "that two tests use to pin _drive_pairs' reset order",
    "lyap.classical_paired_run.reset": "the phase-space reset of classical_paired_run",
    "lyap.PairedRunResult.n_renormalizations": "bench/spans.py reads it when tracing",
    "noise._call_pool_fn": "runs only in pool children, which the tracer does not follow",
}

# Every shipped config, cut short by overrides that keep the paths it takes
# at full length.
RUNS = [
    ("conditioned_harmonic.ini", ["run.horizon=0.2", "run.n_realizations=2"]),
    ("cooling_quartic.ini", ["run.horizon=0.2", "run.n_realizations=2", "run.sample_stride=50"]),
    ("cumulant_compare_harmonic.ini", ["run.horizon=0.5"]),
    ("isolated_harmonic.ini", ["run.horizon=0.2"]),
    # Started on the barrier top, each pair passes the threshold within t = 0.2.
    ("lyapunov_duffing.ini", ["run.horizon=0.2", "run.n_realizations=2", "run.sample_stride=40",
                              "lyapunov.x0=0", "lyapunov.renorm_threshold=0.21"]),
    # At k = 0 the pairs step isolated.
    ("lyapunov_duffing.ini", ["run.horizon=0.1", "run.n_realizations=2", "run.sample_stride=40",
                              "measurement.k=0"]),
    # Two filters of 400 particles resample within t = 0.5.
    ("passivity_harmonic.ini", ["run.horizon=0.5", "run.n_realizations=2"]),
    # The derived action needs the full orbit to find a recurrence.
    ("qct_scan_duffing.ini", []),
]

# Runs every argv through qcond.cli.main in one process, under a tracer of
# call events set before the import, and writes the (file, first line) of
# every package code object that was called.
TRACER = """
import json, os, sys
src, out, argvs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
package = os.path.join(src, "qcond", "")
reached = set()

def tracer(frame, event, arg):   # returns None: no line events
    code = frame.f_code
    if code.co_filename.startswith(package):
        reached.add((code.co_filename, code.co_firstlineno))

sys.settrace(tracer)
import qcond.cli
codes = [qcond.cli.main(argv) for argv in argvs]
sys.settrace(None)
with open(os.path.join(out, "reached.json"), "w") as fh:
    json.dump({"codes": codes, "reached": sorted(reached)}, fh)
"""


def _definitions():
    """{(file, first line): "module.qualname"} of every def in the package.

    A decorated def's code object starts at its first decorator.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem + ".")
    return found


def test_every_definition_is_reached_or_allowed(tmp_path):
    assert sorted({config for config, _ in RUNS}) == sorted(p.name for p in CONFIGS.glob("*.ini"))
    argvs = []
    for i, (config, overrides) in enumerate(RUNS):
        argvs.append(["--config", str(CONFIGS / config), "--workers", "1",
                      "--out", str(tmp_path / str(i))]
                     + [arg for item in overrides for arg in ("--set", item)])
    # --list, and a config error: a grid size PositionGrid refuses, named by its key.
    argvs += [["--list"],
              ["--config", str(CONFIGS / "isolated_harmonic.ini"), "--set", "grid.n_points=100"]]
    src = str(PACKAGE.parent)
    subprocess.run([sys.executable, "-c", TRACER, src, str(tmp_path), json.dumps(argvs)],
                   check=True, capture_output=True, cwd=tmp_path,
                   env={**os.environ, "PYTHONPATH": src})
    result = json.loads((tmp_path / "reached.json").read_text())
    assert result["codes"] == [0] * len(RUNS) + [0, 2]

    # The short runs still take the paths that only longer runs would otherwise show.
    def metadata(i):
        return json.loads((tmp_path / str(i) / "metadata.json").read_text())["result"]

    assert min(metadata(4)["renormalizations"]) > 0
    assert metadata(6)["n_resamples"] > 0

    definitions = _definitions()
    reached = {definitions[tuple(key)] for key in result["reached"] if tuple(key) in definitions}
    unreached = sorted(set(definitions.values()) - reached - set(ALLOWED))
    assert not unreached, f"no CLI run reaches {unreached}: delete them or list them in ALLOWED"
    stale = sorted(name for name in ALLOWED if name in reached or name not in definitions.values())
    assert not stale, f"ALLOWED lists {stale}, which a run reaches or which no longer exist"
