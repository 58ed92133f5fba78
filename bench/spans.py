"""Outside-in span recorder for a traced qcond run.

Wraps the public functions of each qcond layer where their callers look
them up (module attributes and class attributes), so nothing under
``src/`` changes.  Each wrapped call records one span: name, start, end
and the span that was open when it started (its parent).  All spans of
one process share a run id.  Spans stay in memory and are written once,
after the CLI returns.

``numpy.fft.fft`` and ``numpy.fft.ifft`` are counted, not spanned: calls
and points transformed.  The counter adds no span, so FFT time stays in
the self time of the layer that calls it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import warnings

import numpy as np

# (module, attribute path) of every traced public call, named by layer.
TRACED = (
    ("qcond.qdyn", "PureStepper.conditioned"),
    ("qcond.qdyn", "PureStepper.mean_x"),
    ("qcond.qdyn", "DensityStepper.isolated"),
    ("qcond.core", "wavefunction_moments"),
    ("qcond.core", "quantum_moments"),
    ("qcond.core", "ensemble_moments"),
    ("qcond.core", "SystemSpec.with_control"),
    ("qcond.cumulant", "centroid_step"),
    ("qcond.feedback", "run_closed_loop"),
    ("qcond.lyap", "paired_run"),
    ("qcond.lyap", "ensemble_lyapunov"),
    ("qcond.cdyn", "run_conditioned_classical"),
    ("qcond.cdyn", "ks_step"),
    ("qcond.cdyn", "resample"),
    ("qcond.cdyn", "liouville_step"),
    ("qcond.cdyn", "newton_trajectory"),
    ("qcond.qct", "evaluate_along_trajectory"),
    ("qcond.qct", "action_scale"),
    ("qcond.noise", "generate"),
    ("qcond.experiments", "run_experiment"),
    ("qcond.cli", "load_config"),
    ("qcond.cli", "write_outputs"),
)

# Metric prefix of each traced call, e.g. "qdyn.PureStepper.conditioned".
SPAN_NAMES = tuple(module[len("qcond."):] + "." + attr for module, attr in TRACED)


class SpanRecorder:
    """In-memory spans of one process plus named event counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self.spans = []       # (name index, parent span id, start ns, end ns)
        self.stack = []       # ids of the spans currently open
        self.counters = {}

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, parent, start, end)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def write(self, path: str):
        """Save spans as an (n, 4) int64 array next to names and counters."""
        np.savez(path,
                 spans=np.array(self.spans, dtype=np.int64).reshape(-1, 4),
                 header=np.array(json.dumps({"run_id": self.run_id, "names": self.names,
                                             "counters": self.counters})))


def _replace_everywhere(original, replacement):
    """Rebind every qcond module attribute that refers to ``original``."""
    for modname, module in list(sys.modules.items()):
        if modname == "qcond" or modname.startswith("qcond."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


def instrument(recorder: SpanRecorder):
    """Wrap every TRACED call and the FFT pair; qcond must be imported."""
    observers = {
        "lyap.paired_run": lambda res: recorder.count("lyap.renormalizations",
                                                      res.n_renormalizations),
    }
    for (modname, attr), name in zip(TRACED, SPAN_NAMES):
        module = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, recorder.wrap(name, vars(cls)[meth], observers.get(name)))
        else:
            original = getattr(module, attr)
            _replace_everywhere(original, recorder.wrap(name, original, observers.get(name)))

    for fname in ("fft", "ifft"):
        original = getattr(np.fft, fname)

        @functools.wraps(original)
        def counted(a, *args, _original=original, **kwargs):
            recorder.count("fft.calls")
            recorder.count("fft.points", np.size(a))
            return _original(a, *args, **kwargs)

        setattr(np.fft, fname, counted)

    # feedback.cooling_experiment reports each aborted stream only as a warning.
    show = warnings.showwarning

    def counting_showwarning(message, category, filename, lineno, file=None, line=None):
        if "aborted" in str(message) and "retrying" in str(message):
            recorder.count("feedback.retried_streams")
        show(message, category, filename, lineno, file, line)

    warnings.showwarning = counting_showwarning
