"""Spans and counts recorded around the layer entry points of the pipeline.

`lassosat.pipeline` calls its layers through module globals (`encode(...)`,
`to_cnf(...)`, ...), so replacing those globals for the duration of one job
puts a wrapper on every call a `run` or `find_bound` makes.  Each wrapper
records counts read off the layer's result; a timed recorder also records a
span {name, start, end, parent, job} per call.  Spans stay in memory until
the pass ends; run.py writes them out when the run ends.

An entry point that has disappeared from the pipeline fails the run at
once, so a refactor cannot make a layer silently read zero.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# pipeline global -> layer span name (module.operation)
LAYERS = {
    "load_spec": "specfile.load",
    "build_problem": "desugar.build",
    "encode": "encoder.encode",
    "to_cnf": "cnf.to_cnf",
    "emit_dimacs": "cnf.emit",
    "solve_embedded": "sat_embedded.solve",
    "decode": "trace.decode",
    "render_history": "trace.render",
}
JOB_SPAN = "pipeline.job"

# counts every job of every pass records, timed or not; together with the
# verdict they are what the determinism check compares
COUNT_KEYS = (
    "clauses",
    "vars",
    "closure_size",
    "copy_blocks",
    "tseitin_vars",
    "dimacs_bytes",
    "encode_calls",
    "solve_calls",
    "unsat_calls",
)


def _count_encode(counts, args, result):
    vm = result.varmap
    counts["closure_size"] += len(vm.closure)
    counts["copy_blocks"] += len(vm.copy_base)
    counts["vars"] += vm.max_var
    counts["encode_calls"] += 1


def _count_to_cnf(counts, args, result):
    counts["clauses"] += len(result.clauses)
    counts["tseitin_vars"] += result.num_vars - args[0].varmap.max_var


def _count_solve(counts, args, result):
    counts["solve_calls"] += 1
    counts["unsat_calls"] += result.verdict == "UNSAT"


_COUNTERS = {
    "encode": _count_encode,
    "to_cnf": _count_to_cnf,
    "solve_embedded": _count_solve,
}


class Recorder:
    """Wraps the pipeline's layers for one job at a time.

    With `timed` off only counts are kept, so the measured passes carry no
    clock reads beyond the benchmark's own around each job.
    """

    def __init__(self, pipeline, timed: bool):
        missing = [name for name in LAYERS if not callable(getattr(pipeline, name, None))]
        if missing:
            raise RuntimeError(
                "lassosat.pipeline no longer has the layer entry point(s) "
                f"{', '.join(missing)}; update perfbench/spans.py LAYERS"
            )
        self.pipeline = pipeline
        self.timed = timed
        self.spans = []  # [name, start, end, parent index or None, job id]
        self._stack = []
        self._job = None
        self._counts = None

    def _wrap(self, attr, fn):
        name = LAYERS[attr]
        counter = _COUNTERS.get(attr)
        timed = self.timed

        if attr == "emit_dimacs":
            def wrapper(inst, sink, *args, **kwargs):
                idx = self._open(name) if timed else None
                try:
                    before = sink.tell()
                    result = fn(inst, sink, *args, **kwargs)
                    self._counts["dimacs_bytes"] += sink.tell() - before
                finally:
                    self._close(idx)
                return result
            return wrapper

        def wrapper(*args, **kwargs):
            idx = self._open(name) if timed else None
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counter(self._counts, args, result)
            return result
        return wrapper

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._job])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        if idx is not None:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def job(self, job_id):
        """Install the wrappers for one job; yields the job's count dict."""
        originals = {attr: getattr(self.pipeline, attr) for attr in LAYERS}
        self._job = job_id
        self._counts = dict.fromkeys(COUNT_KEYS, 0)
        self._stack = []
        for attr, fn in originals.items():
            setattr(self.pipeline, attr, self._wrap(attr, fn))
        idx = self._open(JOB_SPAN) if self.timed else None
        try:
            yield self._counts
        finally:
            self._close(idx)
            for attr, fn in originals.items():
                setattr(self.pipeline, attr, fn)
            self._job = None


def self_times(spans):
    """Per span index: duration minus the time its direct children cover.

    The pipeline is single-threaded, so children never overlap and their
    covered time is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _, _) in enumerate(spans)]
