"""Spans around the calls into decoq's layers, recorded from outside the package.

A ``Tracer`` replaces public functions at the names their callers look up
(``decoq.runner.code_error``, ``decoq.metrics.recovery_unitary``, the methods
of ``_CorrectionPipeline`` ...) with wrappers that record one span per call:
name, start, end and the index of the enclosing span.  Spans stay in memory
until the run ends.  A layer's self time is its spans' time minus the time of
their direct children, so the self times of one round add up to the round's
traced wall time less the benchmark's own loop.

A name that a later version of decoq no longer has is skipped; its metrics
then read 0 and ``missing`` lists it.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import Counter, defaultdict

import decoq.metrics
import decoq.runner
import decoq.scenario

# Environment, interaction and Hamiltonian builds as the runner calls them.
MODEL_FUNCTIONS = (
    "random_environment",
    "trivial_environment",
    "build_noncontact",
    "interaction_matrix",
    "free_hamiltonian",
    "single_flip_hamiltonian",
    "pair_flip_hamiltonian",
    "operator_norm",
)


def _targets():
    """(span name, module or class, attribute names wrapped under that span)."""
    pipeline = getattr(decoq.metrics, "_CorrectionPipeline", None)
    return [
        ("runner.run", decoq.runner, ("run",)),
        ("scenario.load", decoq.scenario, ("load_scenario",)),
        ("codes.build_code", decoq.runner, ("build_code",)),
        ("dynamics.model", decoq.runner, MODEL_FUNCTIONS),
        ("metrics.code_error", decoq.runner, ("code_error",)),
        ("metrics.pipeline_build", pipeline, ("__init__",)),
        ("metrics.error_eval", pipeline, ("error_direct",)),
        ("codes.recovery_unitary", decoq.metrics, ("recovery_unitary",)),
        ("metrics.periodic", decoq.runner, ("periodic_correction_decay",)),
        ("codes.recovery_channel", decoq.metrics, ("recovery_channel",)),
        ("dynamics.evolve", decoq.metrics, ("evolve",)),
        ("metrics.fit", decoq.runner, ("fit_power_law",)),
        ("codes.bounds", decoq.runner, ("hamming_gv_check", "asymptotic_x0")),
        ("svg.emit", decoq.runner, ("emit_svg",)),
    ]


def _module_copy(module, **replaced):
    """A module object with ``module``'s attributes, some replaced; lookups stay at C speed."""
    copy = types.ModuleType(module.__name__)
    copy.__dict__.update(module.__dict__)
    copy.__dict__.update(replaced)
    return copy


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.tallies: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, original, tally=None):
        spans, stack, tallies = self.spans, self._stack, self.tallies
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
                if tally is not None:
                    tallies[tally[0]] += tally[1](args, kwargs)

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        self.missing = []
        for name, owner, attrs in _targets():
            for attr in attrs:
                present = owner is not None and (
                    attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
                )
                if not present:
                    self.missing.append(f"{name}:{attr}")
                    continue
                original = getattr(owner, attr)
                tally = None
                if name == "metrics.periodic":
                    signature = inspect.signature(original)
                    tally = ("metrics.periodic_cycles", lambda a, kw: int(signature.bind(*a, **kw).arguments["cycles"]))
                self._patch(owner, attr, self._wrap(name, original, tally))
        np_metrics = getattr(decoq.metrics, "np", None)
        if np_metrics is None:
            self.missing.append("dynamics.eigh:np")
            return
        eigh = self._wrap("dynamics.eigh", np_metrics.linalg.eigh)
        self._patch(decoq.metrics, "np", _module_copy(np_metrics, linalg=_module_copy(np_metrics.linalg, eigh=eigh)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_totals(self, begin: int, end: int) -> dict[str, dict]:
        """Per-layer counts and self times of the spans recorded in [begin, end)."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for name, start, stop, parent in self.spans[begin:end]:
            calls[name] += 1
            self_s[name] += stop - start
            if parent >= begin:
                p = self.spans[parent]
                self_s[p[0]] -= stop - start
        return {"calls": dict(calls), "self_s": dict(self_s)}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for index, (name, start, stop, parent) in enumerate(self.spans):
                fh.write(f"{index},{name},{start!r},{stop!r},{parent}\n")


def layer_metrics(totals: dict, tallies: dict, bytes_written: int) -> dict[str, float]:
    """The per-layer metrics of one traced round, by their BENCHMARK.json names."""
    calls, self_s = totals["calls"], totals["self_s"]

    def n(span):
        return int(calls.get(span, 0))

    def s(span):
        return float(self_s.get(span, 0.0))

    return {
        "metrics.error_evals": n("metrics.error_eval"),
        "metrics.error_eval_s": s("metrics.error_eval"),
        "metrics.code_error_calls": n("metrics.code_error"),
        "metrics.search_self_s": s("metrics.code_error"),
        "metrics.pipeline_builds": n("metrics.pipeline_build"),
        "metrics.pipeline_build_s": s("metrics.pipeline_build"),
        "codes.recovery_unitary_calls": n("codes.recovery_unitary"),
        "codes.recovery_unitary_s": s("codes.recovery_unitary"),
        "dynamics.eigh_calls": n("dynamics.eigh"),
        "dynamics.eigh_s": s("dynamics.eigh"),
        "metrics.periodic_cycles": int(tallies.get("metrics.periodic_cycles", 0)),
        "metrics.periodic_s": s("metrics.periodic"),
        "codes.recovery_channel_calls": n("codes.recovery_channel"),
        "codes.recovery_channel_s": s("codes.recovery_channel"),
        "dynamics.evolve_calls": n("dynamics.evolve"),
        "dynamics.evolve_s": s("dynamics.evolve"),
        "codes.build_code_calls": n("codes.build_code"),
        "codes.build_code_s": s("codes.build_code"),
        "dynamics.model_s": s("dynamics.model"),
        "scenario.load_s": s("scenario.load"),
        "metrics.fit_s": s("metrics.fit"),
        "codes.bounds_s": s("codes.bounds"),
        "svg.emit_s": s("svg.emit"),
        "svg.files": n("svg.emit"),
        "runner.self_s": s("runner.run"),
        "runner.bytes_written": int(bytes_written),
    }
