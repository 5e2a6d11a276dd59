"""Span tracing of the solver's layers, installed from outside the package.

The benchmark times the calls into each layer by wrapping the layer's
public callables where their callers look them up: a module-level
function is replaced in every loaded ``repro`` module that bound it with
``from x import f``, and a method is replaced on each class that defines
it.  Nothing under ``src/repro`` is edited; :meth:`Tracer.uninstall`
(or leaving the ``with`` block) puts every original back.

A span is ``(layer, start, end, parent, request id)``.  A layer's *self
time* is its spans' durations minus the time covered by their child
spans, so the self times of all layers add up to the time covered by the
root spans, and ``wall - sum(self)`` is the benchmark's own residue.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

#: Layer name -> callables to wrap.  ``"module:func"`` wraps a function;
#: ``"module:Class.method"`` wraps a method on that class.  A leading
#: ``*`` marks the callables whose entries count as the layer's calls.
LAYERS: dict[str, tuple[str, ...]] = {
    "core.decision": ("*repro.core.decision:decision_psdp",),
    "core.batch": ("*repro.core.batch:solve_many",),
    "core.dotexp": (
        "*repro.core.dotexp:ExactDotExpOracle.__call__",
        "*repro.core.dotexp:FastDotExpOracle.__call__",
        "repro.core.dotexp:FastDotExpOracle.fused_update_weights",
        "repro.core.dotexp:FastDotExpOracle.fused_power_v0",
        "repro.core.dotexp:FastDotExpOracle.fused_norm_result",
        "*repro.core.dotexp:FastDotExpOracle.record_fused_call",
    ),
    "core.psi_state": (
        "repro.core.psi_state:make_psi_state",
        "repro.core.psi_state:PsiState.lambda_max_exact",
        "repro.core.psi_state:DensePsiState.matvec",
        "repro.core.psi_state:DensePsiState.add_delta",
        "repro.core.psi_state:DensePsiState.lambda_max",
        "repro.core.psi_state:DensePsiState.densify",
        "repro.core.psi_state:ImplicitPsiState.matvec",
        "repro.core.psi_state:ImplicitPsiState.add_delta",
        "repro.core.psi_state:ImplicitPsiState.replace_weights",
        "repro.core.psi_state:ImplicitPsiState.lambda_max",
        "repro.core.psi_state:ImplicitPsiState.densify",
    ),
    "robustness.supervisor": (
        "repro.robustness.supervisor:FastPathSupervisor.oracle_call",
        "repro.robustness.supervisor:FastPathSupervisor.lambda_max",
        "repro.robustness.supervisor:FastPathSupervisor.budget_exhausted",
    ),
    "linalg.expm": ("*repro.linalg.expm:expm_normalized",),
    "linalg.taylor": (
        "repro.linalg.taylor:taylor_expm_apply",
        "repro.linalg.taylor_blocked:_FusedTaylorApplyBase.apply",
        "repro.linalg.taylor_gram:TaylorEngine.kernel_for",
        "repro.linalg.taylor_gram:TaylorEngine.update_weights",
        "repro.linalg.taylor_gram:batched_gram_taylor_apply",
    ),
    "linalg.trace_estimation": (
        "repro.linalg.trace_estimation:TraceEstimator.bind",
        "repro.linalg.trace_estimation:TraceEstimator.estimate",
        "repro.linalg.trace_estimation:TraceEstimator.record_gram_estimate",
        "repro.linalg.trace_estimation:gram_exp_trace",
        "repro.linalg.trace_estimation:batched_gram_exp_trace",
    ),
    "linalg.norms": (
        "repro.linalg.norms:spectral_norm_power",
        "repro.linalg.norms:batched_spectral_norm_power",
        "repro.linalg.norms:top_eigenvalue",
    ),
    "operators.packed": (
        "repro.operators.packed:PackedGramFactors.__init__",
        "repro.operators.packed:PackedGramFactors.expand_weights",
        "repro.operators.packed:PackedGramFactors.matvec",
        "repro.operators.packed:PackedGramFactors.matvec_fn",
        "repro.operators.packed:PackedGramFactors.gram_matrix",
        "repro.operators.packed:PackedGramFactors.psi_accumulator",
        "repro.operators.packed:PackedGramFactors.taylor_engine",
        "repro.operators.packed:PackedGramFactors.weighted_sum",
        "repro.operators.packed:PackedGramFactors.dots",
        "repro.operators.packed:PackedGramFactors.traces",
        "repro.operators.packed:PackedGramFactors.estimates_from_transform",
        "repro.operators.packed:segment_sums",
        "repro.operators.packed:batched_segment_sums",
    ),
    "service.submit": ("*repro.service.solve_service:SolveService.submit",),
    "service.step": ("*repro.service.solve_service:SolveService.step",),
}

#: Name of the spans the service load generator records while it sleeps
#: until the next arrival (idle time is not residue).
IDLE = "loadgen.idle"


def _resolve(target: str):
    """``(owner, attribute name, original)`` for one ``LAYERS`` entry."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, original


class _Patches:
    """Attribute replacements that can all be undone, newest first."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((owner, name, current))
        setattr(owner, name, value)

    def replace_function(self, original, wrapper) -> None:
        """Rebind ``original`` to ``wrapper`` in every ``repro`` module holding it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


@dataclass
class LayerTotals:
    """Aggregated figures of one layer over a traced run."""

    self_s: float
    calls: int


class Tracer:
    """Records one span per call into a traced layer, kept in memory.

    Use as a context manager around the traced region; set
    :attr:`request_id` to tag the spans that follow with the operation
    they serve (``-1`` when a span serves several, e.g. a batched solve).
    Spans are stored column-wise in the order they close; ``span_id`` is
    the order they opened in, which ``parent`` refers to (``-1`` for a
    root span).
    """

    def __init__(self) -> None:
        self.names: list[str] = list(LAYERS) + [IDLE]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.span_id = array("q")
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.rid = array("q")
        self.request_id = -1
        self._self_s = [0.0] * len(self.names)
        self._calls = [0] * len(self.names)
        # One [span id, start, time covered by children] per open span.
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._patches = _Patches()

    # ------------------------------------------------------------ recording
    def _recorder(self, layer: int, counted: bool):
        """``(open, close)`` callables recording spans of ``layer``.

        Everything the hot path touches is bound to a local, because the
        tracer runs once per call into a layer (tens of thousands of times
        a second on the iteration-bound workloads).
        """
        stack, ids, clock = self._stack, self._ids, time.perf_counter
        self_s, calls = self._self_s, self._calls
        span_id, layers, starts, ends = self.span_id, self.layer, self.start, self.end
        parents, rids = self.parent, self.rid

        def open_span() -> list:
            frame = [next(ids), 0.0, 0.0]
            stack.append(frame)
            frame[1] = clock()
            return frame

        def close_span(frame: list) -> None:
            stop = clock()
            stack.pop()
            duration = stop - frame[1]
            if stack:
                outer = stack[-1]
                outer[2] += duration
                parents.append(outer[0])
            else:
                parents.append(-1)
            self_s[layer] += duration - frame[2]
            if counted:
                calls[layer] += 1
            span_id.append(frame[0])
            layers.append(layer)
            starts.append(frame[1])
            ends.append(stop)
            rids.append(self.request_id)

        return open_span, close_span

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span of ``name`` around the ``with`` body (e.g. :data:`IDLE`)."""
        open_span, close_span = self._recorder(self._index[name], True)
        frame = open_span()
        try:
            yield
        finally:
            close_span(frame)

    def _wrapper(self, layer: str, counted: bool, original):
        open_span, close_span = self._recorder(self._index[layer], counted)

        def traced(*args, **kwargs):
            frame = open_span()
            try:
                return original(*args, **kwargs)
            finally:
                close_span(frame)

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", layer)
        return traced

    # ------------------------------------------------------------ lifetime
    def install(self) -> "Tracer":
        """Wrap every ``LAYERS`` target."""
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, name, original = _resolve(target.lstrip("*"))
                wrapper = self._wrapper(layer, target.startswith("*"), original)
                if isinstance(owner, type):
                    self._patches.set(owner, name, wrapper)
                else:
                    self._patches.replace_function(original, wrapper)
        return self

    def uninstall(self) -> None:
        self._patches.undo()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # ------------------------------------------------------------ results
    @property
    def totals(self) -> dict[str, LayerTotals]:
        return {
            name: LayerTotals(self._self_s[i], self._calls[i]) for i, name in enumerate(self.names)
        }

    def self_time_sum(self) -> float:
        return sum(self._self_s)

    def root_time_sum(self) -> float:
        roots = np.array(self.parent) < 0
        return float(np.sum(np.array(self.end)[roots] - np.array(self.start)[roots]))

    def save(self, path: str) -> None:
        """Write every span to ``path`` (``.npz``: one array per field plus layer names)."""
        np.savez(
            path,
            names=np.array(self.names),
            span_id=np.array(self.span_id),
            layer=np.array(self.layer),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent),
            request_id=np.array(self.rid),
        )
