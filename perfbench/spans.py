"""Span recorder for the traced benchmark run.

The recorder wraps public callables of ``repro`` from the outside --
nothing in ``src/`` changes -- and records one span per call: layer
name, thread, start, end and self time (duration minus the time its
direct child spans cover). Each thread keeps its own span stack, so
self times stay correct on the server's request-handler threads.

Every callable is wrapped at the binding its caller looks up: the class
attribute for methods (``getattr`` on an instance or class finds the
wrapper) and the importing module's global for functions called by bare
name (``repro.core.study.visitor_filter_mask``). Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Hook = Callable[["SpanRecorder", Any], None]


@dataclass(frozen=True)
class Binding:
    """One wrapped callable: ``module[.owner].attr`` recorded as ``layer``."""

    layer: str
    module: str
    owner: Optional[str]
    attr: str
    hook: Optional[Hook] = None


# -- result hooks: counts and ratios measured where the work happens ---------

def _count_bursts(recorder: "SpanRecorder", trace: Any) -> None:
    recorder.add("synth.bursts", len(trace.bursts))


def _count_attributed(recorder: "SpanRecorder", mac_ids: Any) -> None:
    recorder.add("columnar.dhcp_join.attributed", int((mac_ids >= 0).sum()))
    recorder.add("columnar.dhcp_join.looked_up", int(mac_ids.size))


def _count_annotated(recorder: "SpanRecorder", dns_ids: Any) -> None:
    recorder.add("columnar.dns_lookback.annotated", int((dns_ids >= 0).sum()))
    recorder.add("columnar.dns_lookback.looked_up", int(dns_ids.size))


def _count_shed(recorder: "SpanRecorder", decision: Any) -> None:
    from repro.serve.resilience import ADMITTED

    if decision != ADMITTED:
        recorder.add("serve.requests_shed", 1)


def _count_coalesced(recorder: "SpanRecorder", result: Any) -> None:
    if result.coalesced:
        recorder.add("serve.requests_coalesced", 1)


#: Every layer of ``repro`` the benchmark times, by the binding its
#: caller looks up. Several bindings may share one layer name
#: (``columnar.flow_engine`` is ``process_batch`` + ``flush_batch``).
BINDINGS: Tuple[Binding, ...] = (
    Binding("synth.generate_day", "repro.synth.generator",
            "CampusTraceGenerator", "generate_day", _count_bursts),
    Binding("synth.world", "repro.synth.generator",
            "CampusTraceGenerator", "__init__"),
    Binding("columnar.from_bursts", "repro.columnar.batch",
            "BurstBatch", "from_bursts"),
    Binding("pipeline.tap", "repro.pipeline.tap", "Tap", "filter_batch"),
    Binding("columnar.flow_engine", "repro.columnar.engine",
            "ColumnarFlowEngine", "process_batch"),
    Binding("columnar.flow_engine", "repro.columnar.engine",
            "ColumnarFlowEngine", "flush_batch"),
    Binding("columnar.lease_ingest", "repro.columnar.leases",
            "ColumnarLeaseIndex", "ingest"),
    Binding("columnar.dns_ingest", "repro.columnar.dnsindex",
            "ColumnarDnsIndex", "ingest_batch"),
    Binding("columnar.dhcp_join", "repro.columnar.leases",
            "ColumnarLeaseIndex", "mac_ids_at", _count_attributed),
    Binding("columnar.dns_lookback", "repro.columnar.dnsindex",
            "ColumnarDnsIndex", "domain_ids_at", _count_annotated),
    Binding("columnar.register", "repro.columnar.ingest",
            "BatchRegistrar", "register"),
    Binding("pipeline.materialize", "repro.pipeline.dataset",
            "FlowDatasetBuilder", "add_flow_batch"),
    Binding("pipeline.finalize", "repro.pipeline.pipeline",
            "MonitoringPipeline", "finalize"),
    Binding("pipeline.visitor_filter", "repro.core.study", None,
            "visitor_filter_mask"),
    Binding("pipeline.visitor_filter", "repro.pipeline.visitors", None,
            "apply_visitor_filter"),
    Binding("pipeline.visitor_filter", "repro.pipeline.dataset",
            "FlowDataset", "select"),
    Binding("pipeline.visitor_filter", "repro.pipeline.dataset",
            "FlowDataset", "compact"),
    Binding("devices.classify", "repro.devices.classifier",
            "DeviceClassifier", "classify"),
    Binding("geo.classify", "repro.geo.international",
            "InternationalClassifier", "classify"),
    Binding("analysis.warm", "repro.analysis.context",
            "AnalysisContext", "warm"),
    *(Binding(f"analysis.{name}", "repro.core.study", "StudyArtifacts",
              name) for name in ("fig1", "fig2", "fig3", "fig4", "fig5",
                                 "fig6", "fig7", "fig8", "summary")),
    Binding("analysis.expectations", "repro.analysis.expectations", None,
            "evaluate_all"),
    Binding("core.report_render", "repro.core.report", None,
            "render_full_report"),
    Binding("core.study", "repro.core.study", "LockdownStudy", "run"),
    Binding("core.study", "repro.core.study", "LockdownStudy",
            "artifacts_from_dataset"),
    Binding("serve.accept", "repro.serve.server", "_StoreHTTPServer",
            "get_request"),
    Binding("serve.http", "repro.serve.server", "_StoreHTTPServer",
            "process_request_thread"),
    Binding("serve.http", "repro.serve.server", "_StoreHTTPServer",
            "finish_request"),
    Binding("serve.admit_wait", "repro.serve.resilience", "AdmissionGate",
            "admit", _count_shed),
    Binding("serve.query", "repro.serve.service", "StudyService",
            "query", _count_coalesced),
    Binding("serve.store_get", "repro.serve.store", "ArtifactStore", "get"),
    Binding("serve.store_put", "repro.serve.store", "ArtifactStore", "put"),
    Binding("serve.study_run", "repro.serve.service", "StudyService",
            "_run_study"),
    Binding("serve.compute_all", "repro.core.study", "StudyArtifacts",
            "compute_all"),
    Binding("serve.serialize", "repro.serve.service", "StudyService",
            "_compute_payload"),
)

#: Layer names in table order (first appearance in :data:`BINDINGS`).
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(b.layer for b in BINDINGS))


class SpanRecorder:
    """Per-thread span stacks over wrapped callables, kept in memory."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (layer, thread ident, start ns, end ns, self ns, parent layer)
        self.spans: List[Tuple[str, int, int, int, int, str]] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str) -> list:
        frame = [layer, 0, time.perf_counter_ns()]
        self._stack().append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        layer, child_ns, start = frame
        duration = end - start
        parent = ""
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        self.spans.append((layer, threading.get_ident(), start, end,
                           duration - child_ns, parent))

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Record one span around a block (the benchmark's own roots)."""
        frame = self._enter(layer)
        try:
            yield
        finally:
            self._exit(frame)

    def add(self, counter: str, amount: int) -> None:
        with self._lock:
            self.counters[counter] += amount

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, layer: str, fn: Callable[..., Any],
                 hook: Optional[Hook]) -> Callable[..., Any]:
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = recorder._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._exit(frame)
            if hook is not None:
                hook(recorder, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every binding; :meth:`uninstall` puts the originals back."""
        for binding in BINDINGS:
            module = importlib.import_module(binding.module)
            owner = (module if binding.owner is None
                     else getattr(module, binding.owner))
            # The raw attribute, so classmethods stay classmethods.
            original = (vars(owner)[binding.attr]
                        if binding.attr in vars(owner)
                        else getattr(owner, binding.attr))
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(self._wrapper(
                    binding.layer, original.__func__, binding.hook))
            else:
                wrapped = self._wrapper(binding.layer, original,
                                        binding.hook)
            inherited = binding.attr not in vars(owner)
            setattr(owner, binding.attr, wrapped)
            self._restore.append((owner, binding.attr,
                                  None if inherited else original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span and counter as JSON lines."""
        with open(path, "w") as out:
            for layer, thread, start, end, self_ns, parent in self.spans:
                out.write(json.dumps({
                    "layer": layer, "thread": thread, "start_ns": start,
                    "end_ns": end, "self_ns": self_ns,
                    "parent": parent}) + "\n")
            out.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def load_spans(path: str) -> Tuple[List[dict], Dict[str, int]]:
    """Read a :meth:`SpanRecorder.dump` file back: (spans, counters)."""
    spans: List[dict] = []
    counters: Dict[str, int] = {}
    with open(path) as lines:
        for line in lines:
            record = json.loads(line)
            if "counters" in record:
                counters = record["counters"]
            else:
                spans.append(record)
    return spans, counters


def self_seconds(spans: List[dict]) -> Tuple[Dict[str, float],
                                             Dict[str, int]]:
    """Total self seconds and call count per layer."""
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        seconds[span["layer"]] += span["self_ns"] / 1e9
        calls[span["layer"]] += 1
    return dict(seconds), dict(calls)
