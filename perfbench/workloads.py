"""The three benchmark workloads: ``study``, ``replay`` and ``serve``.

Each workload runs the public entry points production runs, makes its
inputs from the workload seed, times its operations for a fixed number
of seconds and checks every output. See ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import LAYERS, SpanRecorder, load_spans, self_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Spans, server logs and the serve workload's store, inside the checkout.
WORK = os.path.join(ROOT, ".perfbench")

#: Serve layers reported inclusive of their children (their self time
#: is the sum of the synth/columnar/analysis layers inside them).
INCLUSIVE = ("serve.study_run", "serve.compute_all")

_INGEST = ("columnar.from_bursts", "pipeline.tap", "columnar.flow_engine",
           "columnar.lease_ingest", "columnar.dns_ingest",
           "columnar.dhcp_join", "columnar.dns_lookback",
           "columnar.register", "pipeline.materialize", "pipeline.finalize")
_ANALYSIS = ("synth.world", "pipeline.visitor_filter", "devices.classify",
             "geo.classify", "core.study", "analysis.warm",
             *(f"analysis.fig{n}" for n in range(1, 9)),
             "analysis.summary", "analysis.expectations")
_SERVE = ("serve.accept", "serve.http", "serve.admit_wait", "serve.query",
          "serve.store_get", "serve.store_put", "serve.study_run",
          "serve.compute_all", "serve.serialize")

#: The layers each workload must reach; a traced run fails if one of
#: them recorded no call (so a rename in ``src/`` cannot zero a layer).
EXPECTED_LAYERS: Dict[str, Tuple[str, ...]] = {
    "study": ("synth.generate_day", *_INGEST, *_ANALYSIS,
              "core.report_render"),
    "replay": (*_INGEST, *_ANALYSIS, "core.report_render"),
    "serve": ("synth.generate_day", *_INGEST, *_ANALYSIS, *_SERVE),
}


# -- shared helpers ----------------------------------------------------------

def load_inputs() -> Dict[str, Any]:
    with open(os.path.join(HERE, "inputs.json")) as fileobj:
        return json.load(fileobj)


def pool_seed(pool: List[int], seed: int) -> int:
    """The campus seed a workload seed selects (seed 7 -> pool[0])."""
    return pool[(seed - 7) % len(pool)]


def report_digest(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def percentile(samples: List[float], fraction: float) -> float:
    ranked = sorted(samples)
    index = min(len(ranked) - 1, int(round(fraction * (len(ranked) - 1))))
    return ranked[index]


#: Seconds :func:`calibration_seconds` takes on the reference host, a
#: 2-vCPU Xeon VM at a quiet moment. Untraced time metrics are reported
#: at that host speed (see "Host speed" in README.md).
REFERENCE_CALIBRATION_S = 0.33


def calibration_seconds() -> float:
    """Median time of a fixed kernel that no change to ``repro`` touches.

    A pure-Python dict/str loop plus NumPy sort, searchsorted and unique
    on fixed inputs: the two kinds of work ``repro`` does.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1 << 40, 1_000_000)
    probes = rng.integers(0, 1 << 40, 300_000)
    samples = []
    for _ in range(5):
        begin = time.perf_counter()
        tally: Dict[int, int] = {}
        for i in range(300_000):
            tally[i % 1000] = tally.get(i % 1000, 0) + len(str(i))
        np.searchsorted(np.sort(keys), probes)
        np.unique(keys % 100_000, return_inverse=True)
        samples.append(time.perf_counter() - begin)
    return statistics.median(samples)


@dataclass
class HostSpeed:
    """Calibration just before and just after a timed section."""

    before: float
    after: float

    def scale(self) -> float:
        """Factor taking this host's seconds to reference seconds."""
        return 2 * REFERENCE_CALIBRATION_S / (self.before + self.after)

    def note(self) -> str:
        return (f"calibration {self.before:.4f} s before, {self.after:.4f} s"
                f" after (reference {REFERENCE_CALIBRATION_S} s): times are"
                f" wall seconds x {self.scale():.4f}")


@dataclass
class Result:
    """What a workload run reports: metrics plus the output checks."""

    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit, sample count)
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, samples)


# -- study and replay: timed passes from input to rendered report ------------

@dataclass
class Pass:
    seconds: float
    flows: int
    ok: bool


def timed_passes(do_pass: Callable[[], Tuple[int, str, Any]],
                 check: Callable[[str, Any], List[str]],
                 seconds: float,
                 recorder: Optional[SpanRecorder] = None) -> List[Pass]:
    """Run passes until ``seconds`` have elapsed (at least one).

    A pass returns ``(flows closed, rendered report, outcomes)``; the
    output check runs outside the timed region. A pass that raises is
    recorded as failed with no timing.
    """
    passes: List[Pass] = []
    started = time.perf_counter()
    while True:
        begin = time.perf_counter()
        try:
            if recorder is None:
                flows, report, outcomes = do_pass()
            else:
                with recorder.span("bench.pass"):
                    flows, report, outcomes = do_pass()
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            passes.append(Pass(float("nan"), 0, False))
        else:
            elapsed = time.perf_counter() - begin
            try:
                problems = check(report, outcomes)
            except Exception as error:  # a broken check fails the pass
                problems = [f"output check raised {error!r}"]
            for problem in problems:
                print(f"[perfbench] check failed: {problem}",
                      file=sys.stderr)
            passes.append(Pass(elapsed, flows, not problems))
        if time.perf_counter() - started >= seconds:
            return passes


#: The eval baseline a default-seed report is gated against.
EVAL_BASELINE = os.path.join(ROOT, "baselines", "eval_small.json")


def report_checker(config: Any, inputs: Dict[str, Any], perturb: bool,
                   baseline_path: str = EVAL_BASELINE,
                   ) -> Tuple[Callable[[str, Any], List[str]], bool]:
    """Golden report digest, plus the eval baseline for its campus.

    Returns the check and whether it gates on the eval baseline (only
    the baseline's own campus, the default seed's, can be compared).
    """
    from repro.analysis import expectations
    from repro.serve.evaluate import compare_to_baseline, load_baseline
    from repro.serve.fingerprint import study_fingerprint

    golden = inputs["golden_report_sha256"].get(str(config.seed))
    if perturb and golden is not None:
        golden = hashlib.sha256(golden.encode("ascii")).hexdigest()
    baseline = load_baseline(baseline_path)
    fingerprint = study_fingerprint(config)
    # The fingerprint leaves out non-semantic fields such as use_columnar,
    # so it matches exactly when the baseline's campus is the one run.
    gate_baseline = baseline.get("fingerprint") == fingerprint

    def check(report: str, outcomes: Tuple[Any, Any]) -> List[str]:
        problems = []
        digest = report_digest(report)
        if golden is None:
            problems.append(f"no golden digest for campus {config.seed} "
                            f"(report sha256 {digest})")
        elif digest != golden:
            problems.append(f"report sha256 {digest} != golden {golden}")
        if gate_baseline:
            results, metrics = outcomes
            verdict = compare_to_baseline(
                baseline,
                expectations.outcomes_payload(results)["outcomes"],
                metrics, fingerprint=fingerprint)
            if verdict.regressed:
                problems.append("eval baseline REGRESSED: "
                                + ", ".join(verdict.regressed))
        return problems

    return check, gate_baseline


def gate_note(gated: bool) -> str:
    return ("; checked against the golden digest and the eval baseline"
            if gated else "; checked against the golden digest")


def _finish(artifacts: Any) -> Tuple[str, Any]:
    """compute_all, expectation verdicts and the rendered report."""
    from repro.analysis import expectations
    from repro.core import report as report_mod

    artifacts.compute_all()
    results = expectations.evaluate_all(artifacts)
    rendered = report_mod.render_full_report(artifacts)
    return rendered, (results, artifacts.summary().metrics())


def _pass_result(result: Result, untraced: List[Pass], setup_s: float,
                 speed: HostSpeed) -> None:
    result.attempted = len(untraced)
    result.failed = sum(1 for p in untraced if not p.ok)
    timed = [p for p in untraced if p.seconds == p.seconds]
    if not timed:
        raise RuntimeError("every pass raised; nothing was measured")
    scale = speed.scale()
    run_s = statistics.median(p.seconds for p in timed)
    result.put("setup_s", setup_s * scale, "s", 1)
    result.put("run_s", run_s * scale, "s", len(timed))
    result.put("flows_per_s",
               statistics.median(p.flows / p.seconds for p in timed) / scale,
               "1/s", len(timed))
    result.put("peak_rss_mb", vm_hwm_mb(), "MB", 1)
    result.put("requests_per_s",
               len(timed) / sum(p.seconds for p in timed) / scale, "1/s",
               len(timed))
    result.notes.append(f"{len(timed)} pass(es) of {timed[0].flows} flows; "
                        f"wall: set-up {setup_s:.3f} s, median pass "
                        f"{run_s:.3f} s")
    result.notes.append(speed.note())


def overhead_ratio(untraced: List[float], traced: List[float],
                   speeds: Tuple[HostSpeed, HostSpeed]) -> float:
    """Traced over untraced median, each scaled by its own host speed."""
    return (statistics.median(traced) * speeds[1].scale()
            / (statistics.median(untraced) * speeds[0].scale()))


def _layer_result(result: Result, workload: str,
                  recorder: SpanRecorder, untraced: List[Pass],
                  traced: List[Pass],
                  speeds: Tuple[HostSpeed, HostSpeed]) -> None:
    spans = [dict(layer=s[0], start_ns=s[2], end_ns=s[3], self_ns=s[4])
             for s in recorder.spans]
    roots = [s for s in spans if s["layer"] == "bench.pass"]
    wall = sum(s["end_ns"] - s["start_ns"] for s in roots) / 1e9
    _layer_metrics(result, workload,
                   [s for s in spans if s["layer"] != "bench.pass"],
                   recorder.counters, per=len(traced), wall=wall)
    timed_a = [p.seconds for p in untraced if p.seconds == p.seconds]
    timed_b = [p.seconds for p in traced if p.seconds == p.seconds]
    result.put("trace.overhead_ratio",
               overhead_ratio(timed_a, timed_b, speeds), "ratio",
               len(timed_b))
    result.notes.append(f"untraced half: {speeds[0].note()}")
    result.notes.append(f"traced half: {speeds[1].note()}")
    result.attempted = len(untraced) + len(traced)
    result.failed = sum(1 for p in untraced + traced if not p.ok)


def _layer_metrics(result: Result, workload: str, spans: List[dict],
                   counters: Dict[str, int], *, per: int,
                   wall: float) -> None:
    """Fill every per-layer metric from the spans of ``per`` operations.

    Times are self seconds per operation (inclusive for
    :data:`INCLUSIVE`); ``trace.unexplained_s`` is the part of the
    traced wall no layer's self time accounts for. Raises if a layer
    the workload must reach recorded no call.
    """
    seconds, calls = self_seconds(spans)
    missing = [layer for layer in EXPECTED_LAYERS[workload]
               if calls.get(layer, 0) == 0]
    if missing:
        raise RuntimeError(f"traced {workload} run recorded no call to "
                           f"{', '.join(missing)}")
    inclusive: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span["layer"] in INCLUSIVE:
            inclusive[span["layer"]] += (span["end_ns"]
                                         - span["start_ns"]) / 1e9
    for layer in LAYERS:
        value = (inclusive[layer] if layer in INCLUSIVE
                 else seconds.get(layer, 0.0))
        result.put(f"{layer}_s", value / per, "s", calls.get(layer, 0))
    result.put("trace.unexplained_s", (wall - sum(seconds.values())) / per,
               "s", per)
    result.put("synth.bursts", counters.get("synth.bursts", 0), "count", 1)
    for name, hit, total in (
            ("columnar.dhcp_join.attributed_ratio",
             "columnar.dhcp_join.attributed", "columnar.dhcp_join.looked_up"),
            ("columnar.dns_lookback.annotated_ratio",
             "columnar.dns_lookback.annotated",
             "columnar.dns_lookback.looked_up")):
        looked = counters.get(total, 0)
        result.put(name, counters.get(hit, 0) / looked if looked else 0.0,
                   "ratio", looked)
    for name in ("serve.requests_shed", "serve.requests_coalesced"):
        result.put(name, counters.get(name, 0), "count", 1)
    result.put("serve.hit_ratio", 0.0, "ratio", 0)
    result.notes.append(f"traced wall {wall:.3f} s over {per} operation(s),"
                        f" {100 * (wall - sum(seconds.values())) / wall:.2f}%"
                        f" unexplained")


def measure_passes(workload: str, seed: int, seconds: float, trace: bool,
                   do_pass: Callable[[], Tuple[int, str, Any]],
                   check: Callable[[str, Any], List[str]], setup_s: float,
                   note: str) -> Result:
    """Untraced: passes for ``seconds``. Traced: half untraced, half traced."""
    result = Result()
    result.notes.append(note)
    if not trace:
        before = calibration_seconds()
        passes = timed_passes(do_pass, check, seconds)
        _pass_result(result, passes, setup_s,
                     HostSpeed(before, calibration_seconds()))
        return result
    # Calibrations around each half put both halves at the same host
    # speed, so trace.overhead_ratio is not host drift between them.
    before = calibration_seconds()
    untraced = timed_passes(do_pass, check, seconds / 2)
    middle = calibration_seconds()
    recorder = SpanRecorder()
    recorder.install()
    try:
        traced = timed_passes(do_pass, check, seconds / 2, recorder)
    finally:
        recorder.uninstall()
    speeds = (HostSpeed(before, middle), HostSpeed(middle,
                                                   calibration_seconds()))
    dump_spans(recorder, workload, seed)
    _layer_result(result, workload, recorder, untraced, traced, speeds)
    return result


def run_study(seed: int, seconds: float, trace: bool, perturb: bool,
              started: float) -> Result:
    """``LockdownStudy(eval_scale).run()`` -> compute_all -> report."""
    from repro import LockdownStudy, StudyConfig

    inputs = load_inputs()
    config = StudyConfig.eval_scale(pool_seed(inputs["eval_pool"], seed))
    check, gated = report_checker(config, inputs, perturb)

    def do_pass() -> Tuple[int, str, Any]:
        artifacts = LockdownStudy(config).run()
        rendered, outcomes = _finish(artifacts)
        return artifacts.pipeline_stats.flows_closed, rendered, outcomes

    return measure_passes("study", seed, seconds, trace, do_pass, check,
                          time.perf_counter() - started,
                          f"campus: eval-scale seed {config.seed}"
                          + gate_note(gated))


def run_replay(seed: int, seconds: float, trace: bool, perturb: bool,
               started: float) -> Result:
    """In-memory eval-scale traces -> ingest -> filter -> report."""
    from repro import LockdownStudy, StudyConfig
    from repro.pipeline import visitors
    from repro.pipeline.pipeline import MonitoringPipeline
    from repro.synth.generator import CampusTraceGenerator

    inputs = load_inputs()
    config = StudyConfig.eval_scale(pool_seed(inputs["eval_pool"], seed))
    check, gated = report_checker(config, inputs, perturb)
    generator = CampusTraceGenerator(config)
    traces = list(generator.iter_days())
    excluded = generator.plan.excluded_blocks(config.excluded_operators)
    del generator

    def do_pass() -> Tuple[int, str, Any]:
        # The ``repro ingest --traces`` sequence, minus JSON parsing.
        pipeline = MonitoringPipeline(config, excluded).ingest(traces)
        dataset = visitors.apply_visitor_filter(pipeline.finalize(),
                                                config.visitor_min_days)
        artifacts = LockdownStudy.artifacts_from_dataset(config, dataset)
        rendered, outcomes = _finish(artifacts)
        return pipeline.stats.flows_closed, rendered, outcomes

    return measure_passes("replay", seed, seconds, trace, do_pass, check,
                          time.perf_counter() - started,
                          f"campus: eval-scale seed {config.seed}, "
                          f"{len(traces)} day traces in memory"
                          + gate_note(gated))


def dump_spans(recorder: SpanRecorder, workload: str, seed: int) -> str:
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"spans-{workload}-seed{seed}.jsonl")
    recorder.dump(path)
    return path


# -- serve: a real ``repro serve`` process under a 2-client closed loop ------

#: Warm reads the mixed client sends between two cold computes. Chosen
#: so that a cold compute is in flight for about half of the loop (each
#: run prints the measured share): reads then run alone half the time
#: and against a compute the other half, and the read and compute paths
#: weigh about equally in ``requests_per_s``. See README.md.
WARM_BETWEEN_COLD = 450
#: Fresh fingerprints registered for cold computes (more than a loop uses).
COLD_FINGERPRINTS = 96


@dataclass
class Reply:
    kind: str  # "warm" or "cold"
    fingerprint: str
    name: str
    status: Optional[int]
    seconds: float
    digest: str


class ServerProcess:
    """``repro serve --port 0`` over a store, traced or not."""

    def __init__(self, store: str, log_path: str,
                 spans_path: Optional[str] = None) -> None:
        command = [sys.executable]
        if spans_path is None:
            command += ["-m", "repro"]
        else:
            command += [os.path.join(HERE, "serve_traced.py"), spans_path]
        command += ["serve", "--store", store, "--host", "127.0.0.1",
                    "--port", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.log_path = log_path
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self._log, env=env, cwd=ROOT)
        line = self.proc.stdout.readline().decode().strip()
        if not line.startswith("listening on http://"):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r} "
                               f"(log: {log_path})")
        host, port = line.rsplit("/", 1)[-1].rsplit(":", 1)
        self.host, self.port = host, int(port)
        deadline = time.monotonic() + 60.0
        while get(self.host, self.port, "/readyz")[0] != 200:
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server never became ready")
            time.sleep(0.05)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(str(self.proc.pid))

    def stop(self) -> int:
        """SIGTERM (graceful drain), wait; kill if it hangs.

        The server's log is kept only when it did not exit cleanly.
        """
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        if self.proc.returncode == 0:
            os.remove(self.log_path)
        return self.proc.returncode


def get(host: str, port: int,
        path: str) -> Tuple[Optional[int], bytes, float]:
    """One GET on a fresh connection (the server speaks HTTP/1.0).

    Returns status (None if the request got no response), body and the
    seconds from connecting to having read the whole body.
    """
    conn = http.client.HTTPConnection(host, port, timeout=120.0)
    begin = time.perf_counter()
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        return response.status, body, time.perf_counter() - begin
    except (OSError, http.client.HTTPException):
        return None, b"", time.perf_counter() - begin
    finally:
        conn.close()


def closed_loop(server: ServerProcess, warm: List[Tuple[str, str]],
                cold: List[str], names: Tuple[str, ...], seconds: float,
                seed: int, bodies: Dict[str, bytes]) -> List[Reply]:
    """Two clients: one reads warm, one alternates cold and warm."""
    replies: List[Reply] = []
    lock = threading.Lock()
    end = time.perf_counter() + seconds

    def client(index: int) -> None:
        order = list(warm)
        random.Random(seed * 2 + index).shuffle(order)
        step = 0
        mine: List[Reply] = []
        while time.perf_counter() < end:
            fingerprint, name, kind, query = (*order[step % len(order)],
                                              "warm", "")
            if index == 1 and step % (WARM_BETWEEN_COLD + 1) == 0:
                with lock:
                    fresh = cold.pop() if cold else None
                if fresh is not None:
                    fingerprint, kind, query = fresh, "cold", "?compute=1"
                    name = names[len(cold) % len(names)]
            step += 1
            status, body, elapsed = get(
                server.host, server.port,
                f"/artifacts/{fingerprint}/{name}{query}")
            digest = hashlib.sha256(body).hexdigest()
            with lock:
                bodies.setdefault(digest, body)
            mine.append(Reply(kind, fingerprint, name, status, elapsed,
                              digest))
        with lock:
            replies.extend(mine)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies


def verify_replies(replies: List[Reply], bodies: Dict[str, bytes],
                   store: Any) -> Tuple[List[bool], List[str]]:
    """Every 200 body must carry the store's verified copy.

    Returns, per reply, whether it passed and the ``source`` the server
    put in its envelope (``store``, ``computed`` or ``coalesced``).
    """
    verdicts: Dict[str, bool] = {}
    sources: Dict[str, str] = {}
    for digest, body in bodies.items():
        try:
            envelope = json.loads(body)
            stored = store.get(envelope["fingerprint"], envelope["name"])
            verdicts[digest] = (json.dumps(envelope["payload"],
                                           sort_keys=True)
                                == json.dumps(stored, sort_keys=True))
            sources[digest] = str(envelope["source"])
        except (ValueError, KeyError, OSError) as error:
            print(f"[perfbench] unverifiable body: {error!r}",
                  file=sys.stderr)
            verdicts[digest] = False
    oks = []
    for reply in replies:
        ok = reply.status == 200 and verdicts.get(reply.digest, False)
        if not ok:
            print(f"[perfbench] {reply.kind} {reply.name} of "
                  f"{reply.fingerprint[:12]} failed (status "
                  f"{reply.status})", file=sys.stderr)
        oks.append(ok)
    return oks, [sources.get(reply.digest, "") for reply in replies]


def run_serve(seed: int, seconds: float, trace: bool, perturb: bool,
              started: float) -> Result:
    from repro import StudyConfig
    from repro.serve.fingerprint import DEFAULT_SCENARIO, study_fingerprint
    from repro.serve.service import StudyService, artifact_names
    from repro.serve.store import ArtifactStore

    inputs = load_inputs()
    pool = inputs["chaos_pool"]
    campuses = [StudyConfig.chaos_scale(pool_seed(pool, seed + k))
                for k in range(3)]
    os.makedirs(WORK, exist_ok=True)
    store_dir = os.path.join(WORK, f"store-{os.getpid()}")
    shutil.rmtree(store_dir, ignore_errors=True)
    try:
        store = ArtifactStore(store_dir)
        flows: Dict[str, int] = {}

        class CountingService(StudyService):
            """Records each study's flow count for ``flows_per_s``."""

            def _run_study(self, config: Any, scenario: str,
                           progress: Any) -> Any:
                artifacts = super()._run_study(config, scenario, progress)
                flows[study_fingerprint(config, scenario)] = \
                    artifacts.pipeline_stats.flows_closed
                return artifacts

        service = CountingService(store)
        warm_fps = [service.query(config).fingerprint for config in campuses]
        names = artifact_names()
        warm = [(fp, name) for fp in warm_fps for name in names]
        # Cold computes: the same campuses under fresh anonymization
        # salts -- new fingerprints, identical simulation work.
        cold: List[str] = []
        for k in range(COLD_FINGERPRINTS):
            base = campuses[k % len(campuses)]
            config = StudyConfig.from_payload({
                **base.to_payload(),
                "anonymization_salt": f"perfbench-{seed}-{k}"})
            fingerprint = study_fingerprint(config)
            store.put_meta(fingerprint, {
                "fingerprint": fingerprint,
                "scenario": DEFAULT_SCENARIO,
                "config": config.to_payload()})
            flows[fingerprint] = flows[study_fingerprint(base)]
            cold.append(fingerprint)
        cold.reverse()

        result = Result()
        result.notes.append("campuses: chaos-scale seeds "
                            + ", ".join(str(c.seed) for c in campuses))
        log_path = os.path.join(WORK, f"serve-{os.getpid()}.log")
        bodies: Dict[str, bytes] = {}
        if not trace:
            server = ServerProcess(store_dir, log_path)
            setup_s = time.perf_counter() - started
            loop = _serve_loop(server, warm, cold, names, seconds, seed,
                               bodies)
            oks, _ = verify_replies(loop.replies, bodies, store)
            _serve_result(result, loop, oks, flows, setup_s)
            return result

        server = ServerProcess(store_dir, log_path)
        untraced = _serve_loop(server, warm, cold, names, seconds / 2, seed,
                               bodies)
        oks_a, _ = verify_replies(untraced.replies, bodies, store)
        spans_path = os.path.join(WORK, f"spans-serve-seed{seed}.jsonl")
        server = ServerProcess(store_dir, log_path, spans_path)
        traced = _serve_loop(server, warm, cold, names, seconds / 2,
                             seed + 1, bodies)
        oks_b, sources = verify_replies(traced.replies, bodies, store)
        spans, counters = load_spans(spans_path)
        _serve_layers(result, untraced, traced, sources, spans, counters)
        result.attempted = len(untraced.replies) + len(traced.replies)
        result.failed = (oks_a.count(False) + oks_b.count(False)
                         + (untraced.code != 0) + (traced.code != 0))
        return result
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


@dataclass
class Loop:
    """One closed loop against one server process."""

    replies: List[Reply]
    seconds: float
    rss_mb: float
    code: int  # the server's exit code
    speed: HostSpeed

    def cold_share(self) -> float:
        """Share of the loop a cold compute was in flight."""
        return sum(r.seconds for r in self.replies
                   if r.kind == "cold") / self.seconds


def _serve_loop(server: ServerProcess, warm: List[Tuple[str, str]],
                cold: List[str], names: Tuple[str, ...], seconds: float,
                seed: int, bodies: Dict[str, bytes]) -> Loop:
    try:
        before = calibration_seconds()
        begin = time.perf_counter()
        replies = closed_loop(server, warm, cold, names, seconds, seed,
                              bodies)
        loop_s = time.perf_counter() - begin
        rss = server.peak_rss_mb()
        speed = HostSpeed(before, calibration_seconds())
    finally:
        code = server.stop()
    if code != 0:
        print(f"[perfbench] server exited with {code}", file=sys.stderr)
    return Loop(replies, loop_s, rss, code, speed)


def _serve_result(result: Result, loop: Loop, oks: List[bool],
                  flows: Dict[str, int], setup_s: float) -> None:
    good = [reply for reply, ok in zip(loop.replies, oks) if ok]
    cold = [reply for reply in good if reply.kind == "cold"]
    warm = [reply.seconds for reply in good if reply.kind == "warm"]
    if not cold or not warm:
        raise RuntimeError("the loop completed no cold or no warm request")
    result.attempted = len(loop.replies)
    result.failed = oks.count(False) + (loop.code != 0)
    scale = loop.speed.scale()
    loop_s = loop.seconds
    cold_s = statistics.median(r.seconds for r in cold)
    result.put("setup_s", setup_s * scale, "s", 1)
    result.put("run_s", cold_s * scale, "s", len(cold))
    result.put("flows_per_s",
               statistics.median(flows[r.fingerprint] / r.seconds
                                 for r in cold) / scale, "1/s", len(cold))
    result.put("peak_rss_mb", loop.rss_mb, "MB", 1)
    result.put("requests_per_s", len(good) / loop_s / scale, "1/s",
               len(good))
    result.notes.append(
        f"wall: set-up {setup_s:.3f} s; warm p50 "
        f"{1000 * percentile(warm, 0.5):.3f} ms, p99 "
        f"{1000 * percentile(warm, 0.99):.3f} ms over {len(warm)} reads; "
        f"cold p50 {cold_s:.3f} s over {len(cold)} computes; "
        f"{len(good) / loop_s:.2f} requests/s")
    result.notes.append(f"a cold compute was in flight for "
                        f"{100 * loop.cold_share():.1f}% of the loop")
    result.notes.append(loop.speed.note())


def _serve_layers(result: Result, untraced: Loop, traced: Loop,
                  sources: List[str], spans: List[dict],
                  counters: Dict[str, int]) -> None:
    replies = traced.replies
    _layer_metrics(result, "serve", spans, counters, per=len(replies),
                   wall=sum(reply.seconds for reply in replies))
    # What the server did, from each reply envelope's ``source``.
    served = sources.count("store")
    computed = sources.count("computed") + sources.count("coalesced")
    result.put("serve.hit_ratio", served / max(1, served + computed),
               "ratio", served + computed)
    result.put("trace.overhead_ratio", overhead_ratio(
        [r.seconds for r in untraced.replies if r.kind == "cold"],
        [r.seconds for r in replies if r.kind == "cold"],
        (untraced.speed, traced.speed)), "ratio",
        sum(1 for r in replies if r.kind == "cold"))
    for half, loop in (("untraced", untraced), ("traced", traced)):
        result.notes.append(f"{half} half: cold compute in flight for "
                            f"{100 * loop.cold_share():.1f}% of the loop; "
                            f"{loop.speed.note()}")
