"""Per-rule positive/negative fixtures for the reprolint rules.

Every test plants a small module in a throwaway mini-repo and runs a
single rule over it through the real :class:`~repro.lint.engine.
LintEngine` entry point, so pragma filtering, module naming, and
fingerprinting are all exercised exactly as in ``python -m repro.lint``.
"""

from repro.lint.engine import build_index


# --- RL001: determinism ----------------------------------------------------

def test_rl001_flags_wall_clock(mini_repo):
    mini_repo.write("analysis/timing", """\
        import time

        def stamp():
            return time.time()
        """)
    findings = mini_repo.run_rule("RL001")
    assert len(findings) == 1
    assert "time.time()" in findings[0].message


def test_rl001_flags_unseeded_default_rng(mini_repo):
    mini_repo.write("synth/noise", """\
        import numpy as np

        def jitter():
            return np.random.default_rng().random()
        """)
    findings = mini_repo.run_rule("RL001")
    assert len(findings) == 1
    assert "explicit seed" in findings[0].message


def test_rl001_flags_global_rng_stream(mini_repo):
    mini_repo.write("synth/noise", """\
        import random

        def pick(items):
            return random.choice(items)
        """)
    findings = mini_repo.run_rule("RL001")
    assert len(findings) == 1
    assert "global RNG stream" in findings[0].message


def test_rl001_flags_unseeded_rng_in_gated_code(mini_repo):
    mini_repo.write("stats/noise", """\
        import random

        def jitter():
            return random.Random().random()
        """)
    findings = mini_repo.run_rule("RL001")
    assert len(findings) == 1
    assert "explicit seed" in findings[0].message


def test_rl001_allows_seeded_rng_and_allowlisted_modules(mini_repo):
    mini_repo.write("synth/noise", """\
        import numpy as np

        def jitter(seed):
            return np.random.default_rng(seed).random()
        """)
    # The substream helper itself may construct entropy primitives.
    mini_repo.write("util/rng", """\
        import time

        def now():
            return time.time()
        """)
    assert mini_repo.run_rule("RL001") == []


def test_rl001_pragma_waives_with_reason(mini_repo):
    mini_repo.write("cli_extra", """\
        import time

        # reprolint: allow[RL001] -- progress display only
        STARTED = time.monotonic()
        """)
    assert mini_repo.run_rule("RL001") == []


def test_rl001_pragma_without_reason_does_not_waive(mini_repo):
    mini_repo.write("cli_extra", """\
        import time

        # reprolint: allow[RL001]
        STARTED = time.monotonic()
        """)
    assert len(mini_repo.run_rule("RL001")) == 1


# --- RL002: anonymization taint --------------------------------------------

def test_rl002_flags_mac_in_fstring_downstream(mini_repo):
    mini_repo.write("analysis/debugdump", """\
        def describe(device):
            return f"device {device.mac} seen"
        """)
    findings = mini_repo.run_rule("RL002")
    assert len(findings) == 1
    assert "f-string" in findings[0].message


def test_rl002_flags_client_ip_reaching_print(mini_repo):
    mini_repo.write("sessions/trace", """\
        def debug(flow):
            print(flow.client_ip)
        """)
    findings = mini_repo.run_rule("RL002")
    assert len(findings) == 1
    assert "client_ip" in findings[0].message


def test_rl002_flags_json_dump_of_raw_mac(mini_repo):
    mini_repo.write("core/export", """\
        import json

        def export(raw_mac, fileobj):
            json.dump({"id": raw_mac}, fileobj)
        """)
    assert len(mini_repo.run_rule("RL002")) == 1


def test_rl002_ignores_upstream_boundary_modules(mini_repo):
    # anonymize.py legitimately handles raw identifiers.
    mini_repo.write("pipeline/anonymize", """\
        def tokenize(mac):
            print(mac)
        """)
    assert mini_repo.run_rule("RL002") == []


def test_rl002_lone_ip_token_is_not_tainted(mini_repo):
    mini_repo.write("analysis/ranges", """\
        def show(ip_mask):
            print(ip_mask)
        """)
    assert mini_repo.run_rule("RL002") == []


def test_rl002_tainted_name_without_sink_is_fine(mini_repo):
    mini_repo.write("sessions/keying", """\
        def key(flow):
            return hash(flow.client_ip)
        """)
    assert mini_repo.run_rule("RL002") == []


# --- RL003: kernel/reference twins -----------------------------------------

def test_rl003_flags_kernel_without_reference_twin(mini_repo):
    mini_repo.write("perf/kernels", """\
        def fast_sum(values: list) -> int:
            return sum(values)
        """)
    findings = mini_repo.run_rule("RL003")
    assert len(findings) == 1
    assert "fast_sum_reference" in findings[0].message


_FAST_SUM_REFERENCE = """\
    def fast_sum_reference(values: list) -> int:
        total = 0
        for value in values:
            total += value
        return total
    """

_FAST_SUM_PARITY = """\
    from repro.perf.kernels import fast_sum
    from tests.oracles.kernels import fast_sum_reference

    def test_parity():
        assert fast_sum([1, 2]) == fast_sum_reference([1, 2])
    """


def test_rl003_twin_in_src_does_not_count(mini_repo):
    mini_repo.write("perf/kernels", """\
        def fast_sum(values: list) -> int:
            return sum(values)
        """)
    mini_repo.write("perf/references", _FAST_SUM_REFERENCE)
    mini_repo.write_test("test_parity", _FAST_SUM_PARITY)
    findings = mini_repo.run_rule("RL003")
    assert len(findings) == 1
    assert "tests/oracles/" in findings[0].message


def test_rl003_requires_both_names_in_tests(mini_repo):
    mini_repo.write("perf/kernels", """\
        def fast_sum(values: list) -> int:
            return sum(values)
        """)
    mini_repo.write_test("oracles/kernels", _FAST_SUM_REFERENCE)
    # Importing the pair without calling it is no evidence.
    mini_repo.write_test("test_parity", """\
        from repro.perf.kernels import fast_sum
        from tests.oracles.kernels import fast_sum_reference
        """)
    findings = mini_repo.run_rule("RL003")
    assert len(findings) == 1
    assert "not called together" in findings[0].message


def test_rl003_oracle_calling_its_own_twin_does_not_count(mini_repo):
    mini_repo.write("perf/kernels", """\
        def fast_sum(values: list) -> int:
            return sum(values)
        """)
    mini_repo.write_test("oracles/kernels", _FAST_SUM_REFERENCE + """\

    def check() -> bool:
        return fast_sum([1]) == fast_sum_reference([1])
    """)
    findings = mini_repo.run_rule("RL003")
    assert len(findings) == 1
    assert "tests/oracles/kernels.py" in findings[0].message


def test_rl003_satisfied_with_twin_and_tests(mini_repo):
    mini_repo.write("perf/kernels", """\
        def fast_sum(values: list) -> int:
            return sum(values)
        """)
    mini_repo.write_test("oracles/kernels", _FAST_SUM_REFERENCE)
    mini_repo.write_test("test_parity", _FAST_SUM_PARITY)
    assert mini_repo.run_rule("RL003") == []


def test_rl003_private_and_reference_functions_exempt(mini_repo):
    mini_repo.write("perf/kernels", """\
        def _helper(x: int) -> int:
            return x

        def shim_reference(x: int) -> int:
            return x
        """)
    assert mini_repo.run_rule("RL003") == []


# --- RL004: exception discipline -------------------------------------------

def test_rl004_flags_swallowed_broad_except(mini_repo):
    mini_repo.write("pipeline/loader", """\
        def load(path):
            try:
                return open(path).read()
            except Exception:
                return None
        """)
    findings = mini_repo.run_rule("RL004")
    assert len(findings) == 1
    assert "except Exception" in findings[0].message


def test_rl004_flags_bare_except(mini_repo):
    mini_repo.write("pipeline/loader", """\
        def load(path):
            try:
                return open(path).read()
            except:
                return None
        """)
    findings = mini_repo.run_rule("RL004")
    assert len(findings) == 1
    assert "bare except" in findings[0].message


def test_rl004_bare_reraise_complies(mini_repo):
    mini_repo.write("pipeline/loader", """\
        def load(path):
            try:
                return open(path).read()
            except Exception:
                raise
        """)
    assert mini_repo.run_rule("RL004") == []


def test_rl004_taxonomy_wrap_complies(mini_repo):
    mini_repo.write("pipeline/loader", """\
        from repro.reliability import ReliabilityError

        def load(path):
            try:
                return open(path).read()
            except Exception as exc:
                raise ReliabilityError(str(exc)) from exc
        """)
    assert mini_repo.run_rule("RL004") == []


def test_rl004_local_taxonomy_subclass_complies(mini_repo):
    mini_repo.write("pipeline/loader", """\
        from repro.reliability import ReliabilityError

        class LoaderError(ReliabilityError):
            pass

        def load(path):
            try:
                return open(path).read()
            except Exception as exc:
                raise LoaderError(str(exc)) from exc
        """)
    assert mini_repo.run_rule("RL004") == []


def test_rl004_quarantine_routing_complies(mini_repo):
    mini_repo.write("pipeline/loader", """\
        def load(path, sink):
            try:
                return open(path).read()
            except Exception as exc:
                sink.add(path, str(exc))
                return None
        """)
    assert mini_repo.run_rule("RL004") == []


def test_rl004_add_on_non_sink_receiver_does_not_comply(mini_repo):
    mini_repo.write("pipeline/loader", """\
        def load(path, seen):
            try:
                return open(path).read()
            except Exception:
                seen.add(path)
                return None
        """)
    assert len(mini_repo.run_rule("RL004")) == 1


def test_rl004_narrow_except_is_out_of_scope(mini_repo):
    mini_repo.write("pipeline/loader", """\
        def load(path):
            try:
                return open(path).read()
            except OSError:
                return None
        """)
    assert mini_repo.run_rule("RL004") == []


# --- RL005: lock discipline ------------------------------------------------

LOCKED_CLASS_HEADER = """\
    import threading

    class Cache:
        def __init__(self):
            self._lock = threading.Lock()
            self._memo = {}

"""


def test_rl005_flags_unlocked_cache_write(mini_repo):
    mini_repo.write("analysis/ctx", LOCKED_CLASS_HEADER + """\
        def put(self, key, value):
            self._memo[key] = value
""")
    findings = mini_repo.run_rule("RL005")
    assert len(findings) == 1
    assert "_memo" in findings[0].message


def test_rl005_locked_write_complies(mini_repo):
    mini_repo.write("analysis/ctx", LOCKED_CLASS_HEADER + """\
        def put(self, key, value):
            with self._lock:
                self._memo[key] = value
""")
    assert mini_repo.run_rule("RL005") == []


def test_rl005_lock_state_survives_compound_statements(mini_repo):
    mini_repo.write("analysis/ctx", LOCKED_CLASS_HEADER + """\
        def put(self, key, value):
            with self._lock:
                if key not in self._memo:
                    self._memo[key] = value
""")
    assert mini_repo.run_rule("RL005") == []


def test_rl005_nested_function_resets_lock_state(mini_repo):
    mini_repo.write("analysis/ctx", LOCKED_CLASS_HEADER + """\
        def putter(self, key, value):
            with self._lock:
                def later():
                    self._memo[key] = value
                return later
""")
    assert len(mini_repo.run_rule("RL005")) == 1


def test_rl005_classes_without_lock_are_out_of_scope(mini_repo):
    mini_repo.write("analysis/plain", """\
        class Plain:
            def __init__(self):
                self._memo = {}

            def put(self, key, value):
                self._memo[key] = value
        """)
    assert mini_repo.run_rule("RL005") == []


# --- RL006: typed-core annotations -----------------------------------------

def test_rl006_flags_unannotated_core_function(mini_repo):
    mini_repo.write("perf/extra", """\
        def scale(values, factor):
            return [value * factor for value in values]
        """)
    findings = mini_repo.run_rule("RL006")
    assert len(findings) == 1
    message = findings[0].message
    assert "values" in message and "factor" in message
    assert "return" in message


def test_rl006_fully_annotated_core_function_complies(mini_repo):
    mini_repo.write("perf/extra", """\
        from typing import List

        def scale(values: List[float], factor: float) -> List[float]:
            return [value * factor for value in values]
        """)
    assert mini_repo.run_rule("RL006") == []


def test_rl006_self_is_exempt_outside_core_is_ignored(mini_repo):
    mini_repo.write("sessions/extra", """\
        class Window:
            def width(self) -> int:
                return 1
        """)
    mini_repo.write("analysis/loose", """\
        def anything_goes(x, y):
            return x + y
        """)
    assert mini_repo.run_rule("RL006") == []


# --- RL007: columnar hot paths stay loop-free ------------------------------

def test_rl007_flags_per_row_loop_over_bursts(mini_repo):
    mini_repo.write("columnar/hotpath", """\
        def extract(bursts):
            out = []
            for burst in bursts:
                out.append(burst.ts)
            return out
        """)
    findings = mini_repo.run_rule("RL007")
    assert len(findings) == 1
    assert "per-row loop" in findings[0].message


def test_rl007_flags_index_walk_over_batch(mini_repo):
    mini_repo.write("columnar/hotpath", """\
        def widths(batch):
            return [batch.ts[i] for i in range(batch.n)]

        def lengths(rows):
            return [len(r) for r in range(len(rows))]
        """)
    findings = mini_repo.run_rule("RL007")
    assert len(findings) == 2


def test_rl007_flags_flatnonzero_iteration(mini_repo):
    mini_repo.write("columnar/hotpath", """\
        import numpy as np

        def gather(mask, col):
            return [col[i] for i in np.flatnonzero(mask)]
        """)
    findings = mini_repo.run_rule("RL007")
    assert len(findings) == 1


def test_rl007_docstring_marked_compat_surface_is_flagged(mini_repo):
    """A docstring calling a loop a compat or inspection surface no
    longer exempts it: such surfaces live in tests/oracles/."""
    mini_repo.write("columnar/hotpath", """\
        def to_rows(records):
            \"\"\"Materialize row objects (compat/testing surface only).\"\"\"
            return [r for r in records]

        def dump(bursts):
            \"\"\"Binding history of one batch (inspection).\"\"\"
            for b in bursts:
                print(b)
        """)
    findings = mini_repo.run_rule("RL007")
    assert len(findings) == 2
    assert all("per-row loop" in finding.message for finding in findings)


def test_rl007_distinct_value_loops_are_out_of_scope(mini_repo):
    mini_repo.write("columnar/hotpath", """\
        import numpy as np

        def intern(protos):
            table = []
            for name in np.unique(protos):
                table.append(str(name))
            for local, name in enumerate(table):
                table[local] = name
            return table
        """)
    assert mini_repo.run_rule("RL007") == []


def test_rl007_ignores_modules_outside_columnar(mini_repo):
    mini_repo.write("pipeline/rowpath", """\
        def reference(bursts):
            for burst in bursts:
                yield burst.ts
        """)
    assert mini_repo.run_rule("RL007") == []


# --- engine plumbing shared by all rules -----------------------------------

def test_pragma_is_rule_specific(mini_repo):
    path = mini_repo.write("analysis/timing", """\
        import time

        # reprolint: allow[RL002] -- wrong rule id on purpose
        STAMP = time.time()
        """)
    assert path.exists()
    findings = mini_repo.run_rule("RL001")
    assert len(findings) == 1


def test_is_waived_reads_line_and_line_above(mini_repo):
    mini_repo.write("analysis/timing", """\
        import time

        STAMP = time.time()  # reprolint: allow[RL001] -- same-line waiver
        """)
    index = build_index(mini_repo.root)
    (module,) = [m for m in index.modules if m.module.endswith("timing")]
    assert mini_repo.run_rule("RL001") == []
    assert module.line_text(3)


def test_findings_are_sorted_and_fingerprinted(mini_repo):
    mini_repo.write("analysis/b_second", """\
        import time
        T = time.time()
        """)
    mini_repo.write("analysis/a_first", """\
        import time
        T = time.time()
        """)
    findings = mini_repo.run_rule("RL001")
    assert [f.path for f in findings] == sorted(f.path for f in findings)
    fingerprints = {f.fingerprint for f in findings}
    assert len(fingerprints) == 2
    assert all(fp for fp in fingerprints)
