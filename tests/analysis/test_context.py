"""Golden tests for the shared AnalysisContext and vectorized kernels.

The contract under test: every figure and the summary on the kernel
path are **bit-identical** to the pure-Python ``*_reference`` path
(:class:`tests.oracles.analysis.ReferenceAnalysisContext`), every
shared primitive is built at most once per study run, including by
``compute_all``.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro.analysis.common import post_shutdown_device_mask, study_day_count
from repro.analysis.context import AnalysisContext
from repro.core.study import StudyArtifacts
from repro.perf.kernels import domain_str_array
from tests.oracles.analysis import (
    ReferenceAnalysisContext,
    devices_active_in_months_reference,
    domain_mask_reference,
    domain_table_reference,
    flow_mask_reference,
    post_shutdown_device_mask_reference,
    stitch_sessions_reference,
)


def _fresh(artifacts, context):
    """The same study data behind a fresh cache and the given context."""
    return dataclasses.replace(
        artifacts, context=context, _cache={}, _locks={},
        _locks_guard=threading.Lock())


@pytest.fixture(scope="module")
def kernel_artifacts(mini_artifacts):
    return _fresh(mini_artifacts,
                  AnalysisContext(mini_artifacts.dataset))


@pytest.fixture(scope="module")
def reference_artifacts(mini_artifacts):
    return _fresh(mini_artifacts,
                  ReferenceAnalysisContext(mini_artifacts.dataset))


def assert_identical(kernel, reference, path="result"):
    """Recursive bit-exact equality over results of any shape."""
    assert type(kernel) is type(reference), path
    if isinstance(kernel, np.ndarray):
        assert kernel.dtype == reference.dtype, path
        assert kernel.shape == reference.shape, path
        assert kernel.tobytes() == reference.tobytes(), path
    elif dataclasses.is_dataclass(kernel):
        for field in dataclasses.fields(kernel):
            assert_identical(getattr(kernel, field.name),
                             getattr(reference, field.name),
                             f"{path}.{field.name}")
    elif isinstance(kernel, dict):
        assert kernel.keys() == reference.keys(), path
        for key in kernel:
            assert_identical(kernel[key], reference[key], f"{path}[{key!r}]")
    elif isinstance(kernel, (list, tuple)):
        assert len(kernel) == len(reference), path
        for index, (left, right) in enumerate(zip(kernel, reference)):
            assert_identical(left, right, f"{path}[{index}]")
    elif isinstance(kernel, float):
        assert (kernel == reference
                or (np.isnan(kernel) and np.isnan(reference))), path
    else:
        assert kernel == reference, path


class TestGoldenFigures:
    """Kernel path == reference path for every figure and the summary."""

    @pytest.mark.parametrize("name", StudyArtifacts.ANALYSES)
    def test_bit_identical(self, name, kernel_artifacts,
                           reference_artifacts):
        assert_identical(getattr(kernel_artifacts, name)(),
                         getattr(reference_artifacts, name)(), name)


class TestComputeOnce:
    def test_every_primitive_built_at_most_once(self, mini_artifacts):
        artifacts = _fresh(mini_artifacts,
                           AnalysisContext(mini_artifacts.dataset))
        artifacts.compute_all()
        stats = artifacts.context.stats
        # The cross-figure primitives all appear, and nothing was ever
        # rebuilt.
        assert stats["day_bitmap"] == 1
        assert stats["day_matrix:all"] == 1
        assert stats["domain_table:zoom"] == 1
        assert stats["site_table"] == 1
        assert all(count == 1 for count in stats.values()), stats

    def test_study_run_context_is_shared(self, mini_artifacts):
        """run() hands the artifacts the same context whose bitmap
        produced the post-shutdown mask."""
        assert mini_artifacts.context is not None
        assert mini_artifacts.context.dataset is mini_artifacts.dataset
        mini_artifacts.fig1()
        assert all(count == 1
                   for count in mini_artifacts.context.stats.values())

    def test_cached_arrays_are_read_only(self, mini_artifacts):
        ctx = AnalysisContext(mini_artifacts.dataset)
        zoom = mini_artifacts.signatures.get("zoom")
        n_days = study_day_count(mini_artifacts.dataset)
        for array in (ctx.flow_mask(zoom), ctx.day_matrix(n_days),
                      ctx.day_bitmap().active):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


class TestComputeAllBuildOnce:
    def test_compute_all_builds_each_primitive_once(self, mini_artifacts):
        fresh = _fresh(mini_artifacts,
                       AnalysisContext(mini_artifacts.dataset))
        results = fresh.compute_all()
        assert tuple(results) == StudyArtifacts.ANALYSES
        assert fresh.context.stats
        assert all(count == 1
                   for count in fresh.context.stats.values()), \
            fresh.context.stats


class TestPrimitiveEquivalence:
    """Kernel vs pure-Python reference for each shared primitive, on the
    real mini-study dataset."""

    def test_post_shutdown_mask(self, mini_artifacts):
        dataset = mini_artifacts.dataset
        assert np.array_equal(post_shutdown_device_mask(dataset),
                              post_shutdown_device_mask_reference(dataset))

    def test_devices_active_in_months(self, mini_artifacts):
        dataset = mini_artifacts.dataset
        months = ((2020, 2), (2020, 5))
        assert np.array_equal(
            AnalysisContext(dataset).active_in_months(months),
            devices_active_in_months_reference(dataset, months))

    def test_signature_domain_tables(self, mini_artifacts):
        """Every registry signature's vectorized suffix table matches
        per-domain matching, entry for entry."""
        domains = mini_artifacts.dataset.domains
        domain_arr = domain_str_array(domains)
        for signature in mini_artifacts.signatures:
            assert np.array_equal(
                signature.domain_table(domain_arr),
                domain_table_reference(signature, domains)), signature.name

    def test_signature_masks(self, mini_artifacts):
        dataset = mini_artifacts.dataset
        for signature in mini_artifacts.signatures:
            assert np.array_equal(
                signature.domain_mask(dataset),
                domain_mask_reference(signature, dataset)), signature.name
            assert np.array_equal(
                signature.flow_mask(dataset),
                flow_mask_reference(signature, dataset)), signature.name

    def test_stitch_on_real_signature(self, mini_artifacts):
        dataset = mini_artifacts.dataset
        ctx = AnalysisContext(dataset)
        mask = ctx.flow_mask(mini_artifacts.signatures.get("zoom"))
        assert (ctx.stitch("zoom", mask)
                == stitch_sessions_reference(dataset, mask))


class TestSignatureShortCircuits:
    def test_no_annotated_flows(self, mini_artifacts):
        """A dataset with no DNS annotations yields all-False without a
        table build."""
        from repro.pipeline.dataset import NO_DOMAIN, FlowDataset

        dataset = mini_artifacts.dataset
        signature = mini_artifacts.signatures.get("tiktok")
        stripped = FlowDataset(
            ts=dataset.ts, duration=dataset.duration, device=dataset.device,
            resp_h=dataset.resp_h, resp_p=dataset.resp_p,
            proto=dataset.proto, orig_bytes=dataset.orig_bytes,
            resp_bytes=dataset.resp_bytes,
            domain=np.full(len(dataset), NO_DOMAIN,
                           dtype=dataset.domain.dtype),
            day=dataset.day, domains=dataset.domains,
            devices=dataset.devices, day0=dataset.day0)
        mask = signature.domain_mask(stripped)
        assert mask.dtype == bool and not mask.any()
        assert np.array_equal(mask,
                              domain_mask_reference(signature, stripped))

    def test_ip_only_signature(self, mini_artifacts):
        from repro.apps.signature import AppSignature
        from repro.net.ip import Prefix

        signature = AppSignature(name="iponly",
                                 ip_ranges=(Prefix.parse("10.0.0.0/8"),))
        mask = signature.domain_mask(mini_artifacts.dataset)
        assert mask.dtype == bool and not mask.any()
