"""Per-shard checkpoint store: crash a run, resume it, skip done work.

A multi-hour sharded ingest that dies on shard 7 of 8 should not redo
shards 1-6. The store persists each completed shard's canonicalized
:class:`~repro.pipeline.dataset.FlowDataset`,
:class:`~repro.pipeline.pipeline.PipelineStats` (via
:mod:`repro.pipeline.store`) and
:class:`~repro.reliability.coverage.CoverageReport` under a **run
key** -- a digest of the study config and the exact shard plan -- so a
resume can only ever reuse checkpoints from an identical run. Layout::

    <root>/<run_key>/plan.json            # human-readable provenance
    <root>/<run_key>/shard-0003.npz       # canonicalized dataset
    <root>/<run_key>/shard-0003.npz.meta.json
    <root>/<run_key>/shard-0003.stats.json
    <root>/<run_key>/shard-0003.coverage.json
    <root>/<run_key>/shard-0003.ok        # completion marker (last write)

The ``.ok`` marker is written after the data files, so a shard killed
mid-checkpoint is simply re-executed -- a torn checkpoint is never
loaded. A checkpoint whose marker *does* exist but whose data files are
truncated or corrupt (disk-full, bit rot, a concurrent writer) raises
:class:`~repro.reliability.errors.CheckpointError`; the resume path in
:mod:`repro.pipeline.parallel` treats that exactly like a missing
checkpoint -- discard, count, re-ingest -- instead of dying mid-resume.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, List, Sequence, Tuple

from repro.config import StudyConfig
from repro.pipeline.dataset import FlowDataset
from repro.pipeline.pipeline import PipelineStats
from repro.pipeline.store import (
    load_dataset,
    load_stats,
    save_dataset,
    save_stats,
)
from repro.reliability.atomic import sweep_orphans, write_text
from repro.reliability.coverage import CoverageReport
from repro.reliability.errors import CheckpointError

#: Bump when the checkpoint layout changes; part of the run key, so a
#: layout change silently invalidates old checkpoints instead of
#: misreading them. v2: per-shard coverage reports.
CHECKPOINT_VERSION = 2

#: Every file suffix a shard checkpoint may own (marker first, so a
#: partially discarded checkpoint is never mistaken for a complete one).
_SHARD_SUFFIXES = (".ok", ".npz", ".npz.meta.json", ".stats.json",
                   ".coverage.json")


def run_key(config: StudyConfig, shards: Sequence[Any]) -> str:
    """Digest identifying one ``(config, shard plan)`` run exactly.

    Any change to a config knob or to the plan (shard count, warm-up,
    boundaries) yields a different key, so checkpoints can never leak
    between runs that would produce different data.
    """
    payload = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(config),
        "shards": [dataclasses.asdict(spec) for spec in shards],
    }
    digest = hashlib.blake2b(
        json.dumps(payload, sort_keys=True).encode("utf-8"),
        digest_size=16)
    return digest.hexdigest()


class CheckpointStore:
    """Persists and recalls per-shard results for one run key."""

    def __init__(self, root: str, key: str) -> None:
        self.root = root
        self.key = key
        self.directory = os.path.join(root, key)
        #: Staged-write temp files (crash debris) removed when this
        #: store was opened; folded into
        #: ``PipelineStats.checkpoint_orphans_swept`` by the parallel
        #: pipeline so recovery is visible, never silent.
        self.orphans_swept = 0

    @classmethod
    def for_run(cls, root: str, config: StudyConfig,
                shards: Sequence[Any]) -> "CheckpointStore":
        """Open (creating if needed) the store for this exact run.

        Opening sweeps any ``*.tmp*`` orphans a crashed writer left
        behind (counted in :attr:`orphans_swept`): a marker-less data
        file would never be loaded, but the debris must not accumulate
        or shadow a later staged write.
        """
        store = cls(root, run_key(config, shards))
        os.makedirs(store.directory, exist_ok=True)
        store.orphans_swept = sweep_orphans(store.directory)
        plan_path = os.path.join(store.directory, "plan.json")
        if not os.path.exists(plan_path):
            write_text(plan_path, json.dumps({
                "checkpoint_version": CHECKPOINT_VERSION,
                "seed": config.seed,
                "n_shards": len(shards),
                "shards": [dataclasses.asdict(spec) for spec in shards],
            }, indent=2))
        return store

    # -- paths -------------------------------------------------------------

    def _base(self, index: int) -> str:
        return os.path.join(self.directory, f"shard-{index:04d}")

    def _marker(self, index: int) -> str:
        return self._base(index) + ".ok"

    # -- persistence -------------------------------------------------------

    def has_shard(self, index: int) -> bool:
        return os.path.exists(self._marker(index))

    def save_shard(self, index: int, dataset: FlowDataset,
                   stats: PipelineStats,
                   coverage: CoverageReport) -> None:
        """Checkpoint one completed shard (marker written last).

        Every file goes through the atomic-write chokepoint, and the
        ``.ok`` marker's replace-write is the commit point: a crash
        anywhere before it leaves at most swept-up orphans, never a
        loadable half-checkpoint.
        """
        base = self._base(index)
        save_dataset(dataset, base + ".npz")
        save_stats(stats, base + ".stats.json")
        write_text(base + ".coverage.json",
                   json.dumps(coverage.to_json()))
        write_text(self._marker(index), "ok\n")

    def load_shard(
            self, index: int,
    ) -> Tuple[FlowDataset, PipelineStats, CoverageReport]:
        """Recall one checkpointed shard.

        Raises ``FileNotFoundError`` when the shard was never
        checkpointed, and :class:`CheckpointError` when the marker
        exists but the data files cannot be read back -- the caller
        decides whether that is fatal or just means "re-ingest".
        """
        if not self.has_shard(index):
            raise FileNotFoundError(
                f"no checkpoint for shard {index} under {self.directory}")
        base = self._base(index)
        try:
            dataset = load_dataset(base + ".npz")
            stats = load_stats(base + ".stats.json")
            with open(base + ".coverage.json") as fileobj:
                coverage = CoverageReport.from_json(json.load(fileobj))
        except Exception as exc:
            # RL004: anything unreadable under a valid marker -- truncated
            # npz, mangled JSON, missing sidecar -- is one condition:
            # a corrupt checkpoint.
            raise CheckpointError(
                f"corrupt checkpoint for shard {index} under "
                f"{self.directory}: {exc}") from exc
        return dataset, stats, coverage

    def discard(self, index: int) -> None:
        """Delete one shard's checkpoint files (marker removed first)."""
        base = self._base(index)
        for suffix in _SHARD_SUFFIXES:
            try:
                os.remove(base + suffix)
            except FileNotFoundError:
                pass

    def completed_indices(self) -> List[int]:
        """Shard indices with a finished checkpoint, sorted."""
        indices = []
        for name in sorted(os.listdir(self.directory)):
            if name.startswith("shard-") and name.endswith(".ok"):
                indices.append(int(name[len("shard-"):-len(".ok")]))
        return sorted(indices)

