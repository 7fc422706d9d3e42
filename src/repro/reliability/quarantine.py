"""Quarantine sink for malformed log records (lenient ingest mode).

In strict mode a malformed line raises
:class:`~repro.reliability.errors.RecordError` and aborts the read. In
lenient mode the reader routes the record here instead: the sink keeps
exact per-``(source, category)`` counts -- which the pipeline folds into
:class:`~repro.pipeline.pipeline.PipelineStats` -- plus a bounded sample
of raw lines for post-mortem debugging. The accounting invariant
(property-tested in ``tests/property/test_quarantine_props.py``) is::

    parsed + quarantined(source) == total lines in the stream

where blank/whitespace-only lines count under the ``blank`` category.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.reliability.errors import CATEGORY_BLANK, RecordError

#: Raw quarantined lines retained per source for debugging.
DEFAULT_MAX_SAMPLES = 20

#: Longest raw-line prefix kept in a sample.
_SAMPLE_PREFIX = 200


@dataclass(frozen=True)
class QuarantinedRecord:
    """One quarantined line: where it came from and why it was refused."""

    source: str
    category: str
    line_no: Optional[int]
    line: str
    error: str


class QuarantineSink:
    """Counts (and samples) records refused by lenient-mode readers.

    In-memory retention is strictly bounded: at most ``max_samples``
    raw-line samples are kept per source, and every sample refused for
    being over the cap is tallied in an explicit per-source *overflow*
    counter -- so a pathological input file (millions of malformed
    lines) costs O(1) memory while the accounting stays exact.
    """

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        self._counts: Counter = Counter()
        self._samples: Dict[str, List[QuarantinedRecord]] = {}
        self._overflow: Counter = Counter()
        self.max_samples = max_samples

    def add(self, error: RecordError) -> None:
        """Quarantine the record behind a structured parse error."""
        self._quarantine(error.source, error.category, error.line_no,
                         error.line or "", str(error))

    def add_blank(self, source: str, line_no: Optional[int] = None) -> None:
        """Count a blank/whitespace-only line (never an error)."""
        self._counts[(source, CATEGORY_BLANK)] += 1
        # Blank lines carry no debugging value; no sample is kept.

    def _quarantine(self, source: str, category: str,
                    line_no: Optional[int], line: str, error: str) -> None:
        self._counts[(source, category)] += 1
        samples = self._samples.setdefault(source, [])
        if len(samples) < self.max_samples:
            samples.append(QuarantinedRecord(
                source=source, category=category, line_no=line_no,
                line=line[:_SAMPLE_PREFIX], error=error))
        else:
            self._overflow[source] += 1

    # -- accounting --------------------------------------------------------

    def count(self, source: Optional[str] = None,
              category: Optional[str] = None) -> int:
        """Quarantined records matching the given source/category."""
        return sum(
            n for (src, cat), n in self._counts.items()
            if (source is None or src == source)
            and (category is None or cat == category))

    def malformed(self, source: Optional[str] = None) -> int:
        """Quarantined records excluding blank lines."""
        return sum(
            n for (src, cat), n in self._counts.items()
            if cat != CATEGORY_BLANK
            and (source is None or src == source))

    def blank(self, source: Optional[str] = None) -> int:
        """Blank-line count (the benign category)."""
        return self.count(source, CATEGORY_BLANK)

    @property
    def counts(self) -> Dict[Tuple[str, str], int]:
        """Exact per-``(source, category)`` counts."""
        return dict(self._counts)

    def samples(self, source: str) -> List[QuarantinedRecord]:
        """Retained raw-line samples for one source."""
        return list(self._samples.get(source, []))

    def overflow(self, source: Optional[str] = None) -> int:
        """Samples refused because the per-source retention cap was hit.

        Counts are still exact when this is nonzero -- only raw-line
        *samples* are dropped, never accounting.
        """
        if source is not None:
            return self._overflow.get(source, 0)
        return sum(self._overflow.values())

    def __len__(self) -> int:
        return sum(self._counts.values())

    def summary(self) -> str:
        """One-line human-readable account, for progress reporting."""
        if not self._counts:
            return "quarantine: empty"
        parts = [f"{src}/{cat}={n}"
                 for (src, cat), n in sorted(self._counts.items())]
        text = "quarantine: " + ", ".join(parts)
        dropped = self.overflow()
        if dropped:
            text += f" (+{dropped} sample(s) dropped at retention cap)"
        return text
