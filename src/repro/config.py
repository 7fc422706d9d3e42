"""Study configuration.

One :class:`StudyConfig` object parameterizes the whole reproduction:
the synthetic population's size and composition, the measurement
window, and the pipeline's privacy/filtering knobs. Defaults preserve
the paper's *ratios* (remain-on-campus fraction, international mix,
device ownership) at a laptop-friendly scale; raise ``n_students`` to
approach the paper's absolute counts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Tuple

from repro import constants


@dataclass(frozen=True)
class StudyConfig:
    """All knobs of a reproduction run."""

    #: Master seed; every random decision derives from it.
    seed: int = 7

    #: Resident students at window start (paper scale: several thousand
    #: students, 32k peak devices).
    n_students: int = 300

    #: Share of the student body that is international (~25% at UC San
    #: Diego in Fall 2019, per the paper's Section 4.2).
    international_fraction: float = 0.25

    #: Probability of remaining on campus through the lock-down. The
    #: paper's 6,522 post-shutdown devices are ~20% of the 32,019-device
    #: peak; international students are over-represented among
    #: remainers (flights home were scarce).
    remain_prob_domestic: float = 0.16
    remain_prob_international: float = 0.32

    #: Transient devices (guests, visitors) per resident student; they
    #: appear for under two weeks and must be dropped by the visitor
    #: filter.
    visitor_fraction: float = 0.12

    #: Fraction of remaining students who buy a Nintendo Switch during
    #: April/May (the paper saw 40 new Switches appear post-shutdown).
    new_switch_fraction: float = 0.12

    #: Measurement window.
    start_ts: float = constants.STUDY_START
    end_ts: float = constants.STUDY_END

    #: Minimum days on the network before a device is retained
    #: (Section 3's visitor filter).
    visitor_min_days: int = constants.VISITOR_MIN_DAYS

    #: Operator networks excluded from the traffic mirror (Section 3).
    excluded_operators: Tuple[str, ...] = (
        "ucsd", "google_cloud", "amazon", "microsoft_azure",
        "riot_games", "twitch", "qualys", "apple",
    )

    #: CDN domain suffixes excluded from the geographic-midpoint
    #: computation (Section 4.2: Akamai, AWS, Cloudfront, Optimizely).
    geo_excluded_domains: Tuple[str, ...] = (
        "akamaiedge.net", "akamaitechnologies.com", "akamaized.net",
        "amazonaws.com", "cloudfront.net",
        "optimizely.com", "optimizelyedge.com",
    )

    #: DHCP lease time in seconds (typical enterprise pools).
    dhcp_lease_seconds: float = 12 * 3600.0

    #: Seconds of inactivity after which the flow engine closes a flow.
    flow_idle_timeout: float = 600.0

    #: Degraded-attribution bound: when a flow's timestamp falls in a
    #: known DHCP log gap, the last lease for its IP may be held over
    #: this many seconds past its logged expiry before the flow is
    #: counted unattributed. 0 disables the hold-over (gap flows go
    #: straight to ``flows_unattributed_gap``).
    dhcp_staleness_seconds: float = 3600.0

    #: Salt for the anonymization of MAC/IP identifiers.
    anonymization_salt: str = "locked-in-lock-down"

    # -- presets ------------------------------------------------------------

    @classmethod
    def ci_scale(cls, seed: int = 7) -> "StudyConfig":
        """Tiny two-week window for continuous-integration smoke runs."""
        from repro.util.timeutil import utc_ts
        return cls(n_students=8, seed=seed,
                   start_ts=utc_ts(2020, 2, 1),
                   end_ts=utc_ts(2020, 2, 15),
                   visitor_min_days=3)

    @classmethod
    def laptop_scale(cls, seed: int = 7) -> "StudyConfig":
        """Full window at a scale that runs in a few minutes."""
        return cls(n_students=60, seed=seed)

    @classmethod
    def recorded_scale(cls, seed: int = 8) -> "StudyConfig":
        """The configuration behind EXPERIMENTS.md's recorded run
        (~25 minutes, ~8.5M flows)."""
        return cls(n_students=300, seed=seed)

    @classmethod
    def chaos_scale(cls, seed: int = 11) -> "StudyConfig":
        """One-week micro window for crash/fault-injection chaos runs.

        Small enough that the SIGKILL-at-every-barrier resume matrix
        (:mod:`repro.reliability.crashmatrix`) runs a full
        kill-then-resume cycle in a couple of seconds, while still
        producing every stage output a real run has."""
        from repro.util.timeutil import utc_ts
        return cls(n_students=4, seed=seed,
                   start_ts=utc_ts(2020, 2, 1),
                   end_ts=utc_ts(2020, 2, 8),
                   visitor_min_days=2)

    @classmethod
    def eval_scale(cls, seed: int = 7) -> "StudyConfig":
        """Full four-month window at the smallest scale that still
        exercises every figure; the committed golden baseline behind
        ``repro eval`` (see baselines/) is recorded at this scale
        (~20 seconds end to end)."""
        return cls(n_students=12, seed=seed)

    # -- serialization ------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """Every field as a JSON-serializable mapping (tuples become
        lists). The inverse of :meth:`from_payload`; also the input to
        :func:`repro.serve.fingerprint.study_fingerprint`."""
        payload: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            payload[spec.name] = list(value) if isinstance(value, tuple) else value
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "StudyConfig":
        """Rebuild a config from :meth:`to_payload` output.

        Unknown keys are ignored (forward compatibility with payloads
        written by newer versions and with fingerprint mappings that
        carry non-semantic run knobs); missing keys take the field
        defaults.
        """
        known = {spec.name for spec in fields(cls)}
        kwargs: Dict[str, Any] = {}
        for key, value in payload.items():
            if key not in known:
                continue
            kwargs[key] = tuple(value) if isinstance(value, list) else value
        return cls(**kwargs)

    def __post_init__(self) -> None:
        if self.n_students <= 0:
            raise ValueError("n_students must be positive")
        if not 0.0 <= self.international_fraction <= 1.0:
            raise ValueError("international_fraction must lie in [0, 1]")
        for name in ("remain_prob_domestic", "remain_prob_international",
                     "visitor_fraction", "new_switch_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.end_ts <= self.start_ts:
            raise ValueError("study window is empty")
        if self.visitor_min_days < 1:
            raise ValueError("visitor_min_days must be at least 1")
        if self.dhcp_staleness_seconds < 0:
            raise ValueError("dhcp_staleness_seconds must be non-negative")
