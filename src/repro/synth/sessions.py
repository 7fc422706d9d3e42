"""Application-session sampling for one device-day.

A session is the behavioural unit ("scrolled TikTok for 25 minutes");
:mod:`repro.synth.wiregen` expands sessions into the wire-level events
the tap observes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.synth.archetypes import AppArchetype
from repro.synth.behavior import BehaviorModel
from repro.synth.devices import SimDevice
from repro.synth.personas import StudentPersona
from repro.util.rng import weighted_cdf
from repro.util.timeutil import HOUR, MINUTE


@dataclass(frozen=True)
class AppSession:
    """One application session on one device."""

    device_id: int
    archetype_name: str
    start: float
    duration: float
    total_bytes: float

    @property
    def end(self) -> float:
        return self.start + self.duration


def lognormal_with_mean(rng: np.random.Generator, mean: float,
                        sigma: float) -> float:
    """Sample a lognormal with the given *arithmetic* mean."""
    mu = math.log(mean) - 0.5 * sigma * sigma
    return float(rng.lognormal(mu, sigma))


def sample_day_sessions(persona: StudentPersona,
                        device: SimDevice,
                        behavior: BehaviorModel,
                        archetypes: Dict[str, AppArchetype],
                        day_start: float,
                        rng: np.random.Generator,
                        cutoff_ts: Optional[float] = None) -> List[AppSession]:
    """Sample all of a device's sessions for one day.

    ``cutoff_ts`` truncates activity (a student departing mid-day stops
    mid-day). Sessions may spill past midnight; downstream bucketing
    handles flows crossing day boundaries.
    """
    sessions: List[AppSession] = []
    for archetype_name in persona.app_rates:
        archetype = archetypes.get(archetype_name)
        if archetype is None:
            raise KeyError(f"persona uses unknown archetype {archetype_name!r}")
        expected = behavior.expected_sessions(
            persona, device, archetype_name, day_start)
        if expected <= 0.0:
            continue
        count = int(rng.poisson(expected))
        if count == 0:
            continue
        # The draw of rng.choice(24, size=count, p=hourly weights), made
        # more cheaply.
        hour_cdf = weighted_cdf(
            behavior.hourly_weights(persona, archetype_name, day_start))
        hours = hour_cdf.searchsorted(rng.random(count), side="right")
        byte_scale = behavior.bytes_scale(persona, archetype_name, day_start)
        for hour in hours.tolist():
            # HOUR * rng.random() is rng.uniform(0, HOUR), made more cheaply.
            start = day_start + float(hour) * HOUR + HOUR * rng.random()
            if cutoff_ts is not None and start >= cutoff_ts:
                continue
            minutes = lognormal_with_mean(
                rng, archetype.mean_session_minutes,
                archetype.session_minutes_sigma)
            duration = max(30.0, minutes * MINUTE)
            if cutoff_ts is not None:
                duration = min(duration, cutoff_ts - start)
            total_bytes = max(
                500.0,
                lognormal_with_mean(rng, archetype.mean_session_bytes,
                                    archetype.bytes_sigma) * byte_scale)
            sessions.append(AppSession(
                device_id=device.device_id,
                archetype_name=archetype_name,
                start=start,
                duration=duration,
                total_bytes=total_bytes,
            ))
    sessions.sort(key=lambda s: s.start)
    return sessions
