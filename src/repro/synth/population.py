"""Population synthesis: students, their devices, and their movements.

Builds the resident population at study start, samples who leaves when
(the March departure waves of Figure 1), adds short-lived visitor
devices (grist for the 14-day filter), and sprinkles in the Nintendo
Switches bought mid-lock-down (Section 5.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import constants
from repro.config import StudyConfig
from repro.net.oui_db import OuiDatabase, default_oui_database
from repro.synth.devices import DeviceKind, SimDevice, make_device
from repro.synth.personas import (
    HOME_REGIONS,
    REGION_FOREIGN_APPS,
    StudentPersona,
)
from repro.util.rng import RngFactory
from repro.util.timeutil import DAY, utc_ts

#: Device-ownership probabilities per student (phones are universal).
_OWNERSHIP = (
    (DeviceKind.PHONE, 1.0),
    (DeviceKind.LAPTOP, 0.97),
    (DeviceKind.DESKTOP, 0.12),
    (DeviceKind.TABLET, 0.12),
    (DeviceKind.IOT_HUB, 0.06),
    (DeviceKind.IOT_SPEAKER, 0.15),
    (DeviceKind.IOT_BULB, 0.05),
    (DeviceKind.IOT_TV, 0.12),
    (DeviceKind.IOT_METER, 0.03),
    (DeviceKind.CONSOLE, 0.06),
    (DeviceKind.SWITCH, 0.08),
)

#: Departure-wave shape for leavers: normal around March 17, clipped to
#: [March 5, March 30] -- students started leaving before instruction
#: went fully remote, and nearly all leavers were gone by break's end.
_DEPARTURE_MEAN = utc_ts(2020, 3, 17)
_DEPARTURE_SD = 4.5 * DAY
_DEPARTURE_MIN = utc_ts(2020, 3, 5)
_DEPARTURE_MAX = utc_ts(2020, 3, 30)


@dataclass
class Population:
    """The synthesized campus population."""

    personas: Dict[int, StudentPersona]
    devices: List[SimDevice]

    def devices_of(self, student_id: int) -> List[SimDevice]:
        return [d for d in self.devices if d.owner_id == student_id]

    @property
    def remainers(self) -> List[StudentPersona]:
        return [p for p in self.personas.values() if p.remains_on_campus]

    def counts(self) -> Dict[str, int]:
        """Summary counts, handy for logging and tests."""
        remainers = self.remainers
        return {
            "students": len(self.personas),
            "international": sum(
                1 for p in self.personas.values() if p.is_international),
            "remainers": len(remainers),
            "international_remainers": sum(
                1 for p in remainers if p.is_international),
            "devices": len(self.devices),
            "switches": sum(
                1 for d in self.devices if d.kind == DeviceKind.SWITCH),
        }


def build_population(config: StudyConfig,
                     oui_db: Optional[OuiDatabase] = None) -> Population:
    """Sample the full population deterministically from the config seed."""
    rngs = RngFactory(config.seed).child("population")
    oui_db = oui_db or default_oui_database()

    personas: Dict[int, StudentPersona] = {}
    devices: List[SimDevice] = []
    next_device_id = 0

    for student_id in range(config.n_students):
        rng = rngs.stream("student", student_id)
        persona = _sample_persona(student_id, config, rng)
        personas[student_id] = persona

        device_rng = rngs.stream("devices", student_id)
        for kind, probability in _OWNERSHIP:
            if device_rng.random() >= probability:
                continue
            devices.append(make_device(
                device_id=next_device_id,
                owner_id=student_id,
                kind=kind,
                oui_db=oui_db,
                rng=device_rng,
                arrival_ts=config.start_ts,
                departure_ts=persona.departure_ts,
                international_owner=persona.is_international,
            ))
            next_device_id += 1

        # Mid-lockdown Switch purchases by remainers who lack one.
        owns_switch = any(
            d.kind == DeviceKind.SWITCH and d.owner_id == student_id
            for d in devices)
        if (persona.remains_on_campus and not owns_switch
                and device_rng.random() < config.new_switch_fraction):
            arrival = utc_ts(2020, 4, 1) + float(
                device_rng.uniform(0, 50)) * DAY
            if arrival < config.end_ts - DAY:
                devices.append(make_device(
                    device_id=next_device_id,
                    owner_id=student_id,
                    kind=DeviceKind.SWITCH,
                    oui_db=oui_db,
                    rng=device_rng,
                    arrival_ts=arrival,
                    departure_ts=None,
                    international_owner=persona.is_international,
                ))
                next_device_id += 1

    # Visitor devices: on the network for < 14 days before the shutdown.
    n_visitors = int(round(config.n_students * config.visitor_fraction))
    for offset in range(n_visitors):
        student_id = config.n_students + offset
        rng = rngs.stream("visitor", student_id)
        arrival = config.start_ts + float(rng.uniform(0, 40)) * DAY
        # A stay of (min_days - 2) nights spans at most (min_days - 1)
        # distinct day slots, keeping the device under the filter even
        # when arrival and departure fall on partial days.
        stay_days = float(rng.uniform(1, max(1, config.visitor_min_days - 2)))
        departure = min(arrival + stay_days * DAY,
                        constants.STAY_AT_HOME)
        persona = StudentPersona(
            student_id=student_id,
            is_international=False,
            home_region=None,
            remains_on_campus=False,
            departure_ts=departure,
            activity_scale=float(rng.lognormal(0.0, 0.4)),
            night_owl_shift=0.0,
            app_rates={
                "web_browse": 2.0,
                "youtube": 0.8,
                "instagram": 1.0,
                "apple_services": 0.6,
            },
            is_visitor=True,
        )
        personas[student_id] = persona
        for kind in (DeviceKind.PHONE,) + (
                (DeviceKind.LAPTOP,) if rng.random() < 0.5 else ()):
            devices.append(make_device(
                device_id=next_device_id,
                owner_id=student_id,
                kind=kind,
                oui_db=oui_db,
                rng=rng,
                arrival_ts=arrival,
                departure_ts=departure,
            ))
            next_device_id += 1

    return Population(personas=personas, devices=devices)


def _sample_persona(student_id: int, config: StudyConfig,
                    rng: np.random.Generator) -> StudentPersona:
    international = rng.random() < config.international_fraction
    home_region = _sample_region(rng) if international else None

    remain_probability = (config.remain_prob_international if international
                          else config.remain_prob_domestic)
    remains = rng.random() < remain_probability
    departure_ts: Optional[float] = None
    if not remains:
        departure_ts = float(np.clip(
            rng.normal(_DEPARTURE_MEAN, _DEPARTURE_SD),
            _DEPARTURE_MIN, _DEPARTURE_MAX))

    app_rates, app_start, tiktok_grower = _sample_app_profile(
        rng, international, home_region)

    return StudentPersona(
        student_id=student_id,
        is_international=international,
        home_region=home_region,
        remains_on_campus=remains,
        departure_ts=departure_ts,
        activity_scale=float(rng.lognormal(0.0, 0.45)),
        night_owl_shift=float(np.clip(rng.normal(0.8, 1.2), -2.0, 3.5)),
        app_rates=app_rates,
        app_start=app_start,
        tiktok_grower=tiktok_grower,
        course_load=float(np.clip(rng.normal(1.0, 0.2), 0.5, 1.6)),
    )


def _sample_region(rng: np.random.Generator) -> str:
    regions = [region for region, _ in HOME_REGIONS]
    weights = np.array([weight for _, weight in HOME_REGIONS])
    return str(rng.choice(regions, p=weights / weights.sum()))


def _sample_app_profile(rng: np.random.Generator, international: bool,
                        home_region: Optional[str]):
    """Sample baseline sessions/day per archetype for one student."""
    rates: Dict[str, float] = {}
    starts: Dict[str, float] = {}

    def gamma(mean: float, shape: float = 2.0) -> float:
        return float(rng.gamma(shape, mean / shape))

    # Universal work apps.
    rates["zoom_class"] = gamma(2.6, 4.0)
    rates["zoom_social"] = gamma(0.3)
    rates["education"] = gamma(1.5)
    rates["web_browse"] = gamma(3.0)
    rates["cloud_sync"] = gamma(0.5)

    # Streaming. International students substitute home-country
    # platforms for much of their US streaming (the substitution that
    # lets the byte-weighted midpoint pull their label abroad).
    rates["youtube"] = gamma(1.2) * (0.7 if international else 1.0)
    if rng.random() < (0.5 if international else 0.75):
        rates["netflix"] = gamma(0.5) * (0.7 if international else 1.0)
    if rng.random() < (0.35 if international else 0.6):
        rates["spotify"] = gamma(0.7)
    if rng.random() < (0.2 if international else 0.3):
        rates["twitch_watch"] = gamma(0.4)

    # US social media: international students use these less (Figure 6).
    if rng.random() < (0.55 if international else 0.75):
        rates["facebook"] = gamma(1.8)
    if rng.random() < (0.6 if international else 0.8):
        rates["instagram"] = gamma(2.0)
    tiktok_user = rng.random() < (0.25 if international else 0.45)
    tiktok_grower = False
    if tiktok_user:
        rates["tiktok"] = gamma(1.5) * (0.5 if international else 1.0)
        tiktok_grower = rng.random() < 0.3
    elif rng.random() < 0.2:
        # Lock-down adopters: TikTok's user count grows every month.
        rates["tiktok"] = gamma(1.2) * (0.5 if international else 1.0)
        starts["tiktok"] = float(rng.uniform(
            utc_ts(2020, 3, 5), utc_ts(2020, 5, 15)))
        tiktok_grower = rng.random() < 0.4
    if rng.random() < 0.4:
        rates["twitter"] = gamma(0.8)
    if rng.random() < 0.5:
        rates["snapchat"] = gamma(1.2)
    if rng.random() < 0.35:
        rates["discord"] = gamma(0.6)

    # Excluded-network apps (generated, dropped at the tap).
    rates["apple_services"] = gamma(1.0)
    rates["amazon_shop"] = gamma(0.4)
    if rng.random() < 0.2:
        rates["riot_game"] = gamma(0.4)

    # Steam: international students lean into it harder (Figure 7).
    steam_user = rng.random() < (0.45 if international else 0.35)
    steam_adopter = not steam_user and rng.random() < 0.25
    if steam_user or steam_adopter:
        intensity = 1.3 if international else 1.0
        rates["steam_game"] = gamma(0.8) * intensity
        rates["steam_store"] = gamma(0.4) * intensity
        rates["steam_download"] = gamma(0.12) * intensity
        if steam_adopter:
            start = float(rng.uniform(utc_ts(2020, 3, 8), utc_ts(2020, 4, 25)))
            for name in ("steam_game", "steam_store", "steam_download"):
                starts[name] = start

    # Consoles and Switches (rates only matter when the device exists).
    rates["console_game"] = gamma(0.8)
    rates["switch_gameplay"] = gamma(0.9)
    rates["switch_infra"] = gamma(0.15)
    rates["switch_idle"] = gamma(6.0)

    # IoT chatter (rates only matter when the device exists).
    rates["iot_hub"] = gamma(20.0)
    rates["iot_speaker"] = gamma(2.5)
    rates["iot_bulb"] = gamma(15.0)
    rates["iot_tv"] = gamma(1.2)
    rates["iot_meter"] = gamma(30.0)

    # Foreign services for international students. Rates are high
    # enough that home-country destinations dominate the February byte
    # mix for most (not all) international students -- the paper's
    # midpoint classifier is conservative and misses the rest.
    if international and home_region is not None:
        total_foreign = gamma(2.2)
        for archetype, weight in REGION_FOREIGN_APPS[home_region]:
            rates[archetype] = total_foreign * weight
    elif rng.random() < 0.05:
        rates["foreign_web_misc"] = gamma(0.3)

    return rates, starts, tiktok_grower
