"""On-disk persistence for flow datasets.

A four-month study at realistic scale takes minutes to synthesize and
measure; the columnar dataset itself is a few hundred megabytes at
most. Saving it lets analyses (and benchmark reruns) skip the pipeline:
numpy arrays go into one ``.npz``, the domain and device side tables
into a JSON sidecar next to it.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from repro.pipeline.dataset import DeviceProfile, FlowDataset
from repro.pipeline.pipeline import PipelineStats
from repro.reliability.atomic import replacing, write_text

#: Format marker written into the sidecar; bump on breaking changes.
FORMAT_VERSION = 1

_SIDECAR_SUFFIX = ".meta.json"


def _sidecar_path(path: str) -> str:
    return path + _SIDECAR_SUFFIX


def save_dataset(dataset: FlowDataset, path: str) -> None:
    """Write a dataset to ``path`` (.npz) plus a JSON sidecar.

    Both files go through the atomic-write chokepoint
    (:mod:`repro.reliability.atomic`): the ``.npz`` is staged to a
    temp sibling, fsync'd and renamed; the sidecar is replace-written
    after it. A crash mid-save leaves the old files (or a swept-up
    orphan), never a torn dataset.
    """
    # np.savez appends .npz when missing; normalize before staging.
    target = path if path.endswith(".npz") else path + ".npz"
    with replacing(target) as staged:
        np.savez_compressed(
            staged,
            ts=dataset.ts,
            duration=dataset.duration,
            device=dataset.device,
            resp_h=dataset.resp_h,
            resp_p=dataset.resp_p,
            proto=dataset.proto,
            orig_bytes=dataset.orig_bytes,
            resp_bytes=dataset.resp_bytes,
            domain=dataset.domain,
            day=dataset.day,
        )
    sidecar = {
        "format_version": FORMAT_VERSION,
        "day0": dataset.day0,
        "domains": dataset.domains,
        "devices": [_profile_to_json(profile)
                    for profile in dataset.devices],
    }
    write_text(_sidecar_path(target), json.dumps(sidecar))


def load_dataset(path: str) -> FlowDataset:
    """Read a dataset previously written by :func:`save_dataset`."""
    target = path if path.endswith(".npz") else path + ".npz"
    with open(_sidecar_path(target)) as fileobj:
        sidecar = json.load(fileobj)
    version = sidecar.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported dataset format version {version!r} "
            f"(expected {FORMAT_VERSION})")

    with np.load(target) as arrays:
        return FlowDataset(
            ts=arrays["ts"],
            duration=arrays["duration"],
            device=arrays["device"],
            resp_h=arrays["resp_h"],
            resp_p=arrays["resp_p"],
            proto=arrays["proto"],
            orig_bytes=arrays["orig_bytes"],
            resp_bytes=arrays["resp_bytes"],
            domain=arrays["domain"],
            day=arrays["day"],
            domains=list(sidecar["domains"]),
            devices=[_profile_from_json(payload)
                     for payload in sidecar["devices"]],
            day0=float(sidecar["day0"]),
        )


def save_stats(stats: PipelineStats, path: str) -> None:
    """Write pipeline counters as JSON (journaled run outputs)."""
    payload = {"format_version": FORMAT_VERSION,
               "counters": dataclasses.asdict(stats)}
    write_text(path, json.dumps(payload))


def load_stats(path: str) -> PipelineStats:
    """Read counters written by :func:`save_stats`.

    Counters absent from the file (older snapshots read by newer code)
    keep their zero defaults; unknown counters are rejected.
    """
    with open(path) as fileobj:
        payload = json.load(fileobj)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported stats format version {version!r} "
            f"(expected {FORMAT_VERSION})")
    counters = payload["counters"]
    known = {spec.name for spec in dataclasses.fields(PipelineStats)}
    unknown = set(counters) - known
    if unknown:
        raise ValueError(f"unknown stats counters: {sorted(unknown)}")
    return PipelineStats(**counters)


def _profile_to_json(profile: DeviceProfile) -> dict:
    return {
        "index": profile.index,
        "token": profile.token,
        "oui": profile.oui,
        "laa": profile.is_locally_administered,
        "user_agents": sorted(profile.user_agents),
        "days_seen": sorted(profile.days_seen),
        "flow_count": profile.flow_count,
        "total_bytes": profile.total_bytes,
        "first_ts": profile.first_ts,
        "last_ts": profile.last_ts,
    }


def _profile_from_json(payload: dict) -> DeviceProfile:
    return DeviceProfile(
        index=int(payload["index"]),
        token=str(payload["token"]),
        oui=payload["oui"],
        is_locally_administered=bool(payload["laa"]),
        user_agents=set(payload["user_agents"]),
        days_seen=set(payload["days_seen"]),
        flow_count=int(payload["flow_count"]),
        total_bytes=int(payload["total_bytes"]),
        first_ts=float(payload["first_ts"]),
        last_ts=float(payload["last_ts"]),
    )
