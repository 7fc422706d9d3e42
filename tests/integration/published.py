"""Every output a study publishes, rendered to text.

Shared by the suites that check properties of the published bytes:
the raw-identifier leak scan and the operational-settings check.
"""

import glob
import os

from repro.core.report import render_full_report
from repro.pipeline.store import save_dataset
from repro.serve.fingerprint import canonical_json
from repro.serve.service import StudyService, artifact_names
from repro.serve.store import ArtifactStore


def published_outputs(artifacts, unfiltered, directory):
    """Name -> text of the report, each serve payload (the JSON
    artifacts ``repro run`` publishes) and the dataset sidecars.
    ``unfiltered`` is the run's dataset before the visitor filter,
    which the artifacts do not keep, or None to leave its sidecar out.
    Scratch files go under ``directory``, created if missing."""
    os.makedirs(directory, exist_ok=True)
    outputs = {"report": render_full_report(artifacts)}
    service = StudyService(ArtifactStore(os.path.join(directory, "store")))
    for name in artifact_names():
        outputs[f"serve:{name}"] = canonical_json(
            service._compute_payload(artifacts, name))
    for label, dataset in (("filtered", artifacts.dataset),
                           ("unfiltered", unfiltered)):
        if dataset is None:
            continue
        base = os.path.join(directory, f"{label}.npz")
        save_dataset(dataset, base)
        (sidecar,) = glob.glob(base + "*.json")
        with open(sidecar) as fileobj:
            outputs[f"sidecar:{label}"] = fileobj.read()
    return outputs
