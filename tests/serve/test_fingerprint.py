"""Property tests pinning the fingerprint's three contracts.

1. Order-insensitivity: the hash depends on the *mapping*, never on
   key order (canonical JSON sorts keys).
2. Semantic sensitivity: changing any semantic config field changes
   the fingerprint, and so does changing the scenario.
3. Non-semantic indifference: run knobs (journal dirs, output paths,
   progress hooks) and the retired sharded-ingest keys (worker counts,
   shard retry budgets, shard deadlines) never move the hash.
"""

import dataclasses
import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.config import StudyConfig
from repro.serve.fingerprint import (
    DEFAULT_SCENARIO,
    NON_SEMANTIC_FIELDS,
    canonical_json,
    fingerprint_payload,
    study_fingerprint,
)

_HEX64 = 64

#: The committed golden baseline behind ``repro eval`` (eval scale).
_EVAL_BASELINE = (Path(__file__).resolve().parents[2]
                  / "baselines" / "eval_small.json")

# Semantic fields we can safely perturb without tripping config
# validation, with a perturbation that always changes the value.
_SEMANTIC_PERTURBATIONS = {
    "seed": lambda v: v + 1,
    "n_students": lambda v: v + 1,
    "international_fraction": lambda v: (v + 0.11) % 1.0,
    "remain_prob_domestic": lambda v: (v + 0.07) % 1.0,
    "remain_prob_international": lambda v: (v + 0.07) % 1.0,
    "visitor_fraction": lambda v: (v + 0.05) % 1.0,
    "new_switch_fraction": lambda v: (v + 0.05) % 1.0,
    "end_ts": lambda v: v + 86400.0,
    "visitor_min_days": lambda v: v + 1,
    "excluded_operators": lambda v: v + ("example-operator",),
    "geo_excluded_domains": lambda v: v + ("example.net",),
    "dhcp_lease_seconds": lambda v: v + 60.0,
    "flow_idle_timeout": lambda v: v + 60.0,
    "dhcp_staleness_seconds": lambda v: v + 60.0,
    "anonymization_salt": lambda v: v + "-x",
}

_NON_SEMANTIC_CONFIG_FIELDS = [
    name for name in NON_SEMANTIC_FIELDS
    if name in {spec.name for spec in dataclasses.fields(StudyConfig)}
]

_configs = st.builds(
    StudyConfig,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_students=st.integers(min_value=1, max_value=5000),
    international_fraction=st.floats(min_value=0.0, max_value=1.0,
                                     allow_nan=False),
    visitor_min_days=st.integers(min_value=1, max_value=30),
    anonymization_salt=st.text(max_size=12),
)


@given(config=_configs)
@settings(max_examples=50, deadline=None)
def test_fingerprint_is_order_insensitive(config):
    """A shuffled payload mapping hashes identically to the config."""
    payload = config.to_payload()
    reversed_payload = dict(reversed(list(payload.items())))
    assert (study_fingerprint(config)
            == study_fingerprint(payload)
            == study_fingerprint(reversed_payload))


@given(config=_configs, data=st.data())
@settings(max_examples=60, deadline=None)
def test_fingerprint_changes_on_any_semantic_field(config, data):
    field = data.draw(
        st.sampled_from(sorted(_SEMANTIC_PERTURBATIONS)), label="field")
    perturb = _SEMANTIC_PERTURBATIONS[field]
    changed = dataclasses.replace(
        config, **{field: perturb(getattr(config, field))})
    assert getattr(changed, field) != getattr(config, field)
    assert study_fingerprint(changed) != study_fingerprint(config)


@given(config=_configs)
@settings(max_examples=30, deadline=None)
def test_fingerprint_changes_with_scenario(config):
    assert (study_fingerprint(config, DEFAULT_SCENARIO)
            != study_fingerprint(config, "counterfactual"))


@given(config=_configs, data=st.data())
@settings(max_examples=60, deadline=None)
def test_fingerprint_ignores_non_semantic_knobs(config, data):
    """Execution-shape keys move neither the payload nor the hash."""
    baseline = study_fingerprint(config)

    # Non-semantic *run* knobs riding along in a payload mapping are
    # dropped before hashing.
    knob = data.draw(st.sampled_from(sorted(NON_SEMANTIC_FIELDS)),
                     label="knob")
    payload = config.to_payload()
    payload[knob] = data.draw(
        st.one_of(st.integers(), st.text(max_size=8), st.none()),
        label="value")
    assert study_fingerprint(payload) == baseline
    assert knob not in fingerprint_payload(payload)["config"]


@given(config=_configs)
@settings(max_examples=30, deadline=None)
def test_fingerprint_shape_and_roundtrip(config):
    fingerprint = study_fingerprint(config)
    assert len(fingerprint) == _HEX64
    assert set(fingerprint) <= set("0123456789abcdef")
    # Payload -> config -> payload is lossless for semantic fields, so
    # a config rebuilt from its own payload fingerprints identically.
    rebuilt = StudyConfig.from_payload(config.to_payload())
    assert study_fingerprint(rebuilt) == fingerprint


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_non_semantic_fields_are_not_semantic_config_fields():
    """Every StudyConfig field is either fingerprinted or explicitly
    listed as non-semantic -- no field falls through silently."""
    config = StudyConfig()
    payload = fingerprint_payload(config)["config"]
    for spec in dataclasses.fields(StudyConfig):
        if spec.name in NON_SEMANTIC_FIELDS:
            assert spec.name not in payload
        else:
            assert spec.name in payload
    assert _NON_SEMANTIC_CONFIG_FIELDS == []
    # A payload written while the removed ``use_columnar`` ingest
    # selector and ``max_shard_retries`` retry budget were config
    # fields still rebuilds the same study.
    legacy = {**StudyConfig.eval_scale().to_payload(),
              "use_columnar": False, "max_shard_retries": 0}
    committed = json.loads(_EVAL_BASELINE.read_text())["fingerprint"]
    assert study_fingerprint(StudyConfig.from_payload(legacy)) == committed
