"""No raw client identifier survives into anything the study publishes.

The paper's measurement pipeline anonymizes IP and MAC addresses before
any analysis sees them (PAPER.md, step 5). This suite pins that
property on the bytes themselves: it renders every published output of
the mini study, extracts every MAC-shaped and dotted-quad token, and
checks none of them is a simulated device's MAC or an address out of
the campus DHCP pools.
"""

import re

from repro.net.ip import ip_to_int
from repro.serve.service import artifact_names
from tests.integration.published import published_outputs

_HEX = "[0-9a-fA-F]"
#: ``aa:bb:cc:dd:ee:ff``, ``aa-bb-cc-dd-ee-ff`` and bare ``aabbccddeeff``
#: (not part of a longer hex run, so 24-hex device tokens do not match).
_MAC_PATTERNS = (
    re.compile(rf"(?<!{_HEX}){_HEX}{{2}}(?::{_HEX}{{2}}){{5}}(?!{_HEX})"),
    re.compile(rf"(?<!{_HEX}){_HEX}{{2}}(?:-{_HEX}{{2}}){{5}}(?!{_HEX})"),
    re.compile(rf"(?<!{_HEX}){_HEX}{{12}}(?!{_HEX})"),
)
_DOTTED_QUAD = re.compile(r"(?<![\d.])(?:\d{1,3}\.){3}\d{1,3}(?![\d.])")


def _macs_in(text):
    """Integer values of every MAC-shaped token in ``text``."""
    found = set()
    for pattern in _MAC_PATTERNS:
        for token in pattern.findall(text):
            found.add(int(re.sub("[:-]", "", token), 16))
    return found


def _dotted_quads_in(text):
    """Integer values of every valid dotted-quad IPv4 token in ``text``."""
    found = set()
    for token in _DOTTED_QUAD.findall(text):
        if all(int(octet) <= 255 for octet in token.split(".")):
            found.add(ip_to_int(token))
    return found


def test_published_outputs_carry_no_raw_mac_or_client_ip(mini_artifacts,
                                                         mini_unfiltered,
                                                         tmp_path):
    """Report, serve payloads and dataset sidecars.

    The quarantine sink is deliberately out of scope: it keeps raw
    malformed records by design, upstream of the anonymization
    boundary, so it is not a published output.
    """
    generator = mini_artifacts.generator
    device_macs = {device.mac.value
                   for device in generator.population.devices}
    pools = generator.plan.client_pools
    # The extractors see every notation a leak could take.
    some_mac = generator.population.devices[0].mac
    text = str(some_mac)
    for spelling in (text, text.replace(":", "-"), text.replace(":", "")):
        assert _macs_in(f"x {spelling.upper()} y") == {some_mac.value}
    assert _dotted_quads_in(f"[{pools[0]}]") == {pools[0].first}

    outputs = published_outputs(mini_artifacts, mini_unfiltered,
                                str(tmp_path))
    assert len(outputs) == 1 + len(artifact_names()) + 2
    for name, text in outputs.items():
        assert text, f"{name} is empty"
        leaked = sorted(_macs_in(text) & device_macs)
        assert not leaked, (
            f"{name} carries {len(leaked)} raw device MAC(s), "
            f"e.g. {leaked[0]:012x}")
        in_pool = sorted(
            address for address in _dotted_quads_in(text)
            if any(pool.contains(address) for pool in pools))
        assert not in_pool, (
            f"{name} carries {len(in_pool)} campus client address(es)")
