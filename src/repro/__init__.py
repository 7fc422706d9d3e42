"""Reproduction of "Locked-In during Lock-Down: Undergraduate Life on
the Internet in a Pandemic" (Ukani, Mirian, Snoeren -- IMC 2021).

The paper measures the residential network of UC San Diego through the
COVID-19 lock-down. Its traces are proprietary, so this library pairs
the paper's full measurement/analysis stack with a synthetic campus
substrate that exercises the same code paths (see DESIGN.md).

Quickstart::

    from repro import LockdownStudy, StudyConfig

    study = LockdownStudy(StudyConfig(n_students=100, seed=7))
    artifacts = study.run(progress=print)
    print(artifacts.summary())

Packages:

- :mod:`repro.core`     -- study orchestration and text reports
- :mod:`repro.synth`    -- the synthetic campus (simulation side)
- :mod:`repro.world`    -- the synthetic internet (services, geo, IPs)
- :mod:`repro.pipeline` -- the passive monitoring pipeline
- :mod:`repro.columnar` -- the flow engine and the DHCP/DNS joins
- :mod:`repro.dhcp`, :mod:`repro.dns` -- substrates
- :mod:`repro.devices`  -- device classification
- :mod:`repro.geo`      -- domestic/international midpoint analysis
- :mod:`repro.apps`     -- application signatures
- :mod:`repro.sessions` -- overlapping-flow session stitching
- :mod:`repro.analysis` -- one module per paper figure
"""

from repro.config import StudyConfig
from repro.core.study import LockdownStudy, StudyArtifacts

__version__ = "1.0.0"

__all__ = [
    "LockdownStudy",
    "StudyArtifacts",
    "StudyConfig",
    "__version__",
]
