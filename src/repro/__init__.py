"""repro — reproduction of Jin & Nahrstedt, *Large-Scale Service Overlay
Networking with Distance-Based Clustering* (Middleware 2003).

The public API lives in :mod:`repro.core`:

>>> from repro.core import HFCFramework, FrameworkConfig
>>> framework = HFCFramework.build(proxy_count=100, physical_nodes=300, seed=7)
>>> path = framework.route(framework.random_request(seed=1))
>>> path.true_delay  # doctest: +SKIP
42.0

Subpackages mirror the paper's structure: :mod:`repro.netsim` (physical
substrate), :mod:`repro.coords` (Section 3.1), :mod:`repro.cluster`
(Section 3.2), :mod:`repro.overlay` (Section 3.3 / HFC), :mod:`repro.state`
(Section 4), :mod:`repro.routing` (Section 5), :mod:`repro.experiments`
(Section 6), plus the future-work extensions :mod:`repro.membership`,
:mod:`repro.qos` and :mod:`repro.hierarchy` (L-level HFC), and the runtime
around them: :mod:`repro.traffic`, :mod:`repro.dataplane` and the
deterministic fault-injection harness :mod:`repro.faults`. Service placement
is taken as given (Table 1's static installation), and the authors'
companion work on service multicast is not reproduced.
"""

from repro.core.config import FrameworkConfig
from repro.core.framework import HFCFramework

__version__ = "1.0.0"

__all__ = ["FrameworkConfig", "HFCFramework", "__version__"]
