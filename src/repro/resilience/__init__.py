"""repro.resilience — host-level supervision, retry policy and chaos.

Everything in :mod:`repro.faults` happens *inside virtual time*; this
package is about the **real host**: harness pool workers that hang or are
killed by the OS, cache files damaged on disk.  It provides

* :class:`RetryPolicy` — capped backoff, per-cell wall-clock
  deadlines and poisoned-cell quarantine for the experiment harness
  (:class:`QuarantineError` carries the completed partial results);
* :class:`HostFaultPlan` — deterministic, seeded injection of host
  faults (kill or hang pool workers, corrupt or truncate cache entries)
  behind zero-cost hooks;
* the ``repro chaos host`` sweep (:mod:`repro.resilience.chaos`) proving
  every injected host fault terminates with a recorded outcome and
  bit-identical virtual-time results.

See docs/RESILIENCE.md for the supervision model, deadline/quarantine
semantics and exit codes.
"""

from .hostfaults import (
    HostFaultPlan,
    HostFaultPlanError,
    apply_cache_faults,
    installed,
)
from .policy import QuarantinedCell, QuarantineError, RetryPolicy

__all__ = [
    "HostFaultPlan",
    "HostFaultPlanError",
    "QuarantineError",
    "QuarantinedCell",
    "RetryPolicy",
    "apply_cache_faults",
    "installed",
]
