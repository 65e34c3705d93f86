"""Power management: cap policy, power-aware scheduling, DVFS control.

* :mod:`policy` — workload-class -> cap policies built on the paper's
  finding that 50 % TDP costs most VASP workloads <10 % performance;
* :mod:`scheduler` — a power-aware batch scheduler that applies the
  policy each scheduling cycle and enforces a facility power budget
  (the Section VI-A deployment story);
* :mod:`dvfsctl` — static DVFS control, quantifying why the paper chose
  power capping ("more efficient and accurate").
"""

from repro.capping.dvfsctl import (
    ControlComparison,
    ControlOutcome,
    compare_control,
    run_with_capping,
    run_with_static_dvfs,
)
from repro.capping.policy import CapPolicy, WorkloadClass, classify_workload
from repro.capping.scheduler import (
    Job,
    PowerAwareScheduler,
    ScheduleResult,
    SchedulerConfig,
)

__all__ = [
    "CapPolicy",
    "ControlComparison",
    "ControlOutcome",
    "compare_control",
    "run_with_capping",
    "run_with_static_dvfs",
    "Job",
    "PowerAwareScheduler",
    "ScheduleResult",
    "SchedulerConfig",
    "WorkloadClass",
    "classify_workload",
]
