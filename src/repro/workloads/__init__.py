"""Workload applications: the paper's examples as running systems.

Each workload module exposes the same shape (see :class:`WorkloadApp` in
:mod:`repro.workloads.runner`):

* ``calendar_app`` — the §2.2 / Listing 1 calendar (Example 2.1/3.1);
* ``hospital`` — the hospital-management system of Example 4.1;
* ``employees`` — the employee database of Example 4.2;
* ``social`` — a larger social-network app used for scale experiments.
"""

from repro.workloads.runner import AppRunner, RequestOutcome, WorkloadApp
from repro.workloads import calendar_app, employees, hospital, social

#: ``--app`` name → workload module, the one table the CLI and the
#: experiment scripts resolve application names through.
APPS = {
    "calendar": calendar_app,
    "hospital": hospital,
    "employees": employees,
    "social": social,
}

__all__ = [
    "APPS",
    "AppRunner",
    "RequestOutcome",
    "WorkloadApp",
    "calendar_app",
    "employees",
    "hospital",
    "social",
]
