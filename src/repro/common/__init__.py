"""Shared utilities: units, errors, RNG management, configuration, event logs,
and the fork/inline fan-out primitive (:mod:`repro.common.fanout`).

Everything in :mod:`repro.common` is dependency-free (stdlib + numpy only) and
used by every other subpackage.
"""

from repro.common.errors import (
    CalibrationError,
    CapacityExceededError,
    ConfigError,
    LiflError,
    ObjectStoreError,
    RoutingError,
    SimulationError,
)
from repro.common.eventlog import EventLog, TimelineEvent
from repro.common.rng import RngRegistry, make_rng
from repro.common.units import (
    GB,
    GIGA,
    KB,
    MB,
    MILLIS,
    MINUTES,
    Bytes,
    Seconds,
    fmt_bytes,
    fmt_duration,
)

__all__ = [
    "Bytes",
    "CalibrationError",
    "CapacityExceededError",
    "ConfigError",
    "EventLog",
    "GB",
    "GIGA",
    "KB",
    "LiflError",
    "MB",
    "MILLIS",
    "MINUTES",
    "ObjectStoreError",
    "RngRegistry",
    "RoutingError",
    "Seconds",
    "SimulationError",
    "TimelineEvent",
    "fmt_bytes",
    "fmt_duration",
    "make_rng",
]
