"""The evaluation service's own failures.

The evaluation core is deterministic: a dispatch that failed fails the
same way on every attempt, so the scheduler never retries one.  It
isolates a failed family member by member and gives a member that still
fails one attempt on the scalar oracle
(:mod:`repro.service.scheduler`); what fails there reaches the client
with the model's own error.  The faults here are the service's verdicts
about a request — it missed its deadline, arrived at a closed
scheduler, was shed by the bounded queue, or met a fleet below quorum —
and the HTTP front end answers each with a status of its own
(:data:`repro.service.http.FAULT_STATUS`).  Both bounds are deployment
settings (:mod:`repro.service.settings`).
"""

from __future__ import annotations

from repro.utils.errors import CiMLoopError


class FaultError(CiMLoopError):
    """Base of the service's own failures."""


class DeadlineExceeded(FaultError):
    """The request's ``deadline_ms`` elapsed before a result was ready."""


class ShutdownError(FaultError):
    """The scheduler shut down before (or while) serving the request."""


class QueueFullError(FaultError):
    """The bounded pending queue shed this request (HTTP 429).

    Carries ``retry_after_s`` — the client-facing backpressure hint the
    HTTP front end surfaces as a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class FleetDegradedError(FaultError):
    """The shard fleet lost quorum: too few live shards to accept work.

    Raised by the fleet's submit path after crashes (or an exhausted
    restart budget) dropped live membership below the supervisor's
    ``min_quorum``.  Carries ``retry_after_s`` — respawns may restore
    quorum — and maps to HTTP 503 on both front ends.
    """

    def __init__(self, message: str, retry_after_s: float = 5.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s
