"""Failure taxonomy and fault-handling policies of the evaluation service.

The service's failure model is explicit: every dispatch failure is either
*retryable* (infrastructure trouble — an injected transient, a shed
queue — where the same request succeeds on a later attempt) or
*permanent* (the evaluation itself is deterministic, so an error raised
by the model repeats on every retry).  The scheduler's
policies live here beside the taxonomy:

* :func:`is_retryable` classifies an exception; unknown exception types
  default to permanent, because the evaluation core is deterministic and
  an unrecognised error would simply repeat.
* :func:`backoff_s` is the retry delay schedule — exponential with full
  jitter from a caller-owned RNG, so replays under a fixed seed are
  deterministic.
* :class:`CircuitBreaker` short-circuits a family that keeps failing to
  fast :class:`CircuitOpenError` responses instead of burning a dispatch
  (and its retries) on every arrival.

Environment knobs (all optional, parsed by the scheduler at
construction): ``REPRO_SERVICE_MAX_PENDING`` bounds the pending queue,
``REPRO_SERVICE_BACKOFF_BASE_S`` / ``REPRO_SERVICE_BACKOFF_CAP_S`` shape
the retry schedule, and ``REPRO_SERVICE_BREAKER_THRESHOLD`` /
``REPRO_SERVICE_BREAKER_COOLDOWN_S`` tune the circuit breaker.
"""

from __future__ import annotations

import random
import time
from typing import Optional

from repro.utils.errors import CiMLoopError

MAX_PENDING_ENV = "REPRO_SERVICE_MAX_PENDING"
BACKOFF_BASE_ENV = "REPRO_SERVICE_BACKOFF_BASE_S"
BACKOFF_CAP_ENV = "REPRO_SERVICE_BACKOFF_CAP_S"
BREAKER_THRESHOLD_ENV = "REPRO_SERVICE_BREAKER_THRESHOLD"
BREAKER_COOLDOWN_ENV = "REPRO_SERVICE_BREAKER_COOLDOWN_S"

#: Default retry schedule: 50 ms doubling to a 2 s ceiling, full jitter.
DEFAULT_BACKOFF_BASE_S = 0.05
DEFAULT_BACKOFF_CAP_S = 2.0

#: Default breaker: open after 5 consecutive all-failed family dispatches,
#: probe again after 30 s.
DEFAULT_BREAKER_THRESHOLD = 5
DEFAULT_BREAKER_COOLDOWN_S = 30.0


class FaultError(CiMLoopError):
    """Base of the service's failure taxonomy."""


class RetryableError(FaultError):
    """A transient failure: the same request may succeed if retried."""


class PermanentError(FaultError):
    """A failure that will repeat on retry (the evaluation is
    deterministic, so model-raised errors are permanent by nature)."""


class DeadlineExceeded(PermanentError):
    """The request's ``deadline_ms`` elapsed before a result was ready."""


class ShutdownError(PermanentError):
    """The scheduler shut down before (or while) serving the request."""


class QueueFullError(RetryableError):
    """The bounded pending queue shed this request (HTTP 429).

    Carries ``retry_after_s`` — the client-facing backpressure hint the
    HTTP front end surfaces as a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class CircuitOpenError(PermanentError):
    """The request's family is short-circuited after repeated failures.

    Permanent from the caller's perspective *right now* (retrying
    immediately hits the same open breaker), but carries
    ``retry_after_s`` — the breaker's remaining cooldown — so a client
    knows when the family will be probed again.
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


def is_retryable(error: BaseException) -> bool:
    """Whether a dispatch failure is worth retrying.

    Explicitly-tagged :class:`RetryableError` failures are transient;
    :class:`PermanentError` and *everything else* are not —
    the evaluation core is deterministic, so an unclassified exception
    (a model bug, a bad config that slipped past validation) would
    simply repeat, and retrying it only multiplies the cost.
    """
    if isinstance(error, PermanentError):
        return False
    return isinstance(error, RetryableError)


def backoff_s(
    attempt: int,
    base_s: float = DEFAULT_BACKOFF_BASE_S,
    cap_s: float = DEFAULT_BACKOFF_CAP_S,
    rng: Optional[random.Random] = None,
) -> float:
    """Delay before retry ``attempt`` (1-based): capped exponential, full
    jitter in ``[delay/2, delay]`` drawn from the caller's RNG so a
    seeded replay produces an identical retry schedule."""
    if attempt < 1:
        raise ValueError("attempt is 1-based")
    delay = min(cap_s, base_s * (2.0 ** (attempt - 1)))
    jitter = rng.random() if rng is not None else random.random()
    return delay * (0.5 + 0.5 * jitter)


class CircuitBreaker:
    """Per-family circuit breaker: repeated failures -> fast errors.

    Closed while dispatches succeed.  After ``failure_threshold``
    *consecutive* all-failed family dispatches the breaker opens:
    arrivals short-circuit to :class:`CircuitOpenError` without touching
    the dispatch path for ``cooldown_s`` seconds.  The first arrival
    after the cooldown is let through as a half-open probe — success
    closes the breaker, failure re-opens it for another cooldown.

    Not internally synchronised: the scheduler serialises access under
    its own lock.
    """

    def __init__(
        self,
        failure_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.trips = 0

    @property
    def state(self) -> str:
        if self.opened_at is None:
            return "closed"
        if time.monotonic() - self.opened_at >= self.cooldown_s:
            return "half_open"
        return "open"

    def allow(self) -> bool:
        """Whether a dispatch may proceed (True in closed and half-open)."""
        return self.state != "open"

    def retry_after_s(self) -> float:
        """Remaining cooldown, the hint an open-breaker rejection carries."""
        if self.opened_at is None:
            return 0.0
        return max(0.0, self.cooldown_s - (time.monotonic() - self.opened_at))

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.opened_at = None

    def record_failure(self) -> bool:
        """Count one all-failed dispatch; returns True when this trips
        (or re-trips, after a failed half-open probe) the breaker open."""
        self.consecutive_failures += 1
        if self.opened_at is not None:
            # Failed half-open probe: back to a full cooldown.
            self.opened_at = time.monotonic()
            self.trips += 1
            return True
        if self.consecutive_failures >= self.failure_threshold:
            self.opened_at = time.monotonic()
            self.trips += 1
            return True
        return False
