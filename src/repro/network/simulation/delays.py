"""Link-delay models reproducing the paper's network settings (Sec. 7.1).

The paper emulates synchronous networks by delaying every message by a
fixed 50 ms and asynchronous networks by drawing per-message delays from
a Normal(50, 50) ms distribution (negative samples are clipped), which
frequently reorders messages in flight.

Beyond the paper's reliable links, the lossy family models unreliable
networks: :class:`LossyDelay` loses each message independently with a
fixed probability and :class:`BurstyLossWindow` loses messages during
periodic outage bursts.  A lossy model's :meth:`DelayModel.sample_event`
may return the :data:`DROP` sentinel instead of a delay, which the
hosting runtime honours by never delivering the message (its bytes are
still charged to the sender — the transmission left the NIC).
"""

from __future__ import annotations

import abc
import math
import random
from dataclasses import dataclass
from typing import Union

from repro.core.errors import ConfigurationError


class _DropSentinel:
    """Singleton marker a lossy delay model returns instead of a delay."""

    _instance = None

    def __new__(cls) -> "_DropSentinel":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DROP"

    def __reduce__(self) -> str:
        # Pickle resolves the module-level name, preserving identity
        # (``is DROP``) across process boundaries.
        return "DROP"


#: Returned by :meth:`DelayModel.sample_event` to mean "this message is
#: lost in transit".  Compare with ``is``.
DROP = _DropSentinel()

#: What :meth:`DelayModel.sample_event` returns: a delay in milliseconds
#: or the :data:`DROP` sentinel.
DelayOutcome = Union[float, _DropSentinel]


class DelayModel(abc.ABC):
    """Per-message link delay distribution."""

    @abc.abstractmethod
    def sample(self, rng: random.Random, sender: int, dest: int, size_bytes: int) -> float:
        """Delay (in milliseconds) applied to one message on one link."""

    def sample_event(
        self,
        rng: random.Random,
        sender: int,
        dest: int,
        size_bytes: int,
        time_ms: float,
    ) -> DelayOutcome:
        """Delay for one message, or :data:`DROP` to lose it.

        ``time_ms`` is the simulated send time, which time-dependent loss
        models (bursty outages) key on.  The lossless base models simply
        delegate to :meth:`sample`, so existing subclasses keep working
        — and keep their RNG consumption byte-identical — without
        overriding anything.
        """
        return self.sample(rng, sender, dest, size_bytes)

    @property
    def lossy(self) -> bool:
        """Whether :meth:`sample_event` may ever return :data:`DROP`."""
        return False

    def describe(self) -> str:
        """Short human-readable description used in benchmark reports."""
        return type(self).__name__


@dataclass(frozen=True)
class FixedDelay(DelayModel):
    """Constant per-message delay — the paper's synchronous setting."""

    delay_ms: float = 50.0

    def __post_init__(self) -> None:
        # ``not >=`` also catches NaN.  Checked here, once: the runtime
        # schedules a whole fan-out from this constant.
        if not self.delay_ms >= 0:
            raise ConfigurationError(
                f"a fixed delay must be a non-negative number, got {self.delay_ms}"
            )

    def sample(self, rng: random.Random, sender: int, dest: int, size_bytes: int) -> float:
        return self.delay_ms

    def describe(self) -> str:
        return f"synchronous({self.delay_ms:g} ms)"


@dataclass(frozen=True)
class AsynchronousDelay(DelayModel):
    """Normally distributed delay — the paper's asynchronous setting.

    Delays are drawn from Normal(``mean_ms``, ``std_ms``) and clipped to a
    small positive minimum so that causality is preserved.
    """

    mean_ms: float = 50.0
    std_ms: float = 50.0
    min_ms: float = 0.1

    def __post_init__(self) -> None:
        # A NaN mean would clip every draw to ``min_ms`` without a word.
        if not (
            math.isfinite(self.mean_ms)
            and 0 <= self.std_ms < math.inf
            and 0 <= self.min_ms < math.inf
        ):
            raise ConfigurationError(
                "a normal delay needs a finite mean and finite non-negative "
                f"std and minimum, got N({self.mean_ms}, {self.std_ms}) ms "
                f"clipped at {self.min_ms}"
            )

    def sample(self, rng: random.Random, sender: int, dest: int, size_bytes: int) -> float:
        return self.sample_event(rng, sender, dest, size_bytes, 0.0)

    def sample_event(
        self,
        rng: random.Random,
        sender: int,
        dest: int,
        size_bytes: int,
        time_ms: float,
    ) -> float:
        # The draw of every send of an asynchronous run, answered in one
        # frame (``max(min_ms, gauss)`` spelled without the call); the one
        # place the distribution is written — :meth:`sample` comes here.
        delay = rng.gauss(self.mean_ms, self.std_ms)
        return delay if delay > self.min_ms else self.min_ms

    def describe(self) -> str:
        return f"asynchronous(N({self.mean_ms:g}, {self.std_ms:g}) ms)"


@dataclass(frozen=True)
class UniformDelay(DelayModel):
    """Uniformly distributed delay, used by some robustness tests."""

    low_ms: float = 10.0
    high_ms: float = 100.0

    def __post_init__(self) -> None:
        if not 0 <= self.low_ms <= self.high_ms < math.inf:
            raise ConfigurationError(
                "a uniform delay needs finite bounds 0 <= low <= high, "
                f"got [{self.low_ms}, {self.high_ms}] ms"
            )

    def sample(self, rng: random.Random, sender: int, dest: int, size_bytes: int) -> float:
        return rng.uniform(self.low_ms, self.high_ms)

    def describe(self) -> str:
        return f"uniform([{self.low_ms:g}, {self.high_ms:g}] ms)"


@dataclass(frozen=True)
class BandwidthAwareDelay(DelayModel):
    """Adds a serialization term proportional to the message size.

    Models the 1 Gb/s bandwidth cap the paper applies with ``netem``: a
    message of ``size_bytes`` takes ``size_bytes * 8 / rate_bps`` seconds
    to serialize on the link, on top of a base propagation delay.
    """

    base: DelayModel = FixedDelay(50.0)
    rate_bps: float = 1e9

    def sample(self, rng: random.Random, sender: int, dest: int, size_bytes: int) -> float:
        serialization_ms = (size_bytes * 8.0 / self.rate_bps) * 1000.0
        return self.base.sample(rng, sender, dest, size_bytes) + serialization_ms

    def describe(self) -> str:
        return f"{self.base.describe()}+{self.rate_bps / 1e9:g}Gb/s"


@dataclass(frozen=True)
class LossyDelay(DelayModel):
    """Loses each message independently with ``loss_probability``.

    Surviving messages are delayed by the wrapped ``base`` model.  The
    loss draw comes from the same seeded RNG as the delays, so for a
    fixed scenario seed the exact set of lost messages is deterministic
    — the property the sweep executors' equality contract relies on.
    """

    base: DelayModel = FixedDelay(50.0)
    loss_probability: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability must be within [0, 1], got {self.loss_probability}"
            )

    def sample(self, rng: random.Random, sender: int, dest: int, size_bytes: int) -> float:
        return self.base.sample(rng, sender, dest, size_bytes)

    def sample_event(
        self,
        rng: random.Random,
        sender: int,
        dest: int,
        size_bytes: int,
        time_ms: float,
    ) -> DelayOutcome:
        if rng.random() < self.loss_probability:
            return DROP
        return self.base.sample_event(rng, sender, dest, size_bytes, time_ms)

    @property
    def lossy(self) -> bool:
        return self.loss_probability > 0.0

    def describe(self) -> str:
        return f"lossy({self.loss_probability:g})+{self.base.describe()}"


@dataclass(frozen=True)
class BurstyLossWindow(DelayModel):
    """Periodic outage bursts: messages sent inside a burst are lost.

    Every ``period_ms`` the link enters a burst lasting ``burst_ms``
    (phase-shifted by ``offset_ms``); a message whose send time falls
    inside a burst is lost with ``loss_probability`` (default 1.0 — a
    hard outage, which consumes no RNG and therefore leaves the delay
    stream of the surviving messages untouched).  Models the correlated
    loss real networks exhibit, as opposed to the independent loss of
    :class:`LossyDelay`.
    """

    base: DelayModel = FixedDelay(50.0)
    period_ms: float = 500.0
    burst_ms: float = 50.0
    offset_ms: float = 0.0
    loss_probability: float = 1.0

    def __post_init__(self) -> None:
        if self.period_ms <= 0:
            raise ValueError(f"period_ms must be positive, got {self.period_ms}")
        if not 0.0 <= self.burst_ms <= self.period_ms:
            raise ValueError(
                f"burst_ms must be within [0, period_ms], got {self.burst_ms}"
            )
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability must be within [0, 1], got {self.loss_probability}"
            )

    def in_burst(self, time_ms: float) -> bool:
        """Whether a message sent at ``time_ms`` falls inside a burst."""
        return (time_ms - self.offset_ms) % self.period_ms < self.burst_ms

    def sample(self, rng: random.Random, sender: int, dest: int, size_bytes: int) -> float:
        return self.base.sample(rng, sender, dest, size_bytes)

    def sample_event(
        self,
        rng: random.Random,
        sender: int,
        dest: int,
        size_bytes: int,
        time_ms: float,
    ) -> DelayOutcome:
        if self.burst_ms > 0 and self.in_burst(time_ms):
            if self.loss_probability >= 1.0 or rng.random() < self.loss_probability:
                return DROP
        return self.base.sample_event(rng, sender, dest, size_bytes, time_ms)

    @property
    def lossy(self) -> bool:
        return self.burst_ms > 0 and self.loss_probability > 0.0

    def describe(self) -> str:
        return (
            f"bursty({self.burst_ms:g}/{self.period_ms:g} ms)"
            f"+{self.base.describe()}"
        )


__all__ = [
    "DROP",
    "DelayModel",
    "DelayOutcome",
    "FixedDelay",
    "AsynchronousDelay",
    "UniformDelay",
    "BandwidthAwareDelay",
    "LossyDelay",
    "BurstyLossWindow",
]
