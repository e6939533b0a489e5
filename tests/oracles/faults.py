"""The scan-everything fault interceptor: the reference the indexed
:class:`~repro.faults.injector.FaultInjector` is compared against.

``intercept`` and ``down`` here are the injector's former bodies, kept
verbatim: every message walks every crash spec (twice) and every windowed
spec whether or not one can apply. Production answers the same question
from an index built at construction and returns early when no spec can
touch the message; ``tests/test_faults.py`` drives both with the same
plans and message streams and requires equal delays, trace entries,
counters and RNG state after every message.
"""

from typing import List, Optional

from repro.faults.injector import FaultInjector
from repro.netsim.eventsim import Message
from repro.overlay.network import ProxyId


class ReferenceFaultInjector(FaultInjector):
    """Decides every delivery by scanning the whole plan."""

    def down(self, proxy: ProxyId, t: float) -> bool:
        return any(
            s.proxy == proxy and s.down_at(t) for s in self.plan.crash_specs()
        )

    def intercept(self, message: Message, delay: float) -> Optional[List[float]]:
        sim = self.sim
        assert sim is not None
        now = sim.now
        sender, recipient = message.sender, message.recipient
        if self._resolve is not None:
            sender = self._resolve(sender)
            recipient = self._resolve(recipient)

        if self.down(sender, now):
            return self._drop("crash_sender", message, now)
        for partition in self._partitions:
            if partition.start <= now < partition.end and partition.severs(
                sender, recipient
            ):
                return self._drop("partition", message, now)
        for loss in self._losses:
            if (
                loss.start <= now < loss.end
                and loss.matches(sender, recipient)
                and self._rng.random() < loss.loss_rate
            ):
                return self._drop("loss", message, now)

        touched = False
        for jitter in self._jitters:
            if jitter.start <= now < jitter.end and (
                jitter.probability >= 1.0 or self._rng.random() < jitter.probability
            ):
                extra = self._rng.uniform(0.0, jitter.jitter)
                delay += extra
                touched = True
                self._delay_counters["jitter"].inc()
                self._trace("jitter", message=message, t=now, extra=extra)
        for reorder in self._reorders:
            if reorder.start <= now < reorder.end and self._rng.random() < reorder.probability:
                extra = self._rng.uniform(0.0, reorder.max_extra_delay)
                delay += extra
                touched = True
                self._delay_counters["reorder"].inc()
                self._trace("reorder", message=message, t=now, extra=extra)

        delays = [delay]
        for duplicate in self._duplicates:
            if duplicate.start <= now < duplicate.end and self._rng.random() < duplicate.probability:
                offset = (
                    self._rng.uniform(0.0, duplicate.max_offset)
                    if duplicate.max_offset > 0
                    else 0.0
                )
                delays.append(delay + offset)
                touched = True
                self._duplicated.inc()
                self._trace("duplicate", message=message, t=now, offset=offset)

        surviving = []
        for d in delays:
            if self.down(recipient, now + d):
                self._drop("crash_recipient", message, now)
            else:
                surviving.append(d)
        if len(surviving) < len(delays):
            return surviving
        return delays if touched else None
