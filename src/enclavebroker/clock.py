"""Simulated clock. Wall-clock time is never consulted anywhere in the broker."""

from __future__ import annotations

from .errors import BadRequest


class SimClock:
    """Monotonic simulated time in integer seconds."""

    def __init__(self, start: int = 0):
        self._now = int(start)

    @property
    def now(self) -> int:
        return self._now

    def advance(self, seconds: int) -> int:
        if seconds < 0:
            raise BadRequest(f"clock only moves forward, not by {seconds} seconds")
        self._now += int(seconds)
        return self._now
