"""Automatic marker insertion (paper §VII, weakness (2)).

The paper puts the burden of inserting the marker and picking its frequency
on the programmer, noting that "for iterative scientific applications ...
the main loop gets executed by all processes (and marker insertion can be
automated)".  This module implements that automation:

:class:`AutoMarkerTracer` watches the stream of *collective* operations —
which appear in the same order on every rank of an SPMD code — and looks
for a periodic **anchor**: a collective call site that recurs with a
constant number of collectives in between.  Once an anchor has repeated
``confirmations`` times at a stable period, every subsequent completion of
that call site triggers the Chameleon marker, exactly as if the programmer
had inserted it at the timestep boundary.

Detection uses only information that is identical on all ranks (collective
call sites and their positions in the collective sequence), so every rank
designates the same anchor at the same logical point and the collective
marker protocol stays aligned — no extra coordination needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..simmpi.launcher import RankContext
from .chameleon import ChameleonTracer
from .config import ChameleonConfig


@dataclass
class _SiteHistory:
    """Occurrence positions of one collective call site."""

    positions: list[int] = field(default_factory=list)

    def record(self, position: int, keep: int = 8) -> None:
        self.positions.append(position)
        if len(self.positions) > keep:
            del self.positions[0]

    def stable_period(self, confirmations: int) -> int | None:
        """The constant gap between the last ``confirmations`` occurrences,
        or None if the site is not (yet) periodic."""
        if len(self.positions) < confirmations + 1:
            return None
        tail = self.positions[-(confirmations + 1):]
        gaps = [b - a for a, b in zip(tail, tail[1:])]
        if gaps and all(g == gaps[0] for g in gaps) and gaps[0] > 0:
            return gaps[0]
        return None


class AutoMarkerTracer(ChameleonTracer):
    """Chameleon without manual markers: the timestep boundary is inferred.

    ``confirmations`` controls how many stable repetitions a collective call
    site needs before being designated as the loop anchor; lower values
    react faster, higher values resist false anchors in irregular preludes.
    """

    def __init__(
        self,
        ctx: RankContext,
        config: ChameleonConfig | None = None,
        confirmations: int = 3,
    ) -> None:
        super().__init__(ctx, config)
        if confirmations < 2:
            raise ValueError("confirmations must be >= 2")
        self.confirmations = confirmations
        self._coll_position = 0
        self._histories: dict[int, _SiteHistory] = {}
        self.anchor_sig: int | None = None
        self.auto_markers = 0

    # Collectives appear in the same order on every rank; point-to-point
    # traffic is rank-local and is ignored by the detector.

    def _observe_collective(self, stack_sig: int) -> bool:
        """Track one collective completion; True if the marker should fire."""
        self._coll_position += 1
        if self.anchor_sig is not None:
            return stack_sig == self.anchor_sig
        hist = self._histories.setdefault(stack_sig, _SiteHistory())
        hist.record(self._coll_position)
        if hist.stable_period(self.confirmations) is not None:
            self.anchor_sig = stack_sig
            return True
        return False

    async def _collective_done(self, stack_sig: int) -> None:
        await super()._collective_done(stack_sig)
        if self._observe_collective(stack_sig):
            self.auto_markers += 1
            await super().marker()

    async def marker(self):  # noqa: D102 - manual markers become no-ops
        return None
