"""Counters and energy accounting shared by the device and controller.

Also home of the *sequential accumulator* helpers the bulk execution
paths use: :func:`walk_add` / :func:`walk_add_many` return what
``count`` repeated ``acc += step`` float additions would, and
:func:`walk_reach` how many of them it takes to reach a bound --
**bit-identical** to the Python walk (IEEE-754 addition, rounded to
nearest even, folded strictly left to right), which is what every
scalar hot loop in this codebase does.

The walk is computed in closed form.  While the exact sums stay in one
binade (or in the subnormal range, which shares one grid), every sum
is rounded onto the same grid of spacing ``u``, so each step from a
value on that grid adds a whole number of ``u``: ``round(step / u)``,
or -- when ``step / u`` ends in an exact half and ties go to even --
a number that is constant after the first such step, which lands on
an even multiple.  So two plain steps measure the increment,
whole-number arithmetic on grid counts jumps to the last step that is
still inside the binade, and a walk costs a few Python steps per
binade it crosses instead of one per addition (walks shorter than
``_SHORT`` steps are plain loops, which is cheaper).  A step that
leaves the accumulator unchanged is a fixed point and ends the walk;
infinities and NaNs are stepped until their bits repeat.
``tests/test_walk_property.py`` pins the equivalence against the
Python fold; callers that cannot express their update as a
constant-step fold must keep the explicit walk.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "EnergyBreakdown",
    "MemoryStats",
    "walk_add",
    "walk_add_many",
    "walk_reach",
]

#: Binade bounds in grid steps: a positive normal binade spans
#: ``[2**52, 2**53)`` steps of its grid, and the subnormal grid (shared
#: with the smallest normal binade) spans ``(-2**53, 2**53)``.
_LOW = float(1 << 52)
_HIGH = float(1 << 53)
#: The subnormal grid spacing, 2**-1074.
_TINY = math.ulp(0.0)
#: Walks shorter than this are cheaper to step than to jump.
_SHORT = 16
_PACK = struct.Struct("<d").pack
#: The bound of a walk that runs its full length.
_NAN = math.nan


def _walk(
    acc: float,
    step: float,
    count: int,
    bound: float,
    ulp=math.ulp,
    isfinite=math.isfinite,
) -> tuple[int, float]:
    """Up to ``count`` steps of ``acc += step``, stopping after the
    first whose result is ``>= bound`` (a NaN ``bound`` never stops
    the walk).  Returns ``(steps taken, final value)``.  The ``math``
    functions are bound as defaults: this is the bulk engine's inner
    loop."""
    taken = 0
    while taken < count:
        if count - taken < _SHORT:
            while taken < count:
                acc += step
                taken += 1
                if acc >= bound:
                    break
            break
        start = acc
        acc += step
        taken += 1
        if acc >= bound:
            break
        after = acc + step
        taken += 1
        if after >= bound:
            return taken, after
        if after == acc:
            # A fixed point (equal zeros only follow each other under a
            # zero step, which keeps the second one).
            return count, after
        if not isfinite(after):
            # An infinity or a NaN: step until the bits repeat.
            while taken < count:
                acc, after = after, after + step
                taken += 1
                if after >= bound:
                    return taken, after
                if _PACK(after) == _PACK(acc):
                    return count, after
            return taken, after
        # ``grid`` is the spacing of ``after``'s binade (the values of
        # one ulp).  ``start`` must lie on it too: a value of a finer
        # binade may sit half a step off the grid, which turns the
        # first rounding into an exact sum instead of a tie.  Three
        # consecutive values of one ulp lie in one binade, strictly
        # inside it but for ``after`` at a lower edge (which leaves no
        # room below), so both sums were rounded on this grid.
        grid = ulp(after)
        if ulp(acc) != grid or ulp(start) != grid:
            acc = after
            continue
        # A tie (``step`` an odd number of half steps) left ``acc``
        # even, so from ``after`` on each step adds ``delta`` grid
        # steps.  A step whose result stays two grid steps inside the
        # binade has its exact sum inside it too (and below the
        # overflow threshold in the top binade).  Grid counts are below
        # 2**54 and ``grid`` is a power of two, so this float
        # arithmetic is exact.
        last = after / grid
        delta = last - acc / grid
        acc = after
        if delta > 0:
            edge = _HIGH if after > 0 or grid == _TINY else -_LOW
            room = (edge - 2.0 - last) // delta
        else:
            edge = -_HIGH if after < 0 or grid == _TINY else _LOW
            room = (last - edge - 2.0) // -delta
        if room > count - taken:
            room = count - taken
        if room <= 0:
            continue
        end = (last + room * delta) * grid
        if end >= bound:
            need = -((last - math.ceil(bound / grid)) // delta)
            return taken + int(need), (last + need * delta) * grid
        acc = end
        taken += int(room)
    return taken, acc


def walk_add(acc: float, step: float, count: int) -> float:
    """``count`` sequential ``acc += step`` additions, bit-identical to
    the Python walk, in closed form."""
    if count < _SHORT:
        for _ in range(count):
            acc += step
        return acc
    return _walk(acc, step, count, _NAN)[1]


def walk_add_many(
    accs: Sequence[float], steps: Sequence[float], count: int
) -> tuple[float, ...]:
    """Several independent constant-step walks of one shared length;
    returns the final values in input order, each bit-identical to its
    Python walk."""
    finals = []
    if count < _SHORT:
        for acc, step in zip(accs, steps):
            for _ in range(count):
                acc += step
            finals.append(acc)
    else:
        for acc, step in zip(accs, steps):
            finals.append(_walk(acc, step, count, _NAN)[1])
    return tuple(finals)


def walk_reach(acc: float, step: float, count: int, bound: float) -> int:
    """How many steps of ``acc += step`` it takes until the accumulator
    is ``>= bound``, at most ``count`` (0 when ``acc`` is there
    already)."""
    if acc >= bound:
        return 0
    return _walk(acc, step, count, bound)[0]


@dataclass
class EnergyBreakdown:
    """Energy in nanojoules, split by source."""

    activate: float = 0.0
    precharge: float = 0.0
    read: float = 0.0
    write: float = 0.0
    io: float = 0.0
    refresh: float = 0.0
    rowclone: float = 0.0
    lock_table: float = 0.0
    background: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.activate
            + self.precharge
            + self.read
            + self.write
            + self.io
            + self.refresh
            + self.rowclone
            + self.lock_table
            + self.background
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "activate": self.activate,
            "precharge": self.precharge,
            "read": self.read,
            "write": self.write,
            "io": self.io,
            "refresh": self.refresh,
            "rowclone": self.rowclone,
            "lock_table": self.lock_table,
            "background": self.background,
            "total": self.total,
        }


@dataclass
class MemoryStats:
    """Command and event counters for one simulated memory system."""

    activates: int = 0
    precharges: int = 0
    reads: int = 0
    writes: int = 0
    refreshes: int = 0
    rowclones: int = 0
    bit_flips: int = 0
    disturbances: int = 0
    blocked_requests: int = 0
    swaps: int = 0
    swap_copy_failures: int = 0
    lock_lookups: int = 0
    row_hits: int = 0
    row_misses: int = 0
    busy_ns: float = 0.0
    defense_ns: float = 0.0
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)

    def as_dict(self) -> dict[str, float]:
        data: dict[str, float] = {
            "activates": self.activates,
            "precharges": self.precharges,
            "reads": self.reads,
            "writes": self.writes,
            "refreshes": self.refreshes,
            "rowclones": self.rowclones,
            "bit_flips": self.bit_flips,
            "disturbances": self.disturbances,
            "blocked_requests": self.blocked_requests,
            "swaps": self.swaps,
            "swap_copy_failures": self.swap_copy_failures,
            "lock_lookups": self.lock_lookups,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "busy_ns": self.busy_ns,
            "defense_ns": self.defense_ns,
        }
        data.update(
            {f"energy_{k}_nj": v for k, v in self.energy.as_dict().items()}
        )
        return data
