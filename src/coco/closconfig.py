"""CLOS capacity bit-masks and MBA shares: validation and reconfiguration.

Masks are contiguous bit ranges (deployable CAT hardware requires
contiguity); MBA percentages are treated as non-overlapping shares summing to
at most 100.  Reconfiguration plans flag any CLOS whose cache and bandwidth
move in opposite directions instead of rejecting them, so the conflicting
baseline can still be simulated.
"""

from __future__ import annotations

from coco.core import AllocationState, MachineSpec, Value, _set
from coco.errors import ValidationError

RESERVED_WAYS = 2  # background partition width on the reference machine


class ClosConfig(Value):
    """One CLOS: id, cache capacity bit-mask, MBA percentage."""

    __slots__ = ("id", "mask", "mba_percent")

    def __init__(self, id: int, mask: int, mba_percent: int):
        _set(self, "id", id)
        _set(self, "mask", mask)
        _set(self, "mba_percent", mba_percent)

    @property
    def width(self) -> int:
        return self.mask.bit_count()

    def is_contiguous(self) -> bool:
        if self.mask <= 0:
            return False
        shifted = self.mask >> (self.mask & -self.mask).bit_length() - 1
        return shifted & (shifted + 1) == 0

    def state(self) -> AllocationState:
        return AllocationState(self.width, self.mba_percent)


def _problems(machine: MachineSpec, configs: tuple[ClosConfig, ...],
              reserved_id: int) -> list[str]:
    """Every rule a CLOS set on ``machine`` breaks; empty when it holds."""
    v: list[str] = []
    ids = [c.id for c in configs]
    if len(configs) != machine.clos_count:
        v.append(f"expected {machine.clos_count} configs, got {len(configs)}")
    if len(set(ids)) != len(ids):
        v.append("duplicate clos ids")
    for c in configs:
        if not 0 <= c.id < machine.clos_count:
            v.append(f"clos id out of range: clos {c.id}")
        if c.mask < 0:
            v.append(f"negative mask: clos {c.id}")
        elif c.mask == 0:
            v.append(f"zero mask: clos {c.id}")
        elif not c.is_contiguous():
            v.append(f"non-contiguous mask: clos {c.id}")
        if c.mask >> machine.llc_ways > 0:  # a negative mask shifts to -1
            v.append(f"mask exceeds llc_ways: clos {c.id}")
        if not machine.mba_step <= c.mba_percent <= 100:
            v.append(f"mba_percent out of range: clos {c.id}")
        elif c.mba_percent % machine.mba_step != 0:
            v.append(f"mba_percent not a step multiple: clos {c.id}")
    placed = [c for c in configs if c.mask > 0]  # negative: reported above
    for i, a in enumerate(placed):
        for b in placed[i + 1:]:
            if a.mask & b.mask:
                v.append(f"overlap: clos {a.id}, clos {b.id}")
    if reserved_id not in ids:
        v.append(f"reserved_id {reserved_id} not present")
    if sum(c.mba_percent for c in configs) > 100:
        v.append("mba shares exceed 100")
    return v


class ClosSet(Value):
    """A complete CLOS configuration for one machine; no invalid one can be built."""

    __slots__ = ("machine", "configs", "reserved_id")

    def __init__(self, machine: MachineSpec, configs: tuple[ClosConfig, ...],
                 reserved_id: int = 0):
        problems = _problems(machine, configs, reserved_id)
        if problems:
            raise ValidationError("; ".join(problems))
        _set(self, "machine", machine)
        _set(self, "configs", configs)
        _set(self, "reserved_id", reserved_id)

    def by_id(self, clos_id: int) -> ClosConfig:
        for c in self.configs:
            if c.id == clos_id:
                return c
        raise KeyError(clos_id)

    def lc_configs(self) -> tuple[ClosConfig, ...]:
        """Latency-critical CLOSs, widest mask first (id breaks ties)."""
        lc = [c for c in self.configs if c.id != self.reserved_id]
        return tuple(sorted(lc, key=lambda c: (-c.width, c.id)))


class MigrationEvent(Value):
    """Per-CLOS change between two configurations."""

    __slots__ = ("clos_id", "delta_ways", "delta_mba", "flush_required", "conflict")

    def __init__(self, clos_id: int, delta_ways: int, delta_mba: int,
                 flush_required: bool, conflict: bool = False):
        _set(self, "clos_id", clos_id)
        _set(self, "delta_ways", delta_ways)
        _set(self, "delta_mba", delta_mba)
        _set(self, "flush_required", flush_required)
        _set(self, "conflict", conflict)


class ReconfigPlan(Value):
    __slots__ = ("events", "valid")

    def __init__(self, events: tuple[MigrationEvent, ...], valid: bool):
        _set(self, "events", events)
        _set(self, "valid", valid)


def _largest_remainder(quotas: list[float], total: int) -> list[int]:
    """Round quotas to integers summing to ``total``, each >= 1; ``total`` is at
    least the number of quotas, so a share below 1 takes from one above it.

    Not shared with ``scheduler._split_quanta``, whose ties go by slowdown and
    name, not lowest index: either rule in both places changes outputs.
    """
    base = [int(q) for q in quotas]
    fracs = sorted(range(len(quotas)), key=lambda i: (quotas[i] - base[i], -i),
                   reverse=True)
    leftover = total - sum(base)
    for k in range(leftover):
        base[fracs[k % len(base)]] += 1
    # enforce the floor by taking from the largest shares
    for i in range(len(base)):
        while base[i] < 1:
            donor = max(range(len(base)), key=lambda j: (base[j], -j))
            base[donor] -= 1
            base[i] += 1
    return base


def default_partition(machine: MachineSpec) -> ClosSet:
    """Reference partitioning: reserved background CLOS plus graded LC CLOSs.

    On a 20-way, 4-CLOS, step-10 machine this yields mask widths {2,3,6,9}
    and MBA shares {10,10,30,50} with CLOS0 reserved.  Other machines keep
    the same shape: the reserved CLOS takes 2 ways (less on tiny machines),
    the LC CLOSs split the remaining ways 1:2:...:(K-1) and the remaining
    bandwidth 1:3:5:... (largest-remainder rounding, every CLOS at least one
    way and one MBA step).
    """
    k = machine.clos_count  # MachineSpec keeps k <= llc_ways
    n_lc = k - 1
    reserved_ways = max(1, min(RESERVED_WAYS, machine.llc_ways - n_lc))
    lc_ways_total = machine.llc_ways - reserved_ways
    ratio = [i + 1 for i in range(n_lc)]
    quotas = [lc_ways_total * r / sum(ratio) for r in ratio]
    widths = [reserved_ways] + _largest_remainder(quotas, lc_ways_total)

    units_total = 100 // machine.mba_step
    if units_total < k:
        raise ValidationError("mba_step too coarse for clos_count shares")
    lc_units = units_total - 1
    odd = [2 * i + 1 for i in range(n_lc)]
    mba_quotas = [lc_units * r / sum(odd) for r in odd]
    mba_units = [1] + _largest_remainder(mba_quotas, lc_units)

    configs = []
    bit = 0
    for clos_id in range(k):
        w = widths[clos_id]
        mask = ((1 << w) - 1) << bit
        bit += w
        configs.append(ClosConfig(clos_id, mask, mba_units[clos_id] * machine.mba_step))
    return ClosSet(machine, tuple(configs), reserved_id=0)


def diff(old: ClosSet, new: ClosSet) -> ReconfigPlan:
    """Migration events between two sets on the same machine.

    A CLOS that gained or lost cache ways (or whose mask moved) must flush
    the changed ways; a plan is flagged invalid when any CLOS's ways and MBA
    move in opposite directions.
    """
    if old.machine != new.machine:
        raise ValidationError("clos sets belong to different machines")
    events = []
    for c_old in sorted(old.configs, key=lambda c: c.id):
        c_new = new.by_id(c_old.id)
        if c_old.mask == c_new.mask and c_old.mba_percent == c_new.mba_percent:
            continue
        delta_ways = c_new.width - c_old.width
        delta_mba = c_new.mba_percent - c_old.mba_percent
        events.append(MigrationEvent(
            clos_id=c_old.id,
            delta_ways=delta_ways,
            delta_mba=delta_mba,
            flush_required=c_old.mask != c_new.mask,
            conflict=delta_ways * delta_mba < 0,
        ))
    return ReconfigPlan(tuple(events), valid=not any(e.conflict for e in events))
