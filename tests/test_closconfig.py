import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coco.closconfig import ClosConfig, ClosSet, default_partition, diff
from coco.core import MachineSpec
from coco.errors import ValidationError


def machine(ways=20, clos=4, step=10):
    return MachineSpec(llc_ways=ways, clos_count=clos, mba_step=step)


def random_valid_set(rng: random.Random, m: MachineSpec) -> ClosSet:
    """Contiguous, disjoint masks packed from bit 0; MBA shares sum to 100."""
    widths = [1] * m.clos_count
    for _ in range(m.llc_ways - m.clos_count):
        widths[rng.randrange(m.clos_count)] += 1
    units = [1] * m.clos_count
    for _ in range(100 // m.mba_step - m.clos_count):
        units[rng.randrange(m.clos_count)] += 1
    configs, bit = [], 0
    for i in range(m.clos_count):
        configs.append(ClosConfig(i, ((1 << widths[i]) - 1) << bit,
                                  units[i] * m.mba_step))
        bit += widths[i]
    return ClosSet(m, tuple(configs), reserved_id=0)


class TestDefaultPartition:
    def test_reference_widths_and_mba(self):
        cs = default_partition(machine())
        widths = [c.width for c in sorted(cs.configs, key=lambda c: c.id)]
        mbas = [c.mba_percent for c in sorted(cs.configs, key=lambda c: c.id)]
        assert widths == [2, 3, 6, 9]
        assert mbas == [10, 10, 30, 50]
        assert cs.reserved_id == 0

    def test_reference_masks_packed(self):
        cs = default_partition(machine())
        masks = [c.mask for c in sorted(cs.configs, key=lambda c: c.id)]
        assert masks == [0x3, 0x1C, 0x7E0, 0xFF800]

    def test_ten_way_two_clos(self):
        cs = default_partition(machine(ways=10, clos=2))
        widths = [c.width for c in sorted(cs.configs, key=lambda c: c.id)]
        assert widths == [2, 8]

    def test_output_validates(self):
        # ClosSet's constructor checks the set rules, so building is the check
        for ways, clos, step in ((20, 4, 10), (10, 2, 10), (12, 3, 20),
                                 (4, 2, 50), (24, 4, 5)):
            assert len(default_partition(machine(ways, clos, step)).configs) == clos

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(4, 32), st.sampled_from((5, 10, 20, 25)))
    def test_output_always_validates(self, clos, ways, step):
        if ways < clos or 100 // step < clos:
            return
        assert len(default_partition(machine(ways, clos, step)).configs) == clos


def problems(*configs, reserved_id=0):
    """The one-line error ClosSet raises for ``configs`` on an 8-way, 2-CLOS machine."""
    with pytest.raises(ValidationError) as raised:
        ClosSet(machine(ways=8, clos=2), configs, reserved_id)
    return str(raised.value)


class TestValidate:
    def test_default_is_ok(self):
        cs = default_partition(machine())
        assert ClosSet(cs.machine, cs.configs, cs.reserved_id) == cs

    def test_overlap_reported(self):
        assert "overlap: clos 0, clos 1" in problems(ClosConfig(0, 0b1100, 50),
                                                     ClosConfig(1, 0b1000, 50))

    def test_non_contiguous_reported(self):
        assert "non-contiguous mask" in problems(ClosConfig(0, 0b101, 50),
                                                 ClosConfig(1, 0b010, 50))

    def test_zero_mask_reported(self):
        assert "zero mask: clos 0" in problems(ClosConfig(0, 0, 50), ClosConfig(1, 0b1, 50))

    @pytest.mark.parametrize("mask", [-1, -5])
    def test_negative_mask_is_one_problem(self, mask):
        assert problems(ClosConfig(0, 0b1, 50), ClosConfig(1, mask, 50)) == \
            "negative mask: clos 1"

    def test_mba_share_overflow_reported(self):
        assert "exceed 100" in problems(ClosConfig(0, 0b1, 60), ClosConfig(1, 0b10, 60))

    def test_problems_joined_in_one_error(self):
        assert problems(ClosConfig(0, 0b11, 60), ClosConfig(1, 0b10, 60), reserved_id=5) == \
            "overlap: clos 0, clos 1; reserved_id 5 not present; mba shares exceed 100"


class TestDiff:
    def test_identical_sets_empty_plan(self):
        cs = default_partition(machine())
        plan = diff(cs, cs)
        assert plan.events == ()
        assert plan.valid

    def test_coordinated_move_is_valid(self):
        m = machine()
        old = default_partition(m)
        # CLOS2 +2 ways / +10% MBA, CLOS3 -2 ways / -10% MBA
        new = ClosSet(m, (
            old.by_id(0), old.by_id(1),
            ClosConfig(2, 0x1FE0, 40),    # 8 ways at bits 5..12
            ClosConfig(3, 0xFE000, 40),   # 7 ways at bits 13..19
        ), reserved_id=0)
        plan = diff(old, new)
        assert plan.valid
        assert len(plan.events) == 2
        assert all(e.flush_required for e in plan.events)
        deltas = {e.clos_id: (e.delta_ways, e.delta_mba) for e in plan.events}
        assert deltas == {2: (2, 10), 3: (-2, -10)}

    def test_opposed_move_flagged(self):
        m = machine()
        old = default_partition(m)
        new = ClosSet(m, (
            old.by_id(0), old.by_id(1),
            ClosConfig(2, 0x1FE0, 20),    # +2 ways, -10% MBA
            ClosConfig(3, 0xFE000, 50),   # -2 ways, MBA unchanged
        ), reserved_id=0)
        plan = diff(old, new)
        assert not plan.valid
        flagged = [e for e in plan.events if e.conflict]
        assert [e.clos_id for e in flagged] == [2]

    def test_mba_only_change_needs_no_flush(self):
        m = machine()
        old = default_partition(m)
        new = ClosSet(m, (
            old.by_id(0), old.by_id(1),
            ClosConfig(2, 0x7E0, 40), ClosConfig(3, 0xFF800, 40),
        ), reserved_id=0)
        plan = diff(old, new)
        assert all(not e.flush_required for e in plan.events)

    def test_mismatched_machines_rejected(self):
        with pytest.raises(ValidationError):
            diff(default_partition(machine()), default_partition(machine(ways=24)))

    def test_invalid_set_rejected(self):
        # no invalid set reaches diff: the constructor refuses it
        assert problems(ClosConfig(0, 0b11, 50), ClosConfig(1, 0b10, 50)) == \
            "overlap: clos 0, clos 1"


class TestDiffProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_sign_rule_and_conservation(self, seed):
        rng = random.Random(seed)
        m = machine(ways=rng.choice((8, 12, 20)), clos=rng.choice((2, 3, 4)))
        old = random_valid_set(rng, m)
        new = random_valid_set(rng, m)
        plan = diff(old, new)
        for e in plan.events:
            if plan.valid:
                assert e.delta_ways * e.delta_mba >= 0
            assert e.conflict == (e.delta_ways * e.delta_mba < 0)
        assert plan.valid == all(not e.conflict for e in plan.events)
        free_old = m.llc_ways - sum(c.width for c in old.configs)
        assert sum(e.delta_ways for e in plan.events) <= free_old

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_self_diff_empty(self, seed):
        rng = random.Random(seed)
        m = machine(ways=rng.choice((8, 20)), clos=rng.choice((2, 4)))
        cs = random_valid_set(rng, m)
        assert diff(cs, cs).events == ()
