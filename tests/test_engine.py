import gc
import math
import sys
import tracemalloc

import pytest

from knapdep.core import (
    Instance,
    Item,
    ItemOption,
    KnapsackSpec,
    UtilizationState,
    assignment_violations,
)
from knapdep.engine import Decision, KnapsackAudit, run, step
from knapdep.instances import GenSpec, gen_uniform
from knapdep.stream import StreamedInstance
from knapdep.threshold import ExponentialThreshold, for_instance

LN9 = 2.1972245773362196


def flat(gamma=LN9, capacity=10.0):
    return ExponentialThreshold(gamma=gamma, capacity=capacity)


def check(value, size, start, duration, fn, utilization, capacity):
    """One admission check through ``step``: (admissible, phi).

    A single-knapsack item over a state seeded with ``utilization[i]`` in
    slot ``start + i``; each seed is added to 0.0, which is exact.
    """
    option = ItemOption(True, size, value, start, duration)
    state = UtilizationState(1, option.end)
    for t, z in zip(option.slots(), utilization):
        state.add(0, t, 1, z)
    item = Item(0, 1, (option,))
    assert fn.capacity == capacity
    decision = step(item, state, [fn])
    (entry,) = decision.entries
    assert decision.admitted == entry.admissible
    return entry.admissible, entry.phi


class TestAdmit:
    def test_empty_knapsack_admits(self):
        ok, phi = check(5.0, 1.0, 1, 3, flat(), [0.0, 0.0, 0.0], 10.0)
        assert ok and phi == 0.0

    def test_half_full_rejects_on_value(self):
        # phi(C/2) = 2 at gamma = ln9, so the charge is 3 slots * 1 * 2 = 6 > 5.
        ok, phi = check(5.0, 1.0, 1, 3, flat(), [5.0, 5.0, 5.0], 10.0)
        assert not ok
        assert phi == pytest.approx(6.0, rel=1e-12)

    def test_capacity_clause_dominates(self):
        ok, _ = check(100.0, 2.0, 4, 1, flat(), [9.0], 10.0)
        assert not ok

    def test_tie_admits(self):
        fn = flat(gamma=math.log(2.0), capacity=1.0)
        z = 0.5
        # value == charge exactly and z + size == capacity exactly: both admit.
        ok, _ = check((1.0 - z) * fn.eval(z), 1.0 - z, 1, 1, fn, [z], 1.0)
        assert ok


def two_knapsack_item(v1, v2, size=1.0, start=1, duration=1):
    return Item(
        0,
        1,
        (
            ItemOption(True, size, v1, start, duration),
            ItemOption(True, size, v2, start, duration),
        ),
    )


class TestStep:
    def test_argmax_value(self):
        thresholds = [flat(), flat()]
        state = UtilizationState(2, 1)
        decision = step(two_knapsack_item(3.0, 5.0), state, thresholds)
        assert decision.knapsack == 1

    def test_tie_lowest_index(self):
        thresholds = [flat(), flat()]
        state = UtilizationState(2, 1)
        decision = step(two_knapsack_item(4.0, 4.0), state, thresholds)
        assert decision.knapsack == 0

    def test_neither_admissible_leaves_state(self):
        thresholds = [flat(), flat()]
        state = UtilizationState(2, 1)
        state.add(0, 1, 1, 9.5)
        state.add(1, 1, 1, 9.5)
        decision = step(two_knapsack_item(4.0, 4.0), state, thresholds)
        assert decision.knapsack is None
        assert state.window(0, 1, 1) == state.window(1, 1, 1) == [9.5]
        assert all(not e.fits for e in decision.entries)

    def test_ineligible_never_queried(self):
        thresholds = [flat(), flat()]
        item = Item(
            0,
            1,
            (
                ItemOption(False, 0.0, 0.0, 1, 1),
                ItemOption(True, 1.0, 2.0, 1, 1),
            ),
        )
        state = UtilizationState(2, 1)
        decision = step(item, state, thresholds)
        assert decision.knapsack == 1
        assert [e.knapsack for e in decision.entries] == [1]

    def test_one_record_per_item(self):
        # The decision carries its checks, one per eligible knapsack in
        # index order, and a run's audits are its decisions.
        item = Item(
            0,
            1,
            (
                ItemOption(True, 1.0, 2.0, 1, 1),
                ItemOption(False, 0.0, 0.0, 1, 1),
                ItemOption(True, 1.0, 3.0, 1, 1),
            ),
        )
        state = UtilizationState(3, 1)
        state.add(2, 1, 1, 9.5)
        decision = step(item, state, [flat(), flat(), flat()])
        assert isinstance(decision, Decision)
        checks = (
            KnapsackAudit(0, 0.0, True, True),
            KnapsackAudit(2, flat().eval(9.5), False, False),
        )
        assert decision == (0, 0, checks)
        inst = uniform_instance(seed=3)
        result = run(inst, for_instance(inst))
        assert result.audits is result.decisions

    @pytest.mark.parametrize(
        "start, duration, message",
        [
            (2, 4, "window 2..5 is outside slots 1..3"),
            (0, 2, "window 0..1 is outside slots 1..3"),
            (2, 0, "window duration must be >= 1, got 0"),
        ],
    )
    def test_window_outside_the_slots_refused(self, start, duration, message):
        # An Instance never holds such a window; a bare step is refused too,
        # before it charges or commits anything.
        state = UtilizationState(1, 3)
        state.add(0, 1, 3, 1.0)
        item = Item(0, 1, (ItemOption(True, 1.0, 100.0, start, duration),))
        with pytest.raises(ValueError) as info:
            step(item, state, [flat()])
        assert str(info.value) == message
        with pytest.raises(ValueError):
            state.add(0, start, duration, 1.0)
        assert state.window(0, 1, 3) == [1.0, 1.0, 1.0]
        assert list(state.covered(0)) == [(1, 1.0), (2, 1.0), (3, 1.0)]


def uniform_instance(seed, n=20, k=1, horizon=30, theta=4.0, capacity=10.0):
    ks = KnapsackSpec(capacity, theta, 1, 4, capacity / 2)
    return gen_uniform(GenSpec("uniform", n, horizon, tuple([ks] * k), seed))


def replay_decisions(inst, thresholds):
    """Independent step-by-step trace: direct predicate evaluation per item.

    Returns the decisions, the profit and, per item, the audit entries as
    (knapsack, phi, fits, admissible) tuples.  Charges are added left to
    right in slot order, not with builtin sum(), which is compensated from
    Python 3.12 on.
    """
    z = [dict() for _ in range(inst.num_knapsacks)]
    decisions = []
    audits = []
    profit = 0.0
    for item in inst.items:
        candidates = []
        entries = []
        for k, opt in enumerate(item.options):
            if not opt.eligible:
                continue
            fn = thresholds[k]
            phi = 0.0
            for t in opt.slots():
                phi += opt.size * fn.eval(z[k].get(t, 0.0))
            fits = all(
                z[k].get(t, 0.0) + opt.size <= inst.knapsacks[k].capacity
                for t in opt.slots()
            )
            entries.append((k, phi, fits, opt.value >= phi and fits))
            if opt.value >= phi and fits:
                candidates.append((k, opt.value))
        audits.append(entries)
        if candidates:
            best_value = max(v for _, v in candidates)
            chosen = min(k for k, v in candidates if v == best_value)
            opt = item.options[chosen]
            for t in opt.slots():
                z[chosen][t] = z[chosen].get(t, 0.0) + opt.size
            profit += opt.value
            decisions.append(chosen)
        else:
            decisions.append(None)
    return decisions, profit, audits


class TestRun:
    def test_empty_instance(self):
        ks = KnapsackSpec(10.0, 4.0, 1, 4, 10.0)
        inst = Instance(10, (ks,), ())
        result = run(inst, [flat()])
        assert result.profit == 0.0
        assert result.decisions == []

    def test_single_fitting_item(self):
        ks = KnapsackSpec(10.0, 4.0, 1, 4, 10.0)
        item = Item(0, 1, (ItemOption(True, 1.0, 7.0, 1, 2),))
        inst = Instance(10, (ks,), (item,))
        result = run(inst, [flat()])
        assert result.profit == 7.0
        assert result.decisions[0].knapsack == 0

    def test_seed42_matches_replay(self):
        inst = uniform_instance(seed=42, n=20, k=2)
        thresholds = for_instance(inst)
        result = run(inst, thresholds)
        expected_decisions, expected_profit, _ = replay_decisions(inst, thresholds)
        assert [d.knapsack for d in result.decisions] == expected_decisions
        assert result.profit == expected_profit

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("seed", [0, 5, 17, 42])
    def test_every_audit_entry_matches_replay(self, k, seed):
        inst = uniform_instance(seed=seed, n=60, k=k, horizon=40)
        thresholds = for_instance(inst)
        result = run(inst, thresholds)
        expected_decisions, expected_profit, expected_audits = replay_decisions(
            inst, thresholds
        )
        assert [d.knapsack for d in result.decisions] == expected_decisions
        assert result.profit == expected_profit
        got = [
            [(e.knapsack, e.phi, e.fits, e.admissible) for e in decision.entries]
            for decision in result.decisions
        ]
        assert got == expected_audits

    def test_window_past_horizon_refused(self):
        # A window may end on the horizon, where it is charged against its
        # real load and recorded; one slot less of horizon and the
        # instance cannot be built.
        ks = KnapsackSpec(10.0, 4.0, 1, 4, 10.0)
        items = (
            Item(0, 1, (ItemOption(True, 4.0, 50.0, 3, 4),)),
            Item(1, 2, (ItemOption(True, 7.0, 90.0, 6, 3),)),
            Item(2, 2, (ItemOption(True, 5.0, 90.0, 8, 2),)),
        )
        result = run(Instance(9, (ks,), items), [flat()])
        assert result.assignment() == [0, None, 0]
        assert result.decisions[1].entries[0].fits is False  # 4 + 7 > 10 at slot 6
        assert result.decisions[2].entries[0].phi == 5.0 * flat().eval(0.0) * 2
        assert result.to_dict()["utilization"] == {
            "0": {"3": 4.0, "4": 4.0, "5": 4.0, "6": 4.0, "8": 5.0, "9": 5.0}
        }
        with pytest.raises(ValueError, match="item 2, knapsack 0: window ends at 9, beyond horizon 8"):
            Instance(8, (ks,), items)

    def test_zero_size_option_refused(self):
        ks = KnapsackSpec(10.0, 4.0, 1, 4, 10.0)
        later = Item(1, 1, (ItemOption(True, 1.0, 5.0, 5, 1),))
        zero = Item(0, 1, (ItemOption(True, 0.0, 1.0, 2, 2),))
        with pytest.raises(ValueError, match="item 0, knapsack 0: nonpositive size 0.0"):
            Instance(10, (ks,), (zero, later))
        # The smallest positive size is admitted, and its slots are listed.
        tiny = Item(0, 1, (ItemOption(True, 5e-324, 1.0, 2, 2),))
        result = run(Instance(10, (ks,), (tiny, later)), [flat()])
        assert result.assignment() == [0, 0]
        utilization = result.to_dict()["utilization"]["0"]
        assert utilization == {"2": 5e-324, "3": 5e-324, "5": 1.0}

    def test_threshold_capacity_mismatch(self):
        ks = KnapsackSpec(10.0, 4.0, 1, 4, 10.0)
        inst = Instance(10, (ks,), ())
        with pytest.raises(ValueError, match="capacity"):
            run(inst, [flat(capacity=5.0)])

    def test_threshold_count_mismatch(self):
        ks = KnapsackSpec(10.0, 4.0, 1, 4, 10.0)
        with pytest.raises(ValueError, match=r"^expected 2 thresholds, got 1$"):
            run(Instance(10, (ks, ks), ()), [flat()])

    def test_deterministic(self):
        inst = uniform_instance(seed=9, n=30, k=2)
        thresholds = for_instance(inst)
        a = run(inst, thresholds)
        b = run(inst, thresholds)
        assert a.to_dict() == b.to_dict()


class TestRunInvariants:
    def test_feasibility_over_seeds(self):
        for seed in range(25):
            inst = uniform_instance(seed=seed, n=40, k=3, horizon=25)
            result = run(inst, for_instance(inst))
            assert assignment_violations(inst, result.assignment()) == []

    def test_never_beats_offline_optimum(self):
        from knapdep.oracle import solve_exact

        for seed in range(15):
            inst = uniform_instance(seed=seed + 200, n=10, k=2)
            alg = run(inst, for_instance(inst)).profit
            sol = solve_exact(inst)
            assert sol.proof == "exact"
            assert alg <= sol.objective + 1e-9

    def test_profit_matches_decisions(self):
        inst = uniform_instance(seed=3, n=25)
        result = run(inst, for_instance(inst))
        total = sum(
            inst.items[i].options[d.knapsack].value
            for i, d in enumerate(result.decisions)
            if d.admitted
        )
        assert result.profit == pytest.approx(total, abs=1e-9)

    def test_audit_phi_consistent(self):
        # Admitted: recorded phi <= value.  Declined with capacity room: phi > value.
        for seed in (1, 2, 3):
            inst = uniform_instance(seed=seed, n=30)
            result = run(inst, for_instance(inst))
            for item, decision in zip(inst.items, result.decisions):
                for entry in decision.entries:
                    value = item.options[entry.knapsack].value
                    if decision.knapsack == entry.knapsack:
                        assert entry.phi <= value
                    elif entry.fits and not decision.admitted:
                        assert entry.phi > value

    def test_monotone_utilization(self):
        inst = uniform_instance(seed=8, n=30)
        thresholds = for_instance(inst)
        state = UtilizationState(1, inst.horizon)
        previous = state.window(0, 1, inst.horizon)
        for item in inst.items:
            step(item, state, thresholds)
            current = state.window(0, 1, inst.horizon)
            assert all(now >= before for now, before in zip(current, previous))
            previous = current

    def test_value_raise_flips_declined_item(self):
        # Raising a declined item's value to its recorded charge admits it.
        for seed in range(30):
            inst = uniform_instance(seed=seed, n=25)
            thresholds = for_instance(inst)
            result = run(inst, thresholds)
            target = None
            for i, decision in enumerate(result.decisions):
                if decision.admitted:
                    continue
                feasible = [e for e in decision.entries if e.fits]
                if feasible:
                    target = (i, feasible[0])
                    break
            if target is None:
                continue
            i, entry = target
            old = inst.items[i]
            boosted_options = list(old.options)
            boosted_options[entry.knapsack] = ItemOption(
                True,
                old.options[entry.knapsack].size,
                entry.phi,  # ties admit
                old.options[entry.knapsack].start,
                old.options[entry.knapsack].duration,
            )
            items = list(inst.items)
            items[i] = Item(old.id, old.arrival, tuple(boosted_options))
            boosted = Instance(inst.horizon, inst.knapsacks, tuple(items))
            new_result = run(boosted, thresholds)
            assert new_result.decisions[i].admitted
            return
        pytest.fail("no declined-but-feasible item found across seeds")


class TestDecisionsView:
    """``RunResult.decisions`` reads as a sequence of records built from columns."""

    @pytest.fixture
    def result_and_steps(self):
        inst = uniform_instance(seed=11, n=30, k=2)
        thresholds = for_instance(inst)
        state = UtilizationState(inst.num_knapsacks, inst.horizon)
        stepped = [step(item, state, thresholds) for item in inst.items]
        return run(inst, thresholds), stepped

    def test_len_and_index(self, result_and_steps):
        result, stepped = result_and_steps
        decisions = result.decisions
        assert len(decisions) == len(stepped) == 30
        assert decisions[0] == stepped[0]
        assert decisions[29] == stepped[29]
        assert decisions[-1] == stepped[-1]
        assert decisions[-30] == stepped[0]
        assert isinstance(decisions[3], Decision)
        assert all(isinstance(e, KnapsackAudit) for e in decisions[3].entries)
        for index in (30, -31):
            with pytest.raises(IndexError):
                decisions[index]

    def test_slice(self, result_and_steps):
        result, stepped = result_and_steps
        assert result.decisions[5:9] == stepped[5:9]
        assert result.decisions[::-4] == stepped[::-4]
        assert result.decisions[40:] == []

    def test_iteration_equals_stepping(self, result_and_steps):
        result, stepped = result_and_steps
        assert list(result.decisions) == stepped
        assert [d.knapsack for d in result.decisions] == result.assignment()
        assert any(d.admitted for d in stepped) and not all(d.admitted for d in stepped)

    def test_equality_either_side(self, result_and_steps):
        result, stepped = result_and_steps
        assert result.decisions == stepped
        assert stepped == result.decisions
        assert tuple(stepped) == result.decisions
        changed = list(stepped)
        first = changed[0]
        changed[0] = first._replace(item_id=first.item_id + 1)
        assert result.decisions != changed
        assert changed != result.decisions
        assert result.decisions != stepped[:-1]
        assert stepped[:-1] != result.decisions

    def test_no_items(self):
        ks = KnapsackSpec(10.0, 4.0, 1, 4, 10.0)
        result = run(Instance(10, (ks,), ()), [flat()])
        assert len(result.decisions) == 0
        assert result.decisions == [] and [] == result.decisions
        assert not result.decisions == 3 and result.decisions != 3  # not a sequence
        assert list(result.decisions) == []
        assert result.assignment() == []
        with pytest.raises(IndexError):
            result.decisions[0]


def test_run_holds_columns_not_records():
    # A stream-dense-shaped run: 10 000 items on K = 4, T = 2000.  As one
    # record per item and check, the result held 5.9 MB; as columns, 1 MB.
    ks = KnapsackSpec(capacity=10.0, theta=8.0, duration_lo=4, duration_hi=16, size_cap=2.0)
    inst = gen_uniform(GenSpec("uniform", 10_000, 2_000, (ks,) * 4, seed=1))
    thresholds = for_instance(inst)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = run(inst, thresholds)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result.decisions) == 10_000
    assert held <= 2_000_000


def test_run_holds_no_id_per_item_while_ids_run_on():
    # 20 000 streamed items, each id a new int past the cached small ones.
    # As a list the ids held about 0.8 MB (a pointer and an int object per
    # item); while they run on by one they are a range, so what the run
    # holds is its other columns.
    ks = KnapsackSpec(capacity=10.0, theta=8.0, duration_lo=1, duration_hi=1, size_cap=1.0)
    options = (ItemOption(True, 1.0, 1.0, 1, 1),)
    items = (Item(10**6 + i, 1, options) for i in range(20_000))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = run(StreamedInstance(1, (ks,), items), for_instance(Instance(1, (ks,), ())))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    columns = result.decisions
    other = (columns.chosen, columns.ends, columns.knapsacks, columns.phis, columns.flags)
    assert columns.ids == range(10**6, 10**6 + 20_000)
    assert held - sum(map(sys.getsizeof, other)) <= 50_000


@pytest.mark.parametrize("ids", [
    [5, 3, 2**64 + 7, 9, 10, 11],  # off the run at once, then on by one
    [2**64, 2**64 + 1, 2**64 + 2],  # a run past 2**64
    [-2, -1, 0, 1, 4, 2],  # a run through 0, then off it
    [7],
    [],
])
def test_ids_round_trip(ids):
    ks = KnapsackSpec(10.0, 4.0, 1, 4, 10.0)
    inst = Instance(10, (ks,), tuple(Item(i, 1, (ItemOption(True, 1.0, 8.0, 1, 2),)) for i in ids))
    result = run(inst, [flat()])
    assert list(result.decisions.ids) == [d.item_id for d in result.decisions] == ids
    assert [record["id"] for record in result.to_dict()["decisions"]] == ids


@pytest.mark.parametrize("item_id", [True, 2.5, "a", 2**64])
def test_step_keeps_any_id(item_id):
    # step checks no id; whatever it is given it returns, and writes.
    item = Item(item_id, 1, (ItemOption(True, 1.0, 8.0, 1, 2),))
    decision = step(item, UtilizationState(1, 4), [flat()])
    assert decision.item_id == item_id and type(decision.item_id) is type(item_id)


def test_sparse_run_holds_doubles_not_floats():
    # A stream-sparse-shaped run: 20 000 items on K = 1, T = 500 000.  With
    # a row of float objects the run held 8.2 MB; a row of C doubles is
    # 4 MB, the rest the run's columns.
    ks = KnapsackSpec(capacity=10.0, theta=8.0, duration_lo=4, duration_hi=16, size_cap=2.0)
    inst = gen_uniform(GenSpec("uniform", 20_000, 500_000, (ks,), seed=1))
    thresholds = for_instance(inst)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = run(inst, thresholds)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(1 for _ in result.state.covered(0)) > 100_000
    assert held <= 6_000_000


class TestRunResultJson:
    def test_serialization_shape(self):
        inst = uniform_instance(seed=4, n=6)
        result = run(inst, for_instance(inst))
        data = result.to_dict()
        assert set(data) == {"profit", "decisions", "utilization"}
        for record in data["decisions"]:
            assert set(record) == {"id", "admitted", "knapsack", "phi", "audit"}
            if record["admitted"]:
                assert record["phi"] is not None
            else:
                assert record["knapsack"] is None


class ExplodingThreshold(ExponentialThreshold):
    def eval(self, z):
        if z == 0.0:  # the phi(0) = 0 that run checks before its loop
            return 0.0
        raise RuntimeError("eval failed")


class TestCollectorPause:
    def test_state_restored_after_run(self, collector):
        inst = uniform_instance(seed=5, n=30, k=2)
        run(inst, for_instance(inst))
        assert gc.isenabled() is collector

    def test_state_restored_when_the_loop_raises(self, collector):
        inst = uniform_instance(seed=5, n=30)
        with pytest.raises(RuntimeError, match="eval failed"):
            run(inst, [ExplodingThreshold(gamma=LN9, capacity=10.0)])
        assert gc.isenabled() is collector
