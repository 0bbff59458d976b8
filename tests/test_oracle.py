import itertools
import random
import tracemalloc

import pytest

from knapdep.core import (
    Instance,
    Item,
    ItemOption,
    KnapsackSpec,
    assignment_violations,
)
from knapdep.engine import run
from knapdep.instances import GenSpec, gen_uniform, generate
from knapdep.oracle import bruteforce_accepts, solve_bruteforce, solve_exact, upper_bound
from knapdep.threshold import for_instance

from test_properties import reference_solve_bruteforce


def opt(size, value, start, duration, eligible=True):
    return ItemOption(eligible, size, value, start, duration)


def single_knapsack(items, capacity=1.0, theta=8.0, horizon=10):
    ks = KnapsackSpec(capacity, theta, 1, 8, capacity)
    return Instance(horizon, (ks,), tuple(items))


def random_instance(seed, n=10, k=2, horizon=12, capacity=4.0):
    ks = KnapsackSpec(capacity, 4.0, 1, 3, capacity / 2)
    return gen_uniform(GenSpec("uniform", n, horizon, tuple([ks] * k), seed))


def enumerate_reference(inst):
    """Independent optimum: try every assignment vector via itertools."""
    K = inst.num_knapsacks
    best = 0.0
    for vector in itertools.product([None, *range(K)], repeat=inst.num_items):
        load = {}
        value = 0.0
        feasible = True
        for item, k in zip(inst.items, vector):
            if k is None:
                continue
            o = item.options[k]
            if not o.eligible:
                feasible = False
                break
            for t in o.slots():
                load[(k, t)] = load.get((k, t), 0.0) + o.size
                if load[(k, t)] > inst.knapsacks[k].capacity:
                    feasible = False
                    break
            if not feasible:
                break
            value += o.value
        if feasible and value > best:
            best = value
    return best


class TestBruteforce:
    def test_empty(self):
        sol = solve_bruteforce(single_knapsack([]))
        assert sol.objective == 0.0
        assert sol.proof == "exact"

    def test_single_item(self):
        items = [Item(0, 1, (opt(1.0, 7.0, 1, 2),))]
        sol = solve_bruteforce(single_knapsack(items))
        assert sol.objective == 7.0
        assert sol.assignment == (0,)

    def test_mutually_exclusive_pair(self):
        items = [
            Item(0, 1, (opt(1.0, 2.0, 1, 2),)),
            Item(1, 1, (opt(1.0, 3.0, 2, 2),)),  # overlap at slot 2
        ]
        sol = solve_bruteforce(single_knapsack(items))
        assert sol.objective == 3.0
        assert sol.assignment == (None, 0)

    def test_disjoint_pair(self):
        items = [
            Item(0, 1, (opt(1.0, 2.0, 1, 2),)),
            Item(1, 1, (opt(1.0, 3.0, 3, 2),)),
        ]
        sol = solve_bruteforce(single_knapsack(items))
        assert sol.objective == 5.0

    def test_conflict_triangle(self):
        # Three unit items on one slot, two unit knapsacks: any two of three
        # fit.  Expected objective from the independent 27-vector enumeration.
        ks = KnapsackSpec(1.0, 8.0, 1, 4, 1.0)
        items = [
            Item(i, 1, (opt(1.0, v, 5, 1), opt(1.0, v, 5, 1)))
            for i, v in enumerate([2.0, 3.0, 4.0])
        ]
        inst = Instance(10, (ks, ks), tuple(items))
        expected = enumerate_reference(inst)
        assert expected == 7.0  # max pairwise sum
        sol = solve_bruteforce(inst)
        assert sol.objective == expected

    def test_refuses_oversized(self):
        items = [
            Item(i, 1, (opt(1.0, 1.0, 1, 1),) * 3) for i in range(50)
        ]
        ks = KnapsackSpec(1.0, 8.0, 1, 4, 1.0)
        inst = Instance(10, (ks, ks, ks), tuple(items))
        with pytest.raises(ValueError, match="too large"):
            solve_bruteforce(inst)

    @pytest.mark.parametrize("k", [0, 1])
    def test_accepts_at_most_26_items_for_k_up_to_one(self, k):
        # (0 + 1)^N is 1 for any N: counting (max(K, 1) + 1)^N caps the
        # walk's depth with no knapsacks as with one.
        ks = KnapsackSpec(1.0, 8.0, 1, 4, 1.0)
        off = opt(0.0, 0.0, 1, 1, eligible=False)

        def inst(n):
            return Instance(1, (ks,) * k, tuple(Item(i, 1, (off,) * k) for i in range(n)))

        assert bruteforce_accepts(inst(26)) and not bruteforce_accepts(inst(27))
        assert solve_bruteforce(inst(26)).objective == 0.0
        with pytest.raises(ValueError, match=r"too large for brute force: N = 27,"):
            solve_bruteforce(inst(27))

    def test_float_tie_keeps_first_leaf(self):
        # 0.1 + 0.2 differs from 0.3, but both plus 1.0 give the same double:
        # the first leaf in visit order that attains it must stay the
        # answer, as in the plain enumeration, and no later equal leaf may
        # replace it.
        ks = KnapsackSpec(1.0, 8.0, 1, 4, 1.0)
        items = [
            Item(0, 1, (opt(0.5, 0.1, 1, 1),)),
            Item(1, 1, (opt(0.5, 0.2, 1, 1),)),
            Item(2, 1, (opt(1.0, 0.3, 1, 1),)),
            Item(3, 2, (opt(1.0, 1.0, 2, 1),)),
        ]
        inst = Instance(4, (ks,), tuple(items))
        assert 0.1 + 0.2 != 0.3 and (0.1 + 0.2) + 1.0 == 0.3 + 1.0
        sol = solve_bruteforce(inst)
        assert sol.assignment == (None, None, 0, 0)
        assert sol.objective == 0.3 + 1.0
        assert sol.nodes == 22
        assert sol.to_dict() == reference_solve_bruteforce(inst).to_dict()

    def test_rounding_gap_covered_by_slack(self):
        # Leaf (None, 0, 0, 0, 0, 0), found first, sums to 3.8 in item order.
        # Leaf (0, 0, 0, 0, 0, None) sums to 3.8000000000000003, but its
        # prefix value plus the remembered suffix-order gain rounds to 3.8.
        # Skipping on that sum alone, with no slack, would miss it.
        ks = KnapsackSpec(1.0, 8.0, 1, 4, 1.0)
        rows = [(0.25, 0.7, 1, 2), (0.5, 0.9, 1, 1), (0.25, 0.9, 1, 2),
                (1.0, 0.2, 3, 1), (0.5, 1.1, 2, 1), (0.25, 0.7, 2, 1)]
        inst = Instance(4, (ks,), tuple(Item(i, 1, (opt(*row),)) for i, row in enumerate(rows)))
        sol = solve_bruteforce(inst)
        assert sol.assignment == (0, 0, 0, 0, 0, None)
        assert sol.objective == 3.8000000000000003
        assert sol.to_dict() == reference_solve_bruteforce(inst).to_dict()

    def test_table_bounded_where_nothing_is_shared(self):
        # Every subset of 16 items fits on one slot that all of them read, so
        # no two prefixes share a subtree and the whole tree is walked; an
        # unbounded table would hold about 2**15 entries, several MB.
        ks = KnapsackSpec(10.0, 8.0, 1, 1, 10.0)
        items = [Item(i, 1, (opt(0.1, 0.5 + 0.01 * i, 1, 1),)) for i in range(16)]
        inst = Instance(2, (ks,), tuple(items))
        tracemalloc.start()
        try:
            sol = solve_bruteforce(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        total = 0.0
        for item in items:
            total += item.options[0].value
        assert sol.nodes == 2**17 - 1
        assert sol.objective == total
        assert sol.assignment == (0,) * 16
        assert peak < 2e6

    def test_table_bounded_where_the_slot_can_refuse(self):
        # 16 x 0.1 sum past the capacity of 1.55, so the slot can refuse and
        # every prefix keys its own subtree, the last item's included: the
        # table fills to its limit, and an unbounded one would hold about
        # 2**16 entries.  Only the full set does not fit.
        ks = KnapsackSpec(1.55, 8.0, 1, 1, 1.55)
        items = [Item(i, 1, (opt(0.1, 0.5 + 0.01 * i, 1, 1),)) for i in range(16)]
        inst = Instance(2, (ks,), tuple(items))
        tracemalloc.start()
        try:
            sol = solve_bruteforce(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.nodes == 2**17 - 2
        assert sol.assignment == (None,) + (0,) * 15
        assert sol.to_dict() == reference_solve_bruteforce(inst).to_dict()
        assert peak < 2e6

    @pytest.mark.parametrize("sizes, nodes, fits", [
        ((0.3, 0.2, 0.1), 21, True),
        ((0.1, 0.2, 0.3), 20, False),
    ])
    def test_slot_refuses_only_past_its_item_order_sum(self, sizes, nodes, fits):
        # Items 0-2 request one slot of knapsack 1, capacity 0.6.  Summed in
        # item order, (0.3, 0.2, 0.1) give exactly 0.6, so the slot never
        # refuses and all three fit; (0.1, 0.2, 0.3) give 0.6000000000000001,
        # so the third is refused; summed in reverse order or by math.fsum
        # they give 0.6.  Item 1's option on knapsack 0, worth more and
        # visited first, lifts the incumbent past the branch that puts items
        # 0 and 1 on the slot, so a key blind to the slot would count that
        # branch from an earlier one where item 2 fits.
        specs = (KnapsackSpec(1.0, 8.0, 1, 1, 1.0), KnapsackSpec(0.6, 8.0, 1, 1, 0.6))
        off = opt(1.0, 1.0, 1, 1, eligible=False)
        decoys = (off, opt(0.5, 2.0, 1, 1), off)
        inst = Instance(1, specs, tuple(
            Item(i, 1, (decoy, opt(size, 1.0, 1, 1))) for i, (decoy, size) in enumerate(zip(decoys, sizes))
        ))
        sol = solve_bruteforce(inst)
        assert sol.to_dict() == reference_solve_bruteforce(inst).to_dict()
        assert sol.assignment == (1, 0, 1)
        assert sol.objective == 4.0
        assert sol.nodes == nodes
        assert (assignment_violations(inst, (1, 1, 1)) == []) is fits


class TestExact:
    def test_mutually_exclusive_pair(self):
        items = [
            Item(0, 1, (opt(1.0, 2.0, 1, 2),)),
            Item(1, 1, (opt(1.0, 3.0, 2, 2),)),
        ]
        assert solve_exact(single_knapsack(items)).objective == 3.0

    def test_disjoint_pair(self):
        items = [
            Item(0, 1, (opt(1.0, 2.0, 1, 2),)),
            Item(1, 1, (opt(1.0, 3.0, 3, 2),)),
        ]
        assert solve_exact(single_knapsack(items)).objective == 5.0

    def test_matches_reference_small(self):
        for seed in range(8):
            inst = random_instance(seed, n=6, k=2)
            expected = enumerate_reference(inst)
            assert solve_exact(inst).objective == expected

    def test_matches_bruteforce_seed7(self):
        inst = random_instance(7, n=10, k=2)
        assert solve_exact(inst).objective == solve_bruteforce(inst).objective

    def test_equivalence_sweep(self):
        rng = random.Random(123)
        for _ in range(40):
            n = rng.randint(0, 9)
            k = rng.randint(1, 3)
            inst = random_instance(rng.randint(0, 10**6), n=n, k=k)
            exact = solve_exact(inst)
            brute = solve_bruteforce(inst)
            assert exact.objective == brute.objective
            assert exact.proof == "exact"

    def test_assignment_feasible(self):
        for seed in (1, 5, 9):
            inst = random_instance(seed, n=12, k=2)
            sol = solve_exact(inst)
            assert assignment_violations(inst, list(sol.assignment)) == []
            replay = sum(
                inst.items[i].options[k].value
                for i, k in enumerate(sol.assignment)
                if k is not None
            )
            assert replay == pytest.approx(sol.objective, abs=1e-9)

    def test_permutation_stable_objective(self):
        base = random_instance(21, n=9, k=2)
        reference = solve_exact(base).objective
        rng = random.Random(0)
        items = list(base.items)
        for _ in range(5):
            rng.shuffle(items)
            # Arrivals must stay nondecreasing; the oracle does not read them.
            shuffled = Instance(
                base.horizon, base.knapsacks,
                tuple(Item(it.id, 1, it.options) for it in items),
            )
            assert solve_exact(shuffled).objective == pytest.approx(
                reference, abs=1e-9
            )

    def test_budget_exhaustion_is_explicit(self):
        inst = random_instance(2, n=12, k=3)
        sol = solve_exact(inst, node_budget=5)
        assert sol.proof == "upper-bound-only"
        full = solve_exact(inst)
        assert full.proof == "exact"
        assert sol.objective <= full.objective
        assert sol.bound >= full.objective

    @pytest.mark.parametrize(
        "family, n, horizon", [("uniform", 24, 20), ("burst", 32, 20), ("uniform", 60, 40)]
    )
    def test_budget_bound_not_looser_than_upper_bound(self, family, n, horizon):
        # Here the refused subtrees' value sum exceeds the root relaxation
        # (e.g. 1588.1 vs 864.0 for burst n=32); the tighter one is reported.
        ks = KnapsackSpec(4.0, 8.0, 2, 6, 4.0)
        inst = generate(GenSpec(family, n, horizon, (ks, ks), 11))[0]
        sol = solve_exact(inst, node_budget=15_000)
        assert sol.proof == "upper-bound-only"
        assert sol.bound == max(sol.objective, upper_bound(inst))
        assert sol.objective <= sol.bound

    def test_node_count_reported(self):
        inst = random_instance(3, n=6, k=1)
        assert solve_exact(inst).nodes > 0

    def test_proves_at_bench_exact_cutoff(self):
        # n = 18 is bench's default exact_cutoff, on the benchmark's oracle
        # shape (K = 2, capacity 4, T = 20), under bench's default budget.
        ks = KnapsackSpec(4.0, 8.0, 2, 6, 4.0)
        inst = generate(GenSpec("burst", 18, 20, (ks, ks), 3))[0]
        sol = solve_exact(inst, node_budget=5_000_000)
        assert sol.proof == "exact"
        assert assignment_violations(inst, list(sol.assignment)) == []

    def test_search_deeper_than_recursion_limit(self):
        # `gen --n 1500 --k 1 --t 3000 --capacity 10 --theta 8 --eps 2
        # --seed 1`: the first 1200 nodes run down one path 1200 items deep.
        ks = KnapsackSpec(10.0, 8.0, 1, 2, 2.0)
        inst = gen_uniform(GenSpec("uniform", 1500, 3000, (ks,), 1))
        sol = solve_exact(inst, node_budget=1200)
        assert sol.proof == "upper-bound-only"
        assert sol.nodes == 1201
        assert assignment_violations(inst, list(sol.assignment)) == []
        assert sol.objective <= sol.bound

    @pytest.mark.xfail(
        strict=True,
        reason="the depth-first dive spends the budget before any leaf, so the "
        "incumbent stays empty; a greedy warm start should fix this",
    )
    def test_budget_bound_solve_reaches_the_online_profit(self):
        # The same instance: `opt --node-budget 1200` reports 0.0 where `run`
        # earns 9954.1.
        ks = KnapsackSpec(10.0, 8.0, 1, 2, 2.0)
        inst = gen_uniform(GenSpec("uniform", 1500, 3000, (ks,), 1))
        online = run(inst, for_instance(inst)).profit
        assert solve_exact(inst, node_budget=1200).objective >= online

    def test_budget_bound_solve_memory_stays_small(self):
        # A stream-sized instance (K=4, T=2000, n=2000) with a tiny budget:
        # set-up memory must not grow with items x knapsacks x slots.
        ks = KnapsackSpec(10.0, 8.0, 4, 16, 2.0)
        inst = gen_uniform(GenSpec("uniform", 2000, 2000, (ks,) * 4, 1))
        tracemalloc.start()
        try:
            sol = solve_exact(inst, node_budget=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.proof == "upper-bound-only"
        assert peak < 50e6


class TestUpperBound:
    def test_single_item_tight(self):
        items = [Item(0, 1, (opt(1.0, 7.0, 1, 2),))]
        inst = single_knapsack(items)
        assert upper_bound(inst) == 7.0

    def test_all_fit_first_term(self):
        items = [
            Item(0, 1, (opt(0.1, 0.4, 1, 2),)),
            Item(1, 2, (opt(0.1, 0.6, 4, 2),)),
        ]
        inst = single_knapsack(items)
        assert upper_bound(inst) >= solve_bruteforce(inst).objective
        assert upper_bound(inst) == pytest.approx(1.0)  # sum of best values

    def test_dominates_bruteforce(self):
        inst = random_instance(7, n=10, k=2)
        assert upper_bound(inst) >= solve_bruteforce(inst).objective - 1e-12
        for seed in range(15):
            inst = random_instance(seed, n=8, k=2)
            assert upper_bound(inst) >= solve_bruteforce(inst).objective - 1e-12

    def test_dominates_exact(self):
        for seed in range(10):
            inst = random_instance(seed + 100, n=12, k=2)
            sol = solve_exact(inst)
            assert sol.proof == "exact"
            assert upper_bound(inst) >= sol.objective - 1e-12

    def test_empty(self):
        assert upper_bound(single_knapsack([])) == 0.0


class TestStructuralBoundaries:
    """Instances at the edges of the structural rules ``Instance`` enforces."""

    def test_window_ending_at_horizon_keeps_its_own_slots(self):
        # Slot keys are k * (horizon + 1) + t: the last slot of knapsack 0
        # and the first of knapsack 1 stay apart.
        ks = KnapsackSpec(4.0, 2.0, 1, 4, 4.0)
        off = opt(0.0, 0.0, 1, 1, eligible=False)
        items = [
            Item(0, 1, (opt(4.0, 8.0, 4, 2), off)),  # slots 4-5, horizon 5
            Item(1, 1, (off, opt(4.0, 8.0, 1, 1))),
        ]
        inst = Instance(5, (ks, ks), tuple(items))
        exact = solve_exact(inst)
        assert exact.proof == "exact"
        assert exact.objective == solve_bruteforce(inst).objective == 16.0
        assert exact.objective >= run(inst, for_instance(inst)).profit
        assert upper_bound(inst) >= exact.objective
        with pytest.raises(ValueError, match="window ends at 6, beyond horizon 5"):
            Instance(5, (ks, ks), (Item(0, 1, (opt(4.0, 8.0, 5, 2), off)),))

    def test_zero_size_option_refused(self):
        with pytest.raises(ValueError, match="nonpositive size 0.0"):
            single_knapsack([Item(0, 1, (opt(0.0, 1.0, 1, 1),))])
        # The smallest positive size has a density that overflows to inf
        # (and 1.0 + 5e-324 == 1.0, so both items fit): neither bound may
        # then cut off the optimum.
        tiny, full = opt(5e-324, 1.0, 1, 1), opt(1.0, 2.0, 1, 1)
        for first, second in ((tiny, full), (full, tiny)):
            inst = single_knapsack([Item(0, 1, (first,)), Item(1, 1, (second,))])
            exact = solve_exact(inst)
            assert exact.objective == solve_bruteforce(inst).objective == 3.0
            assert upper_bound(inst) >= exact.objective
            assert solve_exact(inst, node_budget=1).bound >= exact.objective


def drift_instance():
    """One slot of capacity 1.3 and five items on it, sizes in tenths.

    The optimum is 9.5 (sizes 0.9 and 0.4).  Tenths are not exact in
    binary, so a search that undoes a placement by subtracting its size
    from the float load sees a load slightly off after some backtracks,
    and then refuses 0.9 + 0.4.
    """
    ks = KnapsackSpec(1.3, 8.0, 1, 1, 1.3)
    pairs = [(1.1, 6.0), (0.6, 4.0), (0.2, 0.5), (0.9, 7.0), (0.4, 2.5)]
    return Instance(
        1, (ks,), tuple(Item(i, 1, (opt(s, v, 1, 1),)) for i, (s, v) in enumerate(pairs))
    )


def product_optimum(inst):
    """The best objective over every vector ``assignment_violations`` accepts.

    Values are summed in item order, as both solvers sum them.
    """
    best = 0.0
    for vector in itertools.product([None, *range(inst.num_knapsacks)], repeat=inst.num_items):
        if assignment_violations(inst, vector) == []:
            value = 0.0
            for item, k in zip(inst.items, vector):
                if k is not None:
                    value += item.options[k].value
            best = max(best, value)
    return best


class TestExactRestore:
    """Loads are restored exactly on backtrack, so feasibility agrees with
    ``assignment_violations`` for float sizes that are not exact in binary.
    """

    def test_five_items_on_one_slot(self):
        inst = drift_instance()
        assert product_optimum(inst) == 9.5
        for sol in (solve_exact(inst), solve_bruteforce(inst)):
            assert sol.proof == "exact"
            assert sol.objective == sol.bound == 9.5
            assert sol.assignment == (None, None, None, 0, 0)

    def test_tenths_sized_draws(self):
        rng = random.Random(10)
        for _ in range(300):
            k = rng.randint(1, 2)
            capacity = rng.randint(9, 13) / 10
            ks = KnapsackSpec(capacity, 8.0, 1, 1, capacity)
            items = tuple(
                Item(i, 1, tuple(
                    opt(rng.randint(1, 12) / 10, rng.randint(1, 16) / 2, 1, 1)
                    for _ in range(k)
                ))
                for i in range(rng.randint(3, 5))
            )
            inst = Instance(1, (ks,) * k, items)
            optimum = product_optimum(inst)
            for sol in (solve_exact(inst), solve_bruteforce(inst)):
                assert sol.objective == optimum, inst
                assert assignment_violations(inst, sol.assignment) == []


class TestWatchedSlot:
    """Each option's fit test reads one watched slot, first its window's
    start, and takes the window's max only when that slot has room; when the
    max blocks, the watch moves to the blocking slot.  A watch one branch
    leaves is stale in the next, where the slot may have room again.
    """

    @staticmethod
    def solved(inst, search, objective, nodes):
        sol = search(inst)
        assert sol.objective == sol.bound == objective
        assert sol.assignment == (0, None, 0)
        assert sol.nodes == nodes
        assert sol.proof == "exact"
        assert assignment_violations(inst, sol.assignment) == []
        exact, brute = solve_exact(inst), solve_bruteforce(inst)
        assert (exact.objective, exact.assignment) == (brute.objective, brute.assignment)

    @pytest.mark.parametrize("search, nodes", [(solve_exact, 6), (solve_bruteforce, 13)])
    def test_blocked_watch_has_room_in_a_later_branch(self, search, nodes):
        # Item 1 fills slot 2, the watched start of item 2's window 2-3, so
        # the branch that places item 1 refuses item 2 on that one read.  The
        # optimum declines item 1 and takes item 2, through the same watch.
        ks = KnapsackSpec(1.0, 8.0, 1, 4, 1.0)
        rows = [(1.0, 2.0, 1, 1), (1.0, 1.0, 2, 1), (1.0, 4.0, 2, 2)]
        inst = Instance(4, (ks,), tuple(Item(i, 1, (opt(*row),)) for i, row in enumerate(rows)))
        self.solved(inst, search, 6.0, nodes)

    @pytest.mark.parametrize("search, nodes", [(solve_exact, 6), (solve_bruteforce, 13)])
    def test_watch_moves_to_the_blocking_slot(self, search, nodes):
        # Item 2's window is slots 3-5.  Where item 1 fills slot 4, slot 3 has
        # room but the max blocks, so the watch moves to slot 4, not to slot
        # 1 (the offset of 4 in the window), which item 0 fills where the
        # optimum, items 0 and 2, is found.
        ks = KnapsackSpec(1.0, 8.0, 1, 4, 1.0)
        rows = [(1.0, 2.0, 1, 1), (1.0, 1.0, 4, 1), (1.0, 5.0, 3, 3)]
        inst = Instance(6, (ks,), tuple(Item(i, 1, (opt(*row),)) for i, row in enumerate(rows)))
        self.solved(inst, search, 7.0, nodes)
