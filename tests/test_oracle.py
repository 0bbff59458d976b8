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
from knapdep.oracle import solve_bruteforce, solve_exact, upper_bound
from knapdep.threshold import for_instance


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
