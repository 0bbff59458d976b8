"""Offline optimum for the slotted assignment problem.

Three routes: an exact depth-first branch-and-bound (`solve_exact`), an
exhaustive enumerator used purely as an independent cross-check
(`solve_bruteforce`), and a cheap value/capacity upper bound for
instances too large to solve (`upper_bound`).  All solvers are in-house;
desk-scale instances do not justify an external MILP dependency and a
hermetic build keeps CI deterministic.

The branch-and-bound prunes with two bounds on what items i.. can still
add: the sum of their best values, and a fractional-density capacity
bound (Martello & Toth, *Knapsack Problems*, 1990), which per knapsack
is their largest value density times the capacity left on the slots they
request.  The load on those slots is carried down the search as one sum
per knapsack, so the capacity bound costs O(K + keys expiring at that
depth) per node and the set-up is linear in options and slots.  The
search keeps its own stack, so its depth is not limited by Python's
recursion limit.

Both searches undo a placement by writing back the slot loads saved
before it, never by subtracting its size: ``(x + s) - s`` need not be
``x`` in floating point.  So every feasibility test sees exactly the
loads ``assignment_violations`` would sum, for any float sizes.  The
enumerator scores the last item's leaves in place, without a call, and
still counts each as a node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Instance, check_count

# Pruning margin guard: prune a subtree only when its bound trails the
# incumbent by more than accumulated float error possibly could, so the
# returned objective is bit-identical to exhaustive enumeration.
_PRUNE_SLACK = 1e-9

_BRUTEFORCE_LIMIT = 10**8


@dataclass
class OfflineSolution:
    """Result of an offline solve.

    ``objective`` is the best found assignment's value; when ``proof`` is
    "exact" it is provably optimal and equals ``bound``.  When the node
    budget ran out, ``proof`` is "upper-bound-only": ``objective`` is the
    incumbent and ``bound`` a valid upper bound on the true optimum.
    """

    assignment: tuple[Optional[int], ...]
    objective: float
    proof: str  # "exact" | "upper-bound-only"
    nodes: int
    bound: float

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "bound": self.bound,
            "proof": self.proof,
            "nodes": self.nodes,
            "assignment": list(self.assignment),
        }


def _prepared(inst: Instance):
    """Per-item eligible options as (knapsack, size, value, slot keys), and
    the key count; slot t of knapsack k is key k*(horizon+1) + t, so an
    option's keys are one ``range``.
    """
    stride = inst.horizon + 1
    options = []
    for item in inst.items:
        opts = []
        for k, opt in item.eligible_options():
            first = k * stride + opt.start
            keys = range(first, first + opt.duration)
            opts.append((k, opt.size, opt.value, keys))
        options.append(opts)
    return options, inst.num_knapsacks * stride + 1


def bruteforce_accepts(inst: Instance) -> bool:
    """Whether ``solve_bruteforce`` takes ``inst``: (K+1)^N at most 1e8."""
    return (inst.num_knapsacks + 1) ** inst.num_items <= _BRUTEFORCE_LIMIT


def solve_bruteforce(inst: Instance) -> OfflineSolution:
    """Enumerate every feasible assignment vector; exists as a cross-check.

    Refuses instances with more than 1e8 raw vectors.  Prefixes that
    already violate capacity are cut, which loses no feasible vector
    because loads only grow with further assignments.  Children are
    visited decline first, then knapsacks in index order, and a vector
    replaces the incumbent only when strictly better.

    A placement's slots are restored on backtrack to the exact values
    saved before it, so every feasibility test sees the loads that
    ``assignment_violations`` would sum, for any float sizes.  The last
    item's leaves are scored in place, without a call and without
    touching the loads; each still counts as a node.
    """
    N = inst.num_items
    K = inst.num_knapsacks
    if not bruteforce_accepts(inst):
        raise ValueError(
            f"instance too large for brute force: (K+1)^N = {(K + 1) ** N}"
        )
    options, num_keys = _prepared(inst)
    caps = [ks.capacity for ks in inst.knapsacks]
    # Per item: (k, size, value, cap, first key, end key) per option.
    flat = [
        [(k, size, value, caps[k], keys.start, keys.stop) for k, size, value, keys in opts]
        for opts in options
    ]
    load = [0.0] * num_keys

    best_value = 0.0
    best_assignment: list[Optional[int]] = [None] * N
    current: list[Optional[int]] = [None] * N
    nodes = 0
    last = N - 1

    def visit(i: int, value: float) -> None:
        nonlocal best_value, best_assignment, nodes
        if i == last:
            # This node and its leaves: decline, then each feasible option.
            nodes += 2
            if value > best_value:
                best_value = value
                best_assignment = current.copy()
            for k, size, item_value, cap, lo, hi in flat[i]:
                # One max suffices: x + size is monotone in x.
                if max(load[lo:hi]) + size <= cap:
                    nodes += 1
                    if value + item_value > best_value:
                        best_value = value + item_value
                        best_assignment = current.copy()
                        best_assignment[i] = k
            return
        nodes += 1
        visit(i + 1, value)
        for k, size, item_value, cap, lo, hi in flat[i]:
            saved = load[lo:hi]
            if max(saved) + size <= cap:
                for t in range(lo, hi):
                    load[t] += size
                current[i] = k
                visit(i + 1, value + item_value)
                load[lo:hi] = saved
        current[i] = None

    if N:
        visit(0, 0.0)
    else:
        nodes = 1  # the root is the one leaf
    return OfflineSolution(
        assignment=tuple(best_assignment),
        objective=best_value,
        proof="exact",
        nodes=nodes,
        bound=best_value,
    )


def solve_exact(inst: Instance, node_budget: Optional[int] = None) -> OfflineSolution:
    """Depth-first branch-and-bound over items in input order.

    Children of a node are the feasible assignments (highest value first)
    with decline last, so dense incumbents appear early.  A subtree is cut
    when its residual-value bound cannot beat the incumbent; a tighter
    capacity-aware bound is tried before giving up on a cut.  If
    ``node_budget`` nodes are expanded without finishing, the incumbent is
    returned tagged "upper-bound-only" together with a still-valid bound:
    the smaller of the subtrees the budget refused and ``upper_bound``,
    and at least the incumbent.  A ``node_budget`` must be None or an
    integer >= 0 (ValueError otherwise).

    The capacity bound at depth i is the fractional-density relaxation
    (Martello & Toth, *Knapsack Problems*, 1990): per knapsack k, the
    largest value per unit of size and slot among the options of items
    i.. times the room left in F(i, k), the slots any of those options
    requests.  That room is ``cap_k * |F(i, k)|`` less the load already
    on F(i, k).  The load sum is carried down the search: a child gets its
    parent's, less the load on the slots whose last requester is item i,
    plus the placed option's size on each of its slots that a later item
    also requests.  So a node costs O(K + keys expiring at its depth), and
    the footprints themselves are never built.  Every placement is checked
    against capacity, so no slot is over full and the room needs no
    per-slot clamp.

    The search runs on an explicit stack of child generators, in the order
    a recursive visit would take, so its depth is not limited by Python's
    recursion limit.
    """
    if node_budget is not None:
        check_count("node_budget", node_budget, 0)
    N = inst.num_items
    K = inst.num_knapsacks
    options, num_keys = _prepared(inst)
    caps = [ks.capacity for ks in inst.knapsacks]
    load = [0.0] * num_keys

    # Residual max-value sums: suffix_value[i] bounds the total value of
    # items i.. regardless of capacity.
    suffix_value = [0.0] * (N + 1)
    for i in range(N - 1, -1, -1):
        best_v = max((v for _, _, v, _ in options[i]), default=0.0)
        suffix_value[i] = suffix_value[i + 1] + best_v

    # last[t]: the last item with an option on slot key t.  Key t is in
    # F(i, k) exactly when last[t] >= i, so it leaves the footprint after
    # item last[t]: expiring[i] lists those keys as runs (k, first, end).
    # Slot 0 is never requested, so no run crosses into the next knapsack.
    last = [-1] * num_keys
    for i, opts in enumerate(options):
        for _, _, _, keys in opts:
            for t in keys:
                last[t] = i
    stride = inst.horizon + 1
    expiring: list[list[tuple[int, int, int]]] = [[] for _ in range(N)]
    for t, i in enumerate(last):
        if i >= 0:
            runs = expiring[i]
            if runs and runs[-1][2] == t:
                runs[-1] = (runs[-1][0], runs[-1][1], t + 1)
            else:
                runs.append((t // stride, t, t + 1))

    # terms[i]: (k, dens, room) for each knapsack with an option among
    # items i..: the max value density there and cap_k * |F(i, k)|.
    terms: list[tuple[tuple[int, float, float], ...]] = [()] * N
    dens = [0.0] * K
    footprint_size = [0] * K
    for i in range(N - 1, -1, -1):
        for k, lo, hi in expiring[i]:
            footprint_size[k] += hi - lo
        for k, size, value, keys in options[i]:
            dens[k] = max(dens[k], value / (size * len(keys)))
        terms[i] = tuple(
            (k, dens[k], caps[k] * footprint_size[k]) for k in range(K) if dens[k] != 0.0
        )

    # Assignment children explored best value first (ties to lower index),
    # decline last, so dense incumbents appear early and tighten pruning.
    # Each is (k, size, value, cap, first key, end key, keys kept after i).
    children_of = [
        [
            (k, size, value, caps[k], keys.start, keys.stop,
             sum(1 for t in keys if last[t] > i))
            for k, size, value, keys in sorted(opts, key=lambda o: (-o[2], o[0]))
        ]
        for i, opts in enumerate(options)
    ]

    best_value = 0.0
    # A subtree whose bound is at most ``floor`` cannot beat the incumbent.
    floor = best_value - _PRUNE_SLACK * (1.0 + abs(best_value))
    best_assignment: list[Optional[int]] = [None] * N
    current: list[Optional[int]] = [None] * N
    nodes = 0
    exhausted = False
    refused_bound = 0.0  # max bound among subtrees skipped by the budget

    def branches(i: int, value: float, held: list[float]):
        """Yield node i's children as (depth, value, held load sums).

        A placement's size sits on ``load`` only while its subtree is
        searched, i.e. until the next value is drawn from this generator.
        """
        if expiring[i]:
            held = held.copy()
            for k, lo, hi in expiring[i]:
                held[k] -= sum(load[lo:hi])
        nxt = i + 1
        for k, size, item_value, cap, lo, hi, kept in children_of[i]:
            saved = load[lo:hi]
            # One max suffices: x + size is monotone in x.
            if max(saved) + size <= cap:
                for t in range(lo, hi):
                    load[t] += size
                current[i] = k
                if kept:
                    child = held.copy()
                    child[k] += size * kept
                else:
                    child = held
                yield nxt, value + item_value, child
                current[i] = None
                load[lo:hi] = saved
        yield nxt, value, held  # decline last

    stack = [iter(((0, 0.0, [0.0] * K),))]  # the root, as a one-child parent
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        i, value, held = node
        cheap = value + suffix_value[i]
        if exhausted:
            refused_bound = max(refused_bound, cheap)
            continue
        if cheap <= floor:
            continue
        if i < N:
            bound = 0.0
            for k, d, room in terms[i]:
                # Clamped so that an infinite density never meets a
                # negative rounding residue.
                left = room - held[k]
                bound += d * (left if left > 0.0 else 0.0)
            if value + bound <= floor:
                continue
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            exhausted = True
            refused_bound = max(refused_bound, cheap)
            continue
        if i == N:
            if value > best_value:
                best_value = value
                floor = best_value - _PRUNE_SLACK * (1.0 + abs(best_value))
                best_assignment = current.copy()
            continue
        stack.append(branches(i, value, held))

    if exhausted:
        # Both the refused subtrees' bound and the root relaxation are
        # valid; report the tighter, never below the incumbent.
        return OfflineSolution(
            assignment=tuple(best_assignment),
            objective=best_value,
            proof="upper-bound-only",
            nodes=nodes,
            bound=max(best_value, min(refused_bound, upper_bound(inst))),
        )
    return OfflineSolution(
        assignment=tuple(best_assignment),
        objective=best_value,
        proof="exact",
        nodes=nodes,
        bound=best_value,
    )


def upper_bound(inst: Instance) -> float:
    """Cheap bound on the offline optimum, for instances too large to solve.

    Minimum of two relaxations: the sum of each item's best eligible value,
    and per knapsack the max observed density times capacity times the
    number of slots requested by at least one item.  The density term uses
    the larger of the declared theta and the observed maximum so it stays
    valid even when declared bounds are violated.  A bound, never an
    optimum.
    """
    value_sum = 0.0
    for item in inst.items:
        value_sum += max((opt.value for _, opt in item.eligible_options()), default=0.0)

    capacity_sum = 0.0
    for k, spec in enumerate(inst.knapsacks):
        slots: set[int] = set()
        density = spec.theta
        for item in inst.items:
            opt = item.options[k]
            if opt.eligible:
                slots.update(opt.slots())
                density = max(density, opt.density())
        capacity_sum += density * spec.capacity * len(slots)

    return min(value_sum, capacity_sum)
