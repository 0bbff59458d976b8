"""Offline optimum for the slotted assignment problem.

Three routes: an exact depth-first branch-and-bound (`solve_exact`), an
exhaustive enumerator used purely as an independent cross-check
(`solve_bruteforce`), and a cheap value/capacity upper bound for
instances too large to solve (`upper_bound`).  All solvers are in-house;
desk-scale instances do not justify an external MILP dependency and a
hermetic build keeps CI deterministic.
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
    the key count; slot t of knapsack k is key k*(horizon+1) + t.
    """
    stride = inst.horizon + 1
    options = []
    for item in inst.items:
        opts = []
        for k, opt in item.eligible_options():
            keys = tuple(k * stride + t for t in opt.interval.slots())
            opts.append((k, opt.size, opt.value, keys))
        options.append(opts)
    return options, inst.num_knapsacks * stride + 1


def solve_bruteforce(inst: Instance) -> OfflineSolution:
    """Enumerate every feasible assignment vector; exists as a cross-check.

    Refuses instances with more than 1e8 raw vectors.  Prefixes that
    already violate capacity are cut, which loses no feasible vector
    because loads only grow with further assignments.
    """
    N = inst.num_items
    K = inst.num_knapsacks
    if (K + 1) ** N > _BRUTEFORCE_LIMIT:
        raise ValueError(
            f"instance too large for brute force: (K+1)^N = {(K + 1) ** N}"
        )
    options, num_keys = _prepared(inst)
    caps = [ks.capacity for ks in inst.knapsacks]
    load = [0.0] * num_keys

    best_value = 0.0
    best_assignment: list[Optional[int]] = [None] * N
    current: list[Optional[int]] = [None] * N
    nodes = 0

    def visit(i: int, value: float) -> None:
        nonlocal best_value, best_assignment, nodes
        nodes += 1
        if i == N:
            if value > best_value:
                best_value = value
                best_assignment = current.copy()
            return
        current[i] = None
        visit(i + 1, value)
        for k, size, item_value, keys in options[i]:
            cap = caps[k]
            if all(load[t] + size <= cap for t in keys):
                for t in keys:
                    load[t] += size
                current[i] = k
                visit(i + 1, value + item_value)
                current[i] = None
                for t in keys:
                    load[t] -= size

    visit(0, 0.0)
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
    """
    if node_budget is not None:
        check_count("node_budget", node_budget, 0)
    N = inst.num_items
    K = inst.num_knapsacks
    options, num_keys = _prepared(inst)
    # Assignment children explored best value first (ties to lower index),
    # decline last, so dense incumbents appear early and tighten pruning.
    children_of = [sorted(opts, key=lambda o: (-o[2], o[0])) for opts in options]
    caps = [ks.capacity for ks in inst.knapsacks]
    load = [0.0] * num_keys

    # Residual max-value sums: suffix_value[i] bounds the total value of
    # items i.. regardless of capacity.
    suffix_value = [0.0] * (N + 1)
    for i in range(N - 1, -1, -1):
        best_v = max((v for _, _, v, _ in options[i]), default=0.0)
        suffix_value[i] = suffix_value[i + 1] + best_v

    # Capacity-aware bound ingredients: per knapsack, the max density among
    # items i.. and the slots any of them requests.  footprint[i][k] is the
    # tuple of flat slot keys; density_suffix[i][k] the max value density.
    density_suffix = [[0.0] * K for _ in range(N + 1)]
    footprint: list[list[frozenset[int]]] = [
        [frozenset() for _ in range(K)] for _ in range(N + 1)
    ]
    for i in range(N - 1, -1, -1):
        for k in range(K):
            density_suffix[i][k] = density_suffix[i + 1][k]
            footprint[i][k] = footprint[i + 1][k]
        for k, size, value, keys in options[i]:
            density_suffix[i][k] = max(
                density_suffix[i][k], value / (size * len(keys))
            )
            footprint[i][k] = footprint[i][k] | frozenset(keys)

    def capacity_bound(i: int) -> float:
        """Value still placeable for items i.. given current loads."""
        total = 0.0
        for k in range(K):
            dens = density_suffix[i][k]
            if dens == 0.0:
                continue
            cap = caps[k]
            residual = sum(max(cap - load[t], 0.0) for t in footprint[i][k])
            total += dens * residual
        return total

    best_value = 0.0
    best_assignment: list[Optional[int]] = [None] * N
    current: list[Optional[int]] = [None] * N
    nodes = 0
    exhausted = False
    refused_bound = 0.0  # max bound among subtrees skipped by the budget

    def visit(i: int, value: float) -> None:
        nonlocal best_value, best_assignment, nodes, exhausted, refused_bound
        cheap = value + suffix_value[i]
        if exhausted:
            refused_bound = max(refused_bound, cheap)
            return
        margin = _PRUNE_SLACK * (1.0 + abs(best_value))
        if cheap <= best_value - margin:
            return
        if i < N and value + capacity_bound(i) <= best_value - margin:
            return
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            exhausted = True
            refused_bound = max(refused_bound, cheap)
            return
        if i == N:
            if value > best_value:
                best_value = value
                best_assignment = current.copy()
            return
        for k, size, item_value, keys in children_of[i]:
            cap = caps[k]
            if all(load[t] + size <= cap for t in keys):
                for t in keys:
                    load[t] += size
                current[i] = k
                visit(i + 1, value + item_value)
                current[i] = None
                for t in keys:
                    load[t] -= size
        visit(i + 1, value)  # decline last

    visit(0, 0.0)
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
                slots.update(opt.interval.slots())
                density = max(density, opt.density())
        capacity_sum += density * spec.capacity * len(slots)

    return min(value_sum, capacity_sum)
