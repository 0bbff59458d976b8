"""Offline optimum for the slotted assignment problem.

Three routes: an exact depth-first branch-and-bound (`solve_exact`), an
exhaustive enumerator used purely as an independent cross-check
(`solve_bruteforce`), and a cheap value/capacity upper bound for
instances too large to solve (`upper_bound`).  All solvers are in-house;
desk-scale instances do not justify an external MILP dependency and a
hermetic build keeps CI deterministic.

Both searches score a leaf child inside their node loop, with no call and
no placement for it.  The branch-and-bound cuts on one bound, a child's
value plus the best values of the items after it, by one rule on both
sides of its node budget.  It tests each child before it places it, on
its own stack, free of Python's recursion limit.  Each search row ends
in one watched slot key, first its window's start: a fit test reads that
slot first and refuses on it alone, and only when it has room takes the
window's max, moving the watch to the slot that blocks when the max
does.  ``x + size`` is monotone in ``x``, so one slot blocks only if the
max does, and every fit outcome is the one a max over the whole window
gives.  Each test only refuses, so their order moves no result: a watch
moves only on a max read, which still follows the value bound, and a
child the value bound cuts is followed only by children it cuts too.
``_prepared`` builds the rows afresh for each call; where a watch starts
changes no result, only which slot refuses first.  Both searches undo a
placement by writing back the slot loads saved before it, never by
subtracting its size: ``(x + s) - s`` need not be ``x`` in floating
point.  So every feasibility test sees exactly the loads that
``assignment_violations`` sums, for any float sizes.  The enumerator
keys subtrees (the last item's too) on the loads of slots that can
refuse, and counts a repeat that cannot beat the incumbent from its
table before placing or calling for it; its result, full node count
included, is the plain walk's.
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
# Most subtrees the enumerator remembers, which bounds its memory.
_MEMO_LIMIT = 4096


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
    """Per item, its eligible options as search rows [k, size, value, cap,
    lo, hi, watch], and per slot key the last item requesting it (-1 if
    none).  Slot t of knapsack k is key k*(horizon+1) + t, an option's keys
    are lo..hi-1, and ``watch``, first lo, is the watched slot's key; each
    call builds its rows afresh, so no two searches share a watch.
    """
    stride = inst.horizon + 1
    caps = [ks.capacity for ks in inst.knapsacks]
    rows = []
    last = [-1] * (inst.num_knapsacks * stride + 1)
    for i, item in enumerate(inst.items):
        opts = []
        for k, opt in item.eligible_options():
            lo = k * stride + opt.start
            hi = lo + opt.duration
            opts.append([k, opt.size, opt.value, caps[k], lo, hi, lo])
            last[lo:hi] = [i] * opt.duration
        rows.append(opts)
    return rows, last


def bruteforce_accepts(inst: Instance) -> bool:
    """Whether ``solve_bruteforce`` takes ``inst``: (max(K, 1) + 1)^N at most
    1e8, which caps N, the walk's recursion depth, at 26 even when K = 0."""
    return (max(inst.num_knapsacks, 1) + 1) ** inst.num_items <= _BRUTEFORCE_LIMIT


def solve_bruteforce(inst: Instance) -> OfflineSolution:
    """Enumerate every feasible assignment vector; exists as a cross-check.

    Refuses instances past ``bruteforce_accepts``.  Prefixes that
    already violate capacity are cut, which loses no feasible vector
    because loads only grow with further assignments.  The fit test reads
    the option's watched slot first, on the row before it is unpacked, as
    the module docstring describes.  Children are visited decline first,
    then knapsacks in index order, and a vector replaces the incumbent only
    when strictly better.

    A slot key can refuse only if the sizes requested on it, summed in
    item order, pass its capacity: rounding of non-negative sums is
    monotone, so a load of earlier items plus the next size is at most
    that sum.  A subtree at depth i >= 1 is keyed on i and the earlier
    placements whose window meets a slot that can refuse and that some
    item >= i requests: only their loads decide which fit tests of items
    i.. pass, so one key means one subtree.  Nodes are counted in one
    counter; a subtree's node count and gain (the most its completions
    add) are kept for at most ``_MEMO_LIMIT`` keys, the last item's
    subtrees included.  A parent tests each inner child's key before it
    places anything or calls, and adds a repeat's count without a walk when
    value + gain + slack cannot beat the incumbent: rounding is monotone,
    and the slack, 1e-9 of one plus the best-value sum, exceeds any gap
    between the suffix-order gain and an item-order leaf sum.  So ``nodes``
    (the full tree), the objective and the first optimal leaf in visit
    order are the plain walk's.
    """
    N = inst.num_items
    K = inst.num_knapsacks
    if not bruteforce_accepts(inst):
        raise ValueError(f"instance too large for brute force: N = {N}, (max(K, 1) + 1)^N > 1e8")
    rows, last = _prepared(inst)
    total = [0.0] * len(last)  # per slot key, its requested sizes summed in item order
    for opts in rows:
        for _, size, _, _, lo, hi, _ in opts:
            for t in range(lo, hi):
                total[t] += size
    # live[j]: bits i*K + k of the placements that key depth j.
    live = [0] * (N + 1)
    for i, opts in enumerate(rows):
        for k, _, _, cap, lo, hi, _ in opts:
            reach = max((last[t] for t in range(lo, hi) if total[t] > cap), default=i)
            for j in range(i + 1, reach + 1):
                live[j] |= 1 << (i * K + k)
        for row in opts:  # live[i + 1] is whole: append the bit each sets in its child's key
            row.append((1 << (i * K + row[0])) & live[i + 1])
    slack = _PRUNE_SLACK * (1.0 + sum(max((o[2] for o in opts), default=0.0) for opts in rows))
    load = [0.0] * len(last)
    memo: dict[int, tuple[int, float]] = {}  # depth i, key mask: key mask * N + i

    best_value = 0.0
    best_assignment: list[Optional[int]] = [None] * N
    current: list[Optional[int]] = [None] * N
    nodes = 0 if N else 1  # with no items the root is the one leaf

    def visit(i: int, value: float, mask: int) -> float:
        """Gain of item i's subtree, its nodes counted; ``mask``: its key's placements."""
        nonlocal best_value, best_assignment, nodes
        before = nodes
        nodes += 1
        nxt = i + 1
        child = mask & live[nxt]
        if nxt == N:  # the decline leaf, scored in place
            nodes += 1
            gain = 0.0
            if value > best_value:
                best_value = value
                best_assignment = current.copy()
        elif (seen := memo.get(child * N + nxt)) and value + seen[1] + slack <= best_value:
            nodes += seen[0]
            gain = seen[1]
        else:
            gain = visit(nxt, value, child)
        for row in rows[i]:
            # One slot refuses, and one max admits: x + size is monotone in x.
            if load[row[6]] + row[1] > row[3]:
                continue
            k, size, item_value, cap, lo, hi, _, bit = row
            saved = load[lo:hi]
            top = max(saved)
            if top + size > cap:
                row[6] = lo + saved.index(top)
                continue
            child_value = value + item_value
            if nxt == N:  # a leaf, scored in place
                nodes += 1
                child_gain = 0.0
                if child_value > best_value:
                    best_value = child_value
                    best_assignment = current.copy()
                    best_assignment[i] = k
            elif (seen := memo.get((child | bit) * N + nxt)) and child_value + seen[1] + slack <= best_value:
                nodes += seen[0]
                child_gain = seen[1]
            else:
                for t in range(lo, hi):
                    load[t] += size
                current[i] = k
                child_gain = visit(nxt, child_value, child | bit)
                load[lo:hi] = saved
            if item_value + child_gain > gain:
                gain = item_value + child_gain
        current[i] = None
        if len(memo) < _MEMO_LIMIT:
            memo[mask * N + i] = nodes - before, gain
        return gain

    if N:
        visit(0, 0.0, 0)
    del visit  # it calls itself: break that cycle, so its tables are freed now, not at collection
    return OfflineSolution(tuple(best_assignment), best_value, "exact", nodes, best_value)


def solve_exact(inst: Instance, node_budget: Optional[int] = None) -> OfflineSolution:
    """Depth-first branch-and-bound over items in input order.

    Children of a node are the feasible assignments (highest value first)
    with decline last, so dense incumbents appear early.  One bound cuts:
    a child is cut when its value plus the best values of the items after
    it cannot beat the incumbent.  If ``node_budget`` nodes are expanded
    without finishing, the incumbent is returned tagged "upper-bound-only"
    with a still-valid bound: the smaller of the subtrees the budget
    refused and ``upper_bound``, and at least the incumbent.  A
    ``node_budget`` must be None or an integer >= 0 (ValueError otherwise).

    A child is tested before anything is placed for it: its watched slot
    (on the row, before the row is unpacked), the value bound, the window's
    max, then the budget.  A child the value bound cuts ends the node's
    assignment children: the later ones have no larger value and ``floor``
    never falls.  Each test only refuses, so their order moves no result,
    as the module docstring says.  Past the budget no leaf is scored and
    ``floor`` stays put, so a cut child's bound, at most ``floor``, stays
    below the incumbent and moves no returned bound; one that fits adds
    its bound to the refused subtrees'.  A generator searches a node's
    assignment children, yielding one generator per child it enters and
    clearing ``current[i]`` when its descent returns, then goes on as the
    node's decline child, on an explicit stack free of the recursion limit.
    """
    if node_budget is not None:
        check_count("node_budget", node_budget, 0)
    N = inst.num_items
    rows, last = _prepared(inst)
    load = [0.0] * len(last)

    # suffix_value[i] bounds the value of items i.. regardless of capacity.
    suffix_value = [0.0] * (N + 1)
    for i in range(N - 1, -1, -1):
        suffix_value[i] = suffix_value[i + 1] + max((o[2] for o in rows[i]), default=0.0)

    # Assignment children, best value first (ties to lower index), the decline after them.
    children_of = [sorted(opts, key=lambda o: (-o[2], o[0])) for opts in rows]

    best_value = 0.0
    # A subtree whose bound is at most ``floor`` cannot beat the incumbent.
    floor = best_value - _PRUNE_SLACK * (1.0 + abs(best_value))
    best_assignment: list[Optional[int]] = [None] * N
    current: list[Optional[int]] = [None] * N
    budget = float("inf") if node_budget is None else node_budget
    nodes = 1  # the root, which the bound never cuts: it is >= 0 > floor
    refused_bound = suffix_value[0] if nodes > budget else 0.0  # max over refused subtrees

    def branches(i: int, value: float):
        """Search node i (its tests passed), then its decline child, and so on.
        A placement's size sits on ``load`` while its yielded generator runs.
        Past the budget, ``nodes`` stays at budget + 1 and counts no child."""
        nonlocal best_value, best_assignment, floor, nodes, refused_bound
        while True:
            nxt = i + 1
            rest = suffix_value[nxt]
            for row in children_of[i]:
                # One slot refuses, and one max admits: x + size is monotone in x.
                if load[row[6]] + row[1] > row[3]:
                    continue
                k, size, item_value, cap, lo, hi, _ = row
                child_value = value + item_value
                cheap = child_value + rest
                if cheap <= floor:
                    break  # so is every later child: no larger value, and floor never falls
                saved = load[lo:hi]
                top = max(saved)
                if top + size > cap:
                    row[6] = lo + saved.index(top)
                    continue
                if nodes >= budget:
                    nodes = budget + 1
                    refused_bound = max(refused_bound, cheap)
                    continue
                nodes += 1
                if nxt == N:
                    if child_value > best_value:
                        best_value = child_value
                        floor = best_value - _PRUNE_SLACK * (1.0 + abs(best_value))
                        best_assignment = current.copy()
                        best_assignment[i] = k
                    continue
                current[i] = k
                for t in range(lo, hi):
                    load[t] += size
                yield branches(nxt, child_value)
                load[lo:hi] = saved
                current[i] = None
            # The decline, searched here as node nxt; current[i] is None but during a descent.
            cheap = value + rest
            if cheap <= floor:
                return
            if nodes >= budget:
                nodes = budget + 1
                refused_bound = max(refused_bound, cheap)
                return
            nodes += 1
            if nxt == N:
                if value > best_value:
                    best_value = value
                    floor = best_value - _PRUNE_SLACK * (1.0 + abs(best_value))
                    best_assignment = current.copy()
                return
            i = nxt

    stack = [branches(0, 0.0)] if N else []
    while stack:
        for child in stack[-1]:
            stack.append(child)
            break
        else:
            stack.pop()
    del branches  # it refers to itself too: break that cycle
    exhausted = nodes > budget
    bound = max(best_value, min(refused_bound, upper_bound(inst))) if exhausted else best_value
    proof = "upper-bound-only" if exhausted else "exact"
    return OfflineSolution(tuple(best_assignment), best_value, proof, nodes, bound)


def upper_bound(inst: Instance) -> float:
    """Cheap bound on the offline optimum, for instances too large to solve.

    Minimum of two relaxations: the sum of each item's best eligible value,
    and per knapsack the max observed density times capacity times the
    number of slots requested by at least one item.  The density term uses
    the larger of the declared theta and the observed maximum so it stays
    valid even when declared bounds are violated.  A bound, never an
    optimum.
    """
    rows, last = _prepared(inst)
    value_sum = 0.0
    density = [spec.theta for spec in inst.knapsacks]
    for opts in rows:
        value_sum += max((o[2] for o in opts), default=0.0)
        for k, size, value, _, lo, hi, _ in opts:
            density[k] = max(density[k], value / (size * (hi - lo)))

    stride = inst.horizon + 1
    capacity_sum = 0.0
    for k, spec in enumerate(inst.knapsacks):
        count = sum(1 for i in last[k * stride:(k + 1) * stride] if i >= 0)
        capacity_sum += density[k] * spec.capacity * count

    return min(value_sum, capacity_sum)
