"""Random planning cases for oracle-equivalence checks.

Two families: blocks stacking with an explicit gripper (deep search trees)
and dependency-chained switch banks (wide boolean spaces). Goals are sampled
from reachable arrangements so every `random_case` is solvable;
`unreachable_case` adds goal atoms that no plan can reach.
"""

import random
from collections import deque
from dataclasses import replace

from taskmon.language import Atom, State
from taskmon.pddl import PlanDomain, PlanProblem, parse_domain
from taskmon.planning import ground_actions

BLOCKS_DOMAIN = parse_domain(
    """
(define (domain blocks)
  (:requirements :typing :equality)
  (:types block gripper - entity)
  (:predicates (On ?a - block ?b - block)
               (OnTable ?b - block)
               (Clear ?b - block)
               (Hold ?g - gripper ?b - block)
               (Free ?g - gripper))
  (:action pickup
    :parameters (?b - block ?g - gripper)
    :precondition (and (Clear ?b) (OnTable ?b) (Free ?g))
    :effect (and (Hold ?g ?b) (not (OnTable ?b)) (not (Clear ?b)) (not (Free ?g))))
  (:action putdown
    :parameters (?b - block ?g - gripper)
    :precondition (and (Hold ?g ?b))
    :effect (and (OnTable ?b) (Clear ?b) (Free ?g) (not (Hold ?g ?b))))
  (:action unstack
    :parameters (?a - block ?b - block ?g - gripper)
    :precondition (and (On ?a ?b) (Clear ?a) (Free ?g))
    :effect (and (Hold ?g ?a) (Clear ?b) (not (On ?a ?b)) (not (Clear ?a)) (not (Free ?g))))
  (:action stack
    :parameters (?a - block ?b - block ?g - gripper)
    :precondition (and (Hold ?g ?a) (Clear ?b) (not (= ?a ?b)))
    :effect (and (On ?a ?b) (Clear ?a) (Free ?g) (not (Hold ?g ?a)) (not (Clear ?b)))))
"""
)


def _arrangement_atoms(towers: list[list[str]]) -> list[Atom]:
    atoms = []
    for tower in towers:
        atoms.append(Atom("OnTable", (tower[0],)))
        for below, above in zip(tower, tower[1:]):
            atoms.append(Atom("On", (above, below)))
        atoms.append(Atom("Clear", (tower[-1],)))
    return atoms


def _random_towers(rng: random.Random, blocks: list[str]) -> list[list[str]]:
    order = blocks[:]
    rng.shuffle(order)
    towers: list[list[str]] = []
    for b in order:
        if towers and rng.random() < 0.5:
            rng.choice(towers).append(b)
        else:
            towers.append([b])
    return towers


def blocks_case(rng: random.Random, n_blocks: int) -> tuple[PlanDomain, PlanProblem]:
    blocks = [f"b{i}" for i in range(n_blocks)]
    objects = {b: "block" for b in blocks}
    objects["hand"] = "gripper"
    init = _arrangement_atoms(_random_towers(rng, blocks)) + [Atom("Free", ("hand",))]
    target = _arrangement_atoms(_random_towers(rng, blocks))
    k = rng.randint(1, max(1, len(target) - 1))
    goal = rng.sample(target, k)
    prob = PlanProblem("blocks-case", "blocks", objects, State.of(init), State.of(goal))
    return BLOCKS_DOMAIN, prob


def switches_case(rng: random.Random, n: int) -> tuple[PlanDomain, PlanProblem]:
    lamps = " ".join(f"l{i}" for i in range(n))
    lines = [
        "(define (domain switches)",
        "  (:requirements :typing)",
        "  (:types lamp - entity)",
        "  (:predicates (Lit ?l - lamp) (Dark ?l - lamp))",
    ]
    for i in range(n):
        dep = f" (Lit l{i - 1})" if i > 0 and rng.random() < 0.6 else ""
        lines.append(
            f"  (:action on{i} :parameters () :precondition (and (Dark l{i}){dep})"
            f" :effect (and (Lit l{i}) (not (Dark l{i}))))"
        )
        lines.append(
            f"  (:action off{i} :parameters () :precondition (and (Lit l{i}))"
            f" :effect (and (Dark l{i}) (not (Lit l{i}))))"
        )
    lines.append(")")
    dom = parse_domain("\n".join(lines))
    objects = {f"l{i}": "lamp" for i in range(n)}
    init = [Atom("Dark", (f"l{i}",)) for i in range(n)]
    lit = sorted(rng.sample(range(n), rng.randint(1, n)))
    goal = [Atom("Lit", (f"l{i}",)) for i in lit]
    prob = PlanProblem("switch-case", "switches", objects, State.of(init), State.of(goal))
    return dom, prob


def random_case(seed: int) -> tuple[PlanDomain, PlanProblem]:
    rng = random.Random(seed)
    if seed % 2 == 0:
        return blocks_case(rng, rng.randint(3, 5))
    return switches_case(rng, rng.randint(5, 11))


def unreachable_case(seed: int) -> tuple[PlanDomain, PlanProblem]:
    """random_case(seed) with goal atoms that no plan reaches together. A
    block on itself is unreachable even when deletes are ignored (stack
    needs two distinct blocks); a hand both holding and free, or a lamp
    both lit and dark, is reachable atom by atom, so only search rules it
    out."""
    dom, prob = random_case(seed)
    rng = random.Random(~seed)
    if seed % 2 == 0:
        b = rng.choice(sorted(o for o, s in prob.objects.items() if s == "block"))
        if rng.random() < 0.5:
            extra = [Atom("On", (b, b))]
        else:
            extra = [Atom("Hold", ("hand", b)), Atom("Free", ("hand",))]
    else:
        lamp = rng.choice(sorted(prob.objects))
        extra = [Atom("Lit", (lamp,)), Atom("Dark", (lamp,))]
    return dom, replace(prob, goal=State.of(prob.goal.atoms | set(extra)))


def replay(init: State, steps) -> State:
    """The state that ground actions reach from init, each applied as
    (s - delete) | add after asserting that its precondition holds."""
    atoms = init.atoms
    for i, ga in enumerate(steps):
        assert ga.pre <= atoms, f"step {i} {ga.name}: missing {set(ga.pre - atoms)}"
        atoms = (atoms - ga.delete) | ga.add
    return State(atoms)


def bfs_optimal_length(domain: PlanDomain, prob: PlanProblem) -> int | None:
    """Independent breadth-first oracle for optimal plan length."""
    actions = ground_actions(domain, prob.objects)
    start, target = prob.init.atoms, prob.goal.atoms
    if target <= start:
        return 0
    seen = {start}
    q = deque([(start, 0)])
    while q:
        atoms, d = q.popleft()
        for ga in actions:
            if ga.pre <= atoms:
                nxt = (atoms - ga.delete) | ga.add
                if nxt in seen:
                    continue
                if target <= nxt:
                    return d + 1
                seen.add(nxt)
                q.append((nxt, d + 1))
    return None
