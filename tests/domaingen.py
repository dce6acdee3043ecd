"""Random planning cases for oracle-equivalence checks, and test oracles.

Two families: blocks stacking with an explicit gripper (deep search trees)
and dependency-chained switch banks (wide boolean spaces). Goals are sampled
from reachable arrangements so every `random_case` is solvable;
`unreachable_case` adds goal atoms that no plan can reach.

The oracles: `herbrand_universe` enumerates every untyped atom of a
vocabulary, and `print_domain`/`print_problem` write PDDL that the parser
must read back to the same structure.
"""

import random
from collections import deque
from dataclasses import replace
from typing import Optional

from taskmon.language import Atom, State, Vocabulary
from taskmon.pddl import PlanDomain, PlanProblem, _print_atom, parse_domain
from taskmon.planning import ground_actions

BLOCKS_DOMAIN = parse_domain(
    """
(define (domain blocks)
  (:requirements :typing)
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
    :precondition (and (Hold ?g ?a) (Clear ?b))
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
    prob = PlanProblem("blocks-case", objects, State.of(init), State.of(goal))
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
    prob = PlanProblem("switch-case", objects, State.of(init), State.of(goal))
    return dom, prob


def random_case(seed: int) -> tuple[PlanDomain, PlanProblem]:
    rng = random.Random(seed)
    if seed % 2 == 0:
        return blocks_case(rng, rng.randint(3, 5))
    return switches_case(rng, rng.randint(5, 11))


def unreachable_case(seed: int) -> tuple[PlanDomain, PlanProblem]:
    """random_case(seed) with goal atoms that no plan reaches together. A
    block on a name that is no problem object is unreachable even when
    deletes are ignored, since no ground action adds it; a hand both holding
    and free, or a lamp both lit and dark, is reachable atom by atom, so
    only search rules it out."""
    dom, prob = random_case(seed)
    rng = random.Random(~seed)
    if seed % 2 == 0:
        b = rng.choice(sorted(o for o, s in prob.objects.items() if s == "block"))
        if rng.random() < 0.5:
            extra = [Atom("On", (b, "nowhere"))]
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
    actions = ground_actions(domain, prob.objects).actions
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


# --- oracles -----------------------------------------------------------------


def herbrand_universe(vocab: Vocabulary) -> set[Atom]:
    """Every predicate applied to every arity-matching tuple of terms,
    before any type filtering. Count is sum over predicates of |terms|^arity."""
    names = sorted(vocab.terms)
    out: set[Atom] = set()
    for p in vocab.predicates.values():
        if p.arity == 1:
            out.update(Atom(p.name, (a,)) for a in names)
        else:
            out.update(Atom(p.name, (a, b)) for a in names for b in names)
    return out


def herbrand_count(vocab: Vocabulary) -> int:
    n = len(vocab.terms)
    return sum(n ** p.arity for p in vocab.predicates.values())


def _print_typed(pairs: list[tuple[str, Optional[str]]]) -> str:
    # untyped names must trail: a bare name before "x - sort" would be
    # swallowed into that sort by the typed-list grammar
    typed = [(n, s) for n, s in pairs if s is not None]
    bare = [n for n, s in pairs if s is None]
    parts: list[str] = []
    group: list[str] = []
    cur: Optional[str] = None
    for name, sort in typed:
        if group and sort != cur:
            parts.append(f"{' '.join(group)} - {cur}")
            group = []
        group.append(name)
        cur = sort
    if group:
        parts.append(f"{' '.join(group)} - {cur}")
    if bare:
        parts.append(" ".join(bare))
    return " ".join(parts)


def print_domain(dom: PlanDomain) -> str:
    lines = [f"(define (domain {dom.name})", "  (:requirements :typing)"]
    typed = [(s, p) for s, p in dom.sorts.items()]
    if typed:
        lines.append(f"  (:types {_print_typed(typed)})")
    if dom.predicates:
        decls = []
        for p in dom.predicates.values():
            args = " ".join(f"?x{i} - {s}" for i, s in enumerate(p.arg_sorts))
            decls.append(f"({p.name} {args})")
        lines.append("  (:predicates " + " ".join(decls) + ")")
    for sch in dom.schemas:
        params = _print_typed([(p.name, p.sort) for p in sch.parameters])
        pre_parts = [_print_atom(a) for a in sch.pre]
        eff_parts = [_print_atom(a) for a in sch.add]
        eff_parts += [f"(not {_print_atom(a)})" for a in sch.delete]
        lines.append(f"  (:action {sch.name}")
        lines.append(f"    :class {sch.action_class}")
        lines.append(f"    :parameters ({params})")
        lines.append(f"    :precondition (and {' '.join(pre_parts)})")
        lines.append(f"    :effect (and {' '.join(eff_parts)}))")
    return "\n".join(lines) + ")\n"


def print_problem(prob: PlanProblem, domain_name: str) -> str:
    lines = [
        f"(define (problem {prob.name})",
        f"  (:domain {domain_name})",
    ]
    if prob.objects:
        lines.append(f"  (:objects {_print_typed(list(prob.objects.items()))})")
    init = " ".join(_print_atom(a) for a in prob.init.canonical())
    lines.append(f"  (:init {init})".rstrip() if init else "  (:init)")
    goal = " ".join(_print_atom(a) for a in prob.goal.canonical())
    lines.append(f"  (:goal (and {goal}))" if goal else "  (:goal (and))")
    return "\n".join(lines) + ")\n"
