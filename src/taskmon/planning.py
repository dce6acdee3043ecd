"""Forward state-space search over ground actions, and library goal matching.

`solve` is the one planner: the monitor's PLAN phase and
`pddl.validate_library` both run it. It is greedy best-first search on the
goal count, the number of goal atoms a state still lacks, and it is
deterministic: ground actions are enumerated in sorted order and the
frontier breaks ties by insertion sequence. A dead-end goal is rejected
before any search: if the goal is unreachable even when actions never
delete (the delete relaxation behind h_max and FF), no plan exists.

Grounding is done once per domain and object set. `grounding` keys a
domain's memo (`PlanDomain.groundings`) by the object set as a frozenset of
(name, sort) pairs and holds a `Grounding` there: the sorted ground actions,
as an immutable tuple, and the atoms the monitor's PLAN scan grounds. Each
part is built on its first use, so loading a library grounds nothing, and
the first plan of an entry costs what grounding costs. The memo holds no
scene state: its size is bounded by the library's entries times the
renamings `match_plan` maps them to, and it lives as long as the domain.

Matching is memoised per library goal. `match_plan` keys a library's memo
(`PlanLibrary.matches`) by the goal `State` itself, and keeps a result only
for a goal that is some entry's goal, so the memo holds at most one result
per entry; the renaming search's (predicate, args) keys are built only on
a miss. A goal that is no entry's goal, such as a net's free-form
proposal, is searched afresh on every call and never kept. Nothing is
matched when a library loads: the memo's slots are made on the first
match, and each is filled by the first search for its goal. Results are
shared by every task that plans against the same entry, so a
`MatchScore`'s renaming is read-only.

Matching bounds before it searches. Each entry's overlap is capped by its
per-predicate atom counts against the goal's, so entries that cannot beat
the best so far are skipped, and the renaming search inside an entry cuts
branches that cannot beat its best renaming. Both cuts drop only work that
could not change the result.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from .language import Atom, State, Vocabulary
from .pddl import ActionSchema, PlanDomain, PlanEntry, PlanLibrary


class NoPlan(Exception):
    pass


class BudgetExceeded(Exception):
    def __init__(self, expansions: int):
        super().__init__(f"search budget exhausted after {expansions} expansions")
        self.expansions = expansions


class EmptyLibrary(Exception):
    pass


class NoMatch(Exception):
    pass


@dataclass(frozen=True)
class GroundAction:
    schema: ActionSchema
    args: tuple[str, ...]
    pre: frozenset[Atom]
    add: frozenset[Atom]
    delete: frozenset[Atom]

    @property
    def name(self) -> str:
        return f"{self.schema.name}({','.join(self.args)})"

    def key(self) -> tuple:
        return (self.schema.name, self.args)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class MatchScore:
    """The result of `match_plan`: the winning entry, its overlap with the
    goal, the renaming of its goal objects and the renamed entry goal. A
    library's match memo shares one result across tasks, so `substitution`
    is a read-only mapping."""

    entry: PlanEntry
    overlap: int
    substitution: Mapping[str, str]
    matched_goal: State


# --- grounding ---------------------------------------------------------------


@dataclass
class Grounding:
    """What a domain yields over one object set, each part filled on first
    use: `actions` by `ground_actions`, `candidates` by the monitor's PLAN
    scan."""

    actions: Optional[tuple[GroundAction, ...]] = None
    candidates: Optional[tuple[Atom, ...]] = None


def grounding(domain: PlanDomain, objects: dict[str, str]) -> Grounding:
    """The memo slot of `domain` for this object set, keyed by the set of its
    (name, sort) pairs, so dicts equal in any insertion order share it."""
    key = frozenset(objects.items())
    g = domain.groundings.get(key)
    if g is None:
        g = domain.groundings[key] = Grounding()
    return g


def ground_actions(domain: PlanDomain, objects: dict[str, str]) -> tuple[GroundAction, ...]:
    """Enumerate sort-compatible bindings for every schema, resolve equality
    preconditions at grounding time, drop ill-typed instantiations. Sorted by
    (schema name, args) for deterministic search.

    Memoised in the domain by `grounding`, keyed by the object set's
    (name, sort) pairs: the first call for a key grounds, and every later
    call returns the same tuple. Keys are filled lazily, one per library
    entry and renaming of it that gets planned."""
    g = grounding(domain, objects)
    if g.actions is not None:
        return g.actions
    out: list[GroundAction] = []
    for sch in domain.schemas:
        candidates = []
        for p in sch.parameters:
            cands = sorted(o for o, s in objects.items() if domain.is_subsort(s, p.sort))
            candidates.append(cands)
        for combo in itertools.product(*candidates):
            binding = {p.name: o for p, o in zip(sch.parameters, combo)}
            if not all(eq.holds(binding) for eq in sch.eqs):
                continue
            ga = _bind(sch, binding, combo, domain, objects)
            if ga is not None:
                out.append(ga)
    out.sort(key=GroundAction.key)
    g.actions = tuple(out)
    return g.actions


def _bind(
    sch: ActionSchema,
    binding: dict[str, str],
    combo: tuple[str, ...],
    domain: PlanDomain,
    objects: dict[str, str],
) -> Optional[GroundAction]:
    def ground_all(atoms) -> Optional[frozenset[Atom]]:
        acc = []
        for a in atoms:
            g = a.ground(binding)
            for arg, slot in zip(g.args, domain.predicates[g.pred].arg_sorts):
                if arg not in objects or not domain.is_subsort(objects[arg], slot):
                    return None
            acc.append(g)
        return frozenset(acc)

    pre = ground_all(sch.pre)
    add = ground_all(sch.add)
    delete = ground_all(sch.delete)
    if pre is None or add is None or delete is None:
        return None
    return GroundAction(sch, combo, pre, add, delete)


# --- search --------------------------------------------------------------------


def solve(
    domain: PlanDomain,
    objects: dict[str, str],
    init: State,
    goal: State,
    budget: int = 200_000,
) -> list[GroundAction]:
    """Plan from init to a state that contains goal, or raise NoPlan when none
    exists and BudgetExceeded after `budget` expansions. Before searching,
    a delete-relaxed reachability fixpoint over the ground actions rejects
    goals that no sequence reaches even with every delete ignored; the
    relaxation over-approximates reachability, so it rejects only goals the
    search would also exhaust on, and plans are unchanged."""
    actions = ground_actions(domain, objects)
    goal_atoms = goal.atoms
    start = init.atoms
    if not _relaxed_reachable(start, goal_atoms, actions):
        raise NoPlan(f"goal {goal} unreachable even with deletes ignored")

    def h(atoms: frozenset[Atom]) -> int:
        return len(goal_atoms - atoms)

    seq = itertools.count()
    frontier: list[tuple[int, int, frozenset[Atom], list[GroundAction]]] = []
    heapq.heappush(frontier, (h(start), next(seq), start, []))
    closed: set[frozenset[Atom]] = set()
    expansions = 0

    while frontier:
        _, _, atoms, path = heapq.heappop(frontier)
        if atoms in closed:
            continue
        closed.add(atoms)
        if goal_atoms <= atoms:
            return path
        expansions += 1
        if expansions > budget:
            raise BudgetExceeded(expansions)
        for ga in actions:
            if ga.pre <= atoms:
                nxt = (atoms - ga.delete) | ga.add
                if nxt not in closed:
                    heapq.heappush(frontier, (h(nxt), next(seq), nxt, path + [ga]))
    raise NoPlan(f"goal {goal} unreachable")


def _relaxed_reachable(
    start: frozenset[Atom], goal_atoms: frozenset[Atom], actions: tuple[GroundAction, ...]
) -> bool:
    """Whether goal_atoms can all be added when actions never delete: the
    h_max fixpoint of Bonet & Geffner 2001, run as one pass that fires each
    action once its last missing precondition has been added."""
    reached = set(start)
    missing = set(goal_atoms - reached)
    if not missing:
        return True
    waiting: dict[Atom, list[int]] = {}  # atom -> actions still needing it
    unmet: list[int] = []
    ready: list[int] = []
    for i, ga in enumerate(actions):
        need = ga.pre - reached
        unmet.append(len(need))
        if not need:
            ready.append(i)
        for a in need:
            waiting.setdefault(a, []).append(i)
    while ready:
        for a in actions[ready.pop()].add:
            if a in reached:
                continue
            reached.add(a)
            missing.discard(a)
            if not missing:
                return True
            for j in waiting.pop(a, ()):
                unmet[j] -= 1
                if unmet[j] == 0:
                    ready.append(j)
    return False


# --- library matching -----------------------------------------------------------


def match_plan(lib: PlanLibrary, g: State) -> MatchScore:
    """Best library entry for a predicted goal: maximize the overlap between g
    and the entry goal under an injective, sort-compatible renaming of the
    entry's goal objects. Equal overlap prefers the entry with fewer
    unmatched goal atoms (a pattern whose extras g never asked for is the
    weaker match); remaining ties keep library order.

    An entry's overlap can never exceed the sum, over predicates, of the
    smaller of its goal's atom count and g's, so an entry whose bound cannot
    beat the best so far under that order is skipped unsearched. Skipping
    it, and pruning inside the renaming search, changes no result.

    g itself is the key of the library's match memo (`PlanLibrary.matches`).
    The first call makes one empty slot per entry goal; a g that fills a
    slot is returned from it on every later call, and any other g is
    searched every time and not kept."""
    if not lib.entries:
        raise EmptyLibrary("cannot match against an empty library")
    memo = lib.matches
    if not memo:
        memo.update(dict.fromkeys(e.goal_state for e in lib.entries))
    hit = memo.get(g)
    if hit is not None:
        return hit
    g_keys = frozenset(a.key() for a in g.atoms)
    g_counts = Counter(p for p, _ in g_keys)
    vocab = lib.vocab
    g_terms = [
        (t, vocab.terms[t].sort)
        for t in sorted({x for _, args in g_keys for x in args})
        if t in vocab.terms
    ]
    best: Optional[MatchScore] = None
    best_rank = (0, 0)  # an entry must overlap at least one atom to win
    for entry in lib.entries:
        pat = entry.goal_pattern
        bound = sum(min(n, g_counts[p]) for p, n in pat.pred_counts.items())
        if (bound, -len(pat.atoms)) <= best_rank:
            continue
        score = _best_substitution(entry, g_keys, g_counts, g_terms, vocab)
        if (score.overlap, -len(pat.atoms)) > best_rank:
            best, best_rank = score, (score.overlap, -len(pat.atoms))
    if best is None:
        raise NoMatch(f"no entry shares a goal atom with {g}")
    if g in memo:
        memo[g] = best
    return best


def _best_substitution(
    entry: PlanEntry,
    g_keys: frozenset[tuple],
    g_counts: Counter,
    g_terms: list[tuple[str, str]],
    vocab: Vocabulary,
) -> MatchScore:
    """Depth-first search over injective renamings of the goal objects, in
    sorted object order, each object trying itself first and then the
    sort-compatible terms of g. The first renaming to reach the maximum
    overlap wins. A branch is cut once the atoms it has matched plus the
    atoms it could still match cannot beat the best so far."""
    pat = entry.goal_pattern
    objs, atoms, closes = pat.objects, pat.atoms, pat.closes
    cand: list[list[str]] = []
    for o, declared in zip(objs, pat.sorts):
        cand.append([o] + [t for t, s in g_terms if t != o and vocab.is_subsort(s, declared)])
    # matchable[i]: atoms decided at depth i or later whose predicate g has
    matchable = [0] * (len(objs) + 1)
    for i in range(len(objs) - 1, -1, -1):
        matchable[i] = matchable[i + 1] + sum(1 for j in closes[i] if atoms[j].pred in g_counts)

    best_sub: dict[str, str] = {o: o for o in objs}
    best_overlap = sum(1 for a in atoms if a.key() in g_keys)
    sub: dict[str, str] = {}
    used: set[str] = set()

    def rec(i: int, matched: int):
        nonlocal best_sub, best_overlap
        if matched + matchable[i] <= best_overlap:
            return
        if i == len(objs):
            best_overlap, best_sub = matched, dict(sub)
            return
        o = objs[i]
        for c in cand[i]:
            if c in used:
                continue
            sub[o] = c
            used.add(c)
            n = matched
            for j in closes[i]:
                a = atoms[j]
                if (a.pred, tuple(sub[x] for x in a.args)) in g_keys:
                    n += 1
            rec(i + 1, n)
            used.discard(c)
            del sub[o]

    rec(0, 0)
    matched = State(frozenset(
        Atom(a.pred, tuple(best_sub.get(x, x) for x in a.args)) for a in entry.goal_state.atoms
    ))
    return MatchScore(entry, best_overlap, MappingProxyType(best_sub), matched)
