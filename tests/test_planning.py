import itertools
import random
from collections import Counter

import pytest

from taskmon.language import Atom, State
from taskmon.monitor import _scan_candidates, candidate_atoms
from taskmon.pddl import PlanEntry, PlanLibrary, parse_domain, parse_problem
from taskmon.planning import (
    BudgetExceeded,
    EmptyLibrary,
    NoMatch,
    NoPlan,
    ground_actions,
    match_plan,
    solve,
)
from conftest import load_packaged_lib, make_tiny_vocab
from domaingen import (
    BLOCKS_DOMAIN,
    bfs_optimal_length,
    blocks_case,
    random_case,
    replay,
    unreachable_case,
)
from test_pddl import TINY_DOMAIN


def make_entry(problem_text: str, name: str = "e") -> PlanEntry:
    dom = parse_domain(TINY_DOMAIN)
    return PlanEntry(name, dom, parse_problem(problem_text, dom))


FETCH = """
(define (problem fetch-brush)
  (:domain tiny)
  (:objects brush cup - item table shelf - surface hand - gripper rover - base)
  (:init (On brush table) (Free hand) (Found brush) (Found table))
  (:goal (and (Hold hand brush))))
"""


def plan(entry: PlanEntry, **kw):
    return solve(entry.domain, entry.problem.objects, entry.problem.init, entry.goal_state, **kw)


# --- transitions ----------------------------------------------------------------


def test_apply_grasp_transition():
    dom = parse_domain(TINY_DOMAIN)
    objects = {"brush": "item", "table": "surface", "hand": "gripper", "rover": "base"}
    acts = {ga.name: ga for ga in ground_actions(dom, objects)}
    grasp = acts["grasp(brush,table)"]
    assert grasp.pre == {
        Atom("On", ("brush", "table")),
        Atom("Free", ("hand",)),
        Atom("CloseTo", ("rover", "table")),
    }
    assert grasp.add == {Atom("Hold", ("hand", "brush"))}
    assert grasp.delete == {Atom("On", ("brush", "table")), Atom("Free", ("hand",))}


def test_apply_inverse_pairs_restore_state():
    # pickup/putdown and unstack/stack are exact inverses in the blocks domain
    inverses = {"pickup": "putdown", "putdown": "pickup", "unstack": "stack", "stack": "unstack"}
    for seed in range(25):
        rng = random.Random(seed)
        _, prob = blocks_case(rng, rng.randint(3, 5))
        actions = ground_actions(BLOCKS_DOMAIN, prob.objects)
        s = prob.init
        for _ in range(6):
            usable = [ga for ga in actions if ga.pre <= s.atoms]
            if not usable:
                break
            ga = rng.choice(usable)
            mid = replay(s, [ga])
            inv_name = inverses[ga.schema.name]
            inv_args = ga.args if ga.schema.name in ("pickup", "putdown") else (ga.args[0], ga.args[1], ga.args[2])
            inv = next(a for a in actions if a.schema.name == inv_name and a.args == inv_args)
            assert replay(mid, [inv]) == s
            s = mid


# --- grounding ----------------------------------------------------------------


def test_grounding_respects_sorts_and_equality():
    dom = parse_domain(TINY_DOMAIN)
    objects = {"brush": "item", "table": "surface", "hand": "gripper", "rover": "base"}
    names = {ga.name for ga in ground_actions(dom, objects)}
    assert "grasp(brush,table)" in names
    assert "grasp(table,brush)" not in names  # sort filtering
    assert "place(brush,table)" in names
    # approach grounds over world entities only
    assert "approach(brush)" in names and "approach(rover)" not in names


def test_grounding_equality_filter():
    dom = parse_domain(
        """
(define (domain d)
  (:requirements :typing :equality)
  (:types t - entity)
  (:predicates (P ?a - t ?b - t))
  (:action link
    :parameters (?a - t ?b - t)
    :precondition (and (not (= ?a ?b)))
    :effect (and (P ?a ?b))))
"""
    )
    names = {ga.name for ga in ground_actions(dom, {"x": "t", "y": "t"})}
    assert names == {"link(x,y)", "link(y,x)"}


def test_grounding_is_sorted():
    rng = random.Random(3)
    _, prob = blocks_case(rng, 4)
    acts = ground_actions(BLOCKS_DOMAIN, prob.objects)
    assert [a.key() for a in acts] == sorted(a.key() for a in acts)


def plan_objects(entry: PlanEntry, sub: dict[str, str]) -> dict[str, str]:
    """The object set the monitor's PLAN phase grounds an entry over."""
    objects: dict[str, str] = {}
    for name in sorted(entry.problem.objects):
        objects.setdefault(sub.get(name, name), entry.problem.objects[name])
    return objects


def packaged_groundings(lib: PlanLibrary) -> list[tuple[PlanEntry, dict[str, str]]]:
    """Every entry over its own objects, and over each renaming match_plan
    gives it for another entry's goal."""
    out = []
    for entry in lib.entries:
        out.append((entry, dict(entry.problem.objects)))
        alone = PlanLibrary([entry], lib.vocab)
        for other in lib.entries:
            try:
                m = match_plan(alone, other.goal_state)
            except NoMatch:
                continue
            out.append((entry, plan_objects(entry, m.substitution)))
    return out


def test_memoised_grounding_equals_a_fresh_one_on_the_packaged_library(packaged_lib):
    oracle = load_packaged_lib()
    cases = packaged_groundings(packaged_lib)
    assert sum(1 for e, o in cases if o != e.problem.objects) > len(packaged_lib.entries)
    for entry, objects in cases:
        dom = oracle.entry(entry.name).domain
        dom.groundings.clear()  # the oracle grounds afresh every time
        fresh = ground_actions(dom, objects)
        memo = ground_actions(entry.domain, objects)
        assert [(a.name, a.pre, a.add, a.delete) for a in memo] == [
            (a.name, a.pre, a.add, a.delete) for a in fresh
        ], entry.name
        assert list(_scan_candidates(entry.domain, objects, packaged_lib.vocab)) == candidate_atoms(
            objects, dom.predicates.values(), oracle.vocab
        ), entry.name


def test_grounding_memo_is_shared_across_insertion_orders_and_immutable():
    dom = parse_domain(TINY_DOMAIN)
    vocab = make_tiny_vocab()
    objects = {"brush": "item", "table": "surface", "hand": "gripper", "rover": "base"}
    reordered = dict(reversed(list(objects.items())))
    acts = ground_actions(dom, objects)
    assert ground_actions(dom, reordered) is acts
    cands = _scan_candidates(dom, objects, vocab)
    assert _scan_candidates(dom, reordered, vocab) is cands
    assert isinstance(acts, tuple) and isinstance(cands, tuple)
    # another object, or another sort for the same name, is another key
    assert ground_actions(dom, {**objects, "cup": "item"}) is not acts
    resorted = ground_actions(dom, {**objects, "table": "item"})
    assert "grasp(brush,table)" not in {a.name for a in resorted}
    assert len(dom.groundings) == 3


# --- search -------------------------------------------------------------------


def test_plan_goal_already_satisfied():
    entry = make_entry(
        """
(define (problem p) (:domain tiny)
  (:objects brush - item table - surface hand - gripper)
  (:init (On brush table) (Free hand))
  (:goal (and (Free hand))))
"""
    )
    assert plan(entry) == []


def test_plan_two_step_fetch():
    entry = make_entry(
        """
(define (problem p) (:domain tiny)
  (:objects brush - item table - surface hand - gripper rover - base)
  (:init (On brush table) (Free hand) (Found table))
  (:goal (and (Hold hand brush))))
"""
    )
    steps = plan(entry)
    assert [ga.schema.name for ga in steps] == ["approach", "grasp"]
    assert len(steps) == bfs_optimal_length(entry.domain, entry.problem)
    assert entry.goal_state.atoms <= replay(entry.problem.init, steps).atoms


def test_plan_unreachable_goal():
    entry = make_entry(
        """
(define (problem p) (:domain tiny)
  (:objects brush - item table - surface hand - gripper)
  (:init (Free hand))
  (:goal (and (On brush table))))
"""
    )
    # nothing adds On without Hold, and nothing grants Hold without On
    with pytest.raises(NoPlan):
        plan(entry)


def test_a_hand_that_places_can_grasp_again(packaged_lib):
    # warehouse: place frees the hand, as handover does, so a plan can set
    # the panel down and then pick the brush up with the same hand
    dom = packaged_lib.entry("stow_panel").domain
    objects = {
        "robot": "robot-body",
        "robot_hand": "robot-hand",
        "panel": "item",
        "brush": "item",
        "workbench": "surface",
        "table": "surface",
    }
    init = State.parse(["VisionOn(robot)", "Holding(robot_hand,panel)", "On(brush,table)"])
    goal = State.parse(["On(panel,workbench)", "Holding(robot_hand,brush)"])
    steps = solve(dom, objects, init, goal)
    names = [ga.schema.name for ga in steps]
    assert names.index("place") < names.index("grasp")
    assert goal.atoms <= replay(init, steps).atoms


def test_dead_end_goal_raises_noplan_before_any_expansion():
    entry = make_entry(
        """
(define (problem p) (:domain tiny)
  (:objects brush - item table - surface hand - gripper)
  (:init (Free hand))
  (:goal (and (On brush table))))
"""
    )
    # unreachable even with deletes ignored: no search budget is spent
    with pytest.raises(NoPlan):
        plan(entry, budget=0)


def test_noplan_exactly_when_the_bfs_oracle_finds_none():
    kinds = Counter()
    for seed in range(30):
        for dom, prob in (random_case(seed), unreachable_case(seed)):
            if bfs_optimal_length(dom, prob) is not None:
                steps = solve(dom, prob.objects, prob.init, prob.goal)
                assert prob.goal.atoms <= replay(prob.init, steps).atoms, f"seed {seed}"
                continue
            with pytest.raises(NoPlan):
                solve(dom, prob.objects, prob.init, prob.goal)
            # budget 0 separates dead ends caught before search from the rest
            try:
                solve(dom, prob.objects, prob.init, prob.goal, budget=0)
            except NoPlan:
                kinds["relaxed"] += 1
            except BudgetExceeded:
                kinds["search"] += 1
    assert kinds["relaxed"] > 0 and kinds["search"] > 0, kinds


def test_plan_budget_exceeded():
    rng = random.Random(7)
    dom, prob = blocks_case(rng, 5)
    with pytest.raises(BudgetExceeded):
        solve(dom, prob.objects, prob.init, prob.goal, budget=1)


def test_greedy_is_sound_and_terminates():
    for seed in range(30):
        dom, prob = random_case(seed)
        steps = solve(dom, prob.objects, prob.init, prob.goal)
        assert prob.goal.atoms <= replay(prob.init, steps).atoms, f"seed {seed}"


def test_plan_determinism():
    for seed in (2, 9):
        dom, prob = random_case(seed)
        a = solve(dom, prob.objects, prob.init, prob.goal)
        b = solve(dom, prob.objects, prob.init, prob.goal)
        assert [ga.name for ga in a] == [ga.name for ga in b]


# --- match_plan -----------------------------------------------------------------


def brute_force_match(lib: PlanLibrary, g: State):
    """Exhaustive reference for match_plan: every injective sort-compatible
    renaming of each entry's goal objects, enumerated in the matcher's order
    (objects sorted, each trying itself and then the terms of g, sorted), the
    first renaming with the highest overlap kept. Entries rank by (overlap,
    fewer goal atoms), ties to the earliest. Returns (entry index, overlap,
    substitution, matched goal)."""
    vocab = lib.vocab
    g_terms = sorted({a for atom in g.atoms for a in atom.args if a in vocab.terms})
    best = None
    for idx, entry in enumerate(lib.entries):
        atoms = entry.goal_state.atoms
        objs = sorted({a for atom in atoms for a in atom.args})
        options = []
        for o in objs:
            declared = entry.problem.objects[o]
            opts = [o] + [
                t for t in g_terms if t != o and vocab.is_subsort(vocab.terms[t].sort, declared)
            ]
            options.append(opts)
        top, top_sub = -1, None
        for combo in itertools.product(*options):
            if len(set(combo)) != len(combo):
                continue
            sub = dict(zip(objs, combo))
            n = sum(
                1
                for atom in atoms
                if Atom(atom.pred, tuple(sub.get(x, x) for x in atom.args)) in g.atoms
            )
            if n > top:
                top, top_sub = n, sub
        if best is None or (top, -len(atoms)) > (best[1], -len(lib.entries[best[0]].goal_state.atoms)):
            matched = State.of(
                Atom(a.pred, tuple(top_sub.get(x, x) for x in a.args)) for a in atoms
            )
            best = (idx, top, top_sub, matched)
    return best


def assert_matches_brute_force(lib: PlanLibrary, g: State):
    want_idx, want_overlap, want_sub, want_goal = brute_force_match(lib, g)
    if want_overlap == 0:
        with pytest.raises(NoMatch):
            match_plan(lib, g)
        return
    m = match_plan(lib, g)
    assert (lib.entries.index(m.entry), m.overlap) == (want_idx, want_overlap), g
    assert m.substitution == want_sub, g
    assert m.matched_goal == want_goal, g


@pytest.fixture()
def small_library():
    entries = [
        make_entry(FETCH, "fetch-brush"),
        make_entry(
            """
(define (problem stock) (:domain tiny)
  (:objects cup - item shelf - surface hand - gripper)
  (:init (Free hand))
  (:goal (and (On cup shelf) (Free hand))))
""",
            "stock-shelf",
        ),
        make_entry(
            """
(define (problem spot) (:domain tiny)
  (:objects brush - item rover - base)
  (:init)
  (:goal (and (Found brush) (CloseTo rover brush))))
""",
            "spot-brush",
        ),
    ]
    return PlanLibrary(entries, make_tiny_vocab())


def test_match_exact_goal(small_library):
    g = State.of([Atom("On", ("cup", "shelf")), Atom("Free", ("hand",))])
    m = match_plan(small_library, g)
    assert m.entry.name == "stock-shelf"
    assert m.overlap == 2
    assert m.matched_goal == g


def test_match_partial_overlap(small_library):
    # shares 2 of 3 atoms with stock-shelf, at most 1 with anything else
    g = State.of([Atom("On", ("cup", "shelf")), Atom("Free", ("hand",)), Atom("Found", ("cup",))])
    m = match_plan(small_library, g)
    assert m.entry.name == "stock-shelf"
    assert m.overlap == 2


def test_match_tie_breaks_by_library_order(small_library):
    # Hold(hand,cup) matches fetch-brush only after renaming brush->cup;
    # On(cup,shelf) matches stock-shelf identically; both overlap 1
    g = State.of([Atom("Hold", ("hand", "cup"))])
    m = match_plan(small_library, g)
    assert m.entry.name == "fetch-brush"
    assert m.substitution["brush"] == "cup"
    assert m.overlap == 1


def test_match_renames_objects(small_library):
    # no entry mentions On(brush, shelf); renaming cup->brush recovers it
    g = State.of([Atom("On", ("brush", "shelf"))])
    m = match_plan(small_library, g)
    assert m.entry.name == "stock-shelf"
    assert m.substitution["cup"] == "brush"
    assert Atom("On", ("brush", "shelf")) in m.matched_goal


def test_match_prefers_identity_and_library_order(small_library):
    g = State.of([Atom("Hold", ("hand", "brush")), Atom("Found", ("brush",))])
    m = match_plan(small_library, g)
    # fetch-brush overlaps on Hold, spot-brush on Found: tie broken by order
    assert m.entry.name == "fetch-brush"
    assert m.substitution.get("brush", "brush") == "brush"


def test_match_empty_library():
    with pytest.raises(EmptyLibrary):
        match_plan(PlanLibrary([], make_tiny_vocab()), State())


def test_match_no_overlap(small_library):
    # CloseTo(rover, shelf) cannot be reached by any sort-legal renaming:
    # spot-brush's CloseTo argument is declared an item, shelf is a surface
    with pytest.raises(NoMatch):
        match_plan(small_library, State.of([Atom("CloseTo", ("rover", "shelf"))]))


def test_match_agrees_with_brute_force(small_library):
    vocab = small_library.vocab
    pool = [
        Atom("On", ("brush", "table")),
        Atom("On", ("cup", "shelf")),
        Atom("On", ("brush", "shelf")),
        Atom("Hold", ("hand", "brush")),
        Atom("Found", ("cup",)),
        Atom("Found", ("brush",)),
        Atom("CloseTo", ("rover", "cup")),
        Atom("Free", ("hand",)),
    ]
    rng = random.Random(0)
    for trial in range(60):
        assert_matches_brute_force(small_library, State.of(rng.sample(pool, rng.randint(1, 4))))


def test_match_determinism(small_library):
    g = State.of([Atom("On", ("brush", "shelf")), Atom("Found", ("cup",))])
    a = match_plan(small_library, g)
    b = match_plan(small_library, g)
    assert (a.entry.name, a.overlap, a.substitution) == (b.entry.name, b.overlap, b.substitution)


def perturbed_goals(lib: PlanLibrary, n: int, seed: int) -> list[State]:
    """Library goals edited at random: atoms of other entry goals mixed in,
    objects renamed to vocabulary terms of the same sort or of any sort, or
    to a term the vocabulary lacks, and atoms dropped."""
    rng = random.Random(seed)
    vocab = lib.vocab
    terms = sorted(vocab.terms)
    goals = [e.goal_state.canonical() for e in lib.entries]
    out = []
    for _ in range(n):
        atoms = list(rng.choice(goals))
        for _ in range(rng.randint(0, 2)):
            atoms.append(rng.choice(rng.choice(goals)))
        ren = {}
        for o in sorted({x for a in atoms for x in a.args}):
            r = rng.random()
            if r < 0.3:
                ren[o] = rng.choice([t for t in terms if vocab.terms[t].sort == vocab.terms[o].sort])
            elif r < 0.4:
                ren[o] = rng.choice(terms)
            elif r < 0.43:
                ren[o] = "ghost"
        atoms = [Atom(a.pred, tuple(ren.get(x, x) for x in a.args)) for a in atoms]
        out.append(State.of([a for a in atoms if rng.random() < 0.8] or atoms[:1]))
    return out


def test_match_agrees_with_brute_force_on_packaged_library(packaged_lib):
    goals = [e.goal_state for e in packaged_lib.entries] + perturbed_goals(packaged_lib, 520, seed=5)
    for g in goals:
        assert_matches_brute_force(packaged_lib, g)
    # the perturbations reach renamed matches, identity matches and misses
    outcomes = Counter()
    for g in goals[len(packaged_lib.entries):]:
        try:
            m = match_plan(packaged_lib, g)
        except NoMatch:
            outcomes["none"] += 1
            continue
        outcomes["renamed" if any(k != v for k, v in m.substitution.items()) else "identity"] += 1
    assert min(outcomes["renamed"], outcomes["identity"]) > 50 and outcomes["none"] > 0, outcomes


# --- the match memo ---------------------------------------------------------------


def match_fields(m):
    return (m.entry.name, m.overlap, dict(m.substitution), m.matched_goal)


def test_match_memo_serves_library_goals_with_the_cold_search_result():
    lib = load_packaged_lib()
    fresh = load_packaged_lib()
    lib_goals = {e.goal_state for e in lib.entries}
    goals = [e.goal_state for e in lib.entries] + perturbed_goals(lib, 520, seed=5)
    served = 0
    for g in goals:
        cold = PlanLibrary(fresh.entries, fresh.vocab)  # freshly loaded entries, an empty memo
        try:
            first = match_plan(lib, g)
        except NoMatch:
            with pytest.raises(NoMatch):
                match_plan(cold, g)
            continue
        again = match_plan(lib, g)
        if g in lib_goals:
            assert again is first, g
            served += 1
        else:
            assert again is not first, g  # searched afresh, never kept
        assert match_fields(again) == match_fields(match_plan(cold, g)), g
        assert_matches_brute_force(lib, g)
    assert served > len(lib.entries)  # some perturbations are library goals again
    # the memo holds library goals only, one result at most per entry
    kept = [k for k, m in lib.matches.items() if m is not None]
    assert set(lib.matches) <= lib_goals
    assert set(kept) == lib_goals and len(kept) <= len(lib.entries)


def test_a_library_goal_is_its_own_memo_key():
    lib = load_packaged_lib()
    goal = lib.entry("locate_brush_ladder").goal_state
    m = match_plan(lib, goal)
    assert match_plan(lib, goal) is m
    assert (m.entry.name, dict(m.substitution)) == (
        "locate_brush_table",
        {"brush": "brush", "table": "ladder"},
    )
    assert lib.matches[goal] is m


def test_a_shared_match_is_read_only(small_library):
    m = match_plan(small_library, State.of([Atom("On", ("brush", "shelf"))]))
    with pytest.raises(TypeError):
        m.substitution["x"] = "y"
    assert m.substitution == {"cup": "brush", "hand": "hand", "shelf": "shelf"}  # still equals a dict


def test_each_loaded_library_starts_with_an_empty_match_memo():
    first = load_packaged_lib()
    match_plan(first, first.entries[0].goal_state)
    assert first.matches
    second = load_packaged_lib()
    assert second.matches == {} and second.matches is not first.matches
