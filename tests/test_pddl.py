import os
import random

import pytest

from taskmon import pddl
from taskmon.language import Atom, Predicate, State
from taskmon.pddl import (
    ActionSchema,
    LibraryError,
    Parameter,
    ParseError,
    PlanDomain,
    PlanProblem,
    SchemaAtom,
    SList,
    Tok,
    TypingError,
    UnsupportedFeature,
    load_library,
    parse_domain,
    parse_problem,
    validate_library,
)
from conftest import DATA, TINY_DOMAIN, make_tiny_vocab
from domaingen import print_domain, print_problem

TINY_PROBLEM = """
(define (problem fetch-brush)
  (:domain tiny)
  (:objects brush cup - item table shelf - surface hand - gripper rover - base)
  (:init (On brush table) (Free hand) (Found brush) (Found table))
  (:goal (and (Hold hand brush))))
"""


@pytest.fixture(scope="module")
def tiny_domain():
    return parse_domain(TINY_DOMAIN)


@pytest.fixture(scope="module")
def tiny_problem(tiny_domain):
    return parse_problem(TINY_PROBLEM, tiny_domain)


def test_parse_minimal_ecological_domain():
    text = """
(define (domain mini)
  (:requirements :typing)
  (:types thing)
  (:predicates (Found ?x - thing))
  (:action search
    :class ecological
    :parameters (?x - thing)
    :precondition (and)
    :effect (and (Found ?x))))
"""
    dom = parse_domain(text)
    assert len(dom.schemas) == 1
    assert dom.schemas[0].name == "search"
    assert dom.schemas[0].action_class == "ecological"


def test_parse_domain_structure(tiny_domain):
    d = tiny_domain
    assert d.name == "tiny"
    assert d.sorts["item"] == "world-ent"
    assert d.sorts["entity"] is None  # implicit root
    assert d.predicates["On"] == Predicate("On", ("item", "surface"))
    schemas = {s.name: s for s in d.schemas}
    grasp = schemas["grasp"]
    assert grasp.action_class == "world"
    assert SchemaAtom("On", ("?o", "?s")) in grasp.pre
    assert SchemaAtom("On", ("?o", "?s")) in grasp.delete


def test_unsupported_features():
    with pytest.raises(UnsupportedFeature, match=":durative-action"):
        parse_domain("(define (domain d) (:durative-action go))")
    for flag in ("strips", "equality", "negative-preconditions"):
        with pytest.raises(UnsupportedFeature) as e:
            parse_domain(f"(define (domain d) (:requirements :typing :{flag}))")
        assert e.value.feature == f"requirement :{flag}"
    with pytest.raises(UnsupportedFeature, match="or"):
        parse_domain(
            "(define (domain d) (:types t) (:predicates (P ?x - t))"
            " (:action a :parameters (?x - t) :precondition (or (P ?x)) :effect (and)))"
        )
    with pytest.raises(UnsupportedFeature, match="negative precondition"):
        parse_domain(
            "(define (domain d) (:types t) (:predicates (P ?x - t))"
            " (:action a :parameters (?x - t) :precondition (not (P ?x)) :effect (and)))"
        )
    # equality is refused wherever it appears, as a literal or a declaration
    for pre, eff in [("(not (= ?x ?y))", "(and)"), ("(= ?x ?y)", "(and)"), ("(and)", "(= ?x ?y)")]:
        with pytest.raises(UnsupportedFeature) as e:
            parse_domain(
                "(define (domain d) (:types t) (:predicates (P ?x - t))"
                f" (:action a :parameters (?x ?y - t) :precondition {pre} :effect {eff}))"
            )
        assert e.value.feature == "=", (pre, eff)
    with pytest.raises(UnsupportedFeature) as e:
        parse_domain("(define (domain d) (:types t) (:predicates (= ?x ?y - t)))")
    assert e.value.feature == "="
    dom = parse_domain("(define (domain d) (:types t) (:predicates (P ?x - t)))")
    for sections in ["(:init (= x x)) (:goal (and))", "(:init) (:goal (and (P x) (= x x)))"]:
        with pytest.raises(UnsupportedFeature) as e:
            parse_problem(f"(define (problem p) (:domain d) (:objects x - t) {sections})", dom)
        assert e.value.feature == "=", sections


NOT_DOMAIN = "(define (domain d) (:types t) (:predicates (P ?x - t))"


@pytest.mark.parametrize(
    "domain, sections",
    [
        pytest.param(NOT_DOMAIN + ")", "(:init) (:goal (and (not (P x))))", id="goal"),
        pytest.param(NOT_DOMAIN + ")", "(:init) (:goal (not (P x)))", id="bare-goal"),
        pytest.param(NOT_DOMAIN + ")", "(:init (not (P x))) (:goal (and))", id="init"),
        pytest.param(
            NOT_DOMAIN + " (:action a :parameters (?x - t) :precondition (and) :effect (not (not (P ?x)))))",
            None,
            id="double-negated-effect",
        ),
        pytest.param("(define (domain d) (:types t) (:predicates (not ?x - t)))", None, id="declared"),
    ],
)
def test_a_negation_outside_a_delete_effect_is_refused_by_name(domain, sections):
    # a delete effect's (not atom) is the one negation the surface reads;
    # anywhere else `not` used to pass for a predicate name
    with pytest.raises(UnsupportedFeature) as e:
        dom = parse_domain(domain)
        parse_problem(f"(define (problem p) (:domain d) (:objects x - t) {sections})", dom)
    assert e.value.feature == "not"


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_domain("(define (domain d)\n  (:types a b")
    assert e.value.line == 2 and "')'" in e.value.expected

    with pytest.raises(ParseError) as e:
        parse_domain("(define (domain d) (:types t) (:predicates (P ?x - t))\n(:action a :parameters (?x) :precondition (and) :effect (and)))")
    assert "explicit typing" in e.value.expected
    assert e.value.line == 2

    with pytest.raises(ParseError) as e:
        parse_domain(")")
    assert (e.value.line, e.value.column) == (1, 1)

    with pytest.raises(ParseError) as e:
        parse_domain("(define (domain d) (:predicates ()))")
    assert (e.value.line, e.value.column) == (1, 33) and e.value.expected == "a predicate name"

    with pytest.raises(ParseError, match="world or ecological"):
        parse_domain(
            "(define (domain d) (:types t) (:predicates (P ?x - t))"
            " (:action a :class cosmic :parameters (?x - t) :precondition (and) :effect (and)))"
        )


def test_deep_nesting_is_a_parse_error():
    # the reader builds lists on a stack, so depth is bound by memory only
    with pytest.raises(ParseError) as e:
        parse_domain("(" * 5000)
    assert (e.value.line, e.value.column, e.value.expected) == (1, 5000, "a matching ')'")
    prefix = "(define (domain d) (:types t) (:predicates "
    with pytest.raises(ParseError) as e:
        parse_domain(prefix + "(" * 3000 + ")" * 3000 + "))")
    assert (e.value.line, e.value.column, e.value.expected) == (1, len(prefix) + 2, "a predicate name")


def reference_parse(text):
    """A recursive reader to compare `pddl._parse_sexpr` with: a character
    loop that tokenizes, then a descent that reads one expression. Its
    recursion bounds its depth, so the inputs it is given stay shallow."""
    toks, line, col, i = [], 1, 1, 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line, col, i = line + 1, 1, i + 1
        elif c in " \t\r":
            col, i = col + 1, i + 1
        elif c == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        else:
            j = i + 1
            if c not in "()":
                while j < len(text) and text[j] not in " \t\r\n();":
                    j += 1
            toks.append(Tok(text[i:j], line, col))
            col, i = col + j - i, j

    def read(i):
        if i >= len(toks):
            last = toks[-1] if toks else Tok("", 1, 1)
            raise ParseError(last.line, last.col + len(last.text), "an expression, found end of input")
        t = toks[i]
        if t.text == ")":
            raise ParseError(t.line, t.col, "an expression, found ')'")
        if t.text != "(":
            return t, i + 1
        items, i = [], i + 1
        while True:
            if i >= len(toks):
                raise ParseError(t.line, t.col, "a matching ')'")
            if toks[i].text == ")":
                return SList(items, t.line, t.col), i + 1
            node, i = read(i)
            items.append(node)

    node, i = read(0)
    if i != len(toks):
        raise ParseError(toks[i].line, toks[i].col, "end of input")
    return node


def read_outcome(reader, text):
    try:
        return reader(text)
    except ParseError as e:
        return ("error", e.line, e.column, e.expected)


SEXPR_PIECES = ["(", ")", "(", ")", "a", "Pred", "?x", "-", ":k", " ", " ", "\t", "\r", "\n", "\r\n", "\f", "; c", "; c\n", ";\n"]


def test_the_reader_agrees_with_the_recursive_reference():
    rng = random.Random(40)
    texts = []
    for _ in range(2000):
        pieces = [rng.choice(SEXPR_PIECES) for _ in range(rng.randrange(0, 30))]
        if rng.random() < 0.5:  # one balanced list, so most of these read
            depth, kept = 1, ["("]
            for p in pieces:
                if p != ")" or depth > 1:
                    depth += (p == "(") - (p == ")")
                    kept.append(p)
            pieces = kept + [")"] * depth
        texts.append("".join(pieces))
    for d in ("domains", "problems"):
        for name in sorted(os.listdir(os.path.join(DATA, d))):
            with open(os.path.join(DATA, d, name)) as f:
                texts.append(f.read())
    lists = 0
    for text in texts:
        got = read_outcome(pddl._parse_sexpr, text)
        assert got == read_outcome(reference_parse, text), repr(text)
        lists += isinstance(got, SList)
    # both arms are exercised, not only the refusals
    assert 500 < lists < len(texts) - 500, lists


def test_schema_invariants_enforced():
    with pytest.raises(ParseError, match="undeclared"):
        parse_domain(
            "(define (domain d) (:types t) (:predicates (P ?x - t))"
            " (:action a :parameters (?x - t) :precondition (P ?y) :effect (and)))"
        )
    with pytest.raises(ParseError, match="distinct parameter"):
        parse_domain(
            "(define (domain d) (:types t) (:predicates (P ?x - t))"
            " (:action a :parameters (?x - t ?x - t) :precondition (and) :effect (and)))"
        )
    with pytest.raises(ParseError, match="disjoint"):
        parse_domain(
            "(define (domain d) (:types t) (:predicates (P ?x - t))"
            " (:action a :parameters (?x - t) :precondition (and) :effect (and (P ?x) (not (P ?x)))))"
        )


def test_parse_problem(tiny_problem):
    p = tiny_problem
    assert p.name == "fetch-brush"
    assert p.objects["brush"] == "item"
    assert Atom("On", ("brush", "table")) in p.init
    assert p.goal == State.of([Atom("Hold", ("hand", "brush"))])


def test_problem_type_errors(tiny_domain):
    with pytest.raises(TypingError, match="undeclared object"):
        parse_problem(
            "(define (problem p) (:domain tiny) (:objects hand - gripper)"
            " (:init) (:goal (and (Hold hand ghost))))",
            tiny_domain,
        )
    with pytest.raises(TypingError, match="incompatible"):
        parse_problem(
            "(define (problem p) (:domain tiny) (:objects hand - gripper cup - item)"
            " (:init) (:goal (and (Hold cup hand))))",
            tiny_domain,
        )
    with pytest.raises(TypingError, match="expects 2"):
        parse_problem(
            "(define (problem p) (:domain tiny) (:objects hand - gripper)"
            " (:init) (:goal (and (Hold hand))))",
            tiny_domain,
        )
    with pytest.raises(TypingError, match="not ground"):
        parse_problem(
            "(define (problem p) (:domain tiny) (:objects hand - gripper)"
            " (:init (Free ?g)) (:goal (and)))",
            tiny_domain,
        )
    with pytest.raises(TypingError, match="references domain"):
        parse_problem("(define (problem p) (:domain other) (:init) (:goal (and)))", tiny_domain)


def test_problem_empty_init_and_goal(tiny_domain):
    p = parse_problem(
        "(define (problem p) (:domain tiny) (:objects hand - gripper) (:init) (:goal (and)))",
        tiny_domain,
    )
    assert len(p.init) == 0 and len(p.goal) == 0


def test_problem_missing_goal(tiny_domain):
    with pytest.raises(ParseError, match=":goal"):
        parse_problem("(define (problem p) (:domain tiny) (:init))", tiny_domain)


def test_a_repeated_section_is_refused_at_the_repeat(tiny_domain):
    # a repeat would silently replace or merge with the first: (:goal (P x))
    # (:goal (Q x)) would plan for Q(x) alone, and a second :objects would
    # add objects; only :action repeats, once per action
    sections = {":parameters": "(?x - t)", ":precondition": "(and)", ":effect": "(and)", ":class": "world"}
    for key, value in sections.items():
        body = " ".join(f"{k} {v}" for k, v in sections.items())
        text = f"(define (domain d) (:types t) (:predicates (P ?x - t))\n (:action a {body} {key} {value}))"
        with pytest.raises(ParseError) as e:
            parse_domain(text)
        assert e.value.expected == f"a single {key} section", key
        assert (e.value.line, e.value.column) == (2, text.rindex(key) - text.index("\n")), key
    domain = "(define (domain d) (:requirements :typing) (:types t) (:predicates (P ?x - t))\n {})"
    problem = "(define (problem p) (:domain tiny) (:objects hand - gripper)\n {})"
    repeats = [
        (domain, "(:requirements :typing)"),
        (domain, "(:types u)"),
        (domain, "(:predicates (Q ?x - t))"),
        (problem, "(:goal (and (Free hand))) (:goal (and))"),
        (problem, "(:domain tiny) (:goal (and))"),
        (problem, "(:objects cup - item) (:goal (and))"),
        (problem, "(:init (Free hand)) (:init (Found cup)) (:goal (and))"),
    ]
    parsers = {domain: parse_domain, problem: lambda text: parse_problem(text, tiny_domain)}
    for template, repeat in repeats:
        text = template.format(repeat)
        key = repeat[1 : repeat.index(" ")]
        with pytest.raises(ParseError) as e:
            parsers[template](text)
        assert e.value.expected == f"a single {key} section", key
        assert (e.value.line, e.value.column) == (2, text.rindex("(" + key) - text.index("\n")), key


def test_print_parse_round_trip_fixture(tiny_domain, tiny_problem, packaged_lib):
    domains = [tiny_domain] + list({id(e.domain): e.domain for e in packaged_lib.entries}.values())
    problems = [(tiny_domain, tiny_problem)] + [(e.domain, e.problem) for e in packaged_lib.entries]
    for dom in domains:
        assert parse_domain(print_domain(dom)) == dom, dom.name
    for dom, prob in problems:
        assert parse_problem(print_problem(prob, dom.name), dom) == prob, prob.name


def random_trip_domain(rng: random.Random) -> PlanDomain:
    sorts = {"entity": None, "world-b": "entity", "robot-b": "entity"}
    for i in range(rng.randint(0, 3)):
        sorts[f"s{i}"] = rng.choice(sorted(sorts))
    sort_names = sorted(sorts)
    preds = {}
    for i in range(rng.randint(1, 4)):
        arity = rng.randint(1, 2)
        preds[f"P{i}"] = Predicate(f"P{i}", tuple(rng.choice(sort_names) for _ in range(arity)))
    schemas = []
    for i in range(rng.randint(0, 3)):
        params = tuple(Parameter(f"?v{j}", "entity") for j in range(rng.randint(1, 3)))

        def atom():
            p = preds[rng.choice(sorted(preds))]
            return SchemaAtom(p.name, tuple(rng.choice(params).name for _ in range(p.arity)))

        pre = tuple(atom() for _ in range(rng.randint(0, 3)))
        add = tuple({atom() for _ in range(rng.randint(0, 2))})
        delete = tuple({a for a in (atom() for _ in range(rng.randint(0, 2))) if a not in add})
        schemas.append(ActionSchema(f"a{i}", params, pre, add, delete, rng.choice(["world", "ecological"])))
    return PlanDomain("rnd", sorts, preds, tuple(schemas))


def test_print_parse_round_trip_corpus():
    for seed in range(40):
        rng = random.Random(seed)
        dom = random_trip_domain(rng)
        assert parse_domain(print_domain(dom)) == dom, f"seed {seed}"

        objects = {f"o{j}_{s}": s for j, s in enumerate(sorted(dom.sorts))}
        by_sort = {s: n for n, s in objects.items()}

        def ground(p):
            return Atom(p.name, tuple(by_sort[s] for s in p.arg_sorts))

        pool = [ground(p) for p in dom.predicates.values()]
        prob = PlanProblem(
            "rndp",
            objects,
            State.of(rng.sample(pool, k=rng.randint(0, len(pool)))),
            State.of(rng.sample(pool, k=rng.randint(0, len(pool)))),
        )
        assert parse_problem(print_problem(prob, dom.name), dom) == prob, f"seed {seed}"


def test_parser_output_is_type_valid(tiny_domain, tiny_problem):
    # the parser never emits an ill-typed structure: re-checking is a no-op
    for atom in list(tiny_problem.init.atoms) + list(tiny_problem.goal.atoms):
        pred = tiny_domain.predicates[atom.pred]
        for arg, slot in zip(atom.args, pred.arg_sorts):
            assert tiny_domain.is_subsort(tiny_problem.objects[arg], slot)


# --- library ------------------------------------------------------------------


def write_library(tmp_path, domain_text=TINY_DOMAIN, extra_entries=(), chains=None):
    (tmp_path / "tiny.pddl").write_text(domain_text)
    (tmp_path / "fetch.pddl").write_text(TINY_PROBLEM)
    (tmp_path / "stock.pddl").write_text(
        """
(define (problem stock-shelf)
  (:domain tiny)
  (:objects brush cup - item table shelf - surface hand - gripper rover - base)
  (:init (On cup table) (Free hand))
  (:goal (and (On cup shelf))))
"""
    )
    entries = [
        {"name": "fetch-brush", "domain": "tiny.pddl", "problem": "fetch.pddl"},
        {"name": "stock-shelf", "domain": "tiny.pddl", "problem": "stock.pddl"},
    ] + list(extra_entries)
    doc = {"entries": entries}
    if chains is not None:
        doc["tasks"] = chains
    import yaml

    (tmp_path / "manifest.yaml").write_text(yaml.safe_dump(doc))
    return str(tmp_path / "manifest.yaml")


def test_load_library(tmp_path):
    vocab = make_tiny_vocab()
    chains = [
        {
            "id": "t-fetch",
            "chains": [
                {"goals": ["fetch-brush", "stock-shelf"], "weight": 4},
                {"goals": ["stock-shelf"], "weight": 1},
            ],
        }
    ]
    lib = load_library(write_library(tmp_path, chains=chains), vocab)
    assert [e.name for e in lib.entries] == ["fetch-brush", "stock-shelf"]
    assert lib.entries[0].domain is lib.entries[1].domain  # shared parse
    assert len(lib.chains) == 2
    assert lib.chains[0].weight == 4.0


def test_load_library_parses_each_domain_file_once(tmp_path):
    # two spellings of one file give one domain, and with it one grounding memo
    extra = [{"name": "fetch-again", "domain": "./tiny.pddl", "problem": "fetch.pddl"}]
    lib = load_library(write_library(tmp_path, extra_entries=extra), make_tiny_vocab())
    assert len({id(e.domain) for e in lib.entries}) == 1


def test_load_library_rejects_duplicates_and_bad_refs(tmp_path):
    vocab = make_tiny_vocab()
    with pytest.raises(LibraryError, match="duplicate"):
        load_library(
            write_library(
                tmp_path,
                extra_entries=[{"name": "fetch-brush", "domain": "tiny.pddl", "problem": "fetch.pddl"}],
            ),
            vocab,
        )
    with pytest.raises(LibraryError, match="unknown entry"):
        load_library(
            write_library(tmp_path, chains=[{"id": "t-fetch", "chains": [{"goals": ["nope"]}]}]),
            vocab,
        )
    with pytest.raises(LibraryError, match="not in the vocabulary"):
        load_library(
            write_library(tmp_path, chains=[{"id": "t-unknown", "chains": [{"goals": ["fetch-brush"]}]}]),
            vocab,
        )
    # a manifest missing a required field names where and which
    for kwargs, message in [
        ({"extra_entries": [{"domain": "tiny.pddl", "problem": "fetch.pddl"}]}, "entry 2: missing field 'name'"),
        ({"extra_entries": [{"name": "x", "problem": "fetch.pddl"}]}, "entry x: missing field 'domain'"),
        ({"extra_entries": [{"name": "x", "domain": "tiny.pddl"}]}, "entry x: missing field 'problem'"),
        ({"chains": [{"chains": [{"goals": ["fetch-brush"]}]}]}, "task 0: missing field 'id'"),
        ({"chains": [{"id": "t-fetch", "chains": [{"weight": 2}]}]}, "task t-fetch: chain 0: missing field 'goals'"),
    ]:
        with pytest.raises(LibraryError) as e:
            load_library(write_library(tmp_path, **kwargs), vocab)
        assert str(e.value) == message


@pytest.mark.parametrize(
    "manifest, message",
    [
        ("", "manifest must be a mapping, got NoneType"),
        ("- entries\n", "manifest must be a mapping, got list"),
        ("entries: 5\n", "manifest: field 'entries' must be a list, got int"),
        (
            "tasks:\n  - id: t-fetch\n    chains:\n      - goals: boot\n",
            "task t-fetch: chain 0: field 'goals' must be a list, got str",
        ),
        ("entries:\n  - {name: 3}\n", "entry 0: field 'name' must be a string, got int"),
        (
            "tasks:\n  - id: t-fetch\n    chains:\n      - goals: [[boot]]\n",
            "task t-fetch: chain 0: goal must be a string, got list",
        ),
        (
            "tasks:\n  - id: t-fetch\n    chains:\n      - {goals: [], weight: heavy}\n",
            "task t-fetch: chain 0: field 'weight' must be a number, got str",
        ),
        (
            "tasks:\n  - id: t-fetch\n    chains:\n      - {goals: [], weight: .nan}\n",
            "task t-fetch: chain 0: field 'weight' is nan, not a finite number >= 0",
        ),
        (
            "tasks:\n  - id: t-fetch\n    chains:\n      - {goals: [], weight: .inf}\n",
            "task t-fetch: chain 0: field 'weight' is inf, not a finite number >= 0",
        ),
        (
            "tasks:\n  - id: t-fetch\n    chains:\n      - {goals: [], weight: -1}\n",
            "task t-fetch: chain 0: field 'weight' is -1, not a finite number >= 0",
        ),
        # a misspelt key is refused at every level, not read as an absent one
        ("entries: []\nentires: []\n", "manifest: unknown fields ['entires'], expected some of ['entries', 'tasks']"),
        (
            "entries:\n  - {name: e, domain: d.pddl, problem: p.pddl, weight: 2}\n",
            "entry e: unknown fields ['weight'], expected some of ['name', 'domain', 'problem']",
        ),
        ("tasks:\n  - {id: t-fetch, chain: []}\n", "task t-fetch: unknown fields ['chain'], expected some of ['id', 'chains']"),
        (
            "tasks:\n  - id: t-fetch\n    chains:\n      - {goals: [], wieght: 3}\n",
            "task t-fetch: chain 0: unknown fields ['wieght'], expected some of ['goals', 'weight']",
        ),
    ],
    ids=[
        "empty", "top-level-list", "entries-int", "goals-string", "name-int", "goal-list", "weight-string",
        "weight-nan", "weight-inf", "weight-negative", "manifest-field", "entry-field", "task-field", "chain-field",
    ],
)
def test_load_library_rejects_misshapen_manifest(tmp_path, manifest, message):
    path = tmp_path / "manifest.yaml"
    path.write_text(manifest)
    with pytest.raises(LibraryError) as e:
        load_library(str(path), make_tiny_vocab())
    assert str(e.value) == message


@pytest.mark.parametrize(
    "old, new, duplicate",
    [
        ("item surface - world-ent", "item surface - world-ent item - entity", "sort names (duplicate item)"),
        ("(Free ?g - gripper)", "(Free ?g - gripper) (On ?o - item ?s - item)", "predicate names (duplicate On)"),
        ("(:action approach", "(:action search", "action names (duplicate search)"),
    ],
    ids=["types", "predicates", "actions"],
)
def test_parse_domain_refuses_a_duplicate_name(old, new, duplicate):
    # a name declared twice is refused, not overwritten by the last
    assert TINY_DOMAIN.count(old) == 1
    with pytest.raises(ParseError) as e:
        parse_domain(TINY_DOMAIN.replace(old, new))
    assert e.value.expected == f"distinct {duplicate}"


def test_parse_problem_refuses_a_duplicate_object(tiny_domain):
    text = TINY_PROBLEM.replace("brush cup - item", "brush cup - item brush - surface")
    with pytest.raises(ParseError) as e:
        parse_problem(text, tiny_domain)
    assert e.value.expected == "distinct object names (duplicate brush)"


def test_load_library_cross_checks_vocabulary(tmp_path):
    vocab = make_tiny_vocab()
    bad_domain = TINY_DOMAIN.replace("(Free ?g - gripper)", "(Vanish ?g - gripper)").replace(
        "(Free hand)", "(Vanish hand)"
    )
    with pytest.raises(LibraryError, match="Vanish"):
        load_library(write_library(tmp_path, domain_text=bad_domain), vocab)


def test_validate_library_static_checks(tmp_path):
    vocab = make_tiny_vocab()
    bad = TINY_DOMAIN.replace(
        """(:action approach
    :class ecological
    :parameters (?x - world-ent)
    :precondition (and (Found ?x))
    :effect (and (CloseTo rover ?x)))""",
        """(:action shove
    :class ecological
    :parameters (?o - item ?s - surface)
    :precondition (and (Found ?o))
    :effect (and (On ?o ?s)))""",
    )
    lib = load_library(write_library(tmp_path, domain_text=bad), vocab)
    violations = validate_library(lib)
    # without approach nothing grants CloseTo, so grasp never applies
    assert [(v.kind, v.entry) for v in violations] == [
        ("ecological-touches-world", "shove"),
        ("no-solution", "fetch-brush"),
    ]


def test_validate_library_flags_two_world_actions(tmp_path):
    vocab = make_tiny_vocab()
    lib = load_library(write_library(tmp_path), vocab)
    # stock-shelf moves the cup by grasp then place
    assert [(v.kind, v.entry) for v in validate_library(lib)] == [("two-world-actions", "stock-shelf")]


def test_validate_packaged_library(packaged_lib):
    assert validate_library(packaged_lib) == []
