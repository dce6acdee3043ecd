import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taskmon.language as lang
from taskmon.language import (
    Atom,
    LanguageError,
    MalformedSequence,
    Predicate,
    Sort,
    State,
    StateTooLong,
    TaskSentence,
    Term,
    TokenSeq,
    Vocabulary,
    decode_state,
    encode_goal,
    encode_state,
    parse_atom,
)
from taskmon.geometry import load_scene
from taskmon.pddl import load_library, parse_domain
from conftest import DATA, make_tiny_vocab
from domaingen import herbrand_count, herbrand_universe


def random_vocab(rng: random.Random) -> Vocabulary:
    n_terms = rng.randint(1, 9)
    sorts = [Sort("root"), Sort("world-b", "root"), Sort("robot-b", "root")]
    terms = [
        Term(f"o{i}", rng.choice(["world-b", "robot-b"]))
        for i in range(n_terms)
    ]
    preds = [
        Predicate(f"P{i}", tuple(rng.choice(["world-b", "robot-b"]) for _ in range(rng.randint(1, 2))))
        for i in range(rng.randint(1, 7))
    ]
    tasks = [TaskSentence.of("t0", "do the thing")]
    return Vocabulary(sorts, terms, preds, tasks)


def test_herbrand_size_matches_closed_form():
    # oracle: sum over predicates of |terms|^arity, computed without enumeration
    for seed in range(100):
        rng = random.Random(seed)
        v = random_vocab(rng)
        atoms = herbrand_universe(v)
        expected = sum(len(v.terms) ** p.arity for p in v.predicates.values())
        assert len(atoms) == expected
        assert herbrand_count(v) == expected


def test_herbrand_example_scale():
    # 5 predicates over 6 terms in the tiny vocabulary: 2*6 + 3*36
    v = make_tiny_vocab()
    unary = sum(1 for p in v.predicates.values() if p.arity == 1)
    binary = sum(1 for p in v.predicates.values() if p.arity == 2)
    assert len(herbrand_universe(v)) == unary * 6 + binary * 36


def test_atom_type_ok_matches_the_predicate_sorts():
    # the random vocabularies' sorts are flat, so an atom is well typed
    # exactly when each argument's sort is its predicate's; an unknown
    # predicate or term, or a wrong arity, is not
    for seed in range(30):
        rng = random.Random(1000 + seed)
        v = random_vocab(rng)
        atoms = herbrand_universe(v)
        kept = {a for a in atoms if v.atom_type_ok(a)}
        assert kept == {
            a for a in atoms if all(v.terms[x].sort == s for x, s in zip(a.args, v.predicates[a.pred].arg_sorts))
        }
        pred = next(iter(v.predicates.values()))
        args = ("o0",) * pred.arity
        assert not v.atom_type_ok(Atom("Nope", args))
        assert not v.atom_type_ok(Atom(pred.name, args + ("o0",)))
        assert not v.atom_type_ok(Atom(pred.name, ("nobody",) * pred.arity))


def test_atom_type_ok_respects_subsorts(tiny_vocab):
    assert tiny_vocab.atom_type_ok(Atom("Found", ("brush",)))  # item <= world-ent
    assert not tiny_vocab.atom_type_ok(Atom("Found", ("hand",)))  # gripper is on the robot branch


def test_encode_canonical_order_ignores_set_order(tiny_vocab):
    t = tiny_vocab.tasks["t-fetch"]
    atoms = [
        Atom("On", ("brush", "table")),
        Atom("Free", ("hand",)),
        Atom("On", ("brush", "shelf")),
        Atom("CloseTo", ("rover", "table")),
    ]
    a = encode_state(t, State.of(atoms), tiny_vocab)
    b = encode_state(t, State.of(reversed(atoms)), tiny_vocab)
    assert a == b


def test_encode_segment_structure(tiny_vocab):
    t = tiny_vocab.tasks["t-clear"]
    s = State.of([Atom("On", ("cup", "table")), Atom("Free", ("hand",))])
    seq = encode_state(t, s, tiny_vocab)
    toks = [tiny_vocab.id_to_token[i] for i in seq.ids]
    assert toks[: len(t.words)] == list(t.words)
    assert toks[len(t.words)] == lang.ETS
    assert toks[-1] == lang.EOS
    assert toks.count(lang.EOA) == 2
    # canonical order puts Free before On
    i_ets = toks.index(lang.ETS)
    assert toks[i_ets + 1] == "Free"


def test_decode_inverts_encode(tiny_vocab):
    t = tiny_vocab.tasks["t-fetch"]
    s = State.of(
        [
            Atom("On", ("brush", "table")),
            Atom("Hold", ("hand", "cup")),
            Atom("Found", ("shelf",)),
        ]
    )
    t2, s2 = decode_state(encode_state(t, s, tiny_vocab), tiny_vocab)
    assert t2 == t
    assert s2 == s


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_decode_inverts_encode_property(data):
    v = make_tiny_vocab()
    pool = sorted((a for a in herbrand_universe(v) if v.atom_type_ok(a)), key=lambda a: a.key())
    atoms = data.draw(st.lists(st.sampled_from(pool), max_size=v.max_atoms, unique=True))
    task = data.draw(st.sampled_from(sorted(v.tasks)))
    t, s = v.tasks[task], State.of(atoms)
    assert decode_state(encode_state(t, s, v), v) == (t, s)


def test_state_too_long():
    v = make_tiny_vocab(max_atoms=3)
    t = v.tasks["t-clear"]
    atoms = [Atom("Found", (n,)) for n in ["brush", "cup", "table", "shelf"]]
    with pytest.raises(StateTooLong) as e:
        encode_state(t, State.of(atoms), v)
    assert e.value.n_atoms == 4 and e.value.limit == 3
    encode_state(t, State.of(atoms[:3]), v)  # at the cap is fine


@pytest.mark.parametrize("max_atoms", [2.5, 3.0, True, "3"])
def test_vocabulary_refuses_a_max_atoms_that_is_not_a_whole_number(max_atoms):
    # a fractional cap would reach the net's goal source as a slice bound
    with pytest.raises(LanguageError, match="max_atoms must be a whole number"):
        make_tiny_vocab(max_atoms=max_atoms)


@pytest.mark.parametrize(
    "text, reason",
    [
        ("Foo(brush)", "the vocabulary has no 1-ary predicate Foo"),
        ("On(brush)", "the vocabulary has no 1-ary predicate On"),
        ("On(ghost,table)", "'ghost' is not a term"),
        ("On(Holding,table)", "'Holding' is not a term"),
    ],
)
def test_encoder_refuses_an_atom_the_vocabulary_cannot_spell(packaged_lib, text, reason):
    # each of these once raised a bare KeyError or spelled a sequence the
    # decoders refuse
    vocab = packaged_lib.vocab
    bad = parse_atom(text)
    atoms = State.of([Atom("Detected", ("brush",)), bad])
    task = vocab.tasks[min(vocab.tasks)]
    message = re.escape(f"cannot encode {bad}: {reason}")
    with pytest.raises(LanguageError, match=message):
        encode_goal(atoms, vocab)
    with pytest.raises(LanguageError, match=message):
        encode_state(task, atoms, vocab)


@pytest.mark.parametrize(
    "task",
    [TaskSentence.of("t-x", "fetch the spanner"), TaskSentence.of("t-x", "clear the table"),
     TaskSentence.of("t-clear", "bring the brush to the shelf")],
    ids=["unknown-words", "unknown-id", "another-sentence"],
)
def test_encoder_refuses_a_task_that_is_not_the_vocabularys(tiny_vocab, task):
    # unknown words once raised a bare KeyError; known words under another
    # id would decode to the vocabulary's task, not this one
    message = re.escape(f"cannot encode task {task.id!r}")
    with pytest.raises(LanguageError, match=message):
        encode_state(task, State(), tiny_vocab)


def test_empty_state_encodes(tiny_vocab):
    t = tiny_vocab.tasks["t-clear"]
    seq = encode_state(t, State(), tiny_vocab)
    assert decode_state(seq, tiny_vocab) == (t, State())
    assert seq.ids[-1] == lang.EOS_ID


@pytest.mark.parametrize(
    "mangle, position_pred",
    [
        ("drop_ets", lambda v, n: True),
        ("truncate_eos", lambda v, n: True),
        ("tokens_after_eos", lambda v, n: True),
        ("open_group", lambda v, n: True),
    ],
)
def test_decode_malformed_positions(tiny_vocab, mangle, position_pred):
    v = tiny_vocab
    t = v.tasks["t-clear"]
    s = State.of([Atom("Free", ("hand",))])
    ids = list(encode_state(t, s, v).ids)
    if mangle == "drop_ets":
        ids.remove(lang.ETS_ID)
    elif mangle == "truncate_eos":
        ids = ids[:-1]
    elif mangle == "tokens_after_eos":
        ids.append(v.token_to_id["cup"])
    elif mangle == "open_group":
        ids.remove(lang.EOA_ID)
    with pytest.raises(MalformedSequence) as e:
        decode_state(TokenSeq(tuple(ids)), v)
    assert 0 <= e.value.position <= len(ids)


def test_decode_rejects_bad_atom_groups(tiny_vocab):
    v = tiny_vocab
    base = [v.token_to_id[w] for w in v.tasks["t-clear"].words] + [lang.ETS_ID]

    wrong_arity = base + [v.token_to_id["On"], v.token_to_id["brush"], lang.EOA_ID, lang.EOS_ID]
    with pytest.raises(MalformedSequence, match="expects 2"):
        decode_state(TokenSeq(tuple(wrong_arity)), v)

    not_a_pred = base + [v.token_to_id["brush"], lang.EOA_ID, lang.EOS_ID]
    with pytest.raises(MalformedSequence, match="not a predicate"):
        decode_state(TokenSeq(tuple(not_a_pred)), v)

    empty_group = base + [lang.EOA_ID, lang.EOS_ID]
    with pytest.raises(MalformedSequence, match="empty atom group"):
        decode_state(TokenSeq(tuple(empty_group)), v)

    # an id outside the token space must not alias another token
    free = v.token_to_id["Free"]
    for bad in (free - v.size, v.size):
        out_of_range = base + [bad, v.token_to_id["hand"], lang.EOA_ID, lang.EOS_ID]
        with pytest.raises(MalformedSequence, match="unknown token id") as e:
            decode_state(TokenSeq(tuple(out_of_range)), v)
        assert e.value.position == len(base)


def test_decode_rejects_unknown_task(tiny_vocab):
    v = tiny_vocab
    ids = [v.token_to_id["clear"], v.token_to_id["the"], v.token_to_id["shelf"], lang.ETS_ID, lang.EOS_ID]
    with pytest.raises(MalformedSequence, match="not in vocabulary"):
        decode_state(TokenSeq(tuple(ids)), v)

    # an out-of-range task word is rejected, not aliased to a real task
    ids = list(encode_state(v.tasks["t-clear"], State(), v).ids)
    for bad in (ids[0] - v.size, v.size):
        with pytest.raises(MalformedSequence, match="unknown token id") as e:
            decode_state(TokenSeq((bad, *ids[1:])), v)
        assert e.value.position == 0


def test_token_space_is_shared_and_bijective(tiny_vocab):
    v = tiny_vocab
    # "brush" appears both as a term and inside a task sentence: one id
    t = v.tasks["t-fetch"]
    seq = encode_state(t, State.of([Atom("Found", ("brush",))]), v)
    brush_positions = [i for i, tid in enumerate(seq.ids) if tid == v.token_to_id["brush"]]
    assert len(brush_positions) == 2  # once in the sentence, once as the argument
    assert len(v.id_to_token) == len(v.token_to_id) == v.size
    for i, w in enumerate(v.id_to_token):
        assert v.token_to_id[w] == i
    assert v.id_to_token[:3] == [lang.EOS, lang.ETS, lang.EOA]
    assert [lang.EOS_ID, lang.ETS_ID, lang.EOA_ID] == [0, 1, 2]


def test_separator_collision_rejected():
    with pytest.raises(LanguageError, match="separator"):
        Vocabulary(
            [Sort("root"), Sort("w", "root")],
            [Term("<eoa>", "w")],
            [Predicate("P", ("w",))],
            [TaskSentence.of("t", "go")],
        )


def test_sort_tree_validation():
    with pytest.raises(LanguageError, match="one root"):
        Vocabulary([Sort("a"), Sort("b")], [], [Predicate("P", ("a",))], [])
    with pytest.raises(LanguageError, match="unknown parent"):
        Vocabulary([Sort("a"), Sort("b", "zzz")], [], [], [])
    with pytest.raises(LanguageError, match="cycle"):
        Vocabulary([Sort("r"), Sort("a", "b"), Sort("b", "a")], [], [], [])
    # a term kind is read off the sort tree only after the tree is checked
    doc = {
        "sorts": [{"name": "r"}, {"name": "a", "parent": "b"}, {"name": "b", "parent": "a"}],
        "terms": [{"name": "x", "sort": "a"}],
        "predicates": [],
    }
    with pytest.raises(LanguageError, match="cycle"):
        Vocabulary.from_dict(doc)
    # PDDL domains share the forest check
    with pytest.raises(LanguageError, match="cycle"):
        parse_domain("(define (domain d) (:types a - b b - a))")


def test_predicate_arity_bounds():
    with pytest.raises(LanguageError):
        Predicate("P", ())
    with pytest.raises(LanguageError):
        Predicate("P", ("a", "b", "c"))


def test_parse_atom_round_trip():
    for text in ["On(brush,table)", "Free(hand)", "Hold(hand,cup)"]:
        a = parse_atom(text)
        assert parse_atom(str(a)) == a
    assert parse_atom("On( brush , table )") == Atom("On", ("brush", "table"))
    for bad in ["not an atom", "Hold(hand,cup)@12"]:
        with pytest.raises(LanguageError):
            parse_atom(bad)


def test_vocab_hash_stable_and_sensitive():
    a, b = make_tiny_vocab(), make_tiny_vocab()
    assert a.hash() == b.hash()
    sorts = [Sort("entity"), Sort("world-ent", "entity"), Sort("robot-ent", "entity")]
    c = Vocabulary(
        sorts,
        [Term("brush", "world-ent")],
        [Predicate("On", ("world-ent", "world-ent"))],
        [TaskSentence.of("t", "x")],
    )
    assert c.hash() != a.hash()


VOCAB_DOC = """
sorts:
  - {name: entity}
  - {name: world-obj, parent: entity}
  - {name: robot-part, parent: entity}
terms:
  - {name: mug, sort: world-obj}
  - {name: claw, sort: robot-part}
predicates:
  - {name: Found, args: [world-obj]}
  - {name: Hold, args: [robot-part, world-obj]}
tasks:
  - {id: t1, sentence: fetch the mug}
max_atoms: 9
"""


def test_vocab_yaml_loader(tmp_path):
    p = tmp_path / "vocab.yaml"
    p.write_text(VOCAB_DOC)
    v = Vocabulary.from_yaml(str(p))
    assert lang.branch_kind(v.parents, v.terms["mug"].sort) == lang.WORLD
    assert lang.branch_kind(v.parents, v.terms["claw"].sort) == lang.ROBOT
    assert v.max_atoms == 9
    assert v.atom_type_ok(Atom("Hold", ("claw", "mug")))
    assert not v.atom_type_ok(Atom("Hold", ("mug", "claw")))


@pytest.mark.parametrize(
    "old, new, message",
    [
        (VOCAB_DOC, "", "vocabulary must be a mapping, got NoneType"),
        (VOCAB_DOC, "- sorts\n", "vocabulary must be a mapping, got list"),
        ("sorts:\n  - {name: entity}\n  - {name: world-obj, parent: entity}\n  - {name: robot-part, parent: entity}\n",
         "sorts: 5\n", "vocabulary: field 'sorts' must be a list, got int"),
        ("sentence: fetch the mug", "sentence: 5", "task t1: field 'sentence' must be a string, got int"),
        ("{name: Found, args: [world-obj]}", "{name: Found, args: xy}",
         "predicate Found: field 'args' must be a list, got str"),
        ("{name: Found, args: [world-obj]}", "{name: Found}", "predicate Found: missing field 'args'"),
        ("{name: mug, sort: world-obj}", "{name: mug, sort: shelf}", "unknown sort shelf"),
        ("max_atoms: 9", "max_atoms: nine", "vocabulary: field 'max_atoms' must be a whole number, got str"),
        ("max_atoms: 9", "max_atoms: true", "vocabulary: field 'max_atoms' must be a whole number, got bool"),
        ("max_atoms: 9", "max_atoms: 0", "max_atoms must be at least 1, got 0"),
        ("max_atoms: 9", "max_atoms: -3", "max_atoms must be at least 1, got -3"),
        ("{name: Found, args: [world-obj]}", "{name: Found, args: [world-obj], epistemic: 'no'}",
         "predicate Found: field 'epistemic' must be a boolean, got str"),
        ("max_atoms: 9", "max_atom: 3", "vocabulary: unknown fields ['max_atom'], expected some of "
         "['sorts', 'terms', 'predicates', 'tasks', 'max_atoms']"),
        ("{name: world-obj, parent: entity}", "{name: world-obj, parent: [entity]}",
         "sort world-obj: field 'parent' must be a string, got list"),
        ("{name: world-obj, parent: entity}", "{name: world-obj, parent: 3}",
         "sort world-obj: field 'parent' must be a string, got int"),
        ("{name: world-obj, parent: entity}", "{name: world-obj, parnt: entity}",
         "sort world-obj: unknown fields ['parnt'], expected some of ['name', 'parent']"),
        ("{name: claw, sort: robot-part}", "{name: claw, sort: robot-part, colour: red}",
         "term claw: unknown fields ['colour'], expected some of ['name', 'sort']"),
        ("{name: Hold, args: [robot-part, world-obj]}", "{name: Hold, args: [robot-part, world-obj], epistemc: true}",
         "predicate Hold: unknown fields ['epistemc'], expected some of ['name', 'args', 'epistemic']"),
        ("{id: t1, sentence: fetch the mug}", "{id: t1, sentence: fetch the mug, words: 4}",
         "task t1: unknown fields ['words'], expected some of ['id', 'sentence']"),
        # a name given twice is refused, not overwritten by the last
        ("{name: robot-part, parent: entity}",
         "{name: robot-part, parent: entity}\n  - {name: world-obj, parent: robot-part}", "duplicate sort world-obj"),
        ("{name: claw, sort: robot-part}", "{name: claw, sort: robot-part}\n  - {name: mug, sort: robot-part}",
         "duplicate term mug"),
        ("{name: Hold, args: [robot-part, world-obj]}",
         "{name: Hold, args: [robot-part, world-obj]}\n  - {name: Found, args: [robot-part]}",
         "duplicate predicate Found"),
        ("{id: t1, sentence: fetch the mug}", "{id: t1, sentence: fetch the mug}\n  - {id: t1, sentence: drop the mug}",
         "duplicate task t1"),
    ],
)
def test_vocab_loader_rejects_misshapen_files(tmp_path, old, new, message):
    assert old in VOCAB_DOC
    p = tmp_path / "vocab.yaml"
    p.write_text(VOCAB_DOC.replace(old, new))
    with pytest.raises(LanguageError) as e:
        Vocabulary.from_yaml(str(p))
    assert str(e.value) == message


def test_term_side_follows_the_sort_tree_only():
    # a file may not state a side, least of all one its sort contradicts
    doc = VOCAB_DOC.replace("{name: mug, sort: world-obj}", "{name: mug, sort: world-obj, kind: robot}")
    with pytest.raises(LanguageError, match="term mug: field 'kind'"):
        Vocabulary.from_dict(lang.load_yaml(doc))
    # the root has no side, so no term may sit on it
    rooted = VOCAB_DOC.replace("{name: mug, sort: world-obj}", "{name: mug, sort: entity}")
    with pytest.raises(LanguageError, match="term mug: sort entity is the root"):
        Vocabulary.from_dict(lang.load_yaml(rooted))
    with pytest.raises(LanguageError, match="term x: sort r is the root"):
        Vocabulary([Sort("r"), Sort("w", "r")], [Term("x", "r")], [], [])


def test_packaged_vocabulary_binding_is_pinned():
    # checkpoints bind to this digest; the separator tokens lead the index
    v = Vocabulary.from_yaml(os.path.join(DATA, "vocabulary.yaml"))
    assert v.hash() == "4757bc0f147457c492a7e475f61c62eef0144669c948c882de21871f245dd63d"
    assert v.id_to_token[:3] == ["<eos>", "<ets>", "<eoa>"]


def test_libyaml_and_python_loaders_agree_on_packaged_files(monkeypatch):
    import yaml

    if not getattr(yaml, "__with_libyaml__", False):
        pytest.skip("PyYAML built without libyaml")
    assert lang.YAML_LOADER is yaml.CSafeLoader

    def load_all():
        vocab = Vocabulary.from_yaml(os.path.join(DATA, "vocabulary.yaml"))
        lib = load_library(os.path.join(DATA, "library.yaml"), vocab)
        scene_dir = os.path.join(DATA, "scenes")
        scenes = [load_scene(os.path.join(scene_dir, f)) for f in sorted(os.listdir(scene_dir))]
        return vars(vocab), lib.entries, lib.chains, scenes

    with_c = load_all()
    assert [len(x) for x in with_c[1:]] == [26, 13, 5]
    monkeypatch.setattr(lang, "YAML_LOADER", yaml.SafeLoader)
    assert load_all() == with_c
