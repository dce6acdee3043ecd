"""Symbolic robot language: sorts, terms, predicates, atoms, states, and token codecs.

Everything here is an immutable value; the vocabulary owns the token index
space shared by task words, predicate names, term names, and the three
separator tokens. Those are fixed: `EOS`, `ETS` and `EOA` spell them and
they always take the ids `EOS_ID`, `ETS_ID` and `EOA_ID` (0, 1, 2).

An `Atom` is a predicate and its arguments, `Pred(a,b)`; a `State` is a
frozenset of atoms, as in STRIPS, and a goal's one identity.

This module owns the two formats the rest of the package shares. The sort
tree is a `sort -> parent` map walked only by `is_subsort`,
`check_sort_forest` and `branch_kind`; both the vocabulary and PDDL domains
use them. The token grammar `task <ets> (pred args <eoa>)* <eos>` (the task
prefix is absent in goals) is written only by `encode_atoms` and split into
atom spans only by `atom_spans`. Two readers parse it: the atom-group loop
behind `decode_state` and `decode_goal`, and `predictor.beam_decode`, which
ends a hypothesis at `<eos>` and an atom group at `<eoa>`, and keeps `<ets>`
out of a group, as it decodes. It also owns how the packaged YAML files are
parsed: `load_yaml` is the one reader behind scenes, the vocabulary and the
plan library, and `shaped`, `shaped_field` and `known_fields` are the one
check of a document's shape that their loaders share.
`check_int` is the package's one check of an integer setting, such as a
seed, a count or a beam width.
"""

from __future__ import annotations

import hashlib
import numbers
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import yaml

WORLD = "world"
ROBOT = "robot"

DEFAULT_MAX_ATOMS = 17

# The separator tokens lead the token index in this order, so their ids are fixed.
EOS, ETS, EOA = "<eos>", "<ets>", "<eoa>"
EOS_ID, ETS_ID, EOA_ID = 0, 1, 2

# libyaml's C parser when PyYAML was built with it, the pure-Python one
# otherwise; both build the same plain values through the safe constructor.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(stream):
    """Parse one YAML document with the safe constructor."""
    return yaml.load(stream, Loader=YAML_LOADER)


class LanguageError(Exception):
    """Base class for vocabulary and codec failures."""


def check_int(name: str, value, low: int) -> None:
    """Raise a ValueError naming `name` unless `value` is an integer >=
    `low`; a bool is not one."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_probability(name: str, value) -> None:
    """Raise a ValueError naming `name` unless `value` is a real number in
    [0, 1]; a bool is not one."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")


_SHAPES = {dict: "mapping", list: "list", str: "string", bool: "boolean", int: "whole number", (int, float): "number"}


def shaped(value, kind, where: str, error: type[Exception] = LanguageError):
    """`value` when it is a `kind`; otherwise raise `error` naming `where`.
    YAML gives any shape, so a loader checks each value before it iterates,
    indexes or joins it. A boolean is not a number here, though Python's
    bool is an int."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise error(f"{where} must be a {_SHAPES[kind]}, got {type(value).__name__}")
    return value


def shaped_field(item, key: str, where: str, kind=str, error: type[Exception] = LanguageError):
    """`item[key]`, checked to be a `kind`, where `item` must be a mapping
    that has `key`."""
    if key not in shaped(item, dict, where, error):
        raise error(f"{where}: missing field {key!r}")
    return shaped(item[key], kind, f"{where}: field {key!r}", error)


def known_fields(item: dict, keys: tuple[str, ...], where: str, error: type[Exception] = LanguageError) -> None:
    """Raise `error` naming every key of the mapping `item` outside `keys`:
    a misspelt key is refused, not read as an absent one."""
    unknown = [k for k in item if k not in keys]
    if unknown:
        raise error(f"{where}: unknown fields {sorted(map(str, unknown))}, expected some of {list(keys)}")


class StateTooLong(LanguageError):
    def __init__(self, n_atoms: int, limit: int):
        super().__init__(f"state has {n_atoms} atoms, encoder limit is {limit}")
        self.n_atoms = n_atoms
        self.limit = limit


class MalformedSequence(LanguageError):
    def __init__(self, position: int, reason: str):
        super().__init__(f"malformed token sequence at position {position}: {reason}")
        self.position = position
        self.reason = reason


@dataclass(frozen=True)
class Sort:
    name: str
    parent: Optional[str] = None


@dataclass(frozen=True)
class Term:
    """A named constant of a sort. Which side it is on, WORLD or ROBOT, is
    not stored: `branch_kind` reads it off the sort tree."""

    name: str
    sort: str


@dataclass(frozen=True)
class Predicate:
    """`epistemic` marks predicates describing what the robot knows or senses
    (Detected, VisionOn) rather than physical world state; ecological
    actions may change only epistemic atoms and the robot's own state."""

    name: str
    arg_sorts: tuple[str, ...]
    epistemic: bool = False

    def __post_init__(self):
        if len(self.arg_sorts) not in (1, 2):
            raise LanguageError(f"predicate {self.name}: arity must be 1 or 2")

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)


@dataclass(frozen=True)
class Atom:
    """A ground literal: a predicate name and its argument terms."""

    pred: str
    args: tuple[str, ...]

    def key(self) -> tuple:
        return (self.pred, self.args)

    def __str__(self) -> str:
        return f"{self.pred}({','.join(self.args)})"


_ATOM_RE = re.compile(r"^\s*([A-Za-z_][\w-]*)\s*\(\s*((?:[^\s,)]+(?:\s*,\s*[^\s,)]+)*)?)\s*\)\s*$")


def parse_atom(text: str) -> Atom:
    """Parse 'Pred(a,b)' or 'Pred(a)' into an Atom; LanguageError on any
    other text, such as one with a suffix after the closing parenthesis or
    an argument that is empty or holds a space."""
    m = _ATOM_RE.match(text)
    if not m:
        raise LanguageError(f"cannot parse atom: {text!r}")
    args = tuple(a.strip() for a in m.group(2).split(",")) if m.group(2) else ()
    return Atom(m.group(1), args)


@dataclass(frozen=True)
class State:
    """A conjunction of ground atoms, stored as a frozenset; hashable, and
    equal to another state exactly when their atoms are."""

    atoms: frozenset[Atom] = frozenset()

    @staticmethod
    def of(atoms: Iterable[Atom]) -> "State":
        return State(frozenset(atoms))

    @staticmethod
    def parse(texts: Iterable[str]) -> "State":
        return State(frozenset(parse_atom(t) for t in texts))

    def drop_times(self) -> "State":
        """This state: atoms carry no times. Kept only for the two calls in
        `perfbench/checks.py`; it goes with ROADMAP item 3 stage A, a
        benchmark change."""
        return self

    def canonical(self) -> list[Atom]:
        """Atoms in the deterministic encode order: (predicate name, args)."""
        return sorted(self.atoms, key=lambda a: (a.pred, a.args))

    def __len__(self) -> int:
        return len(self.atoms)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms

    def __str__(self) -> str:
        return " & ".join(str(a) for a in self.canonical()) or "(empty)"


@dataclass(frozen=True)
class TaskSentence:
    id: str
    words: tuple[str, ...]

    def __post_init__(self):
        if not self.words:
            raise LanguageError(f"task {self.id}: empty sentence")

    @staticmethod
    def of(task_id: str, sentence: str) -> "TaskSentence":
        return TaskSentence(task_id, tuple(sentence.split()))

    @property
    def sentence(self) -> str:
        return " ".join(self.words)


@dataclass(frozen=True)
class TokenSeq:
    ids: tuple[int, ...]


# --- sort tree: a sort -> parent map, None at a root ---------------------------


def is_subsort(parents: Mapping[str, Optional[str]], child: str, ancestor: str) -> bool:
    """True when `ancestor` is `child` or on its parent chain. A sort the map
    does not name ends the chain."""
    cur: Optional[str] = child
    while cur is not None:
        if cur == ancestor:
            return True
        cur = parents.get(cur)
    return False


def check_sort_forest(parents: Mapping[str, Optional[str]]) -> None:
    """Raise LanguageError unless every parent is a named sort and no parent
    chain loops."""
    for sort, parent in parents.items():
        if parent is not None and parent not in parents:
            raise LanguageError(f"sort {sort}: unknown parent {parent}")
        seen, cur = {sort}, parent
        while cur is not None:
            if cur in seen:
                raise LanguageError(f"sort cycle through {cur}")
            seen.add(cur)
            cur = parents.get(cur)


def branch_kind(parents: Mapping[str, Optional[str]], sort: str) -> str:
    """WORLD or ROBOT by which top-level branch under the root the sort
    descends from. This is the one rule for the side of a sort, and so of a
    term or a typed variable; the root itself has no side."""
    if sort not in parents:
        raise LanguageError(f"unknown sort {sort}")
    cur = sort
    while parents[cur] is not None and parents[parents[cur]] is not None:
        cur = parents[cur]
    if parents[cur] is None:
        raise LanguageError(f"sort {sort} is the root; it has no branch kind")
    return ROBOT if cur.startswith("robot") else WORLD


def _by_name(items: Sequence, kind: str, name) -> dict:
    """The items keyed by `name(item)`; a name given twice is refused."""
    out: dict = {}
    for item in items:
        key = name(item)
        if key in out:
            raise LanguageError(f"duplicate {kind} {key}")
        out[key] = item
    return out


class Vocabulary:
    """The extended robot language: sorts, terms, predicates, task sentences,
    and the bijective token index over them and the separator tokens.

    Token index layout is deterministic: [EOS, ETS, EOA] followed by the
    remaining distinct tokens in sorted order. Task words spelled like a term
    or predicate name share that token id.
    """

    def __init__(
        self,
        sorts: Sequence[Sort],
        terms: Sequence[Term],
        predicates: Sequence[Predicate],
        tasks: Sequence[TaskSentence],
        max_atoms: int = DEFAULT_MAX_ATOMS,
    ):
        self.sorts = _by_name(sorts, "sort", lambda s: s.name)
        self.parents = {s.name: s.parent for s in sorts}
        self.terms = _by_name(terms, "term", lambda t: t.name)
        self.predicates = _by_name(predicates, "predicate", lambda p: p.name)
        self.tasks = _by_name(tasks, "task", lambda t: t.id)
        self.max_atoms = max_atoms
        self._validate()

        others: set[str] = set(self.predicates) | set(self.terms)
        for t in self.tasks.values():
            others.update(t.words)
        if others & {EOS, ETS, EOA}:
            raise LanguageError("separator spelling collides with a language token")
        self.id_to_token: list[str] = [EOS, ETS, EOA] + sorted(others)
        self.token_to_id: dict[str, int] = {w: i for i, w in enumerate(self.id_to_token)}

    def _validate(self) -> None:
        shaped(self.max_atoms, int, "max_atoms")
        if self.max_atoms < 1:
            raise LanguageError(f"max_atoms must be at least 1, got {self.max_atoms}")
        roots = [s for s in self.sorts.values() if s.parent is None]
        if len(roots) != 1:
            raise LanguageError(f"expected exactly one root sort, got {len(roots)}")
        check_sort_forest(self.parents)
        for t in self.terms.values():
            if t.sort not in self.sorts:
                raise LanguageError(f"unknown sort {t.sort}")
            if self.parents[t.sort] is None:
                raise LanguageError(f"term {t.name}: sort {t.sort} is the root, which has no side")
        for p in self.predicates.values():
            for s in p.arg_sorts:
                if s not in self.sorts:
                    raise LanguageError(f"predicate {p.name}: unknown sort {s}")

    def is_subsort(self, child: str, ancestor: str) -> bool:
        return is_subsort(self.parents, child, ancestor)

    def atom_type_ok(self, atom: Atom) -> bool:
        """Whether the atom's predicate is known, its arity is right and
        each argument is a term of a subsort of its predicate's sort."""
        pred = self.predicates.get(atom.pred)
        if pred is None or len(atom.args) != pred.arity:
            return False
        for arg, need in zip(atom.args, pred.arg_sorts):
            term = self.terms.get(arg)
            if term is None or not self.is_subsort(term.sort, need):
                return False
        return True

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def hash(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.sorts):
            s = self.sorts[name]
            h.update(f"sort {s.name} {s.parent}\n".encode())
        for name in sorted(self.terms):
            t = self.terms[name]
            h.update(f"term {t.name} {t.sort} {branch_kind(self.parents, t.sort)}\n".encode())
        for name in sorted(self.predicates):
            p = self.predicates[name]
            h.update(f"pred {p.name} {' '.join(p.arg_sorts)} {int(p.epistemic)}\n".encode())
        for tid in sorted(self.tasks):
            h.update(f"task {tid} {self.tasks[tid].sentence}\n".encode())
        h.update(f"sep {EOA} {ETS} {EOS}\n".encode())
        return h.hexdigest()

    # --- files ------------------------------------------------------------

    @staticmethod
    def from_yaml(path: str) -> "Vocabulary":
        with open(path) as f:
            doc = load_yaml(f)
        return Vocabulary.from_dict(doc)

    @staticmethod
    def from_dict(doc) -> "Vocabulary":
        doc = shaped(doc, dict, "vocabulary")
        known_fields(doc, ("sorts", "terms", "predicates", "tasks", "max_atoms"), "vocabulary")
        sorts = []
        for i, s in enumerate(shaped_field(doc, "sorts", "vocabulary", list)):
            name = shaped_field(s, "name", f"sort {i}")
            known_fields(s, ("name", "parent"), f"sort {name}")
            parent = s.get("parent")
            if parent is not None:
                shaped(parent, str, f"sort {name}: field 'parent'")
            sorts.append(Sort(name, parent))
        terms = []
        for i, t in enumerate(shaped_field(doc, "terms", "vocabulary", list)):
            name = shaped_field(t, "name", f"term {i}")
            if "kind" in t:
                raise LanguageError(f"term {name}: field 'kind' is not allowed; a term's side follows its sort")
            known_fields(t, ("name", "sort"), f"term {name}")
            terms.append(Term(name, shaped_field(t, "sort", f"term {name}")))
        preds = []
        for i, p in enumerate(shaped_field(doc, "predicates", "vocabulary", list)):
            name = shaped_field(p, "name", f"predicate {i}")
            known_fields(p, ("name", "args", "epistemic"), f"predicate {name}")
            args = shaped_field(p, "args", f"predicate {name}", list)
            args = tuple(shaped(a, str, f"predicate {name}: arg") for a in args)
            epistemic = shaped(p.get("epistemic", False), bool, f"predicate {name}: field 'epistemic'")
            preds.append(Predicate(name, args, epistemic))
        tasks = []
        for i, t in enumerate(shaped(doc.get("tasks", []), list, "vocabulary: field 'tasks'")):
            tid = shaped_field(t, "id", f"task {i}")
            known_fields(t, ("id", "sentence"), f"task {tid}")
            tasks.append(TaskSentence.of(tid, shaped_field(t, "sentence", f"task {tid}")))
        max_atoms = shaped(doc.get("max_atoms", DEFAULT_MAX_ATOMS), int, "vocabulary: field 'max_atoms'")
        return Vocabulary(sorts, terms, preds, tasks, max_atoms=max_atoms)


# --- operations ------------------------------------------------------------


def encode_atoms(
    atoms: Sequence[Atom], vocab: Vocabulary, task: Optional[TaskSentence] = None
) -> TokenSeq:
    """The one writer of the token grammar: the task words and ETS when a task
    is given, then each atom in the given order as predicate, arguments and
    EOA, then EOS. A task that is not the vocabulary's, or an atom the
    decoders would refuse, raises LanguageError naming it."""
    tok, preds, terms = vocab.token_to_id, vocab.predicates, vocab.terms
    if task is not None and vocab.tasks.get(task.id) != task:
        raise LanguageError(f"cannot encode task {task.id!r}: not the vocabulary's task {task.sentence!r}")
    ids = [] if task is None else [tok[w] for w in task.words] + [ETS_ID]
    for atom in atoms:
        pred = preds.get(atom.pred)
        if pred is None or len(atom.args) != pred.arity:
            raise LanguageError(f"cannot encode {atom}: the vocabulary has no {len(atom.args)}-ary predicate {atom.pred}")
        ids.append(tok[atom.pred])
        for a in atom.args:
            if a not in terms:
                raise LanguageError(f"cannot encode {atom}: {a!r} is not a term")
            ids.append(tok[a])
        ids.append(EOA_ID)
    ids.append(EOS_ID)
    return TokenSeq(tuple(ids))


def _canonical_atoms(s: State, vocab: Vocabulary) -> list[Atom]:
    if len(s) > vocab.max_atoms:
        raise StateTooLong(len(s), vocab.max_atoms)
    return s.canonical()


def encode_state(task: TaskSentence, s: State, vocab: Vocabulary) -> TokenSeq:
    """Tokenize (task, state) with the atoms in canonical order."""
    return encode_atoms(_canonical_atoms(s, vocab), vocab, task)


def encode_goal(s: State, vocab: Vocabulary) -> TokenSeq:
    """Tokenize a bare state (the predictor's output grammar): canonical atom
    order and no task prefix."""
    return encode_atoms(_canonical_atoms(s, vocab), vocab)


def decode_state(seq: TokenSeq, vocab: Vocabulary) -> tuple[TaskSentence, State]:
    """Exact inverse of encode_state on its image. Raises MalformedSequence
    with the offending position otherwise."""
    ids = seq.ids
    pos = 0
    words: list[str] = []
    while pos < len(ids) and ids[pos] not in (EOS_ID, ETS_ID, EOA_ID):
        words.append(_token(ids[pos], vocab, pos))
        pos += 1
    if pos >= len(ids) or ids[pos] != ETS_ID:
        raise MalformedSequence(pos, "expected <ets> after task words")
    if not words:
        raise MalformedSequence(0, "empty task segment")
    atoms = _decode_atoms(ids, pos + 1, vocab)
    return _match_task(words, vocab, at=0), State(frozenset(atoms))


def decode_goal(seq: TokenSeq, vocab: Vocabulary) -> State:
    """Exact inverse of encode_goal on its image; MalformedSequence otherwise.
    The empty goal (just EOS) is rejected: a proposal must assert something."""
    atoms = _decode_atoms(seq.ids, 0, vocab)
    if not atoms:
        raise MalformedSequence(len(seq.ids) - 1, "empty goal")
    return State(frozenset(atoms))


def _decode_atoms(ids: Sequence[int], start: int, vocab: Vocabulary) -> list[Atom]:
    """The atom groups of ids[start:], which must end with the only EOS."""
    atoms: list[Atom] = []
    group: list[str] = []
    for pos in range(start, len(ids)):
        tid = ids[pos]
        if tid == EOS_ID:
            if group:
                raise MalformedSequence(pos, "atom group not closed by <eoa> before <eos>")
            if pos != len(ids) - 1:
                raise MalformedSequence(pos + 1, "tokens after <eos>")
            return atoms
        if tid == ETS_ID:
            raise MalformedSequence(pos, "unexpected <ets>")
        if tid == EOA_ID:
            atoms.append(_group_to_atom(group, vocab, pos))
            group = []
        else:
            group.append(_token(tid, vocab, pos))
    raise MalformedSequence(len(ids), "missing <eos>")


def _token(tid: int, vocab: Vocabulary, pos: int) -> str:
    if not 0 <= tid < vocab.size:
        raise MalformedSequence(pos, f"unknown token id {tid}")
    return vocab.id_to_token[tid]


def atom_spans(ids: Sequence[int], start: int) -> list[tuple[int, int]]:
    """The (lo, hi) content span of each atom group from ids[start:] up to the
    first EOS: each EOA closes a span, separator tokens excluded."""
    spans = []
    for pos in range(start, len(ids)):
        if ids[pos] == EOA_ID:
            spans.append((start, pos))
            start = pos + 1
        elif ids[pos] == EOS_ID:
            break
    return spans


def _match_task(words: list[str], vocab: Vocabulary, at: int) -> TaskSentence:
    for t in vocab.tasks.values():
        if list(t.words) == words:
            return t
    raise MalformedSequence(at, f"task sentence {' '.join(words)!r} not in vocabulary")


def _group_to_atom(group: list[str], vocab: Vocabulary, pos: int) -> Atom:
    if not group:
        raise MalformedSequence(pos, "empty atom group")
    pred = vocab.predicates.get(group[0])
    if pred is None:
        raise MalformedSequence(pos - len(group), f"{group[0]!r} is not a predicate")
    args = group[1:]
    if len(args) != pred.arity:
        raise MalformedSequence(pos, f"{pred.name} expects {pred.arity} args, got {len(args)}")
    for i, a in enumerate(args):
        if a not in vocab.terms:
            raise MalformedSequence(pos - len(group) + 1 + i, f"{a!r} is not a term")
    return Atom(pred.name, tuple(args))
