"""PDDL subset: typed domains with equality, ground problems, plan library.

Supported surface: :requirements (:typing :equality), :types, :predicates,
:action with :parameters/:precondition/:effect plus a per-action :class
annotation (world or ecological). Preconditions are conjunctions of positive
atoms and (possibly negated) equalities; effects are conjunctions of atoms
and (not atom) deletes. Everything else raises UnsupportedFeature.
`validate_library` checks every entry with the monitor's planner,
`planning.solve`.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .language import (
    ROBOT,
    Atom,
    Predicate,
    State,
    Vocabulary,
    branch_kind,
    check_sort_forest,
    is_subsort,
    load_yaml,
    shaped,
    shaped_field,
)

WORLD_ACTION = "world"
ECOLOGICAL_ACTION = "ecological"


class ParseError(Exception):
    def __init__(self, line: int, column: int, expected: str):
        super().__init__(f"{line}:{column}: expected {expected}")
        self.line = line
        self.column = column
        self.expected = expected


class UnsupportedFeature(Exception):
    def __init__(self, feature: str):
        super().__init__(f"unsupported PDDL feature: {feature}")
        self.feature = feature


class TypingError(Exception):
    def __init__(self, atom, reason: str):
        super().__init__(f"{atom}: {reason}")
        self.atom = atom
        self.reason = reason


class LibraryError(Exception):
    pass


# --- structures --------------------------------------------------------------


@dataclass(frozen=True)
class Parameter:
    name: str  # spelled with the leading '?'
    sort: str


@dataclass(frozen=True)
class SchemaAtom:
    """Atom over parameters and constants; args keep their '?' spelling."""

    pred: str
    args: tuple[str, ...]

    def variables(self) -> set[str]:
        return {a for a in self.args if a.startswith("?")}

    def ground(self, binding: dict[str, str]) -> Atom:
        return Atom(self.pred, tuple(binding.get(a, a) for a in self.args))


@dataclass(frozen=True)
class EqCond:
    a: str
    b: str
    negated: bool

    def holds(self, binding: dict[str, str]) -> bool:
        eq = binding.get(self.a, self.a) == binding.get(self.b, self.b)
        return eq != self.negated


@dataclass(frozen=True)
class ActionSchema:
    name: str
    parameters: tuple[Parameter, ...]
    pre: tuple[SchemaAtom, ...]
    eqs: tuple[EqCond, ...]
    add: tuple[SchemaAtom, ...]
    delete: tuple[SchemaAtom, ...]
    action_class: str = WORLD_ACTION


@dataclass
class PlanDomain:
    """A parsed domain. `groundings` is planning's memo of what the domain
    yields per object set (`planning.grounding`), filled on first use; a
    domain is not edited after its first grounding."""

    name: str
    sorts: dict[str, Optional[str]]  # sort -> parent (None at a root)
    predicates: dict[str, Predicate]
    schemas: tuple[ActionSchema, ...]
    groundings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def is_subsort(self, child: str, ancestor: str) -> bool:
        return is_subsort(self.sorts, child, ancestor)


@dataclass
class PlanProblem:
    name: str
    objects: dict[str, str]  # object -> declared sort
    init: State
    goal: State


@dataclass(frozen=True)
class GoalPattern:
    """An entry goal laid out for library matching. `atoms` is the goal in
    canonical order and `objects` the objects it names, sorted; `sorts`
    holds each object's declared sort, which the parser requires of every
    goal argument. `closes[i]` lists the atoms whose last argument, in
    `objects` order, is object i, so a renaming that has bound objects
    0..i decides exactly those atoms (every predicate has arity 1 or 2).
    `pred_counts` counts the goal atoms per predicate."""

    atoms: tuple[Atom, ...]
    objects: tuple[str, ...]
    sorts: tuple[str, ...]
    closes: tuple[tuple[int, ...], ...]
    pred_counts: dict[str, int]


@dataclass
class PlanEntry:
    name: str
    domain: PlanDomain
    problem: PlanProblem

    @property
    def goal_state(self) -> State:
        return self.problem.goal

    @cached_property
    def goal_pattern(self) -> GoalPattern:
        """Built on the first match against this entry, then reused; an
        entry's goal is not edited once it has been matched."""
        atoms = tuple(self.goal_state.canonical())
        objects = tuple(sorted({x for a in atoms for x in a.args}))
        pos = {o: i for i, o in enumerate(objects)}
        closes: list[list[int]] = [[] for _ in objects]
        for j, a in enumerate(atoms):
            closes[max(pos[x] for x in a.args)].append(j)
        return GoalPattern(
            atoms,
            objects,
            tuple(self.problem.objects[o] for o in objects),
            tuple(tuple(c) for c in closes),
            dict(Counter(a.pred for a in atoms)),
        )


@dataclass(frozen=True)
class TaskChain:
    """One annotated goal progression for a task: entry names in execution
    order, with a sampling weight used when growing training data."""

    task_id: str
    goals: tuple[str, ...]
    weight: float = 1.0


@dataclass
class PlanLibrary:
    """A loaded library. `matches` is planning's memo of `match_plan`
    results per entry goal, filled on first use; a library is not edited
    after its first match."""

    entries: list[PlanEntry]
    vocab: Vocabulary
    chains: list[TaskChain] = field(default_factory=list)
    matches: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def entry(self, name: str) -> PlanEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise LibraryError(f"no entry named {name}")


@dataclass(frozen=True)
class Violation:
    entry: str
    kind: str  # "two-world-actions" | "ecological-touches-world" | "no-solution"
    detail: str


# --- s-expressions ------------------------------------------------------------


class Tok(NamedTuple):
    text: str
    line: int
    col: int


@dataclass
class SList:
    items: list
    line: int
    col: int


Node = Union[Tok, SList]


def _tokenize(text: str) -> list[Tok]:
    toks: list[Tok] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line, col = line + 1, 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            toks.append(Tok(c, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            toks.append(Tok(text[i:j], line, col))
            col += j - i
            i = j
    return toks


def _read(toks: list[Tok], i: int) -> tuple[Node, int]:
    if i >= len(toks):
        last = toks[-1] if toks else Tok("", 1, 1)
        raise ParseError(last.line, last.col + len(last.text), "an expression, found end of input")
    t = toks[i]
    if t.text == "(":
        items: list[Node] = []
        i += 1
        while True:
            if i >= len(toks):
                raise ParseError(t.line, t.col, "a matching ')'")
            if toks[i].text == ")":
                return SList(items, t.line, t.col), i + 1
            node, i = _read(toks, i)
            items.append(node)
    if t.text == ")":
        raise ParseError(t.line, t.col, "an expression, found ')'")
    return t, i + 1


def _parse_sexpr(text: str) -> Node:
    toks = _tokenize(text)
    node, i = _read(toks, 0)
    if i != len(toks):
        raise ParseError(toks[i].line, toks[i].col, "end of input")
    return node


def _sym(node: Node, expected: str) -> str:
    if isinstance(node, SList):
        raise ParseError(node.line, node.col, expected)
    return node.text


def _list(node: Node, expected: str) -> SList:
    if isinstance(node, Tok):
        raise ParseError(node.line, node.col, expected)
    return node


def _pos(node: Node) -> tuple[int, int]:
    return (node.line, node.col)


def _head(node: Node, expected: str, expected_head: str) -> tuple[SList, str]:
    """A non-empty list and the symbol at its head."""
    lst = _list(node, expected)
    if not lst.items:
        raise ParseError(lst.line, lst.col, expected_head)
    return lst, _sym(lst.items[0], expected_head)


def _define(text: str, kind: str) -> tuple[SList, str]:
    """Read `(define (<kind> <name>) section...)`: the define list and the name."""
    top = _list(_parse_sexpr(text), "(define ...)")
    if not top.items or _sym(top.items[0], "define") != "define":
        raise ParseError(top.line, top.col, "define")
    header = _list(top.items[1], f"({kind} <name>)") if len(top.items) > 1 else None
    if header is None or len(header.items) != 2 or _sym(header.items[0], kind) != kind:
        raise ParseError(top.line, top.col, f"({kind} <name>)")
    return top, _sym(header.items[1], f"a {kind} name")


def _typed_names(items: Sequence[Node], require_sort: bool, what: str) -> list[tuple[str, Optional[str]]]:
    """Parse PDDL typed lists: n1 n2 - sort n3 - sort2 [trailing bare names]."""
    out: list[tuple[str, Optional[str]]] = []
    pending: list[str] = []
    i = 0
    while i < len(items):
        text = _sym(items[i], f"a {what} name")
        if text == "-":
            line, col = _pos(items[i])
            if not pending:
                raise ParseError(line, col, f"a {what} name before '-'")
            if i + 1 >= len(items):
                raise ParseError(line, col + 1, "a sort name after '-'")
            sort = _sym(items[i + 1], "a sort name")
            out.extend((n, sort) for n in pending)
            pending = []
            i += 2
        else:
            pending.append(text)
            i += 1
    if pending:
        if require_sort:
            line, col = _pos(items[-1])
            raise ParseError(line, col, f"'- <sort>' after {what} names (explicit typing required)")
        out.extend((n, None) for n in pending)
    return out


def _conjuncts(node: Node) -> list[Node]:
    """(and a b c) -> [a, b, c]; a bare atom -> [atom]; (and) -> []."""
    lst = _list(node, "a formula")
    if lst.items and isinstance(lst.items[0], Tok) and lst.items[0].text == "and":
        return lst.items[1:]
    return [lst]


_REJECTED_HEADS = {"or", "forall", "exists", "when", "imply", "oneof", "increase", "decrease", "assign"}


def _parse_plain_atom(node: Node) -> SchemaAtom:
    lst, head = _head(node, "an atom", "a predicate name")
    if head in _REJECTED_HEADS:
        raise UnsupportedFeature(head)
    args = tuple(_sym(a, "an argument") for a in lst.items[1:])
    if head == "=" and len(args) != 2:
        raise ParseError(lst.line, lst.col, "two arguments to =")
    return SchemaAtom(head, args)


def _literals(node: Node) -> Iterator[tuple[bool, SchemaAtom]]:
    """(negated, atom) for each conjunct of a formula; a literal is an atom
    or (not atom)."""
    for item in _conjuncts(node):
        lst = _list(item, "an atom")
        if lst.items and isinstance(lst.items[0], Tok) and lst.items[0].text == "not":
            if len(lst.items) != 2:
                raise ParseError(lst.line, lst.col, "exactly one atom under not")
            yield True, _parse_plain_atom(lst.items[1])
        else:
            yield False, _parse_plain_atom(lst)


def _parse_precondition(node: Node) -> tuple[tuple[SchemaAtom, ...], tuple[EqCond, ...]]:
    atoms: list[SchemaAtom] = []
    eqs: list[EqCond] = []
    for negated, atom in _literals(node):
        if atom.pred == "=":
            eqs.append(EqCond(atom.args[0], atom.args[1], negated))
        elif negated:
            raise UnsupportedFeature("negative precondition on a non-equality atom")
        else:
            atoms.append(atom)
    return tuple(atoms), tuple(eqs)


def _parse_effect(node: Node) -> tuple[tuple[SchemaAtom, ...], tuple[SchemaAtom, ...]]:
    add: list[SchemaAtom] = []
    delete: list[SchemaAtom] = []
    for negated, atom in _literals(node):
        if atom.pred == "=":
            raise UnsupportedFeature("equality in effects")
        (delete if negated else add).append(atom)
    return tuple(add), tuple(delete)


# --- domain ------------------------------------------------------------------


def parse_domain(text: str) -> PlanDomain:
    top, name = _define(text, "domain")

    sorts: dict[str, Optional[str]] = {}
    predicates: dict[str, Predicate] = {}
    schemas: list[ActionSchema] = []

    for section in top.items[2:]:
        lst, key = _head(section, "a domain section", "a section keyword")
        if key == ":requirements":
            for req in lst.items[1:]:
                r = _sym(req, "a requirement flag")
                if r not in (":typing", ":equality"):
                    raise UnsupportedFeature(f"requirement {r}")
        elif key == ":types":
            for sort, parent in _typed_names(lst.items[1:], require_sort=False, what="sort"):
                if sort in sorts:
                    raise ParseError(lst.line, lst.col, f"distinct sort names (duplicate {sort})")
                sorts[sort] = parent
        elif key == ":predicates":
            for p in lst.items[1:]:
                plst, pname = _head(p, "a predicate declaration", "a predicate name")
                if pname in predicates:
                    raise ParseError(plst.line, plst.col, f"distinct predicate names (duplicate {pname})")
                params = _typed_names(plst.items[1:], require_sort=True, what="variable")
                predicates[pname] = Predicate(pname, tuple(s for _, s in params))
        elif key == ":action":
            schema = _parse_action(lst)
            if any(sch.name == schema.name for sch in schemas):
                raise ParseError(lst.line, lst.col, f"distinct action names (duplicate {schema.name})")
            schemas.append(schema)
        elif key in (":durative-action", ":functions", ":constants", ":derived", ":axiom"):
            raise UnsupportedFeature(key)
        else:
            raise ParseError(lst.line, lst.col, "one of :requirements :types :predicates :action")

    # parents referenced but never declared are implicit roots
    for parent in [p for p in sorts.values() if p is not None]:
        sorts.setdefault(parent, None)
    check_sort_forest(sorts)

    dom = PlanDomain(name, sorts, predicates, tuple(schemas))
    _check_domain(dom)
    return dom


def _parse_action(lst: SList) -> ActionSchema:
    if len(lst.items) < 2:
        raise ParseError(lst.line, lst.col, "an action name")
    name = _sym(lst.items[1], "an action name")
    sections: dict[str, Node] = {}
    i = 2
    while i < len(lst.items):
        key = _sym(lst.items[i], "an action keyword")
        if key not in (":class", ":parameters", ":precondition", ":effect"):
            if key.startswith(":"):
                raise UnsupportedFeature(f"action section {key}")
            raise ParseError(*_pos(lst.items[i]), "an action keyword")
        if i + 1 >= len(lst.items):
            raise ParseError(*_pos(lst.items[i]), f"a value after {key}")
        sections[key] = lst.items[i + 1]
        i += 2

    if ":parameters" not in sections:
        raise ParseError(lst.line, lst.col, ":parameters")
    plist = _list(sections[":parameters"], "a parameter list")
    params = tuple(
        Parameter(n, s) for n, s in _typed_names(plist.items, require_sort=True, what="parameter")
    )
    for p in params:
        if not p.name.startswith("?"):
            raise ParseError(plist.line, plist.col, f"a variable (got {p.name})")
    if len({p.name for p in params}) != len(params):
        raise ParseError(plist.line, plist.col, "distinct parameter names")

    action_class = WORLD_ACTION
    if ":class" in sections:
        action_class = _sym(sections[":class"], "world or ecological")
        if action_class not in (WORLD_ACTION, ECOLOGICAL_ACTION):
            raise ParseError(*_pos(sections[":class"]), "world or ecological")

    pre, eqs = _parse_precondition(sections[":precondition"]) if ":precondition" in sections else ((), ())
    add, delete = _parse_effect(sections[":effect"]) if ":effect" in sections else ((), ())

    declared = {p.name for p in params}
    used = set()
    for a in pre + add + delete:
        used |= a.variables()
    for e in eqs:
        used |= {v for v in (e.a, e.b) if v.startswith("?")}
    stray = used - declared
    if stray:
        raise ParseError(lst.line, lst.col, f"declared parameters (undeclared: {sorted(stray)})")
    if set(add) & set(delete):
        raise ParseError(lst.line, lst.col, "disjoint add and delete lists")

    return ActionSchema(name, params, pre, eqs, add, delete, action_class)


def _check_domain(dom: PlanDomain) -> None:
    for p in dom.predicates.values():
        for s in p.arg_sorts:
            if s not in dom.sorts:
                raise TypingError(p.name, f"undeclared sort {s}")
    for sch in dom.schemas:
        sorts_of = {p.name: p.sort for p in sch.parameters}
        for p in sch.parameters:
            if p.sort not in dom.sorts:
                raise TypingError(sch.name, f"parameter {p.name}: undeclared sort {p.sort}")
        for atom in sch.pre + sch.add + sch.delete:
            for arg, slot in zip(atom.args, _declared(atom, dom).arg_sorts):
                if arg.startswith("?") and not dom.is_subsort(sorts_of[arg], slot):
                    # over-general parameters are legal; grounding filters them
                    if not dom.is_subsort(slot, sorts_of[arg]):
                        raise TypingError(atom, f"{arg}: sort {sorts_of[arg]} incompatible with {slot}")


def _declared(atom: SchemaAtom | Atom, dom: PlanDomain) -> Predicate:
    """The domain's predicate for atom, which must be declared and get its arity."""
    pred = dom.predicates.get(atom.pred)
    if pred is None:
        raise TypingError(atom, "undeclared predicate")
    if len(atom.args) != pred.arity:
        raise TypingError(atom, f"{pred.name} expects {pred.arity} args")
    return pred


# --- problem -----------------------------------------------------------------


def parse_problem(text: str, domain: PlanDomain) -> PlanProblem:
    top, name = _define(text, "problem")

    domain_name = ""
    objects: dict[str, str] = {}
    init_atoms: list[Atom] = []
    goal_atoms: list[Atom] = []
    saw_goal = False

    for section in top.items[2:]:
        lst, key = _head(section, "a problem section", "a section keyword")
        if key == ":domain":
            if len(lst.items) != 2:
                raise ParseError(lst.line, lst.col, "a single domain name")
            domain_name = _sym(lst.items[1], "a domain name")
        elif key == ":objects":
            for n, s in _typed_names(lst.items[1:], require_sort=True, what="object"):
                if n in objects:
                    raise ParseError(lst.line, lst.col, f"distinct object names (duplicate {n})")
                objects[n] = s
        elif key == ":init":
            for item in lst.items[1:]:
                init_atoms.append(_ground_atom(item))
        elif key == ":goal":
            if len(lst.items) != 2:
                raise ParseError(lst.line, lst.col, "a single goal formula")
            goal_atoms = [_ground_atom(n) for n in _conjuncts(lst.items[1])]
            saw_goal = True
        elif key in (":metric", ":constraints"):
            raise UnsupportedFeature(key)
        else:
            raise ParseError(lst.line, lst.col, "one of :domain :objects :init :goal")

    if domain_name != domain.name:
        raise TypingError(name, f"problem references domain {domain_name!r}, expected {domain.name!r}")
    if not saw_goal:
        raise ParseError(top.line, top.col, "a :goal section")

    prob = PlanProblem(name, objects, State.of(init_atoms), State.of(goal_atoms))
    _check_problem(prob, domain)
    return prob


def _ground_atom(node: Node) -> Atom:
    atom = _parse_plain_atom(node)
    if atom.pred == "=":
        raise UnsupportedFeature("equality in problem states")
    for a in atom.args:
        if a.startswith("?"):
            raise TypingError(atom, f"not ground (variable {a})")
    return Atom(atom.pred, atom.args)


def _check_problem(prob: PlanProblem, domain: PlanDomain) -> None:
    for obj, sort in prob.objects.items():
        if sort not in domain.sorts:
            raise TypingError(obj, f"undeclared sort {sort}")
    for atom in list(prob.init.atoms) + list(prob.goal.atoms):
        for arg, slot in zip(atom.args, _declared(atom, domain).arg_sorts):
            if arg not in prob.objects:
                raise TypingError(atom, f"undeclared object {arg}")
            if not domain.is_subsort(prob.objects[arg], slot):
                raise TypingError(atom, f"{arg}: sort {prob.objects[arg]} incompatible with {slot}")


def _print_atom(atom: SchemaAtom | Atom) -> str:
    return "(" + " ".join([atom.pred, *atom.args]) + ")"


# --- library ------------------------------------------------------------------


def load_library(manifest_path: str, vocab: Vocabulary) -> PlanLibrary:
    """Read a manifest listing plan entries (domain and problem files) and
    task chains, parse and cross-check everything against the vocabulary."""
    with open(manifest_path) as f:
        doc = shaped(load_yaml(f), dict, "manifest", LibraryError)
    base = os.path.dirname(os.path.abspath(manifest_path))

    domains: dict[str, PlanDomain] = {}
    entries: list[PlanEntry] = []
    names: set[str] = set()
    for i, item in enumerate(shaped(doc.get("entries", []), list, "manifest: field 'entries'", LibraryError)):
        name = shaped_field(item, "name", f"entry {i}", error=LibraryError)
        if name in names:
            raise LibraryError(f"duplicate entry name {name}")
        names.add(name)
        dpath = os.path.join(base, shaped_field(item, "domain", f"entry {name}", error=LibraryError))
        if dpath not in domains:
            with open(dpath) as f:
                domains[dpath] = parse_domain(f.read())
            _check_against_vocab(domains[dpath], vocab)
        dom = domains[dpath]
        with open(os.path.join(base, shaped_field(item, "problem", f"entry {name}", error=LibraryError))) as f:
            prob = parse_problem(f.read(), dom)
        _check_problem_against_vocab(prob, vocab)
        entries.append(PlanEntry(name, dom, prob))

    chains: list[TaskChain] = []
    for i, item in enumerate(shaped(doc.get("tasks", []), list, "manifest: field 'tasks'", LibraryError)):
        tid = shaped_field(item, "id", f"task {i}", error=LibraryError)
        if tid not in vocab.tasks:
            raise LibraryError(f"task {tid} is not in the vocabulary")
        for j, ch in enumerate(shaped(item.get("chains", []), list, f"task {tid}: field 'chains'", LibraryError)):
            where = f"task {tid}: chain {j}"
            goals = tuple(shaped_field(ch, "goals", where, list, LibraryError))
            for g in goals:
                if shaped(g, str, f"{where}: goal", LibraryError) not in names:
                    raise LibraryError(f"task {tid}: chain references unknown entry {g}")
            weight = shaped(ch.get("weight", 1.0), (int, float), f"{where}: field 'weight'", LibraryError)
            if not (math.isfinite(weight) and weight >= 0):
                raise LibraryError(f"{where}: field 'weight' is {weight}, not a finite number >= 0")
            chains.append(TaskChain(tid, goals, float(weight)))

    return PlanLibrary(entries, vocab, chains)


def _check_against_vocab(dom: PlanDomain, vocab: Vocabulary) -> None:
    for sort, parent in dom.sorts.items():
        if sort not in vocab.sorts:
            raise LibraryError(f"domain {dom.name}: sort {sort} not in vocabulary")
        if parent is not None and vocab.sorts[sort].parent != parent:
            raise LibraryError(f"domain {dom.name}: sort {sort} has parent {parent}, vocabulary says {vocab.sorts[sort].parent}")
    for p in dom.predicates.values():
        vp = vocab.predicates.get(p.name)
        if vp is None:
            raise LibraryError(f"domain {dom.name}: predicate {p.name} not in vocabulary")
        if vp.arg_sorts != p.arg_sorts:
            raise LibraryError(f"domain {dom.name}: predicate {p.name} declared {p.arg_sorts}, vocabulary says {vp.arg_sorts}")
    for sch in dom.schemas:
        for atom in sch.pre + sch.add + sch.delete:
            for arg in atom.args:
                if not arg.startswith("?") and arg not in vocab.terms:
                    raise LibraryError(f"domain {dom.name}: action {sch.name} uses unknown constant {arg}")


def _check_problem_against_vocab(prob: PlanProblem, vocab: Vocabulary) -> None:
    for obj, sort in prob.objects.items():
        term = vocab.terms.get(obj)
        if term is None:
            raise LibraryError(f"problem {prob.name}: object {obj} not in vocabulary")
        if not vocab.is_subsort(term.sort, sort):
            raise LibraryError(f"problem {prob.name}: object {obj} declared {sort}, vocabulary sort {term.sort}")


def validate_library(lib: PlanLibrary) -> list[Violation]:
    """Static and solution-level checks: no ecological action may change the
    world, and `planning.solve` must reach each entry's goal with at most one
    world action."""
    from .planning import BudgetExceeded, NoPlan, solve

    out: list[Violation] = []
    for dom in {id(e.domain): e.domain for e in lib.entries}.values():
        for sch in dom.schemas:
            if sch.action_class != ECOLOGICAL_ACTION:
                continue
            for atom in sch.add + sch.delete:
                if _touches_world(atom, sch, lib.vocab):
                    out.append(Violation(sch.name, "ecological-touches-world", f"effect {_print_atom(atom)}"))
                    break

    for entry in lib.entries:
        try:
            steps = solve(entry.domain, entry.problem.objects, entry.problem.init, entry.goal_state)
        except (NoPlan, BudgetExceeded) as e:
            out.append(Violation(entry.name, "no-solution", str(e)))
            continue
        n_world = sum(1 for ga in steps if ga.schema.action_class == WORLD_ACTION)
        if n_world > 1:
            out.append(Violation(entry.name, "two-world-actions", f"solution uses {n_world} world actions"))
    return out


def _touches_world(atom: SchemaAtom, sch: ActionSchema, vocab: Vocabulary) -> bool:
    """An effect is world-touching when its predicate is physical and no
    argument lives on the robot branch (a robot-involving atom is robot state)."""
    pred = vocab.predicates.get(atom.pred)
    if pred is not None and pred.epistemic:
        return False
    sorts_of = {p.name: p.sort for p in sch.parameters}
    for arg in atom.args:
        sort = sorts_of[arg] if arg.startswith("?") else vocab.terms[arg].sort
        if branch_kind(vocab.parents, sort) == ROBOT:
            return False
    return True
