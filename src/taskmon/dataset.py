"""Growing a training corpus from the plan library's annotated goal chains.

Base pairs map (task, goal_i) to goal_{i+1} along each chain. Augmentation:
sort-respecting term substitution applied consistently to input and target,
random atom-order permutation (the canonical encoders sort atoms, so grown
pairs go through the shared grammar writer `language.encode_atoms` in a
permuted order), distractor atoms padded into the input only, and occasional
input-atom drops. Padding and drops mimic perceived states that carry more or
less than the relevant atoms and give the corpus coverage across input atom
counts. Each drawn pair is substituted with probability P_SUBSTITUTE (0.7),
loses one input atom with P_DROP (0.2) and is padded with P_PAD (0.45) by one
to MAX_PAD (10) distractor atoms.
"""

from __future__ import annotations

import numpy as np

from .language import Atom, State, TaskSentence, Vocabulary, check_int, encode_atoms
from .pddl import LibraryError, PlanLibrary
from .predictor import TrainingPair

P_SUBSTITUTE, P_PAD, P_DROP, MAX_PAD = 0.7, 0.45, 0.2, 10


class InsufficientBase(Exception):
    pass


def base_pairs(lib: PlanLibrary) -> list[tuple[TaskSentence, State, State, float]]:
    """(task, goal_i, goal_{i+1}, chain weight) for every consecutive pair."""
    out = []
    for chain in lib.chains:
        if len(chain.goals) < 2:
            continue
        task = lib.vocab.tasks.get(chain.task_id)
        if task is None:
            raise LibraryError(f"chain references unknown task {chain.task_id}")
        for a, b in zip(chain.goals, chain.goals[1:]):
            out.append(
                (
                    task,
                    lib.entry(a).goal_state,
                    lib.entry(b).goal_state,
                    chain.weight,
                )
            )
    return out


def _sort_pools(vocab: Vocabulary) -> dict[str, list[str]]:
    pools: dict[str, list[str]] = {}
    for name in sorted(vocab.terms):
        pools.setdefault(vocab.terms[name].sort, []).append(name)
    return pools


def _substitution(rng: np.random.Generator, vocab: Vocabulary, protected: set[str]) -> dict[str, str]:
    """A random permutation of the terms within each sort, leaving protected
    spellings (task-mentioned terms) fixed so task and states stay coherent."""
    mapping: dict[str, str] = {}
    for sort, pool in sorted(_sort_pools(vocab).items()):
        members = [t for t in pool if t not in protected]
        if len(members) < 2:
            continue
        perm = rng.permutation(len(members))
        mapping.update({members[i]: members[int(perm[i])] for i in range(len(members))})
    return mapping


def _substitute(st: State, mapping: dict[str, str]) -> State:
    return State.of(
        Atom(a.pred, tuple(mapping.get(x, x) for x in a.args)) for a in st.atoms
    )


def _arg_candidates(vocab: Vocabulary) -> dict[str, list[str]]:
    cands: dict[str, list[str]] = {}
    for p in vocab.predicates.values():
        for s in p.arg_sorts:
            if s not in cands:
                cands[s] = [
                    t for t in sorted(vocab.terms) if vocab.is_subsort(vocab.terms[t].sort, s)
                ]
    return cands


def _random_atom(
    rng: np.random.Generator, vocab: Vocabulary, cands: dict[str, list[str]], avoid: frozenset[Atom]
) -> Atom | None:
    preds = sorted(vocab.predicates)
    for _ in range(20):
        p = vocab.predicates[preds[int(rng.integers(len(preds)))]]
        args = []
        for s in p.arg_sorts:
            pool = cands[s]
            if not pool:
                break
            args.append(pool[int(rng.integers(len(pool)))])
        else:
            atom = Atom(p.name, tuple(args))
            if atom not in avoid:
                return atom
    return None


def grow_dataset(lib: PlanLibrary, target: int = 20000, seed: int = 0) -> list[TrainingPair]:
    """Deterministically grow up to `target` distinct training pairs. Stops
    short of target only after 200 consecutive duplicate draws (tiny bases).
    A `target` below 1 or a negative `seed` raises ValueError; a bool is
    neither."""
    check_int("target", target, 1)
    check_int("seed", seed, 0)
    vocab = lib.vocab
    base = base_pairs(lib)
    if not base:
        raise InsufficientBase("no chain in the library has two or more goals")
    weights = np.array([w for *_, w in base], dtype=float)
    if weights.sum() <= 0:
        raise InsufficientBase("chain weights sum to zero")
    weights = weights / weights.sum()
    rng = np.random.default_rng([seed, 0xDA7A])
    cands = _arg_candidates(vocab)

    out: list[TrainingPair] = []
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()

    for task, s, t, _ in base:
        if len(out) >= target:
            break
        pair = TrainingPair.of(task, s, t, vocab)
        key = (pair.input_ids, pair.target_ids)
        if key not in seen:
            seen.add(key)
            out.append(pair)

    misses = 0
    while len(out) < target and misses < 200:
        task, s, t, _ = base[int(rng.choice(len(base), p=weights))]
        if rng.random() < P_SUBSTITUTE:
            mapping = _substitution(rng, vocab, protected=set(task.words))
            s, t = _substitute(s, mapping), _substitute(t, mapping)
        if rng.random() < P_DROP and len(s) > 1:
            atoms = s.canonical()
            atoms.pop(int(rng.integers(len(atoms))))
            s = State.of(atoms)
        if rng.random() < P_PAD:
            room = vocab.max_atoms - len(s)
            extra = s.atoms
            for _ in range(min(int(rng.integers(1, MAX_PAD + 1)), room)):
                atom = _random_atom(rng, vocab, cands, avoid=extra)
                if atom is None:
                    break
                extra = extra | {atom}
            s = State(frozenset(extra))
        ai, at = s.canonical(), t.canonical()
        input_ids = encode_atoms([ai[i] for i in rng.permutation(len(ai))], vocab, task).ids
        target_ids = encode_atoms([at[i] for i in rng.permutation(len(at))], vocab).ids
        key = (input_ids, target_ids)
        if key in seen:
            misses += 1
            continue
        misses = 0
        seen.add(key)
        out.append(TrainingPair(task, s, t, input_ids, target_ids))
    return out

