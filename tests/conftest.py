import os

import numpy as np
import pytest

import taskmon
from taskmon import autodiff as ad
from taskmon.geometry import Camera, Scene
from taskmon.language import Predicate, Sort, TaskSentence, Term, Vocabulary
from taskmon.pddl import load_library
from taskmon.perception import Mode, View, in_view

DATA = os.path.join(os.path.dirname(taskmon.__file__), "data")


def whole_view(scene: Scene, cam: Camera, mode: Mode = Mode.FULL) -> View:
    """The view of a whole-scene look: every scene object tested from `cam`."""
    return in_view(scene, cam, scene.objects, mode)


def stack_steps(steps: list[ad.Tensor]) -> ad.Tensor:
    """T taped (B, D) steps -> (B, T, D), each step's gradient its slice: the
    stacking of the per-step encoder references that `autodiff.lstm_layer`
    and `predictor._encode_graph` are checked against."""
    out_data = np.stack([s.data for s in steps], axis=1)

    def back(g):
        for t, s in enumerate(steps):
            ad._acc(s, g[:, t, :])

    return ad._node(out_data, tuple(steps), back)


def make_tiny_vocab(max_atoms: int = 17) -> Vocabulary:
    sorts = [
        Sort("entity"),
        Sort("world-ent", "entity"),
        Sort("robot-ent", "entity"),
        Sort("item", "world-ent"),
        Sort("surface", "world-ent"),
        Sort("gripper", "robot-ent"),
        Sort("base", "robot-ent"),
    ]
    terms = [
        Term("brush", "item"),
        Term("cup", "item"),
        Term("table", "surface"),
        Term("shelf", "surface"),
        Term("hand", "gripper"),
        Term("rover", "base"),
    ]
    predicates = [
        Predicate("On", ("item", "surface")),
        Predicate("Hold", ("gripper", "item")),
        Predicate("Free", ("gripper",)),
        Predicate("Found", ("world-ent",), epistemic=True),
        Predicate("CloseTo", ("robot-ent", "world-ent")),
    ]
    tasks = [
        TaskSentence.of("t-fetch", "bring the brush to the shelf"),
        TaskSentence.of("t-clear", "clear the table"),
    ]
    return Vocabulary(sorts, terms, predicates, tasks, max_atoms=max_atoms)


# The one tiny PDDL domain, over the tiny vocabulary's sorts and predicates.
TINY_DOMAIN = """
(define (domain tiny)
  (:requirements :typing)
  (:types item surface - world-ent
          gripper base - robot-ent
          world-ent robot-ent - entity)
  (:predicates (On ?o - item ?s - surface)
               (Hold ?g - gripper ?o - item)
               (Free ?g - gripper)
               (Found ?x - world-ent)
               (CloseTo ?r - robot-ent ?x - world-ent))
  (:action search
    :class ecological
    :parameters (?x - world-ent)
    :precondition (and)
    :effect (and (Found ?x)))
  (:action approach
    :class ecological
    :parameters (?x - world-ent)
    :precondition (and (Found ?x))
    :effect (and (CloseTo rover ?x)))
  (:action grasp
    :class world
    :parameters (?o - item ?s - surface)
    :precondition (and (On ?o ?s) (Free hand) (CloseTo rover ?s))
    :effect (and (Hold hand ?o) (not (On ?o ?s)) (not (Free hand))))
  (:action place
    :class world
    :parameters (?o - item ?s - surface)
    :precondition (and (Hold hand ?o) (CloseTo rover ?s))
    :effect (and (On ?o ?s) (Free hand) (not (Hold hand ?o)))))
"""


@pytest.fixture(scope="session")
def tiny_vocab() -> Vocabulary:
    return make_tiny_vocab()


def load_packaged_lib():
    """A freshly loaded packaged library, sharing no state with any other."""
    vocab = Vocabulary.from_yaml(os.path.join(DATA, "vocabulary.yaml"))
    return load_library(os.path.join(DATA, "library.yaml"), vocab)


@pytest.fixture(scope="session")
def packaged_lib():
    return load_packaged_lib()
