"""Mutant trees survive a trip through text.

The mutation engine hands each mutant's tree to the parse cache under
the text it unparsed (and that text's token stream), so nothing parses
a mutant again.  That is only sound if parsing the text gives back
exactly the tree: ``parse_source(unparse_module(m)) == SourceFile((m,))``
for every operator at every site, and for the engine's stacked two-site
mutants.  ``tests/fuzz_budget.py`` sizes the task slice: the default
budget (200) runs every 8th task, and a budget above 800 runs all of
them.
"""

import pytest

from fuzz_budget import fuzz_budget
from repro.core.caches import caches
from repro.hdl.ast import SourceFile
from repro.hdl.parser import parse_source, parse_source_cached
from repro.hdl.unparse import unparse_module
from repro.mutation import generate_mutants, random_mutation
from repro.mutation.operators import count_sites, mutate_module
from repro.problems import load_dataset

_PROGRAMS, _SEED = fuzz_budget()
_TASKS = load_dataset()[::max(1, 1600 // _PROGRAMS)]

#: Enough picks to take every option of every operator's random choice
#: (``^`` has three wrong twins, a literal three perturbations).
_PICKS = 3


class _Pick:
    """A stand-in for ``random.Random`` that takes option ``k`` of every
    choice (modulo the number of options)."""

    def __init__(self, k: int):
        self.k = k

    def choice(self, options):
        return options[self.k % len(options)]

    def randrange(self, n: int) -> int:
        return self.k % n


def _golden_module(task):
    return parse_source(task.golden_rtl()).module("top_module")


def _assert_round_trip(module) -> None:
    text = unparse_module(module)
    assert parse_source(text) == SourceFile((module,)), text


@pytest.mark.parametrize("task", _TASKS, ids=lambda t: t.task_id)
def test_every_operator_at_every_site_round_trips(task):
    golden = _golden_module(task)
    _assert_round_trip(golden)
    seen = set()
    for site in range(count_sites(golden)):
        for k in range(_PICKS):
            mutated, description = mutate_module(golden, site, _Pick(k))
            assert description
            if mutated not in seen:
                seen.add(mutated)
                _assert_round_trip(mutated)


@pytest.mark.parametrize("task", _TASKS, ids=lambda t: t.task_id)
def test_engine_mutants_are_held_as_their_parse(task):
    """More mutants than sites, so the stacked two-site path runs too;
    each held tree must equal a fresh parse of its text."""
    caches.clear("parse")
    golden = task.golden_rtl()
    count = count_sites(_golden_module(task)) + 4
    mutants = generate_mutants(golden, count, (_SEED, task.task_id))
    assert any("; " in mutant.description for mutant in mutants)
    for mutant in mutants:
        assert parse_source_cached(mutant.source) == parse_source(
            mutant.source), mutant.description
    for seed in range(3):
        source, _ = random_mutation(golden, (_SEED, task.task_id, seed))
        variant = f"// attempt {seed}\n{source}"
        assert parse_source_cached(variant) == parse_source(source)
