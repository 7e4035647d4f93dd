"""Mutant generation engine built on the AST operators.

Each mutant is a tree the engine already holds, written back to text
with :func:`~repro.hdl.unparse.unparse_module`.  The engine hands that
tree to the parse cache under the text (and its token stream), so the
compile check, every later simulation and any comment-only variant of
the text (the synthetic tier prepends a header) find it parsed.  The
round-trip tests (``tests/mutation/test_round_trip.py``) pin that
parsing a mutant's text gives back exactly its tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hdl.ast import SourceFile
from ..hdl.parser import _hold_unparsed, parse_source_cached
from ..hdl.unparse import unparse_module
from ..util import derive_rng
from .operators import count_sites, mutate_module


@dataclass(frozen=True)
class Mutant:
    source: str
    description: str
    site: int


def generate_mutants(rtl_src: str, count: int, seed: object,
                     module_name: str = "top_module",
                     compile_check=None) -> list[Mutant]:
    """Derive up to ``count`` distinct single-site mutants of ``rtl_src``.

    When single sites run out (tiny modules), two sites are stacked.
    ``compile_check`` is an optional ``str -> bool`` predicate; mutants
    that fail it are discarded (the dataset only ships compiling mutants).
    Each new mutant text is held in the parse cache with its tree before
    the check runs, so the check does not parse it.  Deterministic in
    ``seed``.
    """
    module = parse_source_cached(rtl_src).module(module_name)
    n_sites = count_sites(module)
    if n_sites == 0:
        return []

    rng = derive_rng("mutants", seed)
    order = list(range(n_sites))
    rng.shuffle(order)

    mutants: list[Mutant] = []
    seen = {rtl_src}
    for site in order:
        if len(mutants) >= count:
            break
        mutated, description = mutate_module(
            module, site, derive_rng("mutant-op", seed, site))
        source = unparse_module(mutated)
        if source in seen or not description:
            continue
        _hold_unparsed(source, SourceFile((mutated,)))
        if compile_check is not None and not compile_check(source):
            continue
        seen.add(source)
        mutants.append(Mutant(source, description, site))

    # If single-site mutations ran out (tiny modules), stack two sites.
    attempt = 0
    while len(mutants) < count and attempt < 4 * count:
        attempt += 1
        site_a = rng.randrange(n_sites)
        site_b = rng.randrange(n_sites)
        step_rng = derive_rng("mutant-op2", seed, attempt)
        first, desc_a = mutate_module(module, site_a, step_rng)
        second, desc_b = mutate_module(first, site_b, step_rng)
        source = unparse_module(second)
        if source in seen or not (desc_a or desc_b):
            continue
        _hold_unparsed(source, SourceFile((second,)))
        if compile_check is not None and not compile_check(source):
            continue
        seen.add(source)
        mutants.append(Mutant(source, f"{desc_a}; {desc_b}",
                              site_a * n_sites + site_b))
    return mutants


def random_mutation(rtl_src: str, seed: object,
                    module_name: str = "top_module") -> tuple[str, str]:
    """One random single-site mutation (used for imperfect-RTL noise).

    Returns ``(source, description)``; falls back to the original source
    when the module has no mutation sites.  The mutant's tree is held in
    the parse cache under ``source`` and its token stream.
    """
    module = parse_source_cached(rtl_src).module(module_name)
    n_sites = count_sites(module)
    if n_sites == 0:
        return rtl_src, ""
    rng = derive_rng("random-mutation", seed)
    site = rng.randrange(n_sites)
    mutated, description = mutate_module(module, site, rng)
    source = unparse_module(mutated)
    _hold_unparsed(source, SourceFile((mutated,)))
    return source, description
