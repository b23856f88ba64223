"""Products and inverses of valid elements are valid (BCMNO's group law), so
group_product and invert_element give them a passing verdict unchecked.
Here every such verdict is checked: each product and inverse is validated on
a fresh copy of its machine, read back from its text, whose memo is empty.
A valid element's states are injective, so the verdict carries the empty
list of non-injective states too, and that is checked the same way."""

import random

from cantortx.textio import parse, serialize
from cantortx.images import non_injective_states
from cantortx.signature import signature_report, validation_failure
from cantortx.machines import (
    letter_complement,
    machine_T,
    machine_U,
    oplus,
    swap_transducer,
)
from cantortx.group import (
    GroupElement,
    commutator_word,
    group_product,
    invert_element,
)
from cantortx.verify import _close_pool_products, _generator_pool


def fresh_copy(g):
    F = parse(serialize(g.machine))
    assert F._memo is None
    return F


def assert_built_valid(elements):
    """Each element and its inverse validates from scratch, and the
    non-injective states it keeps are a fresh copy's, none; returns the
    number of elements checked."""
    count = 0
    for g in elements:
        for h in (g, invert_element(g)):
            assert validation_failure(h.machine) is None  # the carried verdict
            F = fresh_copy(h)
            assert validation_failure(F) is None, serialize(g.machine)
            kept = h.machine._memo["non_injective_states"]
            assert kept == non_injective_states(F) == [], serialize(g.machine)
        count += 1
    return count


def word_products(gens, word):
    """Every prefix product of a word of (generator, +-1) factors, each
    inverse formed with invert_element."""
    acc = None
    for name, exp in word:
        g = gens[name] if exp == 1 else invert_element(gens[name])
        acc = g if acc is None else group_product(acc, g)
        yield acc


RELATIONS = (
    commutator_word([("U", -1), ("T", 1)], [("T", 1), ("U", 1), ("T", -1)]),
    commutator_word(
        [("U", -1), ("T", 1)], [("T", 1), ("T", 1), ("U", 1), ("T", -1), ("T", -1)]
    ),
)


def law_generators(n):
    """T, U and pi_R at n, and at n = 4 the block sum of the swap."""
    base = {"T": machine_T(n), "U": machine_U(n), "piR": letter_complement(n)}
    if n == 4:
        base["B"] = oplus(2, swap_transducer(), 4)
    return {name: GroupElement.from_machine(M) for name, M in base.items()}


class TestCarriedVerdict:
    def test_verify_pools(self):
        for n in (3, 4):
            layers = _close_pool_products(_generator_pool(n), 3)[0]
            built = layers[1] + layers[2] + layers[3]
            assert assert_built_valid(built) == len(built)

    def test_relation_words(self):
        # the two relations of F that tx verify checks, at n = 3, 4, 5
        for n in (3, 4, 5):
            gens = law_generators(n)
            for word in RELATIONS:
                assert assert_built_valid(word_products(gens, word)) == len(word)

    def test_random_words(self):
        # seeded words of length 8 to 10 with inverted letters, as in the
        # group-law property tests
        rng = random.Random(17)
        checked = 0
        for n in (3, 4, 5):
            gens = law_generators(n)
            for _ in range(4):
                word = [(rng.choice(sorted(gens)), rng.choice((1, -1)))
                        for _ in range(rng.randint(8, 10))]
                checked += assert_built_valid(word_products(gens, word))
        assert checked >= 96

    def test_powers_up_to_the_16th(self):
        for n in (3, 4, 5):
            for make in (machine_T, machine_U):
                g = acc = GroupElement.from_machine(make(n))
                powers = [acc]
                for _ in range(15):
                    acc = group_product(acc, g)
                    powers.append(acc)
                assert assert_built_valid(powers) == 16


class TestCarriedInjectivity:
    def test_product_and_inverse_check_no_injectivity(self, record_calls):
        # the inverse closure, the signature and the orientation of a
        # product and of its inverse read the injectivity that the carried
        # verdict implies; a fresh copy checks it once
        gens = law_generators(4)
        p = group_product(group_product(gens["T"], gens["B"]), gens["U"])
        calls = record_calls(("_non_injective",))
        inverse = invert_element(p)
        for h in (p, inverse):
            h.signature, h.orientation
        assert calls["_non_injective"] == []
        for h in (p, inverse):
            F = fresh_copy(h)
            assert signature_report(F).sig == h.signature.sig
            assert [c["M"] for c in calls["_non_injective"]][-1] is F
        assert len(calls["_non_injective"]) == 2
