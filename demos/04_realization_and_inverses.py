#!/usr/bin/env python3
"""Realizing a core element as a homeomorphism machine over r dotted roots,
and inverting it; plus the block-sum construction hitting every divisor as a
reduced signature."""

from cantortx.machines import (
    cycle_transducer,
    machine_g4,
    oplus,
    realize,
    swap_transducer,
    viable_combinations,
)
from cantortx.initial import minimize_initial, product_initial
from cantortx.invert import bisynchronizing_failure_initial, invert_initial
from cantortx.synchronize import core
from cantortx.group import canonical_core
from cantortx.signature import signature_report
from cantortx import textio

g = machine_g4()
print("viable combinations of g within depth 1:")
for v in viable_combinations(g, max_prefix_depth=1, max_size=2):
    print("  prefixes:", v.prefixes, "states:", v.states)

A = realize(g, 3)
print("\nrealized over 3 roots:")
print(textio.serialize(A))
print("bi-synchronizing:", bisynchronizing_failure_initial(A) is None)
print("core recovers g:", canonical_core(core(A)) == canonical_core(g))

Ainv = invert_initial(A)
P = minimize_initial(product_initial(A, Ainv))
print("A * A^-1 has", len(P.states), "states (root + identity sink)")

print("\nblock sums: reduced signature equals the divisor")
for n, d in ((4, 2), (6, 2), (6, 3)):
    M = oplus(d, swap_transducer() if d == 2 else cycle_transducer(d), n)
    print(f"  n={n}, d={d}: rsig = {signature_report(M).rsig}")
