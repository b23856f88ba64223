#!/usr/bin/env python3
"""The modular-arithmetic side: how achieved signatures partition the root
counts, the units-fixing subgroup lattice, and the divisor criterion for
signature surjectivity."""

from cantortx.signature import (
    divisors_generate_units,
    signature_class_partition,
    units_fixing_subgroup,
    verify_lcm_claim,
)

print("== the 7-letter coincidence ==")
parts = signature_class_partition(7, {1, 5})
print("achieved signatures {1,5} split the root counts 1..6 into:")
for part in sorted(parts, key=min):
    print("  ", sorted(part))
print("so roots 1 and 2 give the same group, as do 3 and 6,")
print("even though gcd(1,6) != gcd(2,6): class equality does not follow gcd.")

print("\n== units fixing a residue ==")
for i in (1, 2, 3, 6):
    print(f"  fixers of {i} mod 6: {sorted(units_fixing_subgroup(6, i))}")

print("\n== the lcm law, spot checks ==")
for m, i, j in ((6, 2, 3), (12, 4, 6), (30, 6, 10)):
    print(f"  <fix({i}), fix({j})> mod {m} = fix(lcm of gcds):",
          verify_lcm_claim(m, i, j))

print("\n== divisors generating the units ==")
for n in (4, 10, 28, 32):
    print(f"  n={n}: divisors generate units mod {n-1}: {divisors_generate_units(n)}")
print("(3^k + 1 always works; 32 shows the criterion can fail)")
