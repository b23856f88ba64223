#!/usr/bin/env python3
"""The machine calculus on the two-state involution over four letters:
evaluation, synchronization, images, signature, and membership."""

from cantortx.machines import machine_g4
from cantortx.transducer import evaluate
from cantortx.synchronize import minimal_sync_level
from cantortx.images import analyze
from cantortx.signature import member_over_roots_ordered, signature_report

g = machine_g4()
print("transitions of the involution g:")
for q, i, out, p in g.rows():
    print(f"  {q} -{i}|{','.join(map(str, out)) or 'e'}-> {p}")

print("\nevaluate from a on 1,3:", evaluate(g, "a", (1, 3)))
print("synchronizing level:", minimal_sync_level(g))

reports, orient = analyze(g)
for q, rep in reports.items():
    print(f"state {q}: image={rep.image} m={rep.m} injective={rep.injective}")
print("orientation:", orient.value)

rep = signature_report(g)
print(f"\nsignature: level={rep.sync_level} per-word m={tuple(rep.per_word_m)}")
print(f"sig = {rep.sig}, reduced = {rep.rsig} (mod 3)")

print("\nmembership over r roots (ordered):")
for r in (1, 2, 3):
    print(f"  r={r}: {member_over_roots_ordered(g, r)}")
print("only r=3 admits this element, matching r*(sig-1) = 0 mod 3")
