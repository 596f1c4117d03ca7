"""Ordinal arithmetic below epsilon_0 and the pairing of ordinals.

Run:  python3 demos/01_ordinals_and_pairing.py
"""

from otmlab import (
    OMEGA,
    ZERO,
    add,
    from_int,
    godel_pair,
    godel_unpair,
    mul,
    parse_ordinal,
)

w = OMEGA

print("== Cantor normal form arithmetic ==")
a = parse_ordinal("w^2*3+w*2+7")
b = parse_ordinal("w^(w+1)")
print(f"parsed: {a}  and  {b}")
print(f"1 + w = {add(from_int(1), w)}          (left addition is absorbed)")
print(f"w + 1 = {add(w, from_int(1))}")
print(f"(w*2+3) + (w+1) = {add(parse_ordinal('w*2+3'), parse_ordinal('w+1'))}")
print(f"2 * w = {mul(from_int(2), w)}          (finite factors vanish on the left)")
print(f"w * 2 = {mul(w, from_int(2))}")
print(f"(w+1) * (w+1) = {mul(parse_ordinal('w+1'), parse_ordinal('w+1'))}")

print()
print("== The pairing of ordinals ==")
print("pairs are well-ordered by (max, left, right); the pairing is the")
print("order isomorphism onto the ordinals.")
for pair in [(0, 0), (1, 2), (2, 1), (3, 3)]:
    pa, pb = from_int(pair[0]), from_int(pair[1])
    print(f"  p({pair[0]},{pair[1]}) = {godel_pair(pa, pb)}")
c = godel_pair(w, ZERO)
print(f"  p(w,0) = {c}   and back: {godel_unpair(c)}")
big = godel_pair(parse_ordinal("w*3+1"), parse_ordinal("w*2"))
print(f"  p(w*3+1, w*2) = {big}   and back: {godel_unpair(big)}")
