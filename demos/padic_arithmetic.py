#!/usr/bin/env python3
"""Walk through the exact p-adic layer: valuations, expansions, balls, CRT.

Everything is computed with exact rationals; nothing here is floating point.
"""

from fractions import Fraction

from adelic import PadicBall, crt_solve, expand, integer_in_ball, valuation

F = Fraction

print("== valuations ==")
print("v_2(12)   =", valuation(12, 2))        # 12 = 2^2 * 3
print("v_3(2/9)  =", valuation(F(2, 9), 3))   # 9 in the denominator
print("v_5(0)    =", valuation(0, 5))         # infinite by convention

print()
print("== expansions ==")
t = expand(F(1, 3), 2, 3)
print("1/3 at p=2, three digits:", t)
print("  reconstruction p^v * unit =", t.reconstruct(), " (agrees with 1/3 mod 2^3)")
print("  check: v_2(1/3 - %s) = %s" % (t.reconstruct(), valuation(F(1, 3) - t.reconstruct(), 2)))

print()
print("== balls are decidable ==")
ball = PadicBall(2, F(0), 3)
for x in (16, 4, F(8, 5)):
    print(f"  |{x}|_2 <= 2^-3 ?", ball.contains(x))

print()
print("== the smallest integer in a ball ==")
half_ball = PadicBall(3, F(1, 2), 1)
print("  nearest nonnegative integer to 1/2 within 3^-1:", integer_in_ball(half_ball))

print()
print("== Chinese Remainder ==")
n = crt_solve([(2, 3), (3, 5), (1, 4)])
print("  n = 2 (mod 3), 3 (mod 5), 1 (mod 4)  ->  n =", n)
print("  residues:", n % 3, n % 5, n % 4)
