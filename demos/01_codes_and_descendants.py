"""Codes, coalitions, and descendant sets.

A fingerprinting code assigns each user a length-n word over a small
alphabet.  When several users pool their copies, the words they can forge
are exactly the positionwise product of their codewords: the descendant
code.  This script walks through that calculus on two tiny binary codes.
"""

from sepcode import (
    Code,
    desc_intersect_code,
    descendant,
    format_code_text,
    hamming,
    shortened,
)

# Four users: the zero word plus the three unit-weight words.
code = Code.from_words([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], q=2)
print("a (3, 4, 2) code, one codeword per line:")
print(format_code_text(code))

# Users 2 and 3 (0-based indices 1 and 2) collude.
coalition = (1, 2)
feasible = descendant(code.words[i] for i in coalition)
print("descendant of {c2, c3}:", [sorted(s) for s in feasible.positions])
print("words the coalition can forge:", sorted(feasible.enumerate_members()))

# The zero word lies inside that product even though user 1 is innocent.
print("zero word forgeable:", feasible.contains((0, 0, 0)))

# desc_intersect_code finds every codeword the coalition captures.
captured = desc_intersect_code(code, coalition)
print("captured codewords (0-based):", sorted(captured))
print()

# A fifth user with the all-ones word makes things worse: together with the
# zero word it captures the entire code.
bigger = Code.from_words(
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], q=2
)
print("adding the all-ones word:")
print("captured by {c1, c5}:", sorted(desc_intersect_code(bigger, (0, 4))))
print("their Hamming distance:", hamming(bigger.words[0], bigger.words[4]))

# Shortened codes slice out one position; they drive the length-3 criteria.
print("words with 0 first, first position removed:", sorted(shortened(bigger, 0, 0)))
print("words with 1 first, first position removed:", sorted(shortened(bigger, 0, 1)))
