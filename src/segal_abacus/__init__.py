"""Finite-set calculus for 2-Segal sets and abacus bicomodule configurations.

The package models truncated finite presheaves on the simplex category
and its augmented, split, pointed, and bisimplicial variants, together
with the bead calculus of the abacus index category, decidable checkers
for every map class and axiom involved, and the equivalences between
simplicial maps, abacus presheaves, and pointed bisimplicial sets as
executable round trips.
"""
