"""Test-side oracles: the row-at-a-time and pure-Python reference
implementations the equivalence gates compare production against."""
