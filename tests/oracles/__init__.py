"""Test-side reference adapters the equivalence gates compare against."""
