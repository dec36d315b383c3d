#!/usr/bin/env python3
"""Run the acceptance suite and print one line per criterion."""

import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent.parent / "tests" / "test_acceptance.py"

if __name__ == "__main__":
    sys.exit(pytest.main([str(SUITE), "-v", "-s"] + sys.argv[1:]))
