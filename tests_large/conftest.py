import os
import sys

# The relations and their comparisons are those of tests/test_metamorphic.py.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tests"))
