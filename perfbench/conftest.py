"""Lets the benchmark's tests import its modules and the program sources:
python3 -m pytest perfbench"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
