import sys
from pathlib import Path

# The benchmark's modules import each other as top-level names, the way
# bench/run.py sees them.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
