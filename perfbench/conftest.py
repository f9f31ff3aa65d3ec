import sys
from pathlib import Path

# The harness imports tiltlab from the checkout's sources, as run.py does.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
