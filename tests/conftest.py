import os
import sys
from pathlib import Path

from hypothesis import settings
from hypothesis.errors import InvalidArgument

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# With CI set, a failing example prints the blob that @reproduce_failure
# replays locally.  Hypothesis releases that ship a "ci" profile keep its
# other settings; each test's own max_examples and deadline still apply.
try:
    _ci = settings.get_profile("ci")
except InvalidArgument:  # a release without one
    _ci = None
settings.register_profile("ci", parent=_ci, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
