"""Child processes started by the tests (``python -m qck.cli``) import qck from this checkout.

pyproject's ``pythonpath`` puts src on sys.path of the test process only; the
children see it through PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
