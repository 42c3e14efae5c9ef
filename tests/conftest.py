import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import libcat  # noqa: E402


@pytest.fixture()
def subprocess_env():
    """Environment for a child interpreter that imports this checkout's libcat."""
    src = os.path.dirname(os.path.dirname(libcat.__file__))
    path_entries = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path_entries)}
