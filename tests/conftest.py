"""Test-run settings: Hypothesis draws the same examples on every run and
keeps its files in a temporary directory, removed at exit, so a run
writes nothing into the source tree."""

from __future__ import annotations

import atexit
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_home = tempfile.mkdtemp(prefix="rbc-hypothesis-")
atexit.register(shutil.rmtree, _home, ignore_errors=True)
set_hypothesis_home_dir(_home)

settings.register_profile("rbc", derandomize=True, database=None)
settings.load_profile("rbc")
