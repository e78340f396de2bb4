"""The five demos run to completion and print exactly what they printed
before the kernel moved to integer class functions.

Each demo runs in a fresh interpreter with a private cache directory, so
a character table left behind by another test cannot change its path.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout, taken at the commit before the kernel
# stored class function values instead of p coefficients.
DEMO_SHA256 = {
    "binary_forms.py":
        "7702a3a192846b4625946cb3a900d63d1ca4724c7f064a48ed249f1d94bdb6c9",
    "deals_and_graphs.py":
        "dd8b9596f846ca2f53b07bb4095ab579ab3a66dba26beef870632ba4f54c78e7",
    "expression_language.py":
        "81674b50c90c3cf12dea985746a4ba402162698614ea86e08d8a4a0631457b2b",
    "invariant_families.py":
        "abf7c68bcaa33d13c82719591fbe4a128cd61b9d18eab3f1fb4336750b6e7cf5",
    "plethysm_tour.py":
        "5ee4282fb9d337f4a21ca34844650307d456b2801fa76df28c6afe3a146a0e22",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == \
        sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output_is_unchanged(name, tmp_path):
    env = dict(os.environ, SYMF_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, cwd=str(tmp_path), capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[name]
