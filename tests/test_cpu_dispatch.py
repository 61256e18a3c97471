"""The pinned records and the gallery on a lower numpy dispatch level.

numpy picks some kernels (``exp`` and ``log`` among them) by CPU, so a
record pinned with the AVX-512 kernels could fail where they are missing.
One child process reruns the record tests and ``gallery --validate`` with
those of numpy's AVX-512 dispatch targets that this host would use turned
off through ``NPY_DISABLE_CPU_FEATURES``, which acts on that child only.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

ROOT = Path(__file__).resolve().parents[1]
# the dispatch targets above AVX2: numpy 2's names for AVX-512 levels
AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")
DISPATCHED = [
    name for name in AVX512
    if name in _umath.__cpu_dispatch__ and _umath.__cpu_features__.get(name)
]
CHILD = """
import sys
import pytest
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
from quasiconv import cli

off = sys.argv[1:]
assert not any(umath.__cpu_features__[name] for name in off), off
code = pytest.main(["-q", "-p", "no:cacheprovider",
                    "tests/test_check_records.py", "tests/test_verify_records.py"])
sys.exit(int(code) or cli.main(["gallery", "--validate"]))
"""


@pytest.mark.skipif(not DISPATCHED, reason="numpy dispatches no AVX-512 target here")
def test_records_and_gallery_hold_without_avx512():
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        NPY_DISABLE_CPU_FEATURES=" ".join(DISPATCHED),
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *DISPATCHED], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert " passed" in proc.stdout and " failed" not in proc.stdout
    assert "gallery clean" in proc.stdout
