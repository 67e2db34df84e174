"""Every demo script runs to completion against the current package and
prints the bytes pinned below, and every fenced ``python`` block of
README.md runs to completion.

Each pin is the sha256 of a demo's stdout (``PNCLAB_WORKERS`` unset).
Every demo is deterministic, so a pin moves only when what a demo prints
moves; a change that means to move one says so and re-records it.
"""
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)


def _run(args, cwd):
    """Run Python with ``args`` in ``cwd``, this checkout's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PNCLAB_WORKERS", None)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, timeout=300)

STDOUT_SHA256 = {
    "01_fade_state_catalog": "57a9fe7651d5718112761dff3cb0354cb28c4b15af0a9222c54646a5282daa2e",
    "02_mapping_search": "4779e0f11ce7953ec54fef00492d3f8825be34e07c1197813a80af0cc6cc9e56",
    "03_end_to_end_frame": "8b828aa3bdfa3bf4284427b25a47575608b4cd164249ae45428fbc5cbe7bcfb8",
    "04_lookup_table": "42a6f760ab41f495b66140a77d9b65431cca1cd78b1761fbc4d124cf2b0b334c",
    "05_outage_sweep": "e55b54db81813bc68e7b62bc988e1a4f99518ea54167c46d6fe0ff6c67c6ad0c",
}


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    proc = _run([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:].decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[script.stem], proc.stdout.decode()


def test_readme_has_python_blocks():
    assert README_BLOCKS, "README.md has no fenced python block"


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{k}" for k in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    """A README example that no longer matches the package's call forms fails here."""
    proc = _run(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:].decode(errors="replace")
