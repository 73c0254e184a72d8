"""Importing the package keeps heavy optional modules out of memory.

``scipy.stats`` (only rule mining needs ``spearmanr``),
``urllib.request`` (only a real dataset download needs it),
``scipy.spatial`` (only the exact k-NN tree: ``query()`` and the rows
the GEMM shortlist cannot certify) and ``scipy.sparse`` (only FACE's
graph) are imported at their call sites.  Loaded at import time they
add tens of MiB of resident memory to every process that imports
:mod:`repro`, which the benchmark's ``peak_rss_mb`` gates.  The check runs in a fresh
interpreter so modules the test session already loaded cannot hide a
regression.
"""

import json
import os
import pathlib
import subprocess
import sys

#: Modules no import of ``repro`` or any of its modules may load.
DEFERRED = ("scipy.stats", "urllib.request", "scipy.spatial", "scipy.sparse")

SCRIPT = """
import importlib, json, pkgutil, sys
import repro
names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(json.dumps({"imported": names,
                  "loaded": [m for m in %r if m in sys.modules]}))
""" % (DEFERRED,)


def test_package_import_defers_heavy_modules():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                            capture_output=True, text=True, check=True)
    report = json.loads(result.stdout.strip().splitlines()[-1])
    subpackages = {name.split(".")[1] for name in report["imported"]}
    assert {"baselines", "constraints", "data", "nn", "serve"} <= subpackages
    assert report["loaded"] == []
