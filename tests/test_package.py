"""The package namespace: public names resolve when first read."""

import os
import subprocess
import sys

import pytest

import degenloci


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from degenloci import *", namespace)
    for name in degenloci.__all__:
        assert namespace[name] is getattr(degenloci, name)
    assert set(degenloci.__all__) <= set(dir(degenloci))
    with pytest.raises(AttributeError, match="nosuch"):
        degenloci.nosuch


def test_bare_import_runs_no_calculator():
    # a module registered lazily keeps the lazy loader's module type until it runs
    probe = ("import sys, types, degenloci\n"
             "print(*sorted(name for name, module in sys.modules.items()\n"
             "              if name.startswith('degenloci.')\n"
             "              and type(module) is types.ModuleType))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(degenloci.__file__)))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")
