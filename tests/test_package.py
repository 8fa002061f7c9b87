"""Package surface: the exported names, what each entry point loads, and
the README quickstart."""

import importlib
import inspect
import json
import os
from pathlib import Path
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest

import normgen
from normgen import errors

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_all_names_resolve():
    table = [name for names in normgen._EXPORTS.values() for name in names]
    assert len(normgen.__all__) == len(set(normgen.__all__))
    assert normgen.__all__ == [*table, "__version__"]
    assert set(normgen.__all__) <= set(dir(normgen))
    for module, names in normgen._EXPORTS.items():
        home = importlib.import_module(f"normgen.{module}")
        for name in names:
            assert getattr(normgen, name) is getattr(home, name), name
    star = {}
    exec("from normgen import *", star)
    for name in normgen.__all__:
        assert star[name] is getattr(normgen, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        normgen.no_such_name


# what a fresh process has loaded after `import normgen` (no arguments) or
# after one CLI command: the exit code, then numpy, dataclasses and normgen
# submodules
FOOTPRINT = """
import json, sys
if sys.argv[1:]:
    from normgen.cli import main
    code = main(sys.argv[1:])
else:
    import normgen
    code = 0
loaded = sorted(m for m in sys.modules
                if m in ("numpy", "dataclasses") or m.startswith("normgen."))
print(json.dumps([code, loaded]))
"""
HEAVY = {"normgen.corpus", "normgen.rational", "normgen.symmetries", "normgen.commutator"}
WALK = {"normgen.generation", "normgen.orderings", "normgen.su2"}
# everything `normgen verify` loads: the verifier's module and what it imports
VERIFY_LOADS = ["dataclasses", "normgen.certificate", "normgen.cli", "normgen.config",
                "normgen.errors", "normgen.spectral", "numpy"]


def fresh_process(*argv, script=FOOTPRINT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def operands(tmp_path_factory):
    """u.json, v.json and a rank-dependent certificate c.json at n = 16."""
    work = tmp_path_factory.mktemp("operands")
    u, v = normgen.admissible_pair(16, 2, 1, np.random.default_rng(16))
    cert = normgen.generate_rank_dependent(u, v, 2)
    for name, obj in (("u", u), ("v", v), ("c", cert)):
        (work / f"{name}.json").write_text(json.dumps(obj.to_json()))
    return work


def test_import_loads_no_submodule():
    assert fresh_process() == [json.dumps([0, []])]


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_load_no_numpy(flag):
    # nor dataclasses, which the FOOTPRINT filter would list
    code, loaded = json.loads(fresh_process(flag)[-1])
    assert code == 0
    assert loaded == ["normgen.cli", "normgen.config", "normgen.errors"]


@pytest.mark.parametrize("argv", [
    ["verify", "c.json"],
    ["generate", "u.json", "v.json", "--m", "2"],
    ["generate", "u.json", "v.json", "--m", "2", "--mode", "rank-indep", "--s", "1"],
    ["generate", "u.json", "v.json", "--mode", "full"],
])
def test_unitary_commands_load_no_corpus_modules(operands, argv):
    argv = [str(operands / a) if a.endswith(".json") else a for a in argv]
    code, loaded = json.loads(fresh_process(*argv)[-1])
    assert code == 0
    if argv[0] == "verify":
        assert loaded == VERIFY_LOADS
    else:
        assert "normgen.generation" in loaded
    assert not HEAVY & set(loaded)


def test_verify_loads_no_walk_code(operands):
    code, loaded = json.loads(fresh_process("verify", str(operands / "c.json"))[-1])
    assert code == 0
    assert loaded == VERIFY_LOADS


def test_broise_mode_loads_no_walk_code(operands):
    argv = ["generate", str(operands / "u.json"), "--mode", "broise"]
    code, loaded = json.loads(fresh_process(*argv)[-1])
    assert code == 0
    assert "normgen.symmetries" in loaded
    assert not WALK & set(loaded)


def test_certificate_module_imports_no_generator():
    # the verifier trusts nothing from the generators, so it loads none
    script = ("import json, sys, normgen.certificate\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('normgen.'))))")
    loaded = json.loads(fresh_process(script=script)[-1])
    assert loaded == ["normgen.certificate", "normgen.config", "normgen.errors",
                      "normgen.spectral"]


def test_tolerances_are_read_only():
    tol = normgen.TOL
    assert (tol.ell, tol.s0_max) == (1e-8, 5040)
    assert tol.eq_tol(3, 4) == 4 * 4 * 128.0 * sys.float_info.epsilon
    for name in ("ell", "new_knob"):
        with pytest.raises(AttributeError):
            setattr(tol, name, 1.0)
    assert tol.ell == 1e-8


def test_corpus_command_in_fresh_process():
    # eight cases run as forked shares on a machine with two usable CPUs
    lines = fresh_process("corpus", "--cases", "8", "--seed", "3")
    assert json.loads(lines[-1])[0] == 0
    assert lines[0] == json.dumps(normgen.run_corpus(seed=3, cases=8), sort_keys=True)


def test_only_samplers_take_a_seed():
    # outputs depend on the inputs alone: a seed belongs only where it
    # draws the inputs, and the product tolerance is always the measured one
    seeded = set()
    for name in normgen.__all__:
        obj = getattr(normgen, name)
        if inspect.isfunction(obj) and "seed" in inspect.signature(obj).parameters:
            seeded.add(name)
    assert seeded == {"run_corpus"}
    assert "tol" not in inspect.signature(normgen.verify_certificate).parameters


def test_readme_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "generate_rank_dependent" in code
    exec(compile(code, f"{README}:quickstart", "exec"), {"__name__": "quickstart"})


def test_errors_survive_pickle():
    # a process pool hands exceptions back pickled
    u, v = normgen.admissible_pair(7, 2, 3, np.random.default_rng(1))
    with pytest.raises(normgen.HypothesisError) as info:
        normgen.generate_rank_independent(v, u, 1, 3)
    back = pickle.loads(pickle.dumps(info.value))
    assert type(back) is normgen.HypothesisError
    assert back.args == info.value.args
    assert back.report == info.value.report is not None
    for name, cls in vars(errors).items():
        if isinstance(cls, type) and issubclass(cls, Exception):
            back = pickle.loads(pickle.dumps(cls(f"{name} text")))
            assert type(back) is cls and str(back) == f"{name} text"
