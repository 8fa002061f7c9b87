"""Package surface: the exported names and the README quickstart."""

import inspect
from pathlib import Path
import pickle
import re

import numpy as np
import pytest

import normgen
from normgen import errors

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve():
    assert len(normgen.__all__) == len(set(normgen.__all__))
    for name in normgen.__all__:
        assert getattr(normgen, name) is not None, name


def test_only_samplers_take_a_seed():
    # outputs depend on the inputs alone: a seed belongs only where it
    # draws the inputs, and the product tolerance is always the measured one
    seeded = set()
    for name in normgen.__all__:
        obj = getattr(normgen, name)
        if inspect.isfunction(obj) and "seed" in inspect.signature(obj).parameters:
            seeded.add(name)
    assert seeded == {"run_corpus", "commutator_norm_search"}
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
