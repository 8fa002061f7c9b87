"""Package surface: the exported names and the README quickstart."""

import inspect
from pathlib import Path
import re

import normgen

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
