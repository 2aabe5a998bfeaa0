import doctest
from pathlib import Path

import redwords.characterizations
import redwords.classes
import redwords.graphs
import redwords.permutation
import redwords.reduced_words


def test_docstring_examples():
    for module in (
        redwords.permutation,
        redwords.reduced_words,
        redwords.classes,
        redwords.graphs,
        redwords.characterizations,
    ):
        failures, _ = doctest.testmod(module, verbose=False)
        assert failures == 0, f"doctest failures in {module.__name__}"


def test_readme_library_example(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "4"
    assert "r=6, b=4, c=2, achieves_upper=False, achieves_lower=False" in lines[1]
    assert lines[1].endswith("violations=())")
    assert lines[2] == "False False"
    assert lines[3] == "graph {"
