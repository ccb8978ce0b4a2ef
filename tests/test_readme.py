"""The README's "Library use" example runs and prints what the README says."""

import re
from pathlib import Path

from nssfp.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_prints_the_stated_line(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert re.findall(r"^(?:from|import) (\S+)", code, re.M) == ["nssfp"]
    stated = re.search(r"--seed 7`\nthis prints `([^`]+)`", section).group(1)
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--authors", "40", "--target-words", "1200", "--seed", "7",
                 "--out", "corpus.tsv"]) == 0
    capsys.readouterr()
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [stated]
    assert stated == "U=80833 d=35983 tau=44850 recall=1.000 false_positives=0"
