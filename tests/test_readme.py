"""The README's library example, run as written, and the names `wkseq` exports."""
import re
from collections import Counter
from pathlib import Path

import wkseq

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs(capsys):
    text = README.read_text()
    library = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == (
        "('proximal-witnessed', 'delta-separated-witnessed', 'pair-recurrent-witnessed') "
        "Witness(time=54, value=Fraction(1, 128))\n"
    )


def test_public_names_resolve_once():
    twice = [name for name, count in Counter(wkseq.__all__).items() if count > 1]
    assert twice == []
    missing = [name for name in wkseq.__all__ if not hasattr(wkseq, name)]
    assert missing == []
