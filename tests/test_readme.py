"""The README's library example, run as written, and the names `wkseq` exports."""
import re
import subprocess
import sys
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
    # exports resolve on first use; a fresh interpreter's dir() lists them all
    check = "import wkseq; print(sorted(set(wkseq.__all__) - set(dir(wkseq))))"
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
    assert proc.stdout == "[]\n", proc.stderr
