"""The README's library example and CLI commands, run as written, and the
names `wkseq` exports."""
import hashlib
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import wkseq

README = Path(__file__).resolve().parents[1] / "README.md"

#: sha256 of stdout and the exit code of each command in the README's CLI
#: block; thmC is left out, since it reads a window file the README only names.
README_OUTPUTS = {
    "gen --from 0 --len 10":
        ("75f03a8b4c67ad1513c50a88a23ea9bd3ba361dcb225906fc0cc6200374f1c39", 0),
    "--format json gen --from 41 --len 1":
        ("70ce81bb280ecb5c37e728d5a7444fcaa67156674d8e4e7289b548295b5648ac", 0),
    "--decimals 4 gen --from 41 --len 1":
        ("cdb86a48c420878644e0dfdbf5701b7997491c453d0463ddccbb73c8611aaa5a", 0),
    "verify returns --n 1":
        ("3f0a79a9af451416d173d2ebdb0820445a98133192bbf0ead1047f5b8a6c7cc7", 0),
    "verify rigidity --n 1 --count 486":
        ("b222d0ccddd5e558ead200d5f9320469b55d9721a5ab43c1cbcf1cb477241ab0", 0),
    "verify ones --n 1 --window 100000":
        ("13a9abc1f2761a7af8e284d3b7cb3aa5e368cd0955d5683a3b2ec0b9cdb14024", 0),
    "verify ones --n 2 --window 300000000 --mode plateau":
        ("868671b2ce2c789e5761d8090ddfb27e5b0b022a3eaf39b22cde0819f5f6f780", 0),
    "verify wm --n 0":
        ("998aec2f1f50f03c9d8962f642f6e951436c4f19a444800df11364046d6b12c0", 0),
    "verify shift-defect --n 1 --m 2 --step 143489313":
        ("04f3527e39926e34befc47c54aba4d81945c8d8e96b47081619d7b2a43a596fb", 0),
    "relations classify --a alpha --b ones --delta 1 --horizon 400 --k 8 --tau 1/100"
    " --require proximal-witnessed":
        ("da0a55904a2dcd35374b742e7117da1efeeed34bcaa48886b7c2b3b346ab1803", 0),
    "relations thmB --orbit alpha --fixed-point ones --pairs 0:1,2:5 --horizon 300"
    " --k 8 --tau 1/100":
        ("6d60ac674f96d7dfc23fda8b3849313336226615faa994ffbe047e807c764067", 0),
}


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


def test_readme_cli_commands_keep_their_bytes(capsys):
    text = README.read_text()
    block = re.search(r"```sh\n(.*?)```", text[text.index("\n## CLI\n"):], re.S).group(1)
    commands = [
        " ".join(line.split()[1:])
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("wkseq ") and " thmC " not in line
    ]
    assert commands == list(README_OUTPUTS)
    for command, expected in README_OUTPUTS.items():
        code = wkseq.console_main(command.split())
        out = capsys.readouterr().out
        assert (hashlib.sha256(out.encode()).hexdigest(), code) == expected, command
