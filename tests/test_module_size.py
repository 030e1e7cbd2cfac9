"""Every library module stays below 4 096 parser tokens.

Without a bytecode cache (the way the benchmark runs the CLI), a module
past that size measurably raises the peak resident memory of an import.
"""

import io
import pathlib
import tokenize

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tcpkit"
UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_below_4096_tokens(path):
    tokens = tokenize.tokenize(io.BytesIO(path.read_bytes()).readline)
    count = sum(t.type not in UNCOUNTED for t in tokens)
    assert count < 4096, f"{path.name} has {count} tokens"
