import tokenize
from pathlib import Path

import pytest

import vcube

# CPython's parser allocates its token structs in doubling batches: a
# module past 4,096 tokens costs about 256 KiB more to compile, which
# every fresh import pays in peak RSS (ROADMAP, Known gaps).
TOKEN_LIMIT = 4096
MODULES = sorted(Path(vcube.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_stays_under_the_parser_token_batch(path):
    with path.open("rb") as f:
        tokens = sum(
            tok.type not in (tokenize.COMMENT, tokenize.NL)
            for tok in tokenize.tokenize(f.readline)
        )
    assert tokens < TOKEN_LIMIT, (path.name, tokens)
