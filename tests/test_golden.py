"""Solver outputs and parser errors against the stored corpora of tests/golden/.

solver_digests.json: a digest covers x and r bit for bit (float.hex), every
work counter, the queue, the touched gadgets, the converged flag and the
on_event stream of one solve; scripts/solver_digests.py writes them from the
corpus in tests/helpers.py. A refactor that must not change outputs keeps
every digest. The p < 2 solves go through libm's pow, so their digests are
checked only on the platform they were recorded on.

parse_errors.json: malformed .hgr and sidecar texts with the line number and
message the reference parsers of tests/helpers.py give, recorded by
scripts/parse_corpus.py; the parsers must raise exactly those.
"""
import json
from pathlib import Path

import pytest

from helpers import (
    case_digest,
    corpus_error,
    corpus_text,
    libm_tag,
    p2_digest_cases,
    pnorm_digest_cases,
)
from hyperlocal.hypergraph import HypergraphFormatError, _parse_edges, parse_gadget_lines

GOLDEN = json.loads((Path(__file__).parent / "golden" / "solver_digests.json").read_text())
PARSE_ERRORS = json.loads((Path(__file__).parent / "golden" / "parse_errors.json").read_text())


def _mismatches(cases, stored):
    got = {name: case_digest(h, seeds, cfg) for name, h, seeds, cfg in cases}
    assert got.keys() == stored.keys()
    return [name for name in got if got[name] != stored[name]]


def test_p2_solves_match_golden_digests():
    assert _mismatches(p2_digest_cases(), GOLDEN["p2"]) == []


@pytest.mark.skipif(GOLDEN["pnorm_platform"] != libm_tag(),
                    reason=f"p < 2 digests hold on {GOLDEN['pnorm_platform']} (libm pow), "
                           f"not on {libm_tag()}")
def test_pnorm_solves_match_golden_digests():
    assert _mismatches(pnorm_digest_cases(), GOLDEN["pnorm"]) == []


PARSERS = {
    "hgr": lambda text, num_edges: _parse_edges(text),
    "sidecar": parse_gadget_lines,
}


@pytest.mark.parametrize("kind, case", [(kind, case) for kind, cases in PARSE_ERRORS.items()
                                        for case in cases],
                         ids=lambda v: v if isinstance(v, str) else v["name"])
def test_parsers_match_error_corpus(kind, case):
    with pytest.raises(HypergraphFormatError) as exc:
        PARSERS[kind](*corpus_text(kind, case))
    assert str(exc.value) == corpus_error(case)
