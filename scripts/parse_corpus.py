"""Refresh tests/golden/parse_errors.json, the parsers' corpus of malformed inputs.

The file lists malformed .hgr texts under "hgr" and malformed gadget sidecar
texts, each with its hyperedge count, under "sidecar". A case marked
"recipe" stores no text: tests/helpers.second_piece_case builds it, a long
text whose fault lies in the scan's second piece. For every case this script
records the line number (null when the error names none) and the message
that the line-by-line reference parsers of tests/helpers.py raise;
tests/test_golden.py checks _parse_edges and parse_gadget_lines against
them. To add a case, add {"name": ..., "text": ...} (plus "num_edges" for a
sidecar) to the file, then run from the repository root:

    PYTHONPATH=src python scripts/parse_corpus.py
"""
import json
import os
import re
import sys

TESTS = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                                     "tests"))
sys.path.insert(0, TESTS)

from helpers import corpus_text, reference_parse_edges, reference_parse_gadget_lines  # noqa: E402
from hyperlocal.hypergraph import HypergraphFormatError  # noqa: E402

REFERENCE = {
    "hgr": lambda text, num_edges: reference_parse_edges(text),
    "sidecar": reference_parse_gadget_lines,
}


def main():
    path = os.path.join(TESTS, "golden", "parse_errors.json")
    with open(path) as f:
        corpus = json.load(f)
    for kind, cases in corpus.items():
        for case in cases:
            try:
                REFERENCE[kind](*corpus_text(kind, case))
            except HypergraphFormatError as exc:
                found = re.fullmatch(r"line (\d+): (.*)", str(exc), re.DOTALL)
                case["line"] = int(found[1]) if found else None
                case["message"] = found[2] if found else str(exc)
            else:
                sys.exit(f"{kind}/{case['name']}: the reference parser accepts this text")
    with open(path, "w") as f:
        json.dump(corpus, f, indent=1)
        f.write("\n")
    print(f"wrote {sum(map(len, corpus.values()))} cases to {path}")


if __name__ == "__main__":
    main()
