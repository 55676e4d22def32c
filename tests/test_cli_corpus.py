"""Byte-for-byte CLI regression corpus.

`tests/data/cli_corpus.json` lists argv, exit code and exact stdout for
every README verb at every place (Q, R, F_p, F_2, Q_p, Q_2), error exits
included; `orbit construct --f 1,1,0,1 --e 1 --base F:2`, for one, must
stay a usage error (exit 2). It was recorded by running each argv through
`cli.dispatch` before the place dispatch moved into the ring objects; a
refactor that keeps the library's behaviour keeps this file's output.
"""

import io
import json
from pathlib import Path

from orbitlab.cli import dispatch

ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads((ROOT / "tests" / "data" / "cli_corpus.json").read_text())


def test_corpus_covers_every_verb_and_exit():
    verbs = {tuple(rec["argv"][:2]) for rec in CORPUS if rec["argv"]}
    for verb in (("orbit", "construct"), ("orbit", "stabilizer"),
                 ("descent", "local"), ("descent", "sel12"),
                 ("lattice", "selfdual"), ("lattice", "cassels"),
                 ("census", "sweep"), ("census", "orbits"),
                 ("census", "group-order"), ("census", "family")):
        assert verb in verbs
    assert {rec["argv"][0] for rec in CORPUS if rec["argv"]} >= {
        "invariants", "heights"}
    assert {rec["exit"] for rec in CORPUS} == {0, 2, 3, 4, 5}


def test_corpus_byte_identical(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("ORBITLAB_SEED", raising=False)
    mismatches = []
    for rec in CORPUS:
        out = io.StringIO()
        code = dispatch(list(rec["argv"]), out)
        if code != rec["exit"] or out.getvalue() != rec["stdout"]:
            mismatches.append((rec["argv"], rec["exit"], code))
    assert not mismatches, mismatches[:5]

