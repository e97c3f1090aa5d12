"""Workload inputs and the items that run on them.

Every input is pinned here or drawn from a seeded ``random.Random``: the
catalog and blow-up words are explicit letter lists, and random words come
from this module's own walk over ``available_moves``/``apply_move`` (moves
sorted before ``rng.choice``).  The orchestrator draws one walk seed per
random item from the run's ``random.Random(seed)``; the worker walks from it
during its set-up, so generating the words counts in ``setup_s``.  A later
change to ``good_word``, ``bad_word``, ``random_longest_words`` or to move
ordering therefore cannot swap a workload's inputs without this file
changing.

A round is a list of jobs and a job a list of items.  Each job runs in a
fresh interpreter, so caches start cold as they do for a CLI invocation.
``relsuite``, ``blowup`` and ``modular`` put one item in each job, as a
user runs one command per item; ``pathwalk`` puts its whole round in one
job, as a library session would.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

CATALOG = {
    ("D", 4): [0, 1, 2, 0, 1, 2, 3, 2, 0, 1, 2, 3],
    ("D", 5): [0, 1, 2, 0, 1, 2, 3, 2, 0, 1, 2, 3, 4, 3, 2, 0, 1, 2, 3, 4],
    ("E", 6): [4, 3, 4, 0, 3, 4, 2, 3, 0, 4, 3, 2, 1, 2, 3, 4, 0, 3, 2, 1, 5, 4, 3, 2, 1,
               0, 3, 2, 4, 3, 0, 5, 4, 3, 2, 1],
    ("E", 7): [4, 3, 4, 0, 3, 4, 2, 3, 0, 4, 3, 2, 1, 2, 3, 4, 0, 3, 2, 1, 5, 4, 3, 2, 1,
               0, 3, 2, 4, 3, 0, 5, 4, 3, 2, 1, 6, 5, 4, 3, 2, 0, 3, 4, 5, 6, 1, 2, 3, 4,
               5, 0, 3, 4, 2, 3, 0, 1, 2, 3, 4, 5, 6],
    ("E", 8): [4, 3, 4, 0, 3, 4, 2, 3, 0, 4, 3, 2, 1, 2, 3, 4, 0, 3, 2, 1, 5, 4, 3, 2, 1,
               0, 3, 2, 4, 3, 0, 5, 4, 3, 2, 1, 6, 5, 4, 3, 2, 0, 3, 4, 5, 6, 1, 2, 3, 4,
               5, 0, 3, 4, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 1, 0, 3, 2, 4, 3,
               5, 4, 6, 5, 0, 3, 4, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 0, 3, 4,
               5, 6, 1, 2, 3, 4, 5, 0, 3, 4, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7],
}

# The E6 bad word: a 20-letter prefix completing the fixed 16-letter suffix
# (A5 longest word on the chain, then the fork letter 0).
E6_SUFFIX = [5, 4, 3, 2, 1, 5, 4, 3, 2, 5, 4, 3, 5, 4, 5, 0]
E6_GREEDY_PREFIX = [3, 4, 2, 3, 1, 2, 0, 3, 4, 5, 4, 3, 2, 0, 3, 4, 1, 2, 3, 0]
E6_MINIMAL_PREFIX = [3, 4, 5, 2, 3, 4, 0, 3, 1, 2, 3, 4, 5, 0, 3, 4, 1, 2, 3, 0]
D8_BAD = [2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5, 6, 0, 2, 3, 4, 5, 1, 2, 3, 4, 0, 2, 3, 1, 2,
          0, 7, 6, 5, 4, 3, 2, 1, 7, 6, 5, 4, 3, 2, 7, 6, 5, 4, 3, 7, 6, 5, 4, 7, 6, 5,
          7, 6, 7, 0]
# E3 bracket counts of the six commutation classes of the E6 prefix element.
E6_CLASS_COUNTS = [1043, 1052, 1077, 1098, 1139, 1280]

WALK_MOVES = 60        # random moves from the catalog word
PREFIX_WALK_MOVES = 40  # random moves inside the 20-letter bad-word prefix

WORKLOADS = ("relsuite", "blowup", "pathwalk", "modular")


def random_word(family: str, rank: int, start: list[int], rng, moves: int, limit: int | None = None) -> list[int]:
    """Letters after ``moves`` random moves from ``start``.

    With ``limit``, only moves that touch positions below ``limit`` are
    drawn, so the letters from ``limit`` on never change.
    """
    from posrep.rootdata import build_cartan
    from posrep.words import ReducedWord, apply_move, available_moves

    word = ReducedWord(build_cartan(family, rank), tuple(start))
    for _ in range(moves):
        choices = sorted(available_moves(word))
        if limit is not None:
            span = {"commute": 1, "braid": 2}
            choices = [m for m in choices if m.pos + span[m.kind] < limit]
        word = apply_move(word, rng.choice(choices))
    return list(word.letters)


def _item(item_id, kind, family, rank, letters, **extra) -> dict:
    return {"id": item_id, "kind": kind, "family": family, "rank": rank,
            "letters": letters, **extra}


def _walk(rng, moves: int, limit: int | None = None) -> dict:
    """A random word to generate in the worker: ``moves`` moves from ``letters``."""
    return {"seed": rng.getrandbits(64), "moves": moves, "limit": limit}


def make_round(workload: str, r: int, rng) -> list[list[dict]]:
    """The jobs of round ``r``; walk seeds are drawn from ``rng`` in order."""
    if workload == "relsuite":
        items = [
            _item(f"r{r}.E6.catalog", "verify", "E", 6, CATALOG[("E", 6)], catalog=True),
            _item(f"r{r}.D5.rand", "verify", "D", 5, CATALOG[("D", 5)],
                  walk=_walk(rng, WALK_MOVES), catalog=False),
        ]
        return [[it] for it in items]
    if workload == "blowup":
        items = [
            _item(f"r{r}.E6.greedy", "construct", "E", 6, E6_GREEDY_PREFIX + E6_SUFFIX,
                  gen="E3", expect=[1280]),
            _item(f"r{r}.E6.minimal", "construct", "E", 6, E6_MINIMAL_PREFIX + E6_SUFFIX,
                  gen="E3", expect=[1043]),
            _item(f"r{r}.D8.bad", "construct", "D", 8, D8_BAD, gen="E2", expect=[2001]),
        ]
        for k in range(2):
            items.append(_item(f"r{r}.E6.completion{k}", "construct", "E", 6,
                               E6_GREEDY_PREFIX + E6_SUFFIX, gen="E3", expect=E6_CLASS_COUNTS,
                               walk=_walk(rng, PREFIX_WALK_MOVES, len(E6_GREEDY_PREFIX))))
        return [[it] for it in items]
    if workload == "pathwalk":
        items = []
        for family, rank, count in (("E", 6, 3), ("E", 7, 4), ("E", 8, 3)):
            for k in range(count):
                items.append(_item(f"r{r}.{family}{rank}.{k}", "pathwalk", family, rank,
                                   CATALOG[(family, rank)], walk=_walk(rng, WALK_MOVES)))
        return [items]
    if workload == "modular":
        return [[_item(f"r{r}.{f}{n}", "modular", f, n, CATALOG[(f, n)])]
                for f, n in (("D", 4), ("D", 5), ("E", 6))]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Running and checking one item (inside a worker).
# ---------------------------------------------------------------------------

def prepare(item: dict):
    """Build an item's inputs and return ``(letters, run, check)``.

    ``letters`` is the item's word: its pinned letters, or the end of its
    random walk from them.  ``run()`` makes the calls a user makes and
    returns their raw result; ``check(result)`` returns ``(ok, detail)``
    from exact comparisons.
    """
    # Calls go through module attributes, so that a traced run sees the
    # wrappers installed after this set-up.
    from posrep import cli, moddouble, repbuild, verify
    from posrep.rootdata import build_cartan
    from posrep.words import ReducedWord, check_longest

    letters = item["letters"]
    walk = item.get("walk")
    if walk is not None:
        letters = random_word(item["family"], item["rank"], letters,
                              random.Random(walk["seed"]), walk["moves"], walk["limit"])
    datum = build_cartan(item["family"], item["rank"])
    word = ReducedWord(datum, tuple(letters))
    check_longest(word)
    type_args = [item["family"], str(item["rank"])]
    kind = item["kind"]

    def run_cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    if kind == "verify":
        def run():
            return run_cli(["verify", *type_args, "--word", str(word)])

        def check(result):
            code, out = result
            report = json.loads(out)
            bad = [name for name, c in report["q2_chains"].items()
                   if c["status"] != "pass"
                   and (item["catalog"] or name.startswith("F") or not c["even"])]
            ok = code == 0 and report["relations"]["status"] == "pass" and not bad
            return ok, {"exit": code, "relations": report["relations"]["status"],
                        "bad_chains": bad}
        return letters, run, check

    if kind == "construct":
        def run():
            return run_cli(["construct", *type_args, "--word", str(word),
                            "--gen", item["gen"], "--format", "json"])

        def check(result):
            code, out = result
            payload = json.loads(out)
            count = len(payload["operator"].get("brackets", []))
            ok = code == 0 and payload["word"] == letters and count in item["expect"]
            return ok, {"exit": code, "brackets": count}
        return letters, run, check

    if kind == "pathwalk":
        catalog = ReducedWord(datum, tuple(CATALOG[(item["family"], item["rank"])]))

        def run():
            return verify.path_independence(datum, catalog, word)

        def check(report):
            return report["status"] == "pass", {"status": report["status"]}
        return letters, run, check

    if kind == "modular":
        def run():
            mrep = moddouble.build_modified(repbuild.build_rep(datum, word))
            return (moddouble.cross_parity_certificate(mrep),
                    moddouble.qtori_certificate(mrep),
                    moddouble.commutant_check(datum, mrep))

        def check(result):
            cross, qtori, commutant = result
            full_rank = 2 * len(word)
            ok = (cross["status"] == qtori["status"] == commutant["status"] == "pass"
                  and qtori["rank"] == full_rank)
            return ok, {"cross_parity": cross["status"], "qtori": qtori["status"],
                        "rank": qtori["rank"], "full_rank": full_rank,
                        "commutant": commutant["status"]}
        return letters, run, check

    raise ValueError(f"unknown item kind {kind!r}")
