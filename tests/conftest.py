"""Fixtures and helpers shared by more than one test module."""

import dataclasses

import pytest

from posrep.repbuild import build_E
from posrep.rootdata import build_cartan
from posrep.words import bad_word


def flipped(datum):
    """``datum`` with the other orientation of its bipartition."""
    return dataclasses.replace(datum, bipartition=tuple((i, 1 - n) for i, n in datum.bipartition))


@pytest.fixture(scope="session")
def e7_bad_word_e3():
    """E3 on the E7 bad word under the default term budget, built once per
    session: about 30 s and 275 MiB on a 2-vCPU VM, so the tests that share
    it are gated on POSREP_LONG=1."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("POSREP_MAX_TERMS", raising=False)
        return build_E(bad_word(build_cartan("E", 7)), 3)
