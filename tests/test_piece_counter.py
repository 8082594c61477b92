"""A lone band counts its block pieces with ``_count_ragged``, in runs.

``_count_ragged`` is the one counter of band pieces: an ``_octant_bands``
pass hands it runs of the pieces of one band or many, at most ``_BLOCK``
entries a run, so a lone band holds one run's arrays at a time, whatever
its size.  Its count below the band, values and index triples equal those
of a pass that shares a run with another band, bit for bit.
"""

import numpy as np
import pytest

from eigenbox import spectrum
from eigenbox.spectrum import (
    COUNT_EPS,
    DEFAULT_CANDIDATE_CAP,
    PI_SQUARED,
    UNIT_CUBE,
    Cuboid,
    _octant_bands,
    _octant_pieces,
    _weyl_guess,
)

BOX = Cuboid.from_sides(0.7, 0.9)
THIN = Cuboid.from_sides(0.2, 0.5)
# A small band that shares the reference pass's run with the band tested.
PARTNER = (UNIT_CUBE.inv_sq, 0.0, 30.0)


def band_cases():
    g, t = _weyl_guess(BOX, 3000), _weyl_guess(THIN, 20000)
    lam = 1e4 * (1.0 + COUNT_EPS)
    return [
        (BOX.inv_sq, 0.8 * g, 1.2 * g),
        (BOX.inv_sq, 0.0, g),
        (THIN.inv_sq, 0.95 * t, 1.05 * t),
        (UNIT_CUBE.inv_sq, 390.0 * PI_SQUARED, 400.0 * PI_SQUARED),
        (BOX.inv_sq, lam, lam),
    ]


def recorder(monkeypatch):
    """Record the pieces of every ``_count_ragged`` call."""
    calls = []
    real = spectrum._count_ragged

    def recorded(bands, run):
        calls.append(list(run))
        return real(bands, run)

    monkeypatch.setattr(spectrum, "_count_ragged", recorded)
    return calls


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("case", range(len(band_cases())))
def test_a_lone_band_passes_one_piece_a_call(monkeypatch, block, case):
    # What a lone band's calls must keep is flat memory: at most _BLOCK
    # entries a call, and every piece counted once, in order.
    band = band_cases()[case]
    calls = recorder(monkeypatch)
    # The reference: the band and a partner, counted in one run.
    ref_below, ref_values, ref_triples = next(_octant_bands([band, PARTNER], DEFAULT_CANDIDATE_CAP))
    assert len(calls) == 1 and {b for b, *_ in calls[0]} == {0, 1}
    calls.clear()
    monkeypatch.setattr(spectrum, "_BLOCK", block)
    pieces = list(_octant_pieces(band[0], band[2], DEFAULT_CANDIDATE_CAP))
    below, values, triples = next(_octant_bands([band], DEFAULT_CANDIDATE_CAP))
    assert len(pieces) > 1
    assert [piece for run in calls for piece in run] == [(0, *piece) for piece in pieces]
    assert all(sum(rows * (hi - lo) for _, _, rows, lo, hi in run) <= block for run in calls)
    assert below == ref_below
    assert values.tobytes() == ref_values.tobytes()
    assert np.array_equal(triples, ref_triples)
