"""The root cells of the certified search, bounded in chunks of whole cells.

The reference below is the per-cell ``_Search.roots`` copied from the code
before the root cells were grouped: it yields each root cell as its own
chunk, so each is bounded against the incumbent that the cells before it
left.  With it patched in, ``optimize_k`` must give the same lambda_star,
lambda_lower and sides bit for bit.  ``cells`` moves only at k = 2, where
the incumbent fell partway through the per-cell root level and pruned 4
more cells.
"""

import numpy as np
import pytest

from eigenbox import optimize
from eigenbox.optimize import MARGIN, _Search, optimize_k, root_cells
from eigenbox.spectrum import _BLOCK, DEFAULT_CANDIDATE_CAP, _octant_bands

# ---------------------------------------------------------------------------
# Reference: one chunk per root cell.
# ---------------------------------------------------------------------------


def ref_roots(self):
    for u0, u1, v0, v1 in root_cells().T:
        _, _, t = next(_octant_bands(
            [((1.0 / u1, 1.0 / v1, u0 * v0), 0.0, self.best * (1.0 + MARGIN))], self.cap))
        s = (t * t).astype(np.float64)
        box = np.array([[u0], [u1], [v0], [v1]])
        yield box, np.zeros(1), np.zeros(1, np.int64), s, np.zeros(s.shape[1], np.int64)


# The k whose cell count differs: (per-cell reference, grouped).
MOVED_CELLS = {2: (56, 60)}


@pytest.mark.parametrize("k", [*range(1, 130), 256, 512, 1024, 2048])
def test_certified_outputs_match_the_per_cell_roots(monkeypatch, k):
    new = optimize_k(k)
    with monkeypatch.context() as patch:
        patch.setattr(optimize._Search, "roots", ref_roots)
        old = optimize_k(k)
    assert new.lambda_star == old.lambda_star
    assert new.lambda_lower == old.lambda_lower
    assert new.cuboid.sides == old.cuboid.sides
    assert (old.cells, new.cells) == MOVED_CELLS.get(k, (old.cells, old.cells))


@pytest.mark.parametrize("k", [1, 256, 512, 1024, 2048, 4096, 16384])
def test_root_chunks_hold_whole_cells(k):
    chunks = list(_Search(k, DEFAULT_CANDIDATE_CAP).roots())
    cells = list(ref_roots(_Search(k, DEFAULT_CANDIDATE_CAP)))
    assert sum(chunk[0].shape[1] for chunk in chunks) == len(cells)
    first = 0
    for i, (box, parent, below, s, cell) in enumerate(chunks):
        n = box.shape[1]
        assert not parent.any() and not below.any() and below.dtype == np.int64
        assert cell.dtype == np.int64 and np.all(np.diff(cell) >= 0)
        assert n == 1 or s.shape[1] <= _BLOCK
        for j in range(n):
            ref_box, _, _, ref_s, _ = cells[first + j]
            np.testing.assert_array_equal(box[:, j], ref_box[:, 0])
            np.testing.assert_array_equal(s[:, cell == j], ref_s)
        first += n
        # A chunk ends only where its next cell would take it past _BLOCK rows.
        if i + 1 < len(chunks):
            assert s.shape[1] + cells[first][3].shape[1] > _BLOCK


def test_root_level_is_one_chunk_at_k_256():
    assert len(list(_Search(256, DEFAULT_CANDIDATE_CAP).roots())) == 1
