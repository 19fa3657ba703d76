"""Tests for the tiled domain decomposition (Fig. 5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.tiling import Decomposition


class TestConstruction:
    def test_basic_4x4(self):
        d = Decomposition(128, 64, 4, 4, olx=3)
        assert d.n_ranks == 16
        t = d.tile(0)
        assert (t.nx, t.ny) == (32, 16)
        assert t.shape2d == (22, 38)
        assert t.shape3d(10) == (10, 22, 38)

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ValueError):
            Decomposition(100, 64, 3, 4)

    def test_halo_larger_than_tile_rejected(self):
        with pytest.raises(ValueError):
            Decomposition(8, 8, 4, 4, olx=3)

    def test_negative_halo_rejected(self):
        with pytest.raises(ValueError):
            Decomposition(8, 8, 2, 2, olx=-1)

    def test_strips_factory(self):
        d = Decomposition.strips(128, 64, 16, olx=3)
        assert (d.px, d.py) == (16, 1)
        assert d.tile(0).nx == 8 and d.tile(0).ny == 64

    def test_blocks_factory(self):
        d = Decomposition.blocks(128, 64, 4, 4)
        assert (d.px, d.py) == (4, 4)

    def test_tile_origins_cover_domain(self):
        d = Decomposition(128, 64, 4, 4)
        cells = set()
        for t in d:
            for y in range(t.y0, t.y0 + t.ny):
                for x in range(t.x0, t.x0 + t.nx):
                    assert (x, y) not in cells
                    cells.add((x, y))
        assert len(cells) == 128 * 64


class TestNeighbors:
    def test_periodic_x_wraps(self):
        d = Decomposition(128, 64, 4, 4)
        assert d.neighbor(0, "west") == 3
        assert d.neighbor(3, "east") == 0

    def test_walls_in_y(self):
        d = Decomposition(128, 64, 4, 4)
        assert d.neighbor(0, "south") is None
        assert d.neighbor(15, "north") is None

    def test_interior_neighbors(self):
        d = Decomposition(128, 64, 4, 4)
        assert d.neighbor(5, "west") == 4
        assert d.neighbor(5, "east") == 6
        assert d.neighbor(5, "south") == 1
        assert d.neighbor(5, "north") == 9

    def test_single_tile_periodic_self(self):
        d = Decomposition(32, 16, 1, 1)
        assert d.neighbor(0, "west") == 0
        assert d.neighbor(0, "north") is None

    def test_unknown_direction_raises(self):
        d = Decomposition(32, 16, 1, 1)
        with pytest.raises(ValueError):
            d.neighbor(0, "up")

    def test_fully_periodic_option(self):
        d = Decomposition(32, 32, 2, 2, periodic_y=True)
        assert d.neighbor(0, "south") == 2


class TestEdgeBytes:
    def test_reference_atmosphere_volumes(self):
        """The Fig. 11 halo volumes: 4x4 tiles of 32x16, halo 3, 10 levels."""
        d = Decomposition(128, 64, 4, 4, olx=3)
        edges = d.edge_bytes(nz=10, rank=5)  # interior tile
        # west/east: 3*16*10 cells, south/north: 3*32*10 cells (corner-free)
        assert edges[0] == edges[1] == 3 * 16 * 10 * 8
        assert edges[2] == edges[3] == 3 * 32 * 10 * 8
        # total halo volume per field = 23040 B, the calibration target
        assert sum(edges) == 23040

    def test_wall_tiles_send_nothing_south(self):
        d = Decomposition(128, 64, 4, 4, olx=3)
        edges = d.edge_bytes(nz=10, rank=0)
        assert edges[2] == 0  # south wall
        assert edges[3] > 0

    def test_self_wrap_is_free(self):
        d = Decomposition(32, 16, 1, 1, olx=1)
        assert d.edge_bytes() == [0, 0, 0, 0]

    def test_width_override(self):
        d = Decomposition(128, 64, 4, 4, olx=3)
        narrow = d.edge_bytes(width=1, rank=5)
        full = d.edge_bytes(rank=5)
        assert narrow[0] < full[0]
        assert narrow[0] == 1 * 16 * 1 * 8

    def test_critical_edges_on_reference_grid(self):
        """On the reference 4x4 tiling the critical rank is the first
        interior-row tile, whose edges equal every interior tile's."""
        d = Decomposition(128, 64, 4, 4, olx=3)
        assert d.critical_edge_bytes(nz=10) == d.edge_bytes(nz=10, rank=5)
        assert sum(d.critical_edge_bytes(nz=10)) == 23040


@given(
    px=st.sampled_from([1, 2, 4, 8]),
    py=st.sampled_from([1, 2, 4]),
    olx=st.integers(min_value=1, max_value=2),
    nz=st.integers(min_value=1, max_value=12),
    width=st.integers(min_value=1, max_value=2),
    itemsize=st.sampled_from([4, 8]),
    periodic_y=st.booleans(),
)
@settings(max_examples=60)
def test_property_critical_edges_dominate_every_rank(
    px, py, olx, nz, width, itemsize, periodic_y
):
    """The critical rank's edges are the first maximal edge list for any
    level count, width and itemsize, and dominate every rank edge by
    edge — so no rank's exchange can price higher."""
    width = min(width, olx)
    d = Decomposition(64, 32, px, py, olx=olx, periodic_y=periodic_y)
    crit = d.critical_edge_bytes(nz=nz, width=width, itemsize=itemsize)
    per_rank = [
        d.edge_bytes(nz=nz, width=width, itemsize=itemsize, rank=r)
        for r in range(d.n_ranks)
    ]
    assert crit == max(per_rank, key=sum)
    for edges in per_rank:
        assert all(c >= e for c, e in zip(sorted(crit), sorted(edges)))


@given(
    px=st.sampled_from([1, 2, 4]),
    py=st.sampled_from([1, 2, 4]),
    olx=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=40)
def test_property_neighbor_relation_is_symmetric(px, py, olx):
    d = Decomposition(32, 32, px, py, olx=olx)
    opposite = {"west": "east", "east": "west", "north": "south", "south": "north"}
    for r in range(d.n_ranks):
        for dirn, opp in opposite.items():
            nbr = d.neighbor(r, dirn)
            if nbr is not None and nbr != r:
                assert d.neighbor(nbr, opp) == r
