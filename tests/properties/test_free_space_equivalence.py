"""The bitmask free-space index against the split-and-prune oracle.

:class:`repro.packing.free_space.FreeSpace` must hold the same *set* of
maximal free rectangles as :class:`ReferenceFreeSpace` after any occupy
sequence, and both must pick the same positions — so
:func:`pack_with_obstacles` (with its early-rejection bounds) returns the
layouts the oracle's plain greedy loop returns.  Containers are small
and random, or storm-shaped: thousands of slots by 16 channels at a
non-zero origin, with obstacles sticking out of the container.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packing.free_space import FreeSpace, pack_with_obstacles
from repro.packing.geometry import PlacedRect, Rect

from reference_free_space import ReferenceFreeSpace, reference_pack_with_obstacles


@st.composite
def small_cases(draw):
    container = PlacedRect(
        draw(st.integers(0, 20)), draw(st.integers(0, 6)),
        draw(st.integers(0, 24)), draw(st.integers(0, 8)),
    )
    obstacles = draw(st.lists(
        st.builds(
            PlacedRect,
            st.integers(container.x - 4, container.x2 + 2),
            st.integers(container.y - 3, container.y2 + 1),
            st.integers(0, 10),
            st.integers(0, 6),
        ),
        max_size=12,
    ))
    return container, obstacles


@st.composite
def storm_cases(draw):
    width = draw(st.integers(4000, 4800))
    container = PlacedRect(draw(st.integers(1, 600)), 0, width, 16)
    obstacles = draw(st.lists(
        st.builds(
            PlacedRect,
            st.integers(container.x - 50, container.x2 - 1),
            st.integers(-2, 15),
            st.integers(1, 400),
            st.integers(1, 16),
        ),
        max_size=30,
    ))
    return container, obstacles


probe_rects = st.lists(
    st.builds(Rect, st.integers(0, 30), st.integers(0, 17), st.integers()),
    max_size=6,
)


def _assert_same_free_space(shipped, reference):
    free = shipped.free_rects
    assert len(set(free)) == len(free)
    assert set(free) == {
        PlacedRect(r.x, r.y, r.width, r.height) for r in reference.free_rects
    }
    assert shipped.idle_cells() == reference.idle_cells()


def _check(container, obstacles, probes, every_step=True):
    shipped = FreeSpace(container)
    reference = ReferenceFreeSpace(container)
    for obstacle in obstacles:
        shipped.occupy(obstacle)
        reference.occupy(obstacle)
        if every_step:
            _assert_same_free_space(shipped, reference)
    _assert_same_free_space(shipped, reference)
    for probe in probes:
        assert shipped.find_position(probe) == reference.find_position(probe)
    assert pack_with_obstacles(probes, container, obstacles) == (
        reference_pack_with_obstacles(probes, container, obstacles)
    )
    for probe in probes:
        assert shipped.place(probe) == reference.place(probe)
        _assert_same_free_space(shipped, reference)


@settings(max_examples=300, deadline=None)
@given(case=small_cases(), probes=probe_rects)
def test_small_containers_match_split_and_prune(case, probes):
    container, obstacles = case
    _check(container, obstacles, probes)


@settings(max_examples=20, deadline=None)
@given(
    case=storm_cases(),
    probes=st.lists(
        st.builds(
            Rect, st.integers(1, 600), st.integers(1, 16), st.integers()
        ),
        max_size=4,
    ),
)
def test_storm_shaped_containers_match_split_and_prune(case, probes):
    container, obstacles = case
    _check(container, obstacles, probes, every_step=False)
