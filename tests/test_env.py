"""World model: boxes, ground surfaces, collision tests, grid projection."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from morphnav import env as env_module
from morphnav.env import (
    Aabb,
    Environment,
    Heightmap,
    OccupancyGrid,
    distances,
    edt,
    environment_from_dict,
    load_environment,
    project_to_grid,
)
from morphnav.errors import ConfigError
from morphnav.rng import SplitMix64
from reference import (
    ARENA,
    ref_ends_on_ground,
    ref_in_collision,
    ref_length,
    ref_point_in_collision,
    ref_segment_hit,
    ref_segment_points,
    uniform,
)


def _box_env():
    # 10 x 10 x 5 flat arena with one box in the middle.
    return Environment(
        Aabb((0.0, 0.0, 0.0), (10.0, 10.0, 5.0)),
        obstacles=(Aabb((4.0, 4.0, 0.0), (6.0, 6.0, 2.0)),),
    )


# -- Aabb -----------------------------------------------------------------


def test_aabb_rejects_degenerate_and_inverted():
    with pytest.raises(ConfigError):
        Aabb((0.0, 0.0, 0.0), (0.0, 1.0, 1.0))
    with pytest.raises(ConfigError):
        Aabb((0.0, 0.0, 0.0), (1.0, -1.0, 1.0))


def test_aabb_overlaps_is_closed():
    a = Aabb((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    assert a.overlaps(Aabb((1.0, 0.0, 0.0), (2.0, 1.0, 1.0)))  # face contact
    assert not a.overlaps(Aabb((1.001, 0.0, 0.0), (2.0, 1.0, 1.0)))
    assert a.overlaps(Aabb((0.5, 0.5, 0.5), (0.6, 0.6, 0.6)))  # containment


# -- Heightmap ------------------------------------------------------------


def test_heightmap_bilinear_and_clamp():
    hm = Heightmap((0.0, 0.0), 1.0, [[0.0, 1.0], [2.0, 3.0]])
    # Column axis is x, row axis is y.
    assert float(hm.elevations(1.0, 0.0)) == 1.0
    assert float(hm.elevations(0.0, 1.0)) == 2.0
    assert float(hm.elevations(0.5, 0.5)) == 1.5
    assert float(hm.elevations(0.5, 0.0)) == 0.5
    # Beyond the sample grid the border value extends outward.
    assert float(hm.elevations(9.0, 9.0)) == 3.0
    assert float(hm.elevations(-5.0, 0.0)) == 0.0


def test_heightmap_clamps_infinite_huge_and_nan_coordinates():
    # Indices are clamped in float before the integer cast, so no
    # coordinate raises numpy's invalid-cast warning: an infinite or huge
    # one reads the border like any far one, and a nan one reads nan.
    hm = Heightmap((0.0, 0.0), 1.0, [[0.0, 1.0], [2.0, 3.0]])
    with np.errstate(all="raise"):
        got = hm.elevations([math.inf, 1e300, -math.inf, -1e300], [9.0, 9.0, 0.0, 0.0])
        assert got.tolist() == [3.0, 3.0, 0.0, 0.0]
        assert hm.elevations(0.5, -1e300) == 0.5 and hm.elevations(1e300, 0.5) == 2.0
    with np.errstate(invalid="raise"):
        assert np.isnan(hm.elevations([math.nan, 0.5], [0.5, math.nan])).all()


def test_heightmap_vectorized_matches_scalar():
    rng = SplitMix64(11)
    data = [[uniform(rng, 0.0, 2.0) for _ in range(5)] for _ in range(4)]
    hm = Heightmap((1.0, -1.0), 0.5, data)
    xs = np.array([uniform(rng, 0.0, 4.0) for _ in range(64)])
    ys = np.array([uniform(rng, -2.0, 2.0) for _ in range(64)])
    vec = hm.elevations(xs, ys)
    for x, y, v in zip(xs, ys, vec):
        assert float(hm.elevations(x, y)) == pytest.approx(float(v), abs=1e-12)


def test_heightmap_rejects_non_finite_values():
    data = [[0.0, 0.0], [0.0, 0.0]]
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="must be finite"):
            Heightmap((0.0, bad), 1.0, data)
        with pytest.raises(ConfigError, match="must be finite"):
            Heightmap((bad, 0.0), 1.0, data)
        with pytest.raises(ConfigError, match="must be finite"):
            Heightmap((0.0, 0.0), bad, data)
        with pytest.raises(ConfigError, match="data must be finite"):
            Heightmap((0.0, 0.0), 1.0, [[0.0, bad], [0.0, 0.0]])


# -- Environment validation ------------------------------------------------


def test_environment_requires_exactly_one_ground_source():
    bounds = Aabb((0.0, 0.0, 0.0), (5.0, 5.0, 3.0))
    hm = Heightmap((0.0, 0.0), 5.0, [[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ConfigError):
        Environment(bounds, ground_const=0.0, heightmap=hm)
    with pytest.raises(ConfigError):
        Environment(bounds, ground_const=None, heightmap=None)
    assert Environment(bounds, ground_const=0.0).heightmap is None
    assert Environment(bounds, ground_const=None, heightmap=hm).heightmap is hm


def test_environment_rejects_bad_ground_and_stray_obstacle():
    bounds = Aabb((0.0, 0.0, 0.0), (5.0, 5.0, 3.0))
    with pytest.raises(ConfigError):
        Environment(bounds, ground_const=7.0)
    with pytest.raises(ConfigError):
        Environment(bounds, obstacles=(Aabb((30.0, 0.0, 0.0), (31.0, 1.0, 1.0)),))


def test_ground_height_outside_footprint_raises():
    env = _box_env()
    with pytest.raises(ValueError):
        env.ground_height(-1.0, 5.0)
    with pytest.raises(ConfigError, match="^goal outside bounds footprint$"):
        env.snap_to_ground((-1.0, 5.0, 0.0), "goal")
    assert env.snap_to_ground((1, 5, 2.5), "start") == (1.0, 5.0, env.ground_height(1.0, 5.0))


# -- point collision --------------------------------------------------------


def test_point_collision_clearance_sphere():
    env = _box_env()
    # 0.1 m from the box face: collides at clearance 0.2, clears at 0.05.
    assert env.point_in_collision((3.9, 5.0, 1.0), 0.2)
    assert not env.point_in_collision((3.9, 5.0, 1.0), 0.05)
    # Exact contact is a collision (closed test); 0.25 is binary-exact.
    assert env.point_in_collision((3.75, 5.0, 1.0), 0.25)
    assert not env.point_in_collision((3.75, 5.0, 1.0), 0.2499999)
    # Inside the box collides even at zero clearance.
    assert env.point_in_collision((5.0, 5.0, 1.0), 0.0)


def test_point_collision_ground_and_bounds():
    env = Environment(Aabb((0.0, 0.0, -1.0), (10.0, 10.0, 5.0)), ground_const=0.0)
    assert env.point_in_collision((1.0, 1.0, -0.5), 0.0)  # below ground
    assert not env.point_in_collision((1.0, 1.0, 0.0), 0.0)  # on the surface
    assert env.point_in_collision((-0.1, 5.0, 1.0), 0.0)  # out of bounds
    assert env.point_in_collision((5.0, 5.0, 5.1), 0.0)
    assert not env.point_in_collision((10.0, 10.0, 5.0), 0.0)  # boundary is inside


def test_point_collision_non_finite_coordinates():
    # An infinite coordinate is outside the bounds and so is a nan one, in
    # the scalar form, the batched form and the plain-Python oracle alike.
    for env in (_box_env(), _stepped_heightmap_env()):
        probes = []
        for k in range(3):
            for v in (math.inf, -math.inf, math.nan):
                p = [1.0, 1.0, 3.0]
                p[k] = v
                probes.append(p)
        probes.append([math.nan] * 3)
        for p in probes:
            assert env.point_in_collision(p, 0.0), p
            assert env.point_in_collision(p, 0.35), p
            assert ref_point_in_collision(env, p, 0.35), p
        assert env.points_in_collision(np.array(probes), 0.35).all()


def _collision_probes(env, rng):
    """(point, clearance) pairs: random points in and around the bounds;
    points exactly at the clearance from each box's faces, edges and
    corners, and the same pushed 1/64 m farther out on each axis; points on
    and just outside each bounds face; points on and just below the ground.
    The boxes' corners and the offsets are dyadic, so the contact distances
    are exact."""
    lo, hi = env.bounds.min_corner, env.bounds.max_corner
    probes = [
        ([uniform(rng, lo[k] - 1.0, hi[k] + 1.0) for k in range(3)], clearance)
        for clearance in (0.0, 0.35)
        for _ in range(300)
    ]
    # Offsets in eighths whose squares sum to the clearance squared: one axis
    # (a face), 3-4-5 (an edge) and 1-2-2-3 (a corner).
    contacts = (((0.375,), 0.375), ((0.375, 0.5), 0.625), ((0.125, 0.25, 0.25), 0.375))
    for box in env.obstacles:
        mid = [(box.min_corner[k] + box.max_corner[k]) / 2.0 for k in range(3)]
        for offsets, clearance in contacts:
            for axes in itertools.combinations(range(3), len(offsets)):
                for signs in itertools.product((-1.0, 1.0), repeat=len(axes)):
                    for push in (0.0, 1.0 / 64.0):
                        p = list(mid)
                        for k, offset, sign in zip(axes, offsets, signs):
                            side = box.max_corner if sign > 0 else box.min_corner
                            p[k] = side[k] + sign * (offset + push)
                        probes.append((p, clearance))
    for k in range(3):
        for face, outward in ((lo[k], -math.inf), (hi[k], math.inf)):
            p = [uniform(rng, lo[j], hi[j]) for j in range(3)]
            for v in (face, math.nextafter(face, outward)):
                p[k] = v
                probes.append((list(p), 0.1))
    for _ in range(40):
        x, y = uniform(rng, lo[0], hi[0]), uniform(rng, lo[1], hi[1])
        ground = env.ground_height(x, y)
        probes += [((x, y, ground), 0.1), ((x, y, math.nextafter(ground, -math.inf)), 0.1)]
    return probes


def test_points_in_collision_matches_scalar(monkeypatch):
    # points_in_collision against a plain-Python oracle that shares no code
    # with it, and its scalar form point_in_collision against both.
    for env in (_box_env(), _several_boxes_env(), _stepped_heightmap_env()):
        probes = _collision_probes(env, SplitMix64(5))
        want = [ref_point_in_collision(env, p, c) for p, c in probes]
        for clearance in sorted({c for _, c in probes}):
            pick = [i for i, (_, c) in enumerate(probes) if c == clearance]
            pts = np.array([probes[i][0] for i in pick])
            # Boxes one at a time, three at a time (the last block short),
            # and all in one block.
            for block in (1, 3, len(env.obstacles)):
                monkeypatch.setattr(env_module, "BOX_BLOCK", block * len(pts))
                got = env.points_in_collision(pts, clearance).tolist()
                assert got == [want[i] for i in pick], (clearance, block)
        for (p, clearance), hit in zip(probes, want):
            assert env.point_in_collision(p, clearance) == hit
        assert 0.1 < np.mean(want) < 0.9
        # No points, no verdicts, as the segment checks and distances give.
        none = env.points_in_collision(np.empty((0, 3)), 0.35)
        assert none.dtype == bool and none.shape == (0,)


def test_distances_match_ref_length_bit_for_bit():
    rng = np.random.default_rng(14)
    n = 20_000
    # One scale per row, 1e-150 to 1e150.
    scale = 10.0 ** rng.uniform(-150.0, 150.0, (n, 1))
    rows = [(rng.uniform(-1.0, 1.0, (n, 3)) * scale, rng.uniform(-1.0, 1.0, (n, 3)) * scale)]
    # A scale per coordinate, so each row mixes magnitudes.
    mixed = [rng.uniform(-1.0, 1.0, (n, 3)) * 10.0 ** rng.uniform(-150.0, 150.0, (n, 3))
             for _ in range(2)]
    rows.append(tuple(mixed))
    # One or two coordinates equal.
    a = rng.uniform(0.0, 12.0, (6000, 3))
    b = a + rng.uniform(-2.0, 2.0, (6000, 3))
    b[:3000, 0] = a[:3000, 0]
    b[3000:, 1:] = a[3000:, 1:]
    b[:1000, 2] = a[:1000, 2]
    rows.append((a, b))
    # Every pair of points with coordinates in {0.0, -0.0, 1.5}.
    corners = np.array(list(itertools.product((0.0, -0.0, 1.5), repeat=3)))
    rows.append((np.repeat(corners, 27, axis=0), np.tile(corners, (27, 1))))
    a, b = (np.concatenate(side) for side in zip(*rows))
    got = distances(a, b)
    pairs = list(zip(a.tolist(), b.tolist()))
    want = np.array([ref_length(p, q) for p, q in pairs])
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert not len(bad), (a[bad[:3]], b[bad[:3]], got[bad[:3]], want[bad[:3]])
    assert (want == 0.0).sum() > 10
    # The plain sum of squares stays within 1 ulp of math.dist here.
    dist = np.array([math.dist(p, q) for p, q in pairs])
    assert (np.abs(got - dist) <= np.spacing(dist)).all()
    # One point against many, either way round.
    assert distances(a[:50], b[7]).tolist() == [ref_length(p, b[7]) for p in a[:50].tolist()]
    assert distances(b[7], a[:50]).tolist() == distances(a[:50], b[7]).tolist()


# -- segment collision -------------------------------------------------------


def _one_hit(env, a, b, clearance):
    return bool(env.segments_hit([a], [b], clearance)[0])


def test_segment_collision_through_and_over_box():
    env = _box_env()
    assert _one_hit(env, (3.0, 5.0, 1.0), (7.0, 5.0, 1.0), 0.0)
    # 1 m above the box top: clears at 0.2, contact at 1.0 (closed).
    assert not _one_hit(env, (3.0, 5.0, 3.0), (7.0, 5.0, 3.0), 0.2)
    assert _one_hit(env, (3.0, 5.0, 3.0), (7.0, 5.0, 3.0), 1.0)


def test_segment_collision_catches_thin_wall():
    env = Environment(
        Aabb((0.0, 0.0, 0.0), (12.0, 6.0, 3.0)),
        obstacles=(Aabb((4.9, 0.0, 0.0), (5.1, 6.0, 1.0)),),
    )
    # The ends lie on either side of the wall: only the narrow phase sees it.
    a = [(1.0, 3.0, 0.5), (1.0, 3.0, 0.0), (1.0, 3.0, 2.0)]
    b = [(11.0, 3.0, 0.5), (11.0, 3.0, 0.0), (11.0, 3.0, 2.0)]
    assert env.segments_hit(a, b, 0.0)[0]
    assert env.segments_hit(a, b, 0.35).tolist() == [True, True, False]


def test_thin_plate_collides_at_zero_clearance():
    # A 1 cm plate. Samples 0.05 m apart from x = 4 to 6.013 all miss it,
    # and the segment to x = 6 has one in it; the exact test hits both.
    env = Environment(
        Aabb((0.0, 0.0, 0.0), (10.0, 10.0, 3.0)),
        obstacles=(Aabb((5.0, 0.0, 0.0), (5.01, 10.0, 3.0)),),
    )
    a, b = [(4.0, 5.0, 1.0)] * 2, [(6.013, 5.0, 1.0), (6.0, 5.0, 1.0)]
    assert not env.points_in_collision(ref_segment_points(a[0], b[0], 0.05), 0.0).any()
    assert env.segments_hit(a, b, 0.0).tolist() == [True, True]
    assert env.segments_hit(b, a, 0.0).tolist() == [True, True]
    # Stopping 0.01 m short of the plate: the clearance decides.
    short = [(4.99, 5.0, 1.0)]
    assert env.segments_hit(a[:1], short, 0.0099).tolist() == [False]
    assert env.segments_hit(a[:1], short, 0.0101).tolist() == [True]


def test_segment_degenerate_reduces_to_point():
    env = _box_env()
    assert _one_hit(env, (5.0, 5.0, 1.0), (5.0, 5.0, 1.0), 0.0)
    assert not _one_hit(env, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 0.0)
    assert env.segments_hit(np.zeros((0, 3)), np.zeros((0, 3)), 0.1).shape == (0,)


def _assert_hit_both_ways(env, a, b, want):
    """segments_hit and ref_segment_hit give `want` for a-b and for b-a."""
    for p, q in ((a, b), (b, a)):
        assert _one_hit(env, p, q, 0.0) is want, (p, q)
        assert ref_segment_hit(env, p, q, 0.0) is want, (p, q)


def test_driven_segment_must_follow_the_ground():
    # On flat ground a segment between two ground points stays on it; one
    # that leaves it is flown, and only a dip below it would hit.
    flat = _box_env()
    _assert_hit_both_ways(flat, (1.0, 1.0, 0.0), (2.0, 2.0, 0.0), False)
    _assert_hit_both_ways(flat, (1.0, 1.0, 0.0), (2.0, 2.0, 0.5), False)
    # Bilinear saddle: endpoints on the surface, chord off it in the middle.
    hm = Heightmap((0.0, 0.0), 1.0, [[0.0, 0.0], [0.0, 1.0]])
    env = Environment(
        Aabb((0.0, 0.0, 0.0), (1.0, 1.0, 3.0)), ground_const=None, heightmap=hm
    )
    a = (0.0, 0.0, 0.0)
    _assert_hit_both_ways(env, a, (1.0, 1.0, 1.0), True)
    _assert_hit_both_ways(env, a, a, False)


def test_driven_chord_is_held_to_the_ground_tolerance():
    # A valley of depth `dip` in x, one lattice cell wide: the chord between
    # its rims, both on the surface, floats `dip` above the valley floor.
    tol = env_module.GROUND_TOL
    for dip, want in ((2.0 * tol, True), (0.5 * tol, False), (0.5, True)):
        hm = Heightmap((0.0, 0.0), 1.0, [[0.2, 0.2 - dip, 0.2]] * 3)
        env = Environment(Aabb((0.0, 0.0, -1.0), (2.0, 2.0, 2.0)), ground_const=None, heightmap=hm)
        a, b = (0.0, 1.0, 0.2), (2.0, 1.0, 0.2)
        assert ref_ends_on_ground(env, a, b)
        _assert_hit_both_ways(env, a, b, want)
        # One end raised 1 cm: the segment is not driven, and only a dip
        # below the ground would hit it.
        raised = (2.0, 1.0, 0.21)
        assert not ref_ends_on_ground(env, a, raised)
        _assert_hit_both_ways(env, a, raised, False)
    # Over a ridge instead, the raised chord passes below the crest and hits.
    hm = Heightmap((0.0, 0.0), 1.0, [[0.2, 0.7, 0.2]] * 3)
    env = Environment(Aabb((0.0, 0.0, -1.0), (2.0, 2.0, 2.0)), ground_const=None, heightmap=hm)
    _assert_hit_both_ways(env, (0.0, 1.0, 0.2), (2.0, 1.0, 0.21), True)


# The batched checks against the per-segment ones they replaced (reference.py).


def _stepped_heightmap_env():
    # Plateaus at 0, 0.5 and 1 m joined by one-lattice-cell ramps, two boxes.
    row = [0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0]
    hm = Heightmap((0.0, 0.0), 1.5, [row] * 5)
    return Environment(
        Aabb((0.0, 0.0, 0.0), (10.5, 6.0, 4.0)),
        obstacles=(
            Aabb((2.0, 2.0, 0.0), (2.5, 4.0, 2.0)),
            Aabb((7.0, 1.0, 1.0), (8.0, 2.0, 3.0)),
        ),
        ground_const=None,
        heightmap=hm,
    )


def _several_boxes_env():
    boxes = [
        Aabb((2.0, 2.0, 0.0), (3.0, 3.0, 2.0)),
        Aabb((6.0, 1.0, 0.0), (6.5, 9.0, 1.0)),
        Aabb((1.0, 7.0, 1.5), (4.0, 8.0, 2.5)),
        Aabb((7.5, 6.0, 0.0), (9.0, 7.5, 4.0)),
    ]
    return Environment(Aabb((0.0, 0.0, 0.0), (10.0, 10.0, 5.0)), obstacles=boxes)


def _random_segments(env, rng, n, clearance):
    """n segments; i % 6 picks the case: anywhere in (and just beyond) the
    bounds, degenerate, both ends on the ground surface, axis-aligned with a
    length a whole number of 0.05 m, ends on the bounds faces, and level
    runs exactly `clearance` above an obstacle top."""
    lo, hi = env.bounds.min_corner, env.bounds.max_corner

    def point(margin=0.0):
        return [uniform(rng, lo[k] - margin, hi[k] + margin) for k in range(3)]

    def on_ground():
        x, y = uniform(rng, lo[0], hi[0]), uniform(rng, lo[1], hi[1])
        return [x, y, env.ground_height(x, y)]

    a_rows, b_rows = [], []
    for i in range(n):
        case = i % 6
        if case == 0:
            a, b = point(0.2), point(0.2)
        elif case == 1:
            a = point()
            b = list(a)
        elif case == 2:
            a = on_ground()
            b = on_ground() if i % 4 else [a[0] + uniform(rng, -1, 1), a[1], a[2]]
            b = [min(max(b[0], lo[0]), hi[0]), b[1], b[2]]
        elif case == 3:
            a = point()
            axis = rng.randint(3)
            b = list(a)
            b[axis] += (1 + rng.randint(40)) * 0.05 * (-1) ** (i // 6)
        elif case == 4:
            a, b = point(), point()
            axis = rng.randint(3)
            a[axis] = lo[axis] if i % 4 == 0 else hi[axis]
            b[i % 3] = hi[i % 3] if i % 4 == 0 else lo[i % 3]
        else:
            box = env.obstacles[rng.randint(len(env.obstacles))]
            z = box.max_corner[2] + clearance
            y = uniform(rng, box.min_corner[1], box.max_corner[1])
            a = [box.min_corner[0] - uniform(rng, 0.0, 1.0), y, z]
            b = [box.max_corner[0] + uniform(rng, 0.0, 1.0), y, z]
        a_rows.append(a)
        b_rows.append(b)
    return np.array(a_rows), np.array(b_rows)


WORLDS = {
    "one box": _box_env,
    "several boxes": _several_boxes_env,
    "stepped heightmap": _stepped_heightmap_env,
}


@pytest.mark.parametrize("world", sorted(WORLDS))
@pytest.mark.parametrize("clearance", [0.0, 0.06, 0.25, 0.35])
def test_batched_segment_checks_match_per_segment_reference(world, clearance):
    env = WORLDS[world]()
    rng = SplitMix64(len(world) * 100 + int(clearance * 100))
    a, b = _random_segments(env, rng, 2000, clearance)
    hits = env.segments_hit(a, b, clearance)
    ref_hits = [ref_segment_hit(env, p, q, clearance) for p, q in zip(a, b)]
    assert hits.tolist() == ref_hits
    assert 0 < sum(ref_hits) < len(ref_hits)
    # Some driven segments, and over the heightmap some of them are hit
    # only for leaving the ground.
    driven = [ref_ends_on_ground(env, p, q) for p, q in zip(a, b)]
    assert 0 < sum(driven) < len(driven)
    off = [h and not ref_in_collision(env, p, q, clearance) for h, p, q in zip(ref_hits, a, b)]
    assert (sum(off) > 0) == (env.heightmap is not None)


def test_segment_whose_squared_length_underflows_keeps_both_ends():
    # |b - a| = 1e-170 squares to 0.0, so its length reads 0.0; the ends
    # are still tested, not their midpoint alone. b lies just outside the
    # bounds and the midpoint on them, at x = 0.0, so only b rejects the
    # segment, from either end.
    a = np.array([(5e-171, 1.0, 1.0)])
    b = np.array([(-5e-171, 1.0, 1.0)])
    assert distances(a, b).tolist() == [0.0]
    env = _box_env()
    assert env.point_in_collision(b[0], 0.0)
    assert not env.point_in_collision((0.0, 1.0, 1.0), 0.0)
    for clearance in (0.0, 0.35):
        assert env.segments_hit(a, b, clearance).tolist() == [True]
        assert env.segments_hit(b, a, clearance).tolist() == [True]
        assert ref_in_collision(env, a[0], b[0], clearance)


def test_tiny_clearances_and_non_finite_ends_are_decided():
    # The exact test makes no more points for a smaller clearance: at
    # 1e-300 and 5e-324 a segment through the arena's wall collides, and
    # one beside it does not.
    env = load_environment(ARENA)
    a, b = [(4.0, 3.0, 0.0), (4.0, 3.0, 1.5)], [(6.0, 3.0, 0.0), (6.0, 3.0, 1.5)]
    for clearance in (0.35, 1e-12, 1e-300, 5e-324, 0.0):
        assert env.segments_hit(a, b, clearance).tolist() == [True, False]
    # An end that is nan or infinite lies outside the bounds: the segment
    # collides, with no floating-point warning, also over a heightmap.
    ends = [(math.nan, 3.0, 1.0), (math.inf, 3.0, 1.0), (math.inf, 3.0, 1.0)]
    others = [(1.0, 3.0, 1.0), (1.0, 3.0, 1.0), (math.inf, 3.0, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for world in (env, _stepped_heightmap_env()):
            assert world.segments_hit(ends, others, 0.35).tolist() == [True] * 3
            assert world.segments_hit(others, ends, 0.35).tolist() == [True] * 3


def test_swept_verdicts_do_not_depend_on_orientation(monkeypatch):
    # b-a gets a-b's verdict from the same tested points, and the narrow
    # phase makes no point outside [min(a, b), max(a, b)], the box that the
    # broad phase clears. The ends decide the bounds and a flat ground from
    # that box; over a heightmap they are _ground_range's t = 0 and 1.
    rng = SplitMix64(77)
    rows = [
        # (a, b): ascending, descending, mixed, and far from the origin.
        ((0.1, 0.2, 0.3), (2.9, 1.7, 2.3)),
        ((2.9, 1.7, 2.3), (0.1, 0.2, 0.3)),
        ((0.3, 4.7, 0.05), (3.1, 0.7, 1.45)),
        ((1234.5678, -987.6543, 0.1), (1236.1, -986.3, 2.7)),
        # a == b on some axes.
        ((1.0, 2.0, 0.3), (1.0, 2.0, 2.9)),
        ((0.7, 3.3, 1.4), (4.1, 3.3, 1.4)),
        # Ends exactly at 0 and on the faces of _box_env's bounds and box.
        ((0.0, 0.0, 0.0), (4.0, 6.0, 2.0)),
        ((10.0, 10.0, 5.0), (0.0, 4.0, 0.0)),
        ((6.0, 0.0, 2.0), (6.0, 10.0, 0.0)),
        ((4.0, 4.0, 0.0), (-0.0, 10.0, 5.0)),
        # a + (b - a) is not b: b_z - a_z rounds to -1.0, and 1.0 - 1.0 is
        # 0.0, not 1e-20.
        ((0.5, 0.5, 1.0), (1.5, 0.5, 1e-20)),
        # Down onto a ground of 0.2, where 1.4 + (0.2 - 1.4) is below 0.2.
        ((2.0, 1.5, 1.4), (1.0, 1.0, 0.2)),
    ]
    for i in range(200):
        a = [uniform(rng, -3.0, 3.0) for _ in range(3)]
        b = [uniform(rng, -3.0, 3.0) for _ in range(3)]
        if i % 2:
            axis = rng.randint(3)
            b[axis] = a[axis]
        rows.append((a, b))
    # Driven segments: both ends on the stepped heightmap's ground.
    stepped = _stepped_heightmap_env()
    for _ in range(40):
        xy = [(uniform(rng, 0.0, 10.5), uniform(rng, 0.0, 6.0)) for _ in range(2)]
        rows.append(tuple([x, y, stepped.ground_height(x, y)] for x, y in xy))
    a, b = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
    e = a + (b - a)
    assert e[10, 2] == 0.0 < b[10, 2] and e[11, 2] < b[11, 2]
    tested = []
    points = env_module._points

    def record(a, b, d, t):
        out = points(a, b, d, t)
        tested.append(out.reshape(len(out), -1).T.copy())
        return out

    monkeypatch.setattr(env_module, "_points", record)

    def made(pts, width):
        return np.concatenate([p for p in pts if p.shape[1] == width] or [np.empty((0, width))])

    for env in (_box_env(), _stepped_heightmap_env()):
        bare = Environment(env.bounds, (), env.ground_const, env.heightmap)
        count = 0
        for clearance in (0.0, 0.35):
            for p, q in zip(a, b):
                tested.clear()
                there = env.segments_hit([p], [q], clearance)
                pts = list(tested)
                count += sum(len(u) for u in pts)
                for width in (2, 3):
                    inside = made(pts, width)
                    assert (np.minimum(p, q)[:width] <= inside).all(), (p, q)
                    assert (inside <= np.maximum(p, q)[:width]).all(), (p, q)
                if bare.point_in_collision(p, 0.0) or bare.point_in_collision(q, 0.0):
                    assert there, (p, q)
                if env.heightmap is not None and min(p[2], q[2]) < env._floor_top:
                    ends = made(pts, 3)
                    assert (ends == p).all(axis=1).any() and (ends == q).all(axis=1).any(), (p, q)
                tested.clear()
                back = env.segments_hit([q], [p], clearance)
                assert len(tested) == len(pts) and back == there, (p, q)
                assert all(np.array_equal(u, v) for u, v in zip(tested, pts)), (p, q)
            assert env.segments_hit(b, a, clearance).tolist() == (
                env.segments_hit(a, b, clearance).tolist()
            )
        assert count > 0


# The exactness sandwich against dense sampling: a segment with a dense
# sample in collision collides, and a colliding segment has a dense sample
# within half the sample spacing of its clearance (1e-9 covers rounding).

SANDWICH_STEP = 0.02
_SANDWICH_BOUNDS = (10.0, 10.0, 5.0)
_sandwich_point = st.tuples(*(st.floats(-0.5, hi + 0.5) for hi in _SANDWICH_BOUNDS))
_sandwich_segments = st.lists(st.tuples(_sandwich_point, _sandwich_point), min_size=1, max_size=12)
_sandwich_boxes = st.lists(
    st.tuples(
        st.tuples(*(st.floats(0.0, hi) for hi in _SANDWICH_BOUNDS)),
        st.tuples(*(st.floats(0.01, 3.0) for _ in range(3))),
    ),
    max_size=5,
)


@pytest.mark.parametrize("clearance", [0.0, 1e-4, 0.05, 0.35, 0.5])
@pytest.mark.parametrize("world", ["four boxes", "random boxes"])
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(segments=_sandwich_segments, boxes=_sandwich_boxes)
def test_exact_verdicts_lie_between_dense_samplings(world, clearance, segments, boxes):
    if world == "four boxes":
        env = _several_boxes_env()
    else:
        obstacles = [Aabb(lo, tuple(c + s for c, s in zip(lo, size))) for lo, size in boxes]
        env = Environment(Aabb((0.0, 0.0, 0.0), _SANDWICH_BOUNDS), obstacles)
    a, b = (np.array(ends) for ends in zip(*segments))
    exact = env.segments_hit(a, b, clearance)
    assert env.segments_hit(b, a, clearance).tolist() == exact.tolist()
    for p, q, hit in zip(a, b, exact):
        pts = ref_segment_points(p, q, SANDWICH_STEP)
        if env.points_in_collision(pts, clearance).any():
            assert hit, (p, q)
        if hit:
            assert env.points_in_collision(pts, clearance + SANDWICH_STEP / 2 + 1e-9).any(), (p, q)


def _broad_phase_world(rng, ground):
    """Bounds 8 x 6 x 3 m from a random origin, 0 to 5 random boxes, and
    flat ground at 0 or 0.2 or a random heightmap."""
    x0, y0 = uniform(rng, -5.0, 5.0), uniform(rng, -5.0, 5.0)
    lo, hi = (x0, y0, 0.0), (x0 + 8.0, y0 + 6.0, 3.0)
    boxes = []
    for _ in range(rng.randint(6)):
        c = [uniform(rng, lo[k], hi[k]) for k in range(3)]
        size = [uniform(rng, 0.1, 2.0) for _ in range(3)]
        boxes.append(Aabb(tuple(c), tuple(c[k] + size[k] for k in range(3))))
    if ground == "heightmap":
        data = [[uniform(rng, 0.0, 0.6) for _ in range(9)] for _ in range(7)]
        return Environment(
            Aabb(lo, hi), boxes, ground_const=None, heightmap=Heightmap((x0, y0), 1.0, data)
        )
    return Environment(Aabb(lo, hi), boxes, ground_const=ground)


def _broad_phase_segments(env, rng, n, clearance):
    """n segments; i % 7 picks the case: anywhere in and just beyond the
    bounds, zero-length, on a bounds face, level at the ground height of
    one end, axis-aligned (a == b on two axes), exactly `clearance` from a
    box face and parallel to it, and short segments near a box."""
    lo, hi = env.bounds.min_corner, env.bounds.max_corner
    boxes = env.obstacles

    def point(margin=0.0):
        return [uniform(rng, lo[k] - margin, hi[k] + margin) for k in range(3)]

    a_rows, b_rows = [], []
    for i in range(n):
        case = i % 7
        if case >= 5 and not boxes:
            case = 0
        if case == 0:
            a, b = point(0.3), point(0.3)
        elif case == 1:
            a = point()
            b = list(a)
        elif case == 2:
            a, b = point(), point()
            axis = rng.randint(3)
            a[axis] = b[axis] = (lo, hi)[rng.randint(2)][axis]
        elif case == 3:
            # Every other one zero-length, so a heightmap has some too.
            a = point()
            b = point() if i % 2 else list(a)
            a[2] = b[2] = env.ground_height(a[0], a[1])
        elif case == 4:
            a = point()
            b = list(a)
            axis = rng.randint(3)
            b[axis] = uniform(rng, lo[axis] - 0.3, hi[axis] + 0.3)
        elif case == 5:
            box = boxes[rng.randint(len(boxes))]
            axis, across = rng.randint(3), rng.randint(2)
            other = [k for k in range(3) if k != axis]
            a, b = [0.0] * 3, [0.0] * 3
            if rng.randint(2):
                a[axis] = b[axis] = box.max_corner[axis] + clearance
            else:
                a[axis] = b[axis] = box.min_corner[axis] - clearance
            run, fixed = other[across], other[1 - across]
            a[run] = box.min_corner[run] - uniform(rng, 0.0, 1.0)
            b[run] = box.max_corner[run] + uniform(rng, 0.0, 1.0)
            a[fixed] = b[fixed] = uniform(rng, box.min_corner[fixed], box.max_corner[fixed])
        else:
            box = boxes[rng.randint(len(boxes))]
            a = [uniform(rng, box.min_corner[k] - 0.5, box.max_corner[k] + 0.5) for k in range(3)]
            b = [v + uniform(rng, -0.5, 0.5) for v in a]
        a_rows.append(a)
        b_rows.append(b)
    return np.array(a_rows), np.array(b_rows)


def _touching_segments(env, rng, n):
    """n segments with one end inside the bounds and the other exactly on
    the ground surface (i % 4 < 2) or on a bounds face; the touching end is
    a for even i and b for odd i."""
    lo, hi = env.bounds.min_corner, env.bounds.max_corner
    a_rows, b_rows = [], []
    for i in range(n):
        ends = [[uniform(rng, lo[k], hi[k]) for k in range(3)] for _ in range(2)]
        p = ends[i % 2]
        if i % 4 < 2:
            p[2] = env.ground_height(p[0], p[1])
        else:
            axis = rng.randint(3)
            p[axis] = (lo, hi)[rng.randint(2)][axis]
        a_rows.append(ends[0])
        b_rows.append(ends[1])
    return np.array(a_rows), np.array(b_rows)


@pytest.mark.parametrize("ground", [0.0, 0.2, "heightmap"])
@pytest.mark.parametrize("clearance", [0.0, 0.1, 0.35])
def test_broad_phase_verdicts_equal_the_exact_reference(ground, clearance):
    # segments_undecided clears some segments: the exact test hits no
    # segment that the broad phase clears, and its verdicts on driven
    # segments, both ends on the ground, equal the reference.
    hits = on = cleared = 0
    for seed in range(8):
        rng = SplitMix64(1000 * seed + int(clearance * 100) + (ground == 0.2))
        env = _broad_phase_world(rng, ground)
        a, b = _broad_phase_segments(env, rng, 700, clearance)
        # Segments that touch the ground or a bounds face, drawn last so the
        # draws above do not shift.
        ta, tb = _touching_segments(env, rng, 300)
        a, b = np.vstack([a, ta]), np.vstack([b, tb])
        hit = env.segments_hit(a, b, clearance)
        undecided = env.segments_undecided(a, b, clearance)
        assert not (hit & ~undecided).any(), (ground, clearance, seed)
        hits += int(hit.sum())
        cleared += int((~undecided).sum())
        driven = np.array([ref_ends_on_ground(env, p, q) for p, q in zip(a, b)])
        want = [ref_segment_hit(env, p, q, clearance) for p, q in zip(a[driven], b[driven])]
        assert hit[driven].tolist() == want, (ground, seed)
        on += int(driven.sum())
    assert 0 < hits < 8 * 1000 and 0 < cleared < 8 * 1000
    assert 0 < on < 8 * 1000
    if ground != "heightmap":
        # A transition edge's ground end, far from every box, is cleared
        # in the broad phase, flown up from the ground or down onto it
        # (where 1.4 + (ground - 1.4) is below a ground of 0.2).
        env = Environment(Aabb((0.0, 0.0, 0.0), (10.0, 10.0, 5.0)), _box_env().obstacles, ground)
        up = [1.0, 1.0, ground], [2.0, 1.5, 1.4]
        down = up[::-1]
        for ends in (up, down):
            assert not env.segments_undecided(*ends, clearance).any()
            assert not env.segments_hit(*ends, clearance).any()


@pytest.mark.parametrize("clearance", [0.0, 0.35])
def test_broad_phase_clears_a_hull_just_beyond_the_clearance(clearance):
    # A segment along the box's +x face whose hull lies in (c, c + 1e-9] of
    # the box: no vertex of the narrow phase is nearer than its hull, so the
    # broad phase clears it, and the exact test agrees.
    env = _box_env()
    x = 6.0 + clearance + 5e-10
    gap = x - 6.0
    assert clearance * clearance < gap * gap and clearance < gap <= clearance + 1e-9
    a, b = [x, 5.0, 1.0], [x, 5.5, 1.0]
    assert not env.segments_undecided(a, b, clearance).any()
    assert not env.segments_hit(a, b, clearance).any()
    assert env.segments_hit([6.0 + clearance, 5.0, 1.0], [x, 5.5, 1.0], clearance).all()


def _cluttered_env():
    """40 SplitMix64 boxes in a 12 x 9 x 4 m world. Of every four, the first
    is free and the next three overlap, touch and nest in the box before
    them, so that some box's vertex lies in another box."""
    rng = SplitMix64(4040)
    boxes = []
    for i in range(40):
        lo = [uniform(rng, 0.0, 9.0), uniform(rng, 0.0, 7.0), uniform(rng, 0.0, 2.5)]
        size = [uniform(rng, 0.1, 1.5) for _ in range(3)]
        if i % 4:
            prev_lo, prev_hi = boxes[-1].min_corner, boxes[-1].max_corner
            if i % 4 == 1:  # a corner inside the box before
                lo = [uniform(rng, p, q) for p, q in zip(prev_lo, prev_hi)]
            elif i % 4 == 2:  # on its +x face
                lo = [prev_hi[0], prev_lo[1], prev_lo[2]]
            else:  # inside it, one face shared
                lo = list(prev_lo)
                size = [(q - p) * uniform(rng, 0.2, 0.8) for p, q in zip(prev_lo, prev_hi)]
        boxes.append(Aabb(tuple(lo), tuple(v + d for v, d in zip(lo, size))))
    return Environment(Aabb((0.0, 0.0, 0.0), (12.0, 9.0, 4.0)), boxes)


@pytest.mark.parametrize("clearance", [0.0, 1e-4, 0.35])
def test_cluttered_verdicts_equal_reference(clearance, monkeypatch):
    # Each box is tested only at its own candidates; the reference tests
    # every candidate against everything, so an overlapping, touching or
    # nested box that another box's candidate would hit shows here.
    env = _cluttered_env()
    rng = SplitMix64(40 + int(clearance * 100))
    a, b = _broad_phase_segments(env, rng, 1400, clearance)
    ta, tb = _touching_segments(env, rng, 300)
    # Segments from a box's vertex, to a point or to another box's vertex.
    corners = [box.min_corner for box in env.obstacles] + [box.max_corner for box in env.obstacles]
    va = np.array([corners[rng.randint(len(corners))] for _ in range(300)])
    vb = np.array([
        corners[rng.randint(len(corners))] if i % 2 else [uniform(rng, 0.0, 9.0) for _ in range(3)]
        for i in range(300)
    ])
    a, b = np.vstack([a, ta, va]), np.vstack([b, tb, vb])

    def points_in_collision(*args):
        raise AssertionError("the swept test calls points_in_collision")

    monkeypatch.setattr(Environment, "points_in_collision", points_in_collision)
    want = [ref_in_collision(env, p, q, clearance) for p, q in zip(a, b)]
    assert env.segments_hit(a, b, clearance).tolist() == want
    assert env.segments_hit(b, a, clearance).tolist() == want
    assert 0.2 * len(want) < sum(want) < 0.8 * len(want), sum(want)


# -- occupancy grid -----------------------------------------------------------


def test_world_to_cell_edges_and_boundary():
    grid = OccupancyGrid(1.0, (0.0, 0.0), np.zeros((4, 4), dtype=bool))
    assert grid.world_to_cell(0.5, 0.5) == (0, 0)
    # Shared interior edges belong to the higher-index cell.
    assert grid.world_to_cell(1.0, 0.5) == (0, 1)
    assert grid.world_to_cell(0.5, 2.0) == (2, 0)
    # The outer boundary maps inward so the footprint stays covered.
    assert grid.world_to_cell(4.0, 4.0) == (3, 3)
    assert grid.occupied(*grid.world_to_cell(-0.1, 0.5))  # off-grid counts occupied
    assert grid.occupied(*grid.world_to_cell(4.1, 0.5))


def test_cell_center_round_trip():
    grid = OccupancyGrid(0.25, (2.0, -1.0), np.zeros((8, 6), dtype=bool))
    for row in range(grid.height):
        for col in range(grid.width):
            x, y = grid.cell_center(row, col)
            assert grid.world_to_cell(x, y) == (row, col)


def test_clearance_at():
    def clearance(grid, x, y):
        return float(grid.clearances(np.array([x]), np.array([y]))[0])

    cells = np.zeros((5, 5), dtype=bool)
    cells[2, 2] = True
    grid = OccupancyGrid(1.0, (0.0, 0.0), cells)
    # Cell-center metric: (0,0) to (2,2) is sqrt(8) cells.
    assert clearance(grid, 0.5, 0.5) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert clearance(grid, 2.5, 2.5) == 0.0
    assert clearance(grid, 2.5, 1.5) == pytest.approx(1.0, abs=1e-12)
    assert clearance(grid, -1.0, 0.5) == 0.0  # off-grid
    empty = OccupancyGrid(1.0, (0.0, 0.0), np.zeros((3, 3), dtype=bool))
    assert math.isinf(clearance(empty, 1.5, 1.5))


def test_clearance_at_far_off_grid():
    # Cells far past every side, -5 and H + 7 (W + 7), read 0.0, the cached
    # raster's padding; every cell of an empty grid reads inf. Off-grid
    # points take the lookup's edge snap and clip, points on the far edges
    # or within 1e-9 of them snap inward, and a window wholly on the grid
    # skips the fix-up and reads the same cells.
    wall = np.zeros((4, 6), dtype=bool)
    wall[1, 2] = True
    for cells, on_grid in (
        (wall, ndimage.distance_transform_edt(~wall) * 0.5),
        (np.zeros((4, 6), dtype=bool), np.full((4, 6), math.inf)),
    ):
        grid = OccupancyGrid(0.5, (1.0, -1.0), cells)
        assert np.array_equal(edt(cells) * grid.resolution, on_grid)
        rows, cols = np.meshgrid(np.arange(-5, 4 + 8), np.arange(-5, 6 + 8), indexing="ij")
        want = np.zeros(rows.shape)
        want[5:9, 5:11] = on_grid
        x, y = grid.cell_center(rows, cols)
        assert np.array_equal(grid.clearances(x, y), want)
        assert np.array_equal(grid.clearances(x[5:9, 5:11], y[5:9, 5:11]), on_grid)
        far = np.array([(-5, 0), (11, 0), (0, -5), (0, 13), (-5, 13), (11, -5)]).T
        assert grid.clearances(*grid.cell_center(*far)).tolist() == [0.0] * 6
        # The far edges, x = 4.0 and y = 1.0, and the 1e-9 band past them.
        for dx in (0.0, 5e-10):
            ex, ey = 4.0 + dx, 1.0 + dx
            edge_x = grid.clearances(np.full(4, ex), y[5:9, 10])
            edge_y = grid.clearances(x[8, 5:11], np.full(6, ey))
            assert np.array_equal(edge_x, on_grid[:, 5]) and np.array_equal(edge_y, on_grid[3])
            assert grid.clearances(np.array([ex]), np.array([ey]))[0] == on_grid[3, 5]
        # Just past each edge: off the grid, beside a point on it.
        past = ((4.0 + 2e-9, 0.25), (2.5, 1.0 + 2e-9), (1.0 - 1e-12, 0.25), (2.5, -1.0 - 1e-12))
        for ex, ey in past:
            got = grid.clearances(np.array([ex, 2.5]), np.array([ey, 0.25]))
            assert got.tolist() == [0.0, on_grid[2, 3]]


def test_scalar_clearance_reads_the_array_lookup():
    """clearance(x, y) is clearances at that one point, as a float: on
    random points over and around the grid, on the far edges and within
    their 1e-9 snap, just past each edge, far off the grid, at nan and
    infinite coordinates, and on an empty grid, where it is inf."""
    rng = SplitMix64(43)
    wall = np.zeros((7, 9), dtype=bool)
    wall[2, 3] = wall[5, 8] = True
    for cells in (wall, np.zeros((7, 9), dtype=bool)):
        grid = OccupancyGrid(0.3, (-1.2, 0.7), cells)
        ex, ey = -1.2 + 9 * 0.3, 0.7 + 7 * 0.3
        xs = [-1.2 + (rng.random() * 1.4 - 0.2) * 2.7 for _ in range(400)]
        ys = [0.7 + (rng.random() * 1.4 - 0.2) * 2.1 for _ in range(400)]
        # The far edges, their snap band, past them, and past the near ones.
        for d in (0.0, 5e-10, 9e-10, 2e-9, -1e-12):
            xs += [ex + d, -1.2 - abs(d), 0.2, 0.2]
            ys += [1.5, 1.5, ey + d, 0.7 - abs(d)]
        odd = [1e300, -1e300, math.inf, -math.inf, math.nan]
        xs += odd + [0.1] * len(odd)
        ys += [1.5] * len(odd) + odd
        want = grid.clearances(np.array(xs), np.array(ys))
        got = [grid.clearance(x, y) for x, y in zip(xs, ys)]
        assert all(type(c) is float for c in got)
        assert np.array_equal(got, want)
        # Some points of each kind: on the grid, off it, and occupied.
        walled = bool(cells.any())
        assert 0.0 in want and (math.inf in want) == (not walled)
        assert bool(((want > 0.0) & (want < math.inf)).any()) == walled
    # The scalar reader builds the raster the array lookup then reads.
    fresh = OccupancyGrid(0.3, (-1.2, 0.7), wall)
    assert fresh.clearance(-1.05, 0.85) == math.sqrt(13.0) * 0.3
    assert fresh.clearances(np.array([-1.05]), np.array([0.85]))[0] == math.sqrt(13.0) * 0.3


def test_edt_matches_scipy():
    """The in-house distance transform equals scipy's exactly, on thin,
    square, wide, tall and sparse-to-dense grids, on the walled arena, on
    full-height walls, on one occupied cell and on a full raster."""
    rng = np.random.default_rng(5)
    shapes = [(1, 1), (1, 37), (37, 1), (2, 9), (9, 2), (13, 40), (40, 13), (200, 150)]
    grids = []
    for shape in shapes:
        for density in (0.001, 0.01, 0.1, 0.5, 0.9):
            for _ in range(4 if shape != (200, 150) else 1):
                cells = rng.random(shape) < density
                cells.flat[rng.integers(cells.size)] = True  # scipy needs one
                grids.append(cells)
    grids.append(project_to_grid(load_environment(ARENA)).cells)
    # One occupied column, so one line to scan, in a wide and a tall raster;
    # one occupied cell; every cell occupied.
    for shape in ((20, 70), (70, 20)):
        wall = np.zeros(shape, dtype=bool)
        wall[:, 13] = True
        grids.append(wall)
    single = np.zeros((17, 23), dtype=bool)
    single[11, 4] = True
    grids += [single, np.ones((9, 14), dtype=bool)]
    for cells in grids:
        assert np.array_equal(edt(cells), ndimage.distance_transform_edt(~cells))


def test_edt_empty_grid_is_infinite():
    assert np.isinf(edt(np.zeros((3, 5), dtype=bool))).all()


def test_grid_rejects_empty_raster():
    with pytest.raises(ConfigError):
        OccupancyGrid(1.0, (0.0, 0.0), np.zeros((0, 4), dtype=bool))


def test_grid_rejects_non_positive_or_nan_resolution():
    # A cost-to-go band is one resolution wide, so a nan one would never
    # settle a cell.
    for res in (0.0, -0.1, math.nan):
        with pytest.raises(ConfigError, match="grid resolution must be positive"):
            OccupancyGrid(res, (0.0, 0.0), np.zeros((2, 2), dtype=bool))


def test_array_lookups_match_scalar_forms():
    """clearances reads, at every point, the cell world_to_cell gives: its
    scipy distance on the grid, 0.0 off it. The points cover the 1e-9 snap
    band of the far edges, just past each of the four edges, and huge and
    non-finite coordinates, which map off the grid without a warning."""
    cells = np.zeros((4, 6), dtype=bool)
    cells[1, 2] = cells[3, 5] = True
    grid = OccupancyGrid(0.5, (1.0, -1.0), cells)
    odd = [1e300, -1e300, math.inf, -math.inf, math.nan]
    # Far edges x = 4.0 and y = 1.0; near edges x = 1.0 and y = -1.0.
    xs = [*np.linspace(0.5, 4.5, 17), 4.0 - 5e-10, 4.0 + 5e-10, 4.0 + 2e-9, 1.0 - 1e-12, *odd]
    ys = [*np.linspace(-1.5, 1.5, 13), 1.0 - 5e-10, 1.0 + 5e-10, 1.0 + 2e-9, -1.0 - 1e-12, *odd]
    gx, gy = np.meshgrid(xs, ys)
    dist = ndimage.distance_transform_edt(~cells) * grid.resolution
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clear = grid.clearances(gx, gy)
        cells_seen = [grid.world_to_cell(float(x), float(y)) for x, y in zip(gx.flat, gy.flat)]
    seen = set()
    for idx, (row, col) in zip(np.ndindex(gx.shape), cells_seen):
        inside = 0 <= row < grid.height and 0 <= col < grid.width
        # Off-grid cells, at index -1 too, count as occupied.
        occupied = not inside or bool(cells[row, col])
        assert grid.occupied(row, col) is occupied
        seen.add((inside, occupied))
        assert clear[idx] == (dist[row, col] if inside else 0.0)
    assert seen == {(False, True), (True, False), (True, True)}
    assert grid.world_to_cell(4.0 + 5e-10, 1.0 - 5e-10) == (3, 5)
    assert grid.world_to_cell(4.0 + 2e-9, 1.0 + 2e-9) == (4, 6)
    assert grid.world_to_cell(1.0 - 1e-12, -1.0 - 1e-12) == (-1, -1)
    for v in odd:
        assert grid.occupied(*grid.world_to_cell(v, 0.0))
        assert grid.occupied(*grid.world_to_cell(2.0, v))


def test_grid_cells_immutable():
    grid = OccupancyGrid(1.0, (0.0, 0.0), np.zeros((3, 3), dtype=bool))
    with pytest.raises(ValueError):
        grid.cells[0, 0] = True


# -- projection ---------------------------------------------------------------


def test_project_to_grid_validation():
    env = _box_env()
    for res in (0.0, math.nan):
        with pytest.raises(ConfigError):
            project_to_grid(env, resolution=res)
    with pytest.raises(ConfigError):
        project_to_grid(env, resolution=11.0)
    with pytest.raises(ConfigError):
        project_to_grid(env, inflation=-0.1)
    with pytest.raises(ConfigError):
        project_to_grid(env, height_band=(0.7, 0.1))


def test_project_wall_occupies_inflated_columns():
    env = Environment(
        Aabb((0.0, 0.0, 0.0), (12.0, 6.0, 3.0)),
        obstacles=(Aabb((4.9, 0.0, 0.0), (5.1, 6.0, 1.0)),),
    )
    grid = project_to_grid(env, resolution=0.1, inflation=0.35)
    assert (grid.height, grid.width) == (60, 120)
    occupied_cols = sorted({c for r, c in zip(*np.nonzero(grid.cells))})
    # Inflated wall spans x in [4.55, 5.45], which touches exactly the
    # cells covering [4.5, 5.5]: columns 45 through 54.
    assert occupied_cols == list(range(45, 55))
    for col in occupied_cols:
        assert grid.cells[:, col].all()


def test_project_ignores_obstacles_outside_height_band():
    bounds = Aabb((0.0, 0.0, 0.0), (4.0, 4.0, 5.0))
    overhead = Aabb((1.0, 1.0, 2.0), (3.0, 3.0, 3.0))
    env = Environment(bounds, obstacles=(overhead,))
    grid = project_to_grid(env, resolution=0.5, inflation=0.0)
    assert not grid.cells.any()
    # Lowering the band top below the obstacle base keeps it ignored;
    # raising it to touch (closed) marks it.
    touching = project_to_grid(env, resolution=0.5, inflation=0.0, height_band=(0.0, 2.0))
    assert touching.cells.any()


def _projection_oracle(env, grid, inflation, band):
    low, high = band
    x0, y0 = grid.origin
    res = grid.resolution
    want = np.zeros_like(grid.cells)
    for row in range(grid.height):
        for col in range(grid.width):
            ax = x0 + col * res
            ay = y0 + row * res
            cx, cy = grid.cell_center(row, col)
            gz = env.ground_height(cx, cy)
            for obs in env.obstacles:
                horiz = (
                    ax <= obs.max_corner[0] + inflation
                    and ax + res >= obs.min_corner[0] - inflation
                    and ay <= obs.max_corner[1] + inflation
                    and ay + res >= obs.min_corner[1] - inflation
                )
                vert = obs.min_corner[2] <= gz + high and obs.max_corner[2] >= gz + low
                if horiz and vert:
                    want[row, col] = True
                    break
    return want


def test_projection_matches_per_cell_oracle():
    band = (0.05, 0.60)
    for seed in range(10):
        rng = SplitMix64(seed)
        obstacles = []
        for _ in range(1 + rng.randint(3)):
            x = uniform(rng, 0.0, 8.0)
            y = uniform(rng, 0.0, 6.0)
            z = uniform(rng, 0.0, 1.0)
            size = [uniform(rng, 0.2, 2.0) for _ in range(3)]
            obstacles.append(Aabb((x, y, z), (x + size[0], y + size[1], z + size[2])))
        env = Environment(Aabb((0.0, 0.0, 0.0), (10.0, 8.0, 4.0)), obstacles=tuple(obstacles))
        inflation = (0.0, 0.35, 0.5)[rng.randint(3)]
        grid = project_to_grid(env, resolution=0.25, inflation=inflation, height_band=band)
        want = _projection_oracle(env, grid, inflation, band)
        assert (grid.cells == want).all()


def test_projection_band_follows_heightmap_ground():
    # Ramp rising with y; a bar at fixed altitude blocks only the rows
    # whose local ground puts it inside the driving band.
    hm = Heightmap((0.0, 0.0), 1.0, [[float(r)] * 2 for r in range(5)])
    env = Environment(
        Aabb((0.0, 0.0, 0.0), (1.0, 4.0, 6.0)),
        obstacles=(Aabb((0.0, 0.0, 1.0), (1.0, 4.0, 1.2)),),
        ground_const=None,
        heightmap=hm,
    )
    grid = project_to_grid(env, resolution=0.5, inflation=0.0)
    want = _projection_oracle(env, grid, 0.0, (0.05, 0.60))
    assert (grid.cells == want).all()
    assert grid.cells.any() and not grid.cells.all()


def test_projection_monotone_in_inflation():
    env = _box_env()
    small = project_to_grid(env, resolution=0.2, inflation=0.2)
    large = project_to_grid(env, resolution=0.2, inflation=0.5)
    assert (large.cells | small.cells == large.cells).all()
    assert large.cells.sum() > small.cells.sum()


# -- serialization --------------------------------------------------------------


# _box_env() in the scenario file schema, written out by hand.
_BOX_DICT = {
    "bounds": {"min": [0, 0, 0], "max": [10, 10, 5]},
    "ground": {"const": 0.0},
    "obstacles": [{"name": "box", "min": [4, 4, 0], "max": [6, 6, 2]}],
}


def test_environment_dict_round_trip():
    env = _box_env()
    clone = environment_from_dict(_BOX_DICT)
    assert clone.bounds.min_corner == env.bounds.min_corner
    assert clone.bounds.max_corner == env.bounds.max_corner
    assert len(clone.obstacles) == 1
    box, want = clone.obstacles[0], env.obstacles[0]
    assert (box.min_corner, box.max_corner, box.name) == (want.min_corner, want.max_corner, "box")
    assert clone.ground_height(3.0, 3.0) == 0.0
    assert clone.point_in_collision((5.0, 5.0, 1.0), 0.0)


def test_environment_from_dict_accepts_bare_ground_number():
    d = {
        "bounds": {"min": [0, 0, 0], "max": [5, 5, 2]},
        "ground": 0.0,
        "obstacles": [],
    }
    env = environment_from_dict(d)
    assert env.heightmap is None and env.ground_const == 0.0
    d["ground"] = "sea level"
    with pytest.raises(ConfigError):
        environment_from_dict(d)


def test_environment_from_dict_requires_bounds():
    with pytest.raises(ConfigError):
        environment_from_dict({"ground": {"const": 0.0}})


def test_heightmap_dict_round_trip():
    hm = Heightmap((0.0, 0.0), 2.0, [[0.0, 0.5], [1.0, 1.5]])
    env = Environment(
        Aabb((0.0, 0.0, 0.0), (2.0, 2.0, 3.0)), ground_const=None, heightmap=hm
    )
    clone = environment_from_dict({
        "bounds": {"min": [0, 0, 0], "max": [2, 2, 3]},
        "ground": {"heightmap": {
            "origin": [0, 0], "resolution": 2.0, "rows": 2, "cols": 2, "data": [0, 0.5, 1, 1.5],
        }},
    })
    for x, y in ((0.0, 0.0), (1.0, 1.3), (2.0, 2.0)):
        assert clone.ground_height(x, y) == pytest.approx(env.ground_height(x, y), abs=1e-12)


def test_load_environment_from_file(tmp_path):
    import json

    path = tmp_path / "world.json"
    path.write_text(json.dumps(_BOX_DICT))
    env = load_environment(path)
    assert env.bounds.max_corner == (10.0, 10.0, 5.0)
    with pytest.raises(ConfigError):
        load_environment(tmp_path / "missing.json")
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="must hold a JSON object"):
        load_environment(path)
