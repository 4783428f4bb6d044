import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from geosid.geo import (
    EARTH_RADIUS_KM,
    AntimeridianWarning,
    EmptyClusterError,
    GeoPoint,
    LocalPolar,
    azimuth_rad,
    geo_centroid,
    group_centroids,
    haversine_km,
    local_polar,
    to_local_polar,
)

lat_st = st.floats(min_value=-90.0, max_value=90.0)
lon_st = st.floats(min_value=-179.999, max_value=180.0)


class TestGeoPoint:
    def test_valid(self):
        p = GeoPoint(30.5, -120.25)
        assert p.lat == 30.5 and p.lon == -120.25

    @pytest.mark.parametrize("lat", [90.001, -91.0, float("nan"), float("inf")])
    def test_bad_latitude(self, lat):
        with pytest.raises(ValueError):
            GeoPoint(lat, 0.0)

    @pytest.mark.parametrize(
        "lon,expected", [(190.0, -170.0), (-180.0, 180.0), (360.0, 0.0), (540.0, 180.0), (180.0, 180.0)]
    )
    def test_longitude_normalization(self, lon, expected):
        assert GeoPoint(0.0, lon).lon == expected


class TestLocalPolar:
    def test_valid(self):
        LocalPolar(0.0, math.pi)

    @pytest.mark.parametrize("d,sigma", [(-1.0, 0.0), (0.0, -math.pi), (0.0, 4.0), (float("nan"), 0.0)])
    def test_invalid(self, d, sigma):
        with pytest.raises(ValueError):
            LocalPolar(d, sigma)


class TestHaversine:
    def test_identical_points(self):
        assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 0)) == 0.0

    def test_equatorial_degree(self):
        # oracle: one degree of arc on the equator is R * pi/180
        oracle = EARTH_RADIUS_KM * math.pi / 180.0
        got = haversine_km(GeoPoint(0, 0), GeoPoint(0, 1))
        assert got == pytest.approx(oracle, abs=1e-9)
        assert got == pytest.approx(111.1949, abs=1e-3)

    def test_pole_distance(self):
        # oracle: a quarter great circle is R * pi/2
        oracle = EARTH_RADIUS_KM * math.pi / 2.0
        got = haversine_km(GeoPoint(0, 0), GeoPoint(90, 0))
        assert got == pytest.approx(oracle, abs=1e-6)
        assert got == pytest.approx(10007.543, abs=1e-2)

    @given(lat_st, lon_st, lat_st, lon_st)
    def test_symmetry_and_bound(self, lat1, lon1, lat2, lon2):
        a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
        d_ab = haversine_km(a, b)
        d_ba = haversine_km(b, a)
        assert abs(d_ab - d_ba) <= 1e-9
        assert 0.0 <= d_ab <= math.pi * EARTH_RADIUS_KM


class TestAzimuth:
    def test_north_is_zero(self):
        assert abs(azimuth_rad(GeoPoint(0, 0), GeoPoint(1, 0))) <= 1e-9

    def test_east_is_half_pi(self):
        assert azimuth_rad(GeoPoint(0, 0), GeoPoint(0, 1)) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_south_is_pi(self):
        assert abs(azimuth_rad(GeoPoint(0, 0), GeoPoint(-1, 0))) == pytest.approx(math.pi, abs=1e-9)

    def test_west_is_negative_half_pi(self):
        assert azimuth_rad(GeoPoint(0, 0), GeoPoint(0, -1)) == pytest.approx(-math.pi / 2, abs=1e-9)

    def test_degenerate_point_returns_zero(self):
        assert azimuth_rad(GeoPoint(10, 20), GeoPoint(10, 20)) == 0.0

    @given(lat_st, lon_st, lat_st, lon_st)
    def test_principal_range(self, lat1, lon1, lat2, lon2):
        sigma = azimuth_rad(GeoPoint(lat1, lon1), GeoPoint(lat2, lon2))
        assert -math.pi < sigma <= math.pi


class TestGeoCentroid:
    def test_singleton(self):
        assert geo_centroid([GeoPoint(10, 20)]) == GeoPoint(10, 20)

    def test_arithmetic_mean(self):
        assert geo_centroid([GeoPoint(0, 0), GeoPoint(2, 4)]) == GeoPoint(1, 2)

    def test_empty_cluster(self):
        with pytest.raises(EmptyClusterError):
            geo_centroid([])

    def test_antimeridian_warning(self):
        with pytest.warns(AntimeridianWarning):
            geo_centroid([GeoPoint(0, -179), GeoPoint(0, 179)])

    def test_no_warning_for_compact_cluster(self, recwarn):
        geo_centroid([GeoPoint(0, 10), GeoPoint(0, 11)])
        assert not [w for w in recwarn if issubclass(w.category, AntimeridianWarning)]


class TestToLocalPolar:
    def test_degenerate(self):
        assert to_local_polar(GeoPoint(0, 0), GeoPoint(0, 0)) == LocalPolar(0.0, 0.0)

    def test_east_point(self):
        polar = to_local_polar(GeoPoint(0, 0), GeoPoint(0, 1))
        assert polar.d == pytest.approx(111.1949, abs=1e-3)
        assert polar.sigma == pytest.approx(math.pi / 2, abs=1e-9)

    def test_north_point(self):
        polar = to_local_polar(GeoPoint(0, 0), GeoPoint(1, 0))
        assert polar.d == pytest.approx(111.1949, abs=1e-3)
        assert abs(polar.sigma) <= 1e-9

    @given(lat_st, lon_st, lat_st, lon_st)
    def test_composition(self, lat1, lon1, lat2, lon2):
        center, p = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
        polar = to_local_polar(center, p)
        assert polar.d == haversine_km(center, p)
        assert polar.sigma == azimuth_rad(center, p)


# numpy's vectorized sin/cos may round differently from math in the last
# ulp; 1e-9 km / rad leaves orders of magnitude of room for that
KERNEL_TOL = 1e-9

# (center, point) pairs: criterion-3 fixtures, poles, pairs across +-180
# degrees, coincident points (sigma = 0) and antipodal points (h clipped)
KERNEL_CASES = [
    ((0.0, 0.0), (0.0, 1.0)),
    ((0.0, 0.0), (90.0, 0.0)),
    ((0.0, 0.0), (1.0, 0.0)),
    ((0.0, 0.0), (-1.0, 0.0)),
    ((0.0, 0.0), (0.0, -1.0)),
    ((90.0, 0.0), (89.0, 45.0)),
    ((-90.0, 10.0), (-90.0, -170.0)),
    ((89.9999, 0.0), (-89.9999, 180.0)),
    ((10.0, 179.9), (10.0, -179.9)),
    ((-35.0, -179.5), (-35.2, 179.8)),
    ((10.0, 20.0), (10.0, 20.0)),
    ((90.0, 0.0), (90.0, 0.0)),
    ((0.0, 0.0), (0.0, 180.0)),
    ((45.0, 30.0), (-45.0, -150.0)),
]


def _assert_kernel_matches_scalar(pairs):
    centers = [GeoPoint(*c) for c, _ in pairs]
    points = [GeoPoint(*q) for _, q in pairs]
    d_km, sigma = local_polar(
        np.array([c.lat for c in centers]),
        np.array([c.lon for c in centers]),
        np.array([q.lat for q in points]),
        np.array([q.lon for q in points]),
    )
    for i, (c, q) in enumerate(zip(centers, points)):
        assert abs(d_km[i] - haversine_km(c, q)) <= KERNEL_TOL
        want = azimuth_rad(c, q)
        # an angle within an ulp of -pi may fold to +pi on one side only,
        # so compare on the circle
        got = sigma[i]
        assert -math.pi < got <= math.pi
        assert min(abs(got - want), 2 * math.pi - abs(got - want)) <= KERNEL_TOL
        if c == q:
            assert got == 0.0 and d_km[i] == 0.0


class TestLocalPolarKernel:
    @pytest.mark.parametrize("center,point", KERNEL_CASES)
    def test_edge_cases_match_scalar(self, center, point):
        _assert_kernel_matches_scalar([(center, point)])

    def test_fixture_batch_matches_scalar(self):
        _assert_kernel_matches_scalar(KERNEL_CASES)

    def test_antipodal_distance_is_half_circumference(self):
        d_km, _ = local_polar(np.array([0.0]), np.array([0.0]), np.array([0.0]), np.array([180.0]))
        assert d_km[0] == pytest.approx(math.pi * EARTH_RADIUS_KM, abs=KERNEL_TOL)

    @given(st.lists(st.tuples(lat_st, lon_st, lat_st, lon_st), min_size=1, max_size=40))
    @example([(0.0, 0.0, 0.0, 180.0), (90.0, 0.0, -90.0, 0.0), (5.0, 5.0, 5.0, 5.0)])
    def test_sweep_matches_scalar(self, rows):
        _assert_kernel_matches_scalar([((a, b), (c, d)) for a, b, c, d in rows])

    @given(
        lat_st,
        lon_st,
        st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)), min_size=1, max_size=30),
    )
    def test_sweep_near_center_matches_scalar(self, lat0, lon0, offsets):
        # short distances, the regime of every cluster frame
        pairs = [
            ((lat0, lon0), (max(-90.0, min(90.0, lat0 + dlat)), lon0 + dlon))
            for dlat, dlon in offsets
        ]
        _assert_kernel_matches_scalar(pairs)


class TestGroupCentroids:
    @given(
        st.lists(st.tuples(st.integers(0, 4), lat_st, lon_st), min_size=1, max_size=60)
    )
    def test_bit_equal_to_geo_centroid(self, rows):
        present = sorted({g for g, _, _ in rows})
        dense = {g: i for i, g in enumerate(present)}  # every group id must occur
        groups = np.array([dense[g] for g, _, _ in rows])
        points = [GeoPoint(lat, lon) for _, lat, lon in rows]
        lat = np.array([p.lat for p in points])
        lon = np.array([p.lon for p in points])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AntimeridianWarning)
            c_lat, c_lon = group_centroids(groups, lat, lon)
            for g in range(len(present)):
                ref = geo_centroid([p for p, gi in zip(points, groups) if gi == g])
                assert c_lat[g] == ref.lat and c_lon[g] == ref.lon

    def test_antimeridian_warning(self):
        with pytest.warns(AntimeridianWarning):
            group_centroids(np.array([0, 0, 1]), np.zeros(3), np.array([-179.0, 179.0, 5.0]))

    def test_no_warning_for_compact_groups(self, recwarn):
        group_centroids(np.array([0, 1, 0]), np.zeros(3), np.array([10.0, 170.0, 11.0]))
        assert not [w for w in recwarn if issubclass(w.category, AntimeridianWarning)]

    def test_empty_rejected(self):
        with pytest.raises(EmptyClusterError):
            group_centroids(np.array([], dtype=int), np.array([]), np.array([]))

    def test_missing_group_rejected(self):
        with pytest.raises(EmptyClusterError):
            group_centroids(np.array([0, 2]), np.zeros(2), np.zeros(2))
