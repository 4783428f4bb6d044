import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geosid.geo import GeoPoint, geo_centroid, haversine_km
from geosid.metrics import (
    QuantReport,
    RankingCase,
    build_quant_report,
    cur,
    geo_dispersion,
    hit_at_n,
    icr,
    ndcg_at_n,
    nearest_rank,
    quant_report,
)
from geosid.sid import Sid

A, B, C = Sid(0, 0, 0), Sid(0, 0, 1), Sid(1, 1, 1)


class TestIcr:
    def test_one_unique_of_three(self):
        assert icr({"p1": A, "p2": A, "p3": B}) == pytest.approx(1 / 3)

    def test_all_unique(self):
        assert icr({"p1": A, "p2": B, "p3": C}) == 1.0

    def test_all_identical(self):
        assert icr({"p1": A, "p2": A}) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            icr({})

    @given(
        st.dictionaries(
            st.integers(0, 50).map(str), st.integers(0, 5).map(lambda j: Sid(j, 0, 0)), min_size=1
        )
    )
    def test_complement_is_duplicated_fraction(self, assignments):
        from collections import Counter

        counts = Counter(sid.key for sid in assignments.values())
        duplicated = sum(1 for sid in assignments.values() if counts[sid.key] > 1)
        assert icr(assignments) + duplicated / len(assignments) == pytest.approx(1.0)


class TestCur:
    def test_two_distinct_over_two(self):
        assert cur({"p1": A, "p2": A, "p3": B}, (2, 1, 2)) == pytest.approx(2 / 4)

    def test_full_utilization(self):
        assert cur({"p1": Sid(0, 0, 0), "p2": Sid(1, 0, 0), "p3": Sid(0, 0, 0)}, (2, 1, 1)) == 1.0

    def test_single_poi(self):
        assert cur({"p": A}, (2, 2, 2)) == pytest.approx(0.125)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            cur({"p": A}, (0, 2, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cur({}, (2, 2, 2))


class TestNearestRank:
    def test_p90_of_decade(self):
        assert nearest_rank(list(range(1, 11)), 0.90) == 9

    def test_p95_of_decade(self):
        assert nearest_rank(list(range(1, 11)), 0.95) == 10

    def test_median_of_singleton(self):
        assert nearest_rank([5.0], 0.5) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.9)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 1.5)


class TestGeoDispersion:
    def test_singleton_groups_are_zero(self):
        assignments = {"p1": A, "p2": B}
        locations = {"p1": GeoPoint(0, 0), "p2": GeoPoint(10, 10)}
        assert geo_dispersion(assignments, locations) == (0.0, 0.0, 0.0)

    def test_equatorial_pair(self):
        # two POIs one degree apart share a SID; centroid is the midpoint
        assignments = {"p1": A, "p2": A}
        locations = {"p1": GeoPoint(0, 0), "p2": GeoPoint(0, 1)}
        avg, p90, p95 = geo_dispersion(assignments, locations)
        assert avg == pytest.approx(55.597, abs=0.01)
        assert p90 == pytest.approx(p95)

    def test_permutation_invariance(self):
        locations = {f"p{i}": GeoPoint(i, i) for i in range(6)}
        assignments = {f"p{i}": (A if i % 2 else B) for i in range(6)}
        shuffled = dict(reversed(list(assignments.items())))
        assert geo_dispersion(assignments, locations) == geo_dispersion(shuffled, locations)

    def test_missing_location_rejected(self):
        with pytest.raises(ValueError):
            geo_dispersion({"p1": A}, {})

    def test_p90_le_p95(self):
        locations = {f"p{i}": GeoPoint(0, i * 0.01) for i in range(20)}
        assignments = {f"p{i}": A for i in range(20)}
        _, p90, p95 = geo_dispersion(assignments, locations)
        assert p90 <= p95


def _dispersion_reference(assignments, locations):
    """Per-POI loop over the scalar geodesy functions."""
    groups = {}
    for pid in sorted(assignments):
        groups.setdefault(assignments[pid].key, []).append(pid)
    dists = []
    for members in groups.values():
        center = geo_centroid([locations[pid] for pid in members])
        dists.extend(haversine_km(center, locations[pid]) for pid in members)
    dists.sort()
    return sum(dists) / len(dists), nearest_rank(dists, 0.90), nearest_rank(dists, 0.95)


_sid_st = st.builds(Sid, st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
_point_st = st.builds(GeoPoint, st.floats(-60.0, 60.0), st.floats(-80.0, 80.0))


class TestDispersionAgainstReference:
    @given(st.lists(st.tuples(_sid_st, _point_st), min_size=1, max_size=40))
    def test_matches_scalar_loop(self, rows):
        assignments = {f"p{i:02d}": sid for i, (sid, _) in enumerate(rows)}
        locations = {f"p{i:02d}": point for i, (_, point) in enumerate(rows)}
        want = _dispersion_reference(assignments, locations)
        got = geo_dispersion(assignments, locations)
        # the kernel's sin/cos may differ from math's in the last ulp
        assert got == pytest.approx(want, rel=1e-12, abs=1e-9)

    @given(st.lists(st.tuples(_sid_st, _point_st), min_size=1, max_size=40))
    def test_icr_cur_match_counter(self, rows):
        assignments = {f"p{i:02d}": sid for i, (sid, _) in enumerate(rows)}
        counts = Counter(sid.key for sid in assignments.values())
        assert icr(assignments) == sum(counts[s.key] == 1 for s in assignments.values()) / len(rows)
        assert cur(assignments, (3, 3, 2)) == len(counts) / 18


class TestQuantReport:
    def test_columnar_equals_dict_form(self):
        ids = ["p3", "p1", "p2", "p0"]
        sids = [A, A, B, C]
        points = [GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(5, 5), GeoPoint(-3, 7)]
        order = sorted(range(4), key=lambda i: ids[i])
        codes = np.array([sids[i].key for i in order])
        lat = np.array([points[i].lat for i in order])
        lon = np.array([points[i].lon for i in order])
        by_dict = build_quant_report(dict(zip(ids, sids)), dict(zip(ids, points)), (2, 2, 2))
        assert quant_report(codes, lat, lon, (2, 2, 2)) == by_dict


    def test_build(self):
        assignments = {"p1": A, "p2": A, "p3": B}
        locations = {"p1": GeoPoint(0, 0), "p2": GeoPoint(0, 1), "p3": GeoPoint(5, 5)}
        report = build_quant_report(assignments, locations, (2, 2, 2))
        assert report.poi_count == 3
        assert report.group_count == 2
        assert report.cur == pytest.approx(2 / 8)
        assert report.icr == pytest.approx(1 / 3)
        assert report.as_dict()["avg_dist_km"] == report.avg_dist_km

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantReport(cur=1.5, icr=0.5, avg_dist_km=1, p90_dist_km=1, p95_dist_km=1, group_count=1, poi_count=1)
        with pytest.raises(ValueError):
            QuantReport(cur=0.5, icr=0.5, avg_dist_km=1, p90_dist_km=2, p95_dist_km=1, group_count=1, poi_count=1)


class TestRankingMetrics:
    def test_hit_at_first_rank(self):
        assert hit_at_n(RankingCase((A, B, C), truth=A), 1) == 1

    def test_truth_beyond_cutoff(self):
        assert hit_at_n(RankingCase((B, C, A), truth=A), 2) == 0

    def test_truth_absent(self):
        assert hit_at_n(RankingCase((B, C), truth=A), 5) == 0

    def test_ndcg_rank_one(self):
        assert ndcg_at_n(RankingCase((A, B), truth=A), 1) == 1.0

    def test_ndcg_rank_three(self):
        case = RankingCase((B, C, A), truth=A)
        assert ndcg_at_n(case, 50) == pytest.approx(1 / math.log2(4))
        assert ndcg_at_n(case, 50) == pytest.approx(0.5)

    def test_ndcg_absent(self):
        assert ndcg_at_n(RankingCase((B, C), truth=A), 10) == 0.0

    def test_first_occurrence_counts_with_duplicates(self):
        case = RankingCase((B, A, A), truth=A)
        assert case.has_duplicates
        assert ndcg_at_n(case, 3) == pytest.approx(1 / math.log2(3))

    def test_empty_predictions_rejected(self):
        with pytest.raises(ValueError):
            RankingCase((), truth=A)

    def test_n_validation(self):
        case = RankingCase((A,), truth=A)
        with pytest.raises(ValueError):
            hit_at_n(case, 0)
        with pytest.raises(ValueError):
            ndcg_at_n(case, 0)

    @given(st.integers(1, 10), st.integers(1, 10))
    def test_monotone_in_n_and_ndcg_le_hit(self, n1, n2):
        preds = tuple(Sid(i, 0, 0) for i in range(8))
        case = RankingCase(preds, truth=Sid(5, 0, 0))
        lo, hi = min(n1, n2), max(n1, n2)
        assert hit_at_n(case, lo) <= hit_at_n(case, hi)
        assert ndcg_at_n(case, lo) <= ndcg_at_n(case, hi)
        assert ndcg_at_n(case, hi) <= hit_at_n(case, hi)
        assert 0.0 <= ndcg_at_n(case, hi) <= 1.0
