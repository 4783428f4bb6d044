import numpy as np
import pytest
from hypothesis import given, strategies as st

from geosid.geo import GeoPoint, haversine_km
from geosid.sid import (
    CodeKeys,
    EmptySidGroupError,
    Sid,
    SidIndex,
    assemble,
    check_codes,
    group_codes,
    hard_code_layer4,
    resolve_closest,
    resolve_random,
)

CAPS = (512, 512, 512)


class TestSid:
    def test_plain_triple(self):
        sid = Sid(1, 2, 3)
        assert sid.key == (1, 2, 3)
        assert not sid.has_layer4
        assert str(sid) == "1-2-3"

    def test_layer4_rendering(self):
        sid = Sid(1, 2, 3, 7)
        assert sid.has_layer4
        assert str(sid) == "1-2-3-7"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Sid(-1, 0, 0)

    def test_orderable(self):
        assert Sid(0, 0, 1) < Sid(0, 1, 0) < Sid(1, 0, 0)

    def test_numpy_and_bool_indices_become_int(self):
        sid = Sid(np.int64(1), True, np.int32(3), np.int16(0))
        assert sid == Sid(1, 1, 3, 0)
        assert all(type(v) is int for v in (sid.j1, sid.j2, sid.j3, sid.j4))

    @pytest.mark.parametrize("args", [(0, 0, 0, -2), (0, -1, 0), (1.0, 0, 0), (0, 0, "1")])
    def test_rejects_invalid(self, args):
        with pytest.raises(ValueError):
            Sid(*args)


class TestAssemble:
    def test_zero_triple(self):
        assert assemble(0, 0, 0, CAPS) == Sid(0, 0, 0)

    def test_max_indices_valid(self):
        assert assemble(511, 511, 511, CAPS) == Sid(511, 511, 511)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            assemble(512, 0, 0, CAPS)

    @given(st.lists(st.tuples(*[st.integers(-2, 4)] * 3), min_size=1))
    def test_check_codes_raises_what_assemble_raises(self, rows):
        caps = (3, 3, 3)
        expected = None
        for row in rows:
            try:
                assemble(*row, caps)
            except ValueError as exc:
                expected = str(exc)
                break
        if expected is None:
            check_codes(np.array(rows), caps)
        else:
            with pytest.raises(ValueError) as info:
                check_codes(np.array(rows), caps)
            assert str(info.value) == expected

    @given(st.integers(0, 511), st.integers(0, 511), st.integers(0, 511))
    def test_bijection(self, a, b, c):
        sid = assemble(a, b, c, CAPS)
        assert (sid.j1, sid.j2, sid.j3) == (a, b, c)


class TestGroupCodes:
    @given(
        st.integers(1, 3).flatmap(
            lambda width: st.lists(
                st.lists(st.integers(-3, 3), min_size=width, max_size=width), max_size=40
            ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(len(rows), width))
        )
    )
    def test_matches_numpy_unique(self, codes):
        distinct, groups, order = group_codes(codes)
        want_distinct, want_groups = np.unique(codes, axis=0, return_inverse=True)
        assert np.array_equal(distinct, want_distinct)
        assert np.array_equal(groups, want_groups.reshape(-1))
        assert np.array_equal(order, np.argsort(groups, kind="stable"))


class TestCodeKeys:
    @given(
        st.integers(1, 3).flatmap(
            lambda depth: st.tuples(
                st.lists(st.tuples(*[st.integers(0, 6)] * depth), max_size=12, unique=True),
                st.lists(st.tuples(*[st.integers(-3, 10)] * depth), max_size=20),
            )
        )
    )
    def test_find_matches_a_dict(self, case):
        stored, queries = case
        depth = len((stored + queries + [(0,)])[0])
        rows = np.array(sorted(stored), dtype=np.int64).reshape(len(stored), depth)
        codes = np.array(queries, dtype=np.int64).reshape(len(queries), depth)
        position = {row: i for i, row in enumerate(sorted(stored))}
        assert CodeKeys(rows).find(codes).tolist() == [position.get(q, -1) for q in queries]

    def test_codes_past_int64_keys(self):
        # keys that would overflow an int64 are Python ints
        big = np.iinfo(np.int64).max
        rows = np.array([[0, 0, 5], [0, 2**40, 0], [2**40, 0, 1]], dtype=np.int64)
        queries = np.array([[2**40, 0, 1], [0, 2**40, 0], [0, 0, 5], [2**40, 0, 2], [big, big, big], [-1, 0, 5]])
        assert CodeKeys(rows).find(queries).tolist() == [2, 1, 0, -1, -1, -1]

    def test_empty_table_finds_nothing(self):
        keys = CodeKeys(np.empty((0, 2), dtype=np.int64))
        assert keys.find(np.array([[0, 0], [1, 2]])).tolist() == [-1, -1]


def _index(mapping):
    return SidIndex({pid: Sid(*triple) for pid, triple in mapping.items()})


class TestSidIndex:
    def test_row_groups_are_the_code_grouping(self):
        index = _index({"b": (1, 0, 0), "a": (0, 2, 0), "c": (1, 0, 0), "d": (0, 0, 1)})
        assert np.array_equal(index.row_groups, group_codes(index.codes)[1])
        assert index.row_groups.tolist() == [1, 2, 2, 0]
        with pytest.raises(ValueError):
            index.row_groups[0] = 0

    def test_groups_sorted_by_id(self):
        index = _index({"b": (0, 0, 0), "a": (0, 0, 0), "c": (1, 0, 0)})
        assert index.group(Sid(0, 0, 0)) == ("a", "b")
        assert index.sid_of("c") == Sid(1, 0, 0)
        assert len(index) == 3
        assert "a" in index and "z" not in index

    def test_unknown_sid(self):
        index = _index({"a": (0, 0, 0)})
        with pytest.raises(EmptySidGroupError):
            index.group(Sid(9, 9, 9))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SidIndex({})
        with pytest.raises(ValueError):
            SidIndex([], np.empty((0, 3), dtype=np.int64))

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=4),
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
            min_size=1,
            max_size=30,
        ),
        st.randoms(use_true_random=False),
    )
    def test_columns_equal_mapping(self, mapping, random):
        ids = list(mapping)
        random.shuffle(ids)
        columns = SidIndex(ids, np.array([mapping[pid] for pid in ids]).reshape(len(ids), 3))
        mapped = _index(mapping)
        members = {}
        for pid in sorted(mapping):
            members.setdefault(mapping[pid], []).append(pid)
        for index in (columns, mapped):
            assert index.ids == tuple(sorted(mapping))
            assert index.codes.tolist() == [list(mapping[pid]) for pid in index.ids]
            assert len(index) == len(mapping)
            assert index.assignments == {pid: Sid(*t) for pid, t in mapping.items()}
            assert list(index.assignments) == sorted(mapping)
            assert index.groups() == [(t, tuple(m)) for t, m in sorted(members.items())]
            for pid, triple in mapping.items():
                assert pid in index
                assert index.sid_of(pid) == Sid(*triple)
                assert index.group(Sid(*triple)) == tuple(members[triple])
            assert "" not in index
            # POIs that share a triple share one Sid
            for pids in members.values():
                assert all(index.sid_of(pid) is index.sid_of(pids[0]) for pid in pids)

    def test_sids_for_shares_known_and_builds_unknown(self):
        index = _index({"a": (0, 1, 2), "b": (3, 4, 5)})
        codes = np.array([[3, 4, 5], [9, 9, 9], [0, 1, 2], [9, 9, 9], [0, 0, 0]])
        got = index.sids_for(codes)
        assert got == [Sid(3, 4, 5), Sid(9, 9, 9), Sid(0, 1, 2), Sid(9, 9, 9), Sid(0, 0, 0)]
        assert got[0] is index.sid_of("b") and got[2] is index.sid_of("a")
        assert all(type(v) is int for sid in got for v in (sid.j1, sid.j2, sid.j3))
        assert index.sids_for(np.empty((0, 3), dtype=np.int64)) == []

    def test_sids_built_on_request_and_shared(self):
        index = SidIndex(["c", "a", "b"], np.array([[1, 0, 0], [0, 2, 0], [1, 0, 0]]))
        first = index.sids_for(np.array([[1, 0, 0]]))[0]
        assert first is index.sid_of("b") is index.sid_of("c")
        assert index.group(Sid(0, 2, 0)) == ("a",)
        assert index.assignments == {"a": Sid(0, 2, 0), "b": Sid(1, 0, 0), "c": Sid(1, 0, 0)}

    def test_codes_past_int64_keys(self):
        index = _index({"a": (2**62, 1, 1), "b": (0, 2**40, 3)})
        assert index.group(Sid(2**62, 1, 1)) == ("a",)
        assert index.sids_for(np.array([[0, 2**40, 3]]))[0] is index.sid_of("b")
        with pytest.raises(EmptySidGroupError):
            index.group(Sid(2**70, 1, 1))

    @pytest.mark.parametrize(
        "ids, codes, match",
        [
            (["a", "b"], [[0, 0, 0]], "integer array"),
            (["a"], [[0, 0]], "integer array"),
            (["a"], [[0.0, 0.0, 0.0]], "integer array"),
            (["a"], [[0, -1, 0]], "non-negative"),
            (["b", "a", "b"], [[0, 0, 0]] * 3, "duplicate POI id 'b'"),
            (["a", 7], [[0, 0, 0]] * 2, "POI id 1 must be a non-empty string, got 7"),
            (["", "a"], [[0, 0, 0]] * 2, "POI id 0 must be a non-empty string, got ''"),
        ],
    )
    def test_bad_columns_rejected(self, ids, codes, match):
        with pytest.raises(ValueError, match=match):
            SidIndex(ids, np.array(codes))

    def test_layer4_sid_rejected(self):
        with pytest.raises(ValueError, match="layer-4"):
            SidIndex({"a": Sid(0, 0, 0, 1)})


class TestHardCodeLayer4:
    def test_ordinals_by_id_order(self):
        index = _index({"pb": (0, 0, 0), "pa": (0, 0, 0)})
        coded = hard_code_layer4(index)
        assert coded["pa"].j4 == 0 and coded["pb"].j4 == 1

    def test_singleton_gets_zero(self):
        coded = hard_code_layer4(_index({"only": (2, 3, 4)}))
        assert coded["only"] == Sid(2, 3, 4, 0)

    @given(
        st.dictionaries(
            st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=6),
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            min_size=1,
            max_size=40,
        )
    )
    def test_globally_unique_four_tuples(self, mapping):
        coded = hard_code_layer4(_index(mapping))
        tuples = [(s.j1, s.j2, s.j3, s.j4) for s in coded.values()]
        assert len(set(tuples)) == len(tuples) == len(mapping)


class TestResolveClosest:
    locations = {
        "near": GeoPoint(0.0, 0.1),
        "far": GeoPoint(0.0, 5.0),
        "mid": GeoPoint(0.0, 1.0),
    }
    index = _index({"near": (0, 0, 0), "far": (0, 0, 0), "mid": (0, 0, 0)})
    user = GeoPoint(0.0, 0.0)

    def test_singleton_group(self):
        index = _index({"only": (1, 1, 1)})
        got = resolve_closest(index, Sid(1, 1, 1), self.user, {"only": GeoPoint(10, 10)}, k=5)
        assert got == ["only"]

    def test_orders_by_distance(self):
        got = resolve_closest(self.index, Sid(0, 0, 0), self.user, self.locations, k=3)
        assert got == ["near", "mid", "far"]

    def test_user_next_to_second_member(self):
        user = GeoPoint(0.0, 4.9)
        got = resolve_closest(self.index, Sid(0, 0, 0), user, self.locations, k=1)
        assert got == ["far"]

    def test_prefix_stability(self):
        top2 = resolve_closest(self.index, Sid(0, 0, 0), self.user, self.locations, k=2)
        top3 = resolve_closest(self.index, Sid(0, 0, 0), self.user, self.locations, k=3)
        assert top3[:2] == top2

    def test_tie_breaks_by_id(self):
        same_spot = {"zz": GeoPoint(1, 1), "aa": GeoPoint(1, 1)}
        index = _index({"zz": (0, 0, 0), "aa": (0, 0, 0)})
        assert resolve_closest(index, Sid(0, 0, 0), self.user, same_spot, k=2) == ["aa", "zz"]

    def test_unknown_sid(self):
        with pytest.raises(EmptySidGroupError):
            resolve_closest(self.index, Sid(7, 7, 7), self.user, self.locations, k=1)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            resolve_closest(self.index, Sid(0, 0, 0), self.user, self.locations, k=0)

    def test_matches_bruteforce_sort(self):
        rng = np.random.default_rng(5)
        ids = [f"p{i}" for i in range(30)]
        locs = {pid: GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-170, 170))) for pid in ids}
        index = _index({pid: (0, 0, 0) for pid in ids})
        user = GeoPoint(12.0, 34.0)
        expected = sorted(ids, key=lambda pid: (haversine_km(user, locs[pid]), pid))
        assert resolve_closest(index, Sid(0, 0, 0), user, locs, k=30) == expected


class TestResolveRandom:
    def test_singleton(self):
        index = _index({"only": (0, 0, 0)})
        assert resolve_random(index, Sid(0, 0, 0), seed=1) == "only"

    def test_deterministic_under_seed(self):
        index = _index({"a": (0, 0, 0), "b": (0, 0, 0), "c": (0, 0, 0)})
        picks = {resolve_random(index, Sid(0, 0, 0), seed=42) for _ in range(10)}
        assert len(picks) == 1

    def test_unknown_sid(self):
        index = _index({"a": (0, 0, 0)})
        with pytest.raises(EmptySidGroupError):
            resolve_random(index, Sid(1, 1, 1), seed=0)

    def test_empirical_uniformity(self):
        index = _index({"a": (0, 0, 0), "b": (0, 0, 0)})
        draws = [resolve_random(index, Sid(0, 0, 0), seed=s) for s in range(10000)]
        freq_a = draws.count("a") / len(draws)
        assert freq_a == pytest.approx(0.5, abs=0.02)
