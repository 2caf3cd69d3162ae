import pytest
from hypothesis import given, strategies as st

from cdvcert.groups import coset_enumerate, parse_presentation
from cdvcert.maps import (
    InvalidChi,
    MalformedIncidence,
    OddEuler,
    SimpleGraph,
    build_map_from_cosets,
    counterexample_range,
    euler_characteristic,
    genus_orientable,
    heawood_gamma,
    map_report,
    validate_rotary_type,
)


random_graphs = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.sets(
        st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
        )
        .filter(lambda e: e[0] != e[1])
        .map(lambda e: tuple(sorted(e)))
    ).map(lambda edges: SimpleGraph(n, tuple(edges)))
)


def rotation_map(text):
    """Map from the rotation presentation < y, z | y^p, z^q, (y*z)^2 >."""
    pres = parse_presentation(text)
    table = coset_enumerate(pres)
    return build_map_from_cosets(
        table,
        (pres.word("z"),),
        (pres.word("y*z"),),
        (pres.word("y"),),
    )


class TestSimpleGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            SimpleGraph(2, ((0, 0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            SimpleGraph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SimpleGraph(2, ((0, 5),))

    def test_adjacency_and_degrees(self):
        g = SimpleGraph(3, ((0, 1), (1, 2)))
        assert g.degrees() == [1, 2, 1]
        assert g.has_edge(1, 0) and not g.has_edge(0, 2)

    @given(random_graphs)
    def test_has_edge_agrees_with_adjacency(self, g):
        adj = g.adjacency()
        for u in range(g.n):
            for v in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u) == (v in adj[u])

    def test_connectivity(self):
        path = SimpleGraph(3, ((0, 1), (1, 2)))
        split = SimpleGraph(4, ((0, 1), (2, 3)))
        assert path.is_connected()
        assert not split.is_connected()

    def test_regular_degree(self):
        triangle = SimpleGraph(3, ((0, 1), (0, 2), (1, 2)))
        assert triangle.regular_degree() == 2
        assert SimpleGraph(3, ((0, 1),)).regular_degree() is None

    def test_json_roundtrip(self, tmp_path):
        g = SimpleGraph(4, ((0, 1), (2, 3)))
        path = tmp_path / "g.json"
        g.save(path)
        assert SimpleGraph.load(path) == g

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"n": 3},
            {"n": 3, "edges": [0, 1]},
            "nope",
            {"n": 2.7, "edges": []},
            {"n": True, "edges": []},
            {"n": "3", "edges": []},
            {"n": 2, "edges": "01"},
        ],
    )
    def test_malformed_json_dict_raises_value_error(self, data):
        with pytest.raises(ValueError, match="graph data"):
            SimpleGraph.from_json_dict(data)


class TestPlatonicMaps:
    def test_tetrahedron(self):
        surface = rotation_map("< y, z | y^3, z^3, (y*z)^2 >")
        report = map_report(surface)
        assert (report["v"], report["e"], report["f"]) == (4, 6, 4)
        assert report["chi"] == 2 and report["genus"] == 0
        assert (report["p"], report["q"]) == (3, 3)
        assert surface.graph.regular_degree() == 3

    def test_octahedron(self):
        surface = rotation_map("< y, z | y^3, z^4, (y*z)^2 >")
        report = map_report(surface)
        assert (report["v"], report["e"], report["f"]) == (6, 12, 8)
        assert report["chi"] == 2 and report["genus"] == 0
        assert (report["p"], report["q"]) == (3, 4)
        assert surface.graph.regular_degree() == 4

    def test_cube_is_the_dual(self):
        pres = parse_presentation("< y, z | y^4, z^3, (y*z)^2 >")
        table = coset_enumerate(pres)
        surface = build_map_from_cosets(
            table, (pres.word("z"),), (pres.word("y*z"),), (pres.word("y"),)
        )
        report = map_report(surface)
        assert (report["v"], report["e"], report["f"]) == (8, 12, 6)

    def test_incidence_validation_catches_bad_cells(self):
        # treating face cosets as edge cosets breaks two-endpoint incidence
        pres = parse_presentation("< y, z | y^3, z^3, (y*z)^2 >")
        table = coset_enumerate(pres)
        with pytest.raises(MalformedIncidence):
            build_map_from_cosets(
                table, (pres.word("z"),), (pres.word("y"),), (pres.word("y*z"),)
            )


class TestGenus10Map(object):
    def test_counts(self, g10_map):
        report = map_report(g10_map)
        assert (report["v"], report["e"], report["f"]) == (54, 216, 144)
        assert report["chi"] == -18
        assert report["genus"] == 10
        assert (report["p"], report["q"]) == (3, 8)

    def test_graph_shape(self, g10_map):
        graph = g10_map.graph
        assert graph.n == 54
        assert graph.edge_count == 216
        assert graph.is_connected()
        assert graph.regular_degree() == 8

    def test_euler_and_genus_directly(self, g10_map):
        assert euler_characteristic(g10_map) == -18
        assert genus_orientable(g10_map) == 10
        assert validate_rotary_type(g10_map) == (3, 8)

    def test_odd_euler_rejected(self, g10_map):
        class Odd:
            # one vertex too many makes chi odd
            vertex_count = g10_map.vertex_count + 1
            edge_count = g10_map.edge_count
            face_count = g10_map.face_count

        with pytest.raises(OddEuler):
            genus_orientable(Odd())


class TestHeawood:
    @pytest.mark.parametrize(
        "chi,expected",
        [(2, 4), (1, 6), (0, 7), (-2, 8), (-10, 12), (-18, 14), (-28, 16)],
    )
    def test_known_values(self, chi, expected):
        assert heawood_gamma(chi) == expected

    def test_klein_bottle_exception(self):
        assert heawood_gamma(0, klein_bottle=True) == 6
        with pytest.raises(InvalidChi):
            heawood_gamma(-2, klein_bottle=True)

    def test_sphere_is_the_ceiling(self):
        with pytest.raises(InvalidChi):
            heawood_gamma(3)

    def test_monotone_as_chi_drops(self):
        values = [heawood_gamma(chi) for chi in range(2, -40, -1)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_window_for_corank_sixteen(self):
        assert counterexample_range(16) == (-28, -19)

    def test_window_closes_for_small_bounds(self):
        assert counterexample_range(14) == (-19, -19)
        assert counterexample_range(4) is None
