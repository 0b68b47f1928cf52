import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fga.bounds import check_min_k_neighbour
from fga.dataio import (
    DATASETS,
    DatasetMissingError,
    compute_stats,
    dataset_path,
    load_dataset,
    load_rating_csv,
    write_csv,
)
from fga.engine import HIGH_PRECISION, compute_fga
from fga.gadgets import stabilised_star
from fga.generators import (
    generate_complete_positive,
    generate_min_k_neighbour,
    generate_random_graph,
)
from fga.graph import RatingScale, Wsn

SCALE10 = RatingScale(10)


def write(tmp_path, text, name="ratings.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoader:
    def test_basic_load_and_normalization(self, tmp_path):
        path = write(tmp_path, "a,b,5\nb,c,-10\n")
        g = load_rating_csv(path, SCALE10)
        assert g.node_count == 3 and g.edge_count == 2
        assert g.weight(g.id_of("a"), g.id_of("b")) == 0.5
        assert g.weight(g.id_of("b"), g.id_of("c")) == -1.0

    def test_header_autodetected(self, tmp_path):
        for header in ("SOURCE,TARGET,RATING,TIME", "source,target,rating", "src,dst, Weight "):
            g = load_rating_csv(write(tmp_path, f"{header}\na,b,5,100\n"), SCALE10)
            assert g.node_count == 2 and g.edge_count == 1, header

    @pytest.mark.parametrize("text", ["alice,bob,x\n", "alice,bob,ratings\ncarol,dave,5\n"])
    def test_first_row_without_a_rating_name_is_data(self, tmp_path, text):
        # only a rating field reading "rating" or "weight" makes the first row a header
        with pytest.raises(ValueError, match="line 1: rating .* is not a number"):
            load_rating_csv(write(tmp_path, text), SCALE10)

    def test_duplicate_pair_last_wins(self, tmp_path):
        path = write(tmp_path, "a,b,5\nc,a,1\na,b,-2\n")
        g = load_rating_csv(path, SCALE10)
        assert g.edge_count == 2
        assert g.weight(g.id_of("a"), g.id_of("b")) == -0.2

    def test_duplicate_resolved_by_timestamp(self, tmp_path):
        # chronologically last rating wins even when it appears first
        path = write(tmp_path, "a,b,5,200\na,b,-2,100\n")
        g = load_rating_csv(path, SCALE10)
        assert g.weight(g.id_of("a"), g.id_of("b")) == 0.5

    def test_self_loop_reports_line(self, tmp_path):
        path = write(tmp_path, "x,y,1\na,a,5\n")
        with pytest.raises(ValueError, match="line 2"):
            load_rating_csv(path, SCALE10)

    def test_out_of_scale_reports_line(self, tmp_path):
        path = write(tmp_path, "a,b,11\n")
        with pytest.raises(ValueError, match="line 1"):
            load_rating_csv(path, SCALE10)

    def test_nan_timestamp_rejected_with_path_and_line(self, tmp_path):
        # a NaN stamp compares false both ways, so it would silently win the dedup
        path = write(tmp_path, "a,b,3,nan\na,b,-3,1\n")
        with pytest.raises(ValueError, match=r"ratings\.csv: line 1: timestamp 'nan' is not"):
            load_rating_csv(path, SCALE10)

    def test_nan_rating_rejected_with_path_and_line(self, tmp_path):
        path = write(tmp_path, "x,y,1,0\na,b,nan,1\n")
        with pytest.raises(ValueError, match=r"ratings\.csv: line 2: rating nan outside"):
            load_rating_csv(path, SCALE10)

    def test_malformed_row(self, tmp_path):
        path = write(tmp_path, "a,b,5\nq,w\n")
        with pytest.raises(ValueError, match="line 2"):
            load_rating_csv(path, SCALE10)
        path = write(tmp_path, "a,b,5\nq,w,zzz\n", name="bad.csv")
        with pytest.raises(ValueError, match="not a number"):
            load_rating_csv(path, SCALE10)

    def test_node_ids_follow_first_appearance(self, tmp_path):
        path = write(tmp_path, "b,a,1\nc,b,2\na,c,3\n")
        g = load_rating_csv(path, SCALE10)
        assert [g.label_of(v) for v in g.nodes()] == ["b", "a", "c"]
        again = load_rating_csv(path, SCALE10)
        assert [again.label_of(v) for v in again.nodes()] == ["b", "a", "c"]


#: A rating row: source, target, raw rating, and a timestamp that is absent
#: (None: three columns), empty (a fourth column with nothing in it) or a
#: number from a small set, so ties are common.
RATING_ROWS = st.tuples(
    st.sampled_from(["a", "b", "c", "7", "10", " d "]),
    st.sampled_from(["a", "b", "c", "7", "10", " d "]),
    st.integers(-20, 20).map(lambda half: half / 2),
    st.one_of(st.none(), st.just(""), st.sampled_from([1, 2, 3, 1.5])),
).filter(lambda row: row[0].strip() != row[1].strip())

#: Malformed rows and the message each must raise after "path: line N: ".
BAD_ROWS = [
    ("q,w", "expected 3 or 4 columns, got 2"),
    ("q,w,1,2,3", "expected 3 or 4 columns, got 5"),
    ("q,w,zzz", "rating 'zzz' is not a number"),
    ("q,q,5", "self-rating 'q'"),
    ("q,w,11", "rating 11.0 outside [-10, 10]"),
    ("q,w,5,later", "timestamp 'later' is not a number"),
    ("q,w,5,inf", "timestamp 'inf' is not finite"),
    (",b,5", "empty source label"),
    (" , ,5", "empty source label"),
    ("q, ,5", "empty target label"),
]


def rating_lines(rows, header: bool, blanks: list[int]) -> tuple[list[str], list[int]]:
    """CSV lines for ``rows`` with a header and blank lines mixed in, and each row's line number."""
    lines = ["SOURCE,TARGET,RATING,TIME"] if header else []
    numbers = []
    for index, (source, target, rating, stamp) in enumerate(rows):
        lines += ["", "  "][: blanks[index % len(blanks)]] if blanks else []
        cells = [source, target, str(rating)] + ([] if stamp is None else [str(stamp)])
        lines.append(",".join(cells))
        numbers.append(len(lines))
    return lines, numbers


def last_wins(rows, numbers):
    """Independent parse: labels by first appearance, then per pair the row with the
    largest (timestamp, line), a missing or empty timestamp counting as 0."""
    labels: list[str] = []
    groups: dict[tuple[str, str], list] = {}
    for (source, target, rating, stamp), line in zip(rows, numbers):
        source, target = source.strip(), target.strip()
        labels += [label for label in (source, target) if label not in labels]
        groups.setdefault((source, target), []).append((float(stamp or 0), line, rating))
    edges = []
    for (source, target), group in groups.items():
        _, _, rating = max(group)
        edges.append((labels.index(source), labels.index(target), rating / 10.0))
    return labels, sorted(edges)


class TestLoaderFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(RATING_ROWS, max_size=25),
        header=st.booleans(),
        blanks=st.lists(st.integers(0, 2), max_size=4),
    )
    def test_matches_an_independent_last_wins_parse(self, tmp_path_factory, rows, header, blanks):
        lines, numbers = rating_lines(rows, header, blanks)
        path = tmp_path_factory.mktemp("fuzz") / "ratings.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        g = load_rating_csv(path, SCALE10)
        labels, edges = last_wins(rows, numbers)
        assert g.labels() == labels
        assert list(g.edges()) == edges
        g.validate()

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(RATING_ROWS, min_size=1, max_size=10),
        header=st.booleans(),
        blanks=st.lists(st.integers(0, 2), max_size=4),
        bad=st.sampled_from(BAD_ROWS),
        at=st.integers(1, 10),
    )
    def test_malformed_rows_name_path_and_line(
        self, tmp_path_factory, rows, header, blanks, bad, at
    ):
        lines, numbers = rating_lines(rows, header, blanks)
        # after the first row, so a bad rating is never taken for a header
        line = numbers[min(at, len(numbers)) - 1] + 1
        lines.insert(line - 1, bad[0])
        path = tmp_path_factory.mktemp("fuzz") / "ratings.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            load_rating_csv(path, SCALE10)
        assert str(caught.value) == f"{path}: line {line}: {bad[1]}"


def write_ratings(graph, path, r_max=10.0):
    """``graph``'s edges as headerless ``source,target,rating`` rows, raw ratings to 12 digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_csv(fh, ((graph.label_of(u), graph.label_of(v), f"{w * r_max:.12g}")
                       for u, v, w in graph.edges()))


class TestRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        g = generate_random_graph(25, avg_out_degree=3.0, seed=5, positive_fraction=0.6)
        scale = RatingScale(10)
        path = tmp_path / "out.csv"
        write_ratings(g, path)
        back = load_rating_csv(path, scale)
        assert back.node_count == g.node_count
        assert back.edge_count == g.edge_count
        for u, v, w in g.edges():
            restored = back.weight(back.id_of(g.label_of(u)), back.id_of(g.label_of(v)))
            assert restored == pytest.approx(w, abs=1e-12)

    def test_labels_with_commas_and_quotes_survive(self, tmp_path):
        labels = ['a,"b', "c", 'say "hi"', "d,e,f", "a\rb"]
        g = Wsn.from_arrays(5, [0, 1, 2, 3, 4], [1, 2, 3, 0, 0], [0.5, -1.0, 0.25, 1.0, 0.5],
                            labels=labels)
        path = tmp_path / "out.csv"
        write_ratings(g, path)
        assert load_rating_csv(path, RatingScale(10)) == g


class TestStats:
    def test_counts_and_fractions_on_synthetic(self):
        g = Wsn()
        for label in "abcd":
            g.add_node(label)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, -0.5)
        g.add_edge(2, 3, 0.2)
        g.add_edge(3, 0, 0.4)
        scores = compute_fga(g, HIGH_PRECISION)
        stats = compute_stats(g, scores)
        assert stats.node_count == 4
        assert stats.edge_count == 4
        assert stats.positive_edge_fraction == 0.75
        assert stats.small_indegree_fraction == 1.0
        assert set(stats.fairness_ge) == {0.95, 0.7}
        assert set(stats.goodness_ge) == {0.0, 0.5}
        assert set(stats.goodness_le) == {-0.3}

    def test_empty_graph_contract(self):
        g = Wsn()
        stats = compute_stats(g, compute_fga(g))
        assert stats.node_count == 0
        assert stats.edge_count == 0
        assert stats.positive_edge_fraction == 0.0
        assert stats.small_indegree_fraction == 0.0
        assert stats.fairness_ge[0.7] == 0.0

    def test_json_payload(self):
        g = generate_complete_positive(3)
        stats = compute_stats(g, compute_fga(g))
        payload = stats.to_dict()
        assert payload["positive_edge_fraction"] == 1.0
        assert payload["fairness_ge"]["0.7"] == 1.0


class TestDatasets:
    def test_unknown_dataset(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            dataset_path("nope", "/tmp")

    def test_missing_directory(self, monkeypatch):
        monkeypatch.delenv("FGA_DATA_DIR", raising=False)
        with pytest.raises(DatasetMissingError):
            dataset_path("bitcoin-otc")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetMissingError, match="not found"):
            dataset_path("bitcoin-otc", tmp_path)

    def test_load_via_env(self, tmp_path, monkeypatch):
        name, _ = DATASETS["bitcoin-otc"]
        (tmp_path / name).write_text("7,11,10,100\n11,7,-4,101\n", encoding="utf-8")
        monkeypatch.setenv("FGA_DATA_DIR", str(tmp_path))
        g = load_dataset("bitcoin-otc")
        assert g.node_count == 2 and g.edge_count == 2
        assert g.weight(g.id_of("7"), g.id_of("11")) == 1.0

    def test_an_empty_directory_is_the_current_one(self, tmp_path, monkeypatch):
        name, _ = DATASETS["rfa"]
        (tmp_path / name).write_text("a,b,1\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("FGA_DATA_DIR", "")
        with pytest.raises(DatasetMissingError, match="no data directory"):
            dataset_path("rfa")  # an empty variable names no directory
        assert str(dataset_path("rfa", "")) == name
        assert load_dataset("rfa", "").edge_count == 1
        monkeypatch.setenv("FGA_DATA_DIR", "/nonexistent")
        assert load_dataset("rfa", "").edge_count == 1  # an explicit directory wins


class TestGenerators:
    @pytest.mark.parametrize("n,k", [(10, 3), (30, 5), (100, 8)])
    def test_min_k_certificate_holds(self, n, k):
        g = generate_min_k_neighbour(n, k, seed=3)
        g.validate()
        assert check_min_k_neighbour(g, k).holds
        for v in g.nodes():
            assert g.indeg(v) == k
        assert g.flat().outdeg.tolist() == [k] * n

    def test_min_k_complete_edge_case(self):
        g = generate_min_k_neighbour(4, 3, seed=0)
        assert g.edge_count == 12
        assert check_min_k_neighbour(g, 3).holds

    def test_min_k_infeasible(self):
        with pytest.raises(ValueError, match="infeasible"):
            generate_min_k_neighbour(3, 3, seed=0)

    def test_min_k_deterministic(self):
        a = generate_min_k_neighbour(20, 3, seed=9)
        b = generate_min_k_neighbour(20, 3, seed=9)
        assert a == b
        c = generate_min_k_neighbour(20, 3, seed=10)
        assert a != c

    def test_complete_positive_fixed_point(self):
        g = generate_complete_positive(4)
        assert g.edge_count == 12
        scores = compute_fga(g, HIGH_PRECISION)
        assert np.allclose(scores.fairness, 1.0, atol=1e-12)
        assert np.allclose(scores.goodness, 1.0, atol=1e-12)

    def test_random_graph_seeded(self):
        a = generate_random_graph(30, seed=4)
        b = generate_random_graph(30, seed=4)
        assert a == b
        a.validate()

    def test_random_graph_positive_fraction(self):
        g = generate_random_graph(200, avg_out_degree=5.0, seed=8, positive_fraction=1.0)
        assert all(w > 0 for _, _, w in g.edges())
        g2 = generate_random_graph(200, avg_out_degree=5.0, seed=8, positive_fraction=0.0)
        assert all(w < 0 for _, _, w in g2.edges())

    @pytest.mark.parametrize("degree", [-1.0, -1e-9, float("inf"), float("nan")])
    def test_random_graph_rejects_a_negative_or_non_finite_degree(self, degree):
        # a ValueError that names the argument, not an edgeless graph or an OverflowError
        with pytest.raises(ValueError, match="avg_out_degree"):
            generate_random_graph(5, degree)

    def test_stabilised_star_shape(self):
        g, centre, influencers, stabilisers = stabilised_star(2, 5)
        assert g.indeg(centre) == 7
        assert all(g.weight(v, centre) == 1.0 for v in influencers + stabilisers)

    def test_gadget_invalid_params(self):
        with pytest.raises(ValueError):
            generate_complete_positive(0)
        with pytest.raises(ValueError):
            generate_random_graph(5, positive_fraction=1.5)
