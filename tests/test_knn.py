import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rusent import sparse
from rusent.classifiers import DISTANCES, knn, train_knn
from rusent.classifiers.knn import _distances
from rusent.errors import ModelError
from rusent.rng import SplitMix64

from conftest import dense_csr, make_matrix, predicted


def brute_force_predict(rows, labels, class_values, x, k, metric, p):
    """Reference: each training row's distance computed by numpy on that row
    alone (minkowski as the sum of the p-th powers, which the model ranks
    by), then a stable sort and a majority vote in Python."""
    x = np.asarray(x, dtype=np.float64)
    scored = []
    with np.errstate(over="ignore"):
        for i, row in enumerate(rows):
            diff = np.abs(np.asarray(row, dtype=np.float64) - x)
            if metric == "euclidean":
                d = float(np.sqrt((diff * diff).sum()))
            elif metric == "manhattan":
                d = float(diff.sum())
            else:
                d = float((diff**p).sum())
            scored.append((d, i))
    scored.sort()  # ties fall back to the index, i.e. lowest training index
    votes = [0] * len(class_values)
    for _, i in scored[:k]:
        votes[class_values.index(labels[i])] += 1
    return class_values[votes.index(max(votes))]


class TestExamples:
    def test_k1_returns_nearest_label(self):
        m = make_matrix([[0.0, 0.0], [10.0, 10.0]], ["neg", "pos"], ("neg", "pos"))
        model = train_knn(m, k=1)
        assert predicted(model, [[1.0, 1.0], [9.0, 9.0]]) == ["neg", "pos"]

    def test_k3_majority(self):
        m = make_matrix([[0.0], [1.0], [2.0], [10.0]],
                        ["neg", "neg", "pos", "pos"], ("neg", "pos"))
        model = train_knn(m, k=3)
        assert predicted(model, [[0.5]]) == ["neg"]

    def test_distance_tie_prefers_lowest_training_index(self):
        m = make_matrix([[1.0], [-1.0]], ["pos", "neg"], ("neg", "pos"))
        model = train_knn(m, k=1)
        assert predicted(model, [[0.0]]) == ["pos"]

    def test_vote_tie_prefers_lowest_class_index(self):
        m = make_matrix([[0.0], [2.0]], ["pos", "neg"], ("neg", "pos"))
        model = train_knn(m, k=2)
        assert predicted(model, [[1.0]]) == ["neg"]

    def test_manhattan_differs_from_euclidean(self):
        # (3,3) is euclidean-closer to origin-ish query than (4.5,0),
        # but manhattan-farther
        m = make_matrix([[3.0, 3.0], [4.5, 0.0]], ["pos", "neg"], ("neg", "pos"))
        assert predicted(train_knn(m, k=1, distance="euclidean"), [[0.0, 0.0]]) == ["pos"]
        assert predicted(train_knn(m, k=1, distance="manhattan"), [[0.0, 0.0]]) == ["neg"]

    def test_minkowski_p2_matches_euclidean(self):
        rng = SplitMix64(7)
        rows = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(20)]
        labels = ["pos" if i % 2 else "neg" for i in range(20)]
        m = make_matrix(rows, labels, ("neg", "pos"))
        a = train_knn(m, k=3, distance="euclidean")
        b = train_knn(m, k=3, distance="minkowski", p=2.0)
        for _ in range(30):
            q = [[rng.uniform(-1, 1) for _ in range(4)]]
            assert predicted(a, q) == predicted(b, q)

    def test_scores_are_vote_fractions(self):
        m = make_matrix([[0.0], [1.0], [2.0]], ["neg", "neg", "pos"], ("neg", "pos"))
        model = train_knn(m, k=3)
        assert model.scores(dense_csr([[0.0]]))[0] == pytest.approx([2 / 3, 1 / 3])


class TestValidation:
    def test_k_exceeding_n_rejected(self):
        m = make_matrix([[0.0], [1.0]], ["neg", "pos"], ("neg", "pos"))
        with pytest.raises(ModelError):
            train_knn(m, k=3)

    def test_zero_k_rejected(self):
        m = make_matrix([[0.0]], ["neg"], ("neg", "pos"))
        with pytest.raises(ModelError):
            train_knn(m, k=0)

    def test_unknown_distance_rejected(self):
        m = make_matrix([[0.0]], ["neg"], ("neg", "pos"))
        with pytest.raises(ModelError):
            train_knn(m, distance="cosine")

    def test_a_small_minkowski_p_ranks_without_overflow(self):
        # every sum of three powers |diff|^0.001 is about 3, whose root
        # (its 1000th power) overflows to inf for every training row
        rows = [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0],
                [0.0, 0.0, 10.0], [10.0, 10.0, 0.0], [0.0, 10.0, 10.0]]
        labels = ["neg", "pos", "neg", "pos", "pos", "neg"]
        model = train_knn(make_matrix(rows, labels, ("neg", "pos")), distance="minkowski", p=0.001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert predicted(model, np.array(rows) + 0.1) == labels

    def test_training_keeps_the_matrix_rows_without_a_copy(self):
        # the model holds the matrix's CSR arrays, which are read-only
        X = np.array([[0.0, 1.0], [2.0, 0.0]])
        m = make_matrix(X, ["neg", "pos"], ("neg", "pos"))
        csr = train_knn(m).rows
        for name in ("indptr", "indices", "data"):
            assert np.shares_memory(getattr(csr, name), getattr(m, name))
        with pytest.raises(ValueError):
            m.data[0] = 5.0
        X[0, 0] = 5.0  # the caller's array stays writable, and is not kept
        assert m.rows.tolist() == [[0.0, 1.0], [2.0, 0.0]]

    def test_nonpositive_minkowski_p_rejected(self):
        m = make_matrix([[0.0]], ["neg"], ("neg", "pos"))
        with pytest.raises(ModelError):
            train_knn(m, distance="minkowski", p=0.0)

    @pytest.mark.parametrize("distance", ["euclidean", "manhattan", "minkowski"])
    @pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_p_rejected_for_every_distance(self, distance, p):
        # p is written to the model file whatever the distance
        m = make_matrix([[0.0]], ["neg"], ("neg", "pos"))
        with pytest.raises(ModelError, match="exponent p"):
            train_knn(m, distance=distance, p=p)


class TestAgainstBruteForce:
    def test_random_instances_match_oracle(self):
        rng = SplitMix64(42)
        class_values = ("neg", "pos")
        rows = [[rng.uniform(-5, 5) for _ in range(6)] for _ in range(60)]
        labels = [class_values[rng.next_below(2)] for _ in range(60)]
        m = make_matrix(rows, labels, class_values)
        for metric, p in (("euclidean", 3.0), ("manhattan", 3.0), ("minkowski", 3.0)):
            for k in (1, 3, 5):
                model = train_knn(m, k=k, distance=metric, p=p)
                for _ in range(25):
                    q = [rng.uniform(-5, 5) for _ in range(6)]
                    expected = brute_force_predict(
                        rows, labels, class_values, q, k, metric, p
                    )
                    for got in on_both_paths(lambda: predicted(model, [q])):
                        assert got == [expected]


CLASSES3 = ("neg", "neu", "pos")
DYADIC_IDF = (0.5, 0.75, 1.0, 1.25)


@st.composite
def knn_problems(draw):
    """(rows, labels, queries): rows of up to 40 columns, most cells zero
    and the others counts times weights that are all 1.0, dyadic, or
    inexact and tf-idf-like; duplicated rows, and with the exact weights
    distinct rows at equal distances (such as [1, 0] and [0, 1] from the
    zero query), which force exact distance ties; queries that repeat a
    training row, and an all-zero query; and a scale of 1 or 2**510
    (about 3e153, where sums of squares overflow)."""
    width = draw(st.integers(1, 40))
    idf = draw(st.one_of(
        st.just([1.0] * width),
        st.lists(st.sampled_from(DYADIC_IDF), min_size=width, max_size=width),
        st.lists(st.floats(0.1, 4.0), min_size=width, max_size=width),
    ))
    counts = st.lists(st.sampled_from([0, 0, 0, 1, 2, 3]), min_size=width, max_size=width)
    rows = draw(st.lists(counts, min_size=5, max_size=14))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1),
                                            min_size=1, max_size=4))]
    scale = draw(st.sampled_from([1.0, 2.0**510]))
    labels = draw(st.lists(st.sampled_from(CLASSES3), min_size=len(rows), max_size=len(rows)))
    queries = draw(st.lists(counts, min_size=1, max_size=6))
    queries += [rows[draw(st.integers(0, len(rows) - 1))], [0] * width]

    def weigh(r):
        return [c * w * scale for c, w in zip(r, idf)]

    return [weigh(r) for r in rows], labels, [weigh(q) for q in queries]


def exhaustive_neighbours(model, queries):
    """Each query's k nearest training indices by the full euclidean scan."""
    return [
        np.argsort(_distances(model.rows.dense(), x, "euclidean", 3.0),
                   kind="stable")[: model.k].tolist()
        for x in queries
    ]


def screened_neighbours(model, queries):
    return [nearest.tolist() for nearest in model._neighbours(dense_csr(queries))]


def on_both_paths(f):
    """f() with the default blocks, then with blocks of one row: one test
    row per screen block and one training row per scan block, so that a
    scan spans many blocks, and (DENSE_BUDGET 0) one training row per
    block of row_sums, the screen's product."""
    dense = f()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "DENSE_BUDGET", 0)
        mp.setattr(knn, "_BLOCK_ENTRIES", 1)
        return dense, f()


class TestBatchPrediction:
    @given(knn_problems(), st.sampled_from(DISTANCES), st.sampled_from([1, 3, 5]))
    @settings(max_examples=300, deadline=None)
    def test_predict_indices_matches_brute_force(self, problem, metric, k):
        # the trained model holds the matrix's CSR rows, the reloaded one
        # those its loader builds
        from rusent.classifiers.base import loads_model

        rows, labels, queries = problem
        model = train_knn(make_matrix(rows, labels, CLASSES3), k=k, distance=metric, p=3.0)
        expected = [brute_force_predict(rows, labels, CLASSES3, q, k, metric, 3.0)
                    for q in queries]
        for m in (model, loads_model(model.dumps())):
            for got in on_both_paths(lambda: m.predict_indices(dense_csr(queries))):
                assert [CLASSES3[i] for i in got] == expected

    @pytest.mark.parametrize("scale", [1.0, 1e-160, 1e154])
    @pytest.mark.parametrize("seed", range(6))
    def test_screened_neighbours_equal_the_exhaustive_scan(self, seed, scale):
        # tf-idf rows over real log weights, so the screen's approximate
        # distances are inexact; duplicates and zero rows force exact ties;
        # 1e-160 makes products underflow and 1e154 makes squares overflow
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, 60))
        n = int(rng.integers(10, 120))
        idf = np.log(n / rng.integers(1, n, size=width))
        counts = rng.integers(0, 3, size=(n, width)) * (rng.random((n, width)) < 0.2)
        rows = counts * idf * scale
        rows[rng.integers(0, n, size=n // 4)] = rows[rng.integers(0, n, size=n // 4)]
        queries = np.vstack([
            rows[rng.integers(0, n, size=40)],
            rng.integers(0, 3, size=(100, width)) * (rng.random((100, width)) < 0.2) * idf * scale,
            np.zeros((1, width)),
        ])
        labels = [CLASSES3[i] for i in rng.integers(0, 3, size=n)]
        for k in (1, 3, 5):
            model = train_knn(make_matrix(rows, labels, CLASSES3), k=k)
            expected = exhaustive_neighbours(model, queries)
            for got in on_both_paths(lambda: screened_neighbours(model, queries)):
                assert got == expected

    @pytest.mark.parametrize("width", [4, 6, 9])
    def test_screen_keeps_ties_that_rounding_splits(self, width):
        # every permutation of the same values is at the same exact distance
        # from a constant query, but each sums its squares in another order,
        # so the computed distances differ in the last bits; only a screen
        # whose error bound holds keeps the order the exhaustive scan finds
        rng = np.random.default_rng(width)
        values = list(rng.random(4) * 10.0) + [0.0] * (width - 4)
        rows = np.array(sorted(set(itertools.permutations(values)))[:400])
        queries = np.array([np.full(width, c) for c in rng.random(70) * 10.0])
        labels = [CLASSES3[i % 3] for i in range(len(rows))]
        for k in (1, 3, 5):
            model = train_knn(make_matrix(rows, labels, CLASSES3), k=k)
            expected = exhaustive_neighbours(model, queries)
            for got in on_both_paths(lambda: screened_neighbours(model, queries)):
                assert got == expected

    @pytest.mark.parametrize("metric", DISTANCES)
    def test_distances_of_a_subset_are_bitwise_those_of_the_full_scan(self, metric):
        # the screen re-runs _distances on candidate rows only, which is
        # exact only if a row's distance does not depend on its neighbours
        rng = np.random.default_rng(3)
        for width in (1, 3, 7, 8, 9, 31, 130, 1890):
            rows = rng.random((70, width)) * rng.choice([1e-3, 1.0, 1e3], size=(70, width))
            x = rng.random(width)
            full = _distances(rows, x, metric, 3.0)
            for subset in ([5], [0, 69], list(range(0, 70, 3))):
                assert _distances(rows[subset], x, metric, 3.0).tolist() == full[subset].tolist()

    @pytest.mark.parametrize("distance", ["euclidean", "manhattan"])
    def test_training_rows_are_read_a_block_at_a_time(self, monkeypatch, distance):
        # rows that fit DENSE_BUDGET but span two blocks of _BLOCK_ENTRIES
        # values are read a block at a time all the same
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 3, size=(40, 700)) * (rng.random((40, 700)) < 0.1)
        model = train_knn(make_matrix(rows, [CLASSES3[i % 3] for i in range(40)], CLASSES3),
                          k=3, distance=distance)
        assert 40 * 700 <= sparse.DENSE_BUDGET and 40 > knn._BLOCK_ENTRIES // 700
        sizes, dense = [], sparse.Csr.dense

        def counted(csr, rows=None):
            if csr is model.rows:
                sizes.append(csr.n_rows if rows is None else len(rows))
            return dense(csr, rows)

        monkeypatch.setattr(sparse.Csr, "dense", counted)
        model.predict_indices(dense_csr(rows[:9]))
        assert sizes and max(sizes) <= knn._BLOCK_ENTRIES // 700, sizes

    def test_predict_indices_rejects_a_bad_shape(self):
        model = train_knn(make_matrix([[0.0, 1.0], [1.0, 0.0]], ["neg", "pos"]), k=1)
        for bad in (np.zeros((1, 2)), dense_csr(np.zeros((3, 3))), dense_csr(np.zeros((1, 1)))):
            with pytest.raises(ModelError):
                model.predict_indices(bad)
        assert model.predict_indices(dense_csr(np.zeros((0, 2)))).tolist() == []


def test_model_file_with_k_below_one_is_rejected():
    from rusent.classifiers.base import loads_model

    m = make_matrix([[0.0], [1.0]], ["neg", "pos"], ("neg", "pos"))
    text = train_knn(m, k=1).dumps()
    with pytest.raises(ModelError):
        loads_model(text.replace("\nk 1\n", "\nk 0\n"))


def test_loading_holds_about_one_copy_of_the_rows(tmp_path):
    # sparse rows: the text is split without first copying it whole, and
    # the loader's peak stays below twice the rows' dense bytes (stacking a
    # list of row arrays and copying the text take it past 2.5 times);
    # dense rows, read from a file a line at a time: the cells go into
    # typed buffers, so the peak stays below 1.5 times the CSR arrays'
    # bytes (lists of Python ints and floats take it past 3.5 times)
    import tracemalloc

    from rusent.classifiers.base import load_model, loads_model

    rng = np.random.default_rng(5)
    labels = ["pos" if i % 3 else "neg" for i in range(300)]

    def peak_of(load, source):
        tracemalloc.start()
        try:
            model = load(source)
            return model, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rows = np.where(rng.random((300, 400)) < 0.01, rng.integers(1, 9, (300, 400)), 0.0)
    model, peak = peak_of(loads_model, train_knn(make_matrix(rows, labels), k=3).dumps())
    assert model.rows.dense().tobytes() == rows.tobytes()
    assert peak < 2 * rows.nbytes, (peak, rows.nbytes)

    rows = rng.standard_normal((300, 400))
    train_knn(make_matrix(rows, labels), k=3).save(tmp_path / "knn.model")
    model, peak = peak_of(load_model, tmp_path / "knn.model")
    csr = model.rows
    held = csr.indptr.nbytes + csr.indices.nbytes + csr.data.nbytes
    assert csr.dense().tobytes() == rows.tobytes()
    assert peak < 1.5 * held, (peak, held)
