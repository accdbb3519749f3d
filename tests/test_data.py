import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

from truncmix.core import DataError
from truncmix.data import (
    Dataset,
    UNLABELED,
    _lgamma1p,
    generate_mixture,
    load_csv,
    load_idx,
    normalize_input,
    preprocess,
    subsample_labels,
    write_idx_images,
    write_idx_labels,
)
from truncmix.inference import _ROW_BLOCK

from conftest import write_csv


def write_golden_idx(tmp_path, pixels, labels, rows, cols):
    """The test's own IDX writer: raw struct packing, independent of the
    package's writer."""
    img = tmp_path / "images"
    lab = tmp_path / "labels"
    with open(img, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, len(pixels), rows, cols))
        for p in pixels:
            f.write(bytes(p))
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(bytes(labels))
    return img, lab


class TestIdxLoading:
    def test_golden_file_recovers_exact_pixels(self, tmp_path):
        pixels = [[0, 255, 7, 42], [1, 2, 3, 4]]
        img, lab = write_golden_idx(tmp_path, pixels, [9, 0], rows=2, cols=2)
        raw = load_idx(img, lab)
        np.testing.assert_array_equal(raw.X, pixels)
        np.testing.assert_array_equal(raw.labels, [9, 0])
        assert raw.X.shape == (2, 4)

    def test_wrong_magic(self, tmp_path):
        img, lab = write_golden_idx(tmp_path, [[1]], [0], rows=1, cols=1)
        data = bytearray(img.read_bytes())
        data[3] = 0x99
        bad = tmp_path / "bad"
        bad.write_bytes(bytes(data))
        with pytest.raises(DataError, match="bad magic"):
            load_idx(bad, lab)
        with pytest.raises(DataError, match="bad magic"):
            load_idx(img, bad)

    def test_truncated_file(self, tmp_path):
        img, lab = write_golden_idx(tmp_path, [[1, 2, 3, 4]], [0], rows=2, cols=2)
        short_img, short_lab = tmp_path / "short_img", tmp_path / "short_lab"
        short_img.write_bytes(img.read_bytes()[:-2])
        with pytest.raises(DataError, match="truncated"):
            load_idx(short_img, lab)
        short_lab.write_bytes(lab.read_bytes()[:4])
        with pytest.raises(DataError, match="truncated"):
            load_idx(img, short_lab)
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        for pair in ((empty, lab), (img, empty)):
            with pytest.raises(DataError, match="truncated"):
                load_idx(*pair)

    def test_swapped_paths_report_bad_magic(self, tmp_path):
        # The 9-byte label file is shorter than an image header: the magic
        # must be compared before the header length is required.
        img, lab = write_golden_idx(tmp_path, [[1]], [0], rows=1, cols=1)
        with pytest.raises(DataError, match=r"bad magic 0x00000801 .* expected 0x00000803"):
            load_idx(lab, img)

    def test_count_mismatch(self, tmp_path):
        # load_idx returns the pair as read; preprocess checks the counts.
        img, _ = write_golden_idx(tmp_path, [[1], [2]], [0, 1], rows=1, cols=1)
        lab_dir = tmp_path / "other"
        lab_dir.mkdir()
        _, lab3 = write_golden_idx(lab_dir, [[1]], [0, 1, 2], rows=1, cols=1)
        with pytest.raises(DataError, match=r"^labels must align with Y rows: 2 rows, "
                                            r"labels of shape \(3,\)$"):
            preprocess(load_idx(img, lab3), 10.0, K=3)

    def test_round_trip_through_package_writer(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 256, size=(13, 20))
        labels = rng.integers(0, 7, size=13)
        write_idx_images(tmp_path / "i", X, 4, 5)
        write_idx_labels(tmp_path / "l", labels)
        raw = load_idx(tmp_path / "i", tmp_path / "l")
        np.testing.assert_array_equal(raw.X, X)
        np.testing.assert_array_equal(raw.labels, labels)

    def test_image_writer_rejects_wrong_row_width(self, tmp_path):
        with pytest.raises(DataError, match=r"^images must be \(N, rows\*cols\)$"):
            write_idx_images(tmp_path / "i", np.zeros((2, 6)), 2, 2)
        assert not (tmp_path / "i").exists()

    def test_writer_rejects_out_of_range(self, tmp_path):
        with pytest.raises(DataError, match="0, 255"):
            write_idx_images(tmp_path / "i", np.array([[300]]), 1, 1)
        with pytest.raises(DataError, match="0, 255"):
            write_idx_labels(tmp_path / "l", np.array([3, -1]))
        assert not (tmp_path / "i").exists() and not (tmp_path / "l").exists()


class TestCsv:
    def test_round_trip_with_unlabeled(self, tmp_path):
        X = np.array([[0.0, 2.5, 3.0], [9.0, 1.0, 0.5]])
        labels = np.array([1, -1])
        write_csv(tmp_path / "d.csv", X, labels)
        raw = load_csv(tmp_path / "d.csv")
        np.testing.assert_allclose(raw.X, X, rtol=1e-15)
        np.testing.assert_array_equal(raw.labels, labels)

    def test_header_checked(self, tmp_path):
        (tmp_path / "bad.csv").write_text("label,x0,x1\n0,1.0,2.0\n")
        with pytest.raises(DataError, match="header"):
            load_csv(tmp_path / "bad.csv")

    @pytest.mark.parametrize("body", ["", "\n \n# no rows\n"], ids=["header-only", "blank"])
    def test_no_rows_rejected_without_warning(self, tmp_path, body):
        (tmp_path / "e.csv").write_text("label,p0,p1\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="empty CSV"):
                load_csv(tmp_path / "e.csv")

    def test_non_integer_label_rejected(self, tmp_path):
        # load_csv returns the labels as read; preprocess checks them.
        (tmp_path / "bad.csv").write_text("label,p0,p1\n0,1.0,2.0\n1.7,3.0,4.0\n2,1.0,1.0\n")
        raw = load_csv(tmp_path / "bad.csv")
        with pytest.raises(DataError, match="^label 1.7 at index 1 is not an int64 integer$"):
            preprocess(raw, 10.0, K=3)

    def test_label_beyond_int64_rejected_without_warning(self, tmp_path):
        (tmp_path / "big.csv").write_text("label,p0,p1\n0,1.0,2.0\n1e300,3.0,4.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw = load_csv(tmp_path / "big.csv")
            with pytest.raises(DataError, match=r"^label 1e\+300 at index 1 is not an int64 integer$"):
                preprocess(raw, 10.0, K=2)


class TestNormalizeInput:
    def test_uniform_raw_gives_constant_output(self):
        y = normalize_input(np.full((1, 784), 37.0), 900.0)
        np.testing.assert_allclose(y, 900.0 / 784, rtol=1e-14)
        np.testing.assert_allclose(y.sum(), 900.0, rtol=1e-12)

    def test_one_hot_raw(self):
        raw = np.zeros(784)
        raw[0] = 5.0
        y = normalize_input(raw[None], 900.0)[0]
        assert y[0] == pytest.approx(900.0 - 784.0 + 1.0, rel=1e-15)
        assert np.all(y[1:] == 1.0)

    def test_hand_evaluated_example(self):
        np.testing.assert_allclose(normalize_input([[2.0, 6.0]], 10.0)[0], [3.0, 7.0], rtol=1e-15)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_bit_identical_to_formula_and_input_untouched(self, dtype):
        raw = np.random.default_rng(16).integers(0, 256, size=(50, 784)).astype(dtype)
        before = raw.copy()
        y = normalize_input(raw, 900.0)
        x = raw.astype(np.float64)
        expected = (900.0 - 784) * x / x.sum(axis=-1, keepdims=True) + 1.0
        assert y.dtype == np.float64
        np.testing.assert_array_equal(y, expected)
        np.testing.assert_array_equal(raw, before)

    def test_uint8_peak_stays_below_one_and_a_half_outputs(self):
        # One float64 copy of raw is the output; the checks add boolean
        # arrays at one byte per entry.  Three float64 temporaries would not fit.
        raw = np.random.default_rng(17).integers(0, 256, size=(2000, 784)).astype(np.uint8)
        tracemalloc.start()
        try:
            y = normalize_input(raw, 900.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * y.nbytes

    def test_zero_mass_rejected(self):
        with pytest.raises(DataError, match="zero total mass"):
            normalize_input(np.zeros((1, 5)), 10.0)

    def test_batch_zero_row_names_index(self):
        raw = np.ones((4, 5))
        raw[2] = 0.0
        with pytest.raises(DataError, match="index 2"):
            normalize_input(raw, 10.0)

    def test_negative_rejected(self):
        with pytest.raises(DataError, match="negative"):
            normalize_input([[1.0, -0.5]], 10.0)

    @pytest.mark.parametrize("bad,message", [
        (np.nan, "non-finite components at index 1"),
        (-0.5, "negative components at index 1"),
    ])
    def test_batch_bad_row_names_first_index(self, bad, message):
        raw = np.ones((4, 5))
        raw[1, 4] = raw[3, 0] = bad
        with pytest.raises(DataError, match=message):
            normalize_input(raw, 10.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            normalize_input([[1.0, bad, 2.0]], 10.0)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4), ()], ids=["1-D", "3-D", "0-D"])
    def test_shape_that_is_not_n_by_d_rejected(self, shape):
        message = re.escape(f"raw input must be an (N, D) array, got shape {shape}")
        with pytest.raises(DataError, match=f"^{message}$"):
            normalize_input(np.ones(shape), 10.0)

    def test_mass_not_above_dimension_rejected(self):
        with pytest.raises(DataError, match="A must exceed D"):
            normalize_input(np.ones((1, 5)), 5.0)

    def test_output_invariants_random(self):
        rng = np.random.default_rng(11)
        raw = rng.uniform(0.0, 50.0, size=(200, 17))
        raw[:, 0] += 1e-9  # keep total mass positive
        y = normalize_input(raw, 40.0)
        np.testing.assert_allclose(y.sum(axis=1), 40.0, rtol=1e-9)
        assert np.all(y >= 1.0)

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(12)
        raw = rng.uniform(0.1, 9.0, size=(20, 8))
        np.testing.assert_allclose(
            normalize_input(raw, 20.0), normalize_input(635.2 * raw, 20.0), rtol=1e-12
        )


class TestPreprocess:
    def test_outputs_sum_to_mass(self):
        rng = np.random.default_rng(1)
        raw, _ = generate_mixture(4, 12, 100, seed=1)
        ds = preprocess(raw, 900.0, K=4)
        np.testing.assert_allclose(ds.Y.sum(axis=1), 900.0, rtol=1e-9)
        assert np.all(ds.Y >= 1.0)

    def test_constant_image_becomes_uniform(self):
        from truncmix.data import RawDataset
        raw = RawDataset(np.full((1, 10), 8.0), np.array([0]))
        ds = preprocess(raw, 25.0, K=1)
        np.testing.assert_allclose(ds.Y[0], 2.5, rtol=1e-14)

    def test_zero_image_names_index(self):
        from truncmix.data import RawDataset
        X = np.ones((5, 4))
        X[3] = 0.0
        with pytest.raises(DataError, match="index 3"):
            preprocess(RawDataset(X, np.zeros(5, dtype=int)), 10.0, K=1)

    @pytest.mark.parametrize("row", ["1,1e308,1e308,1,1", "1,1e307,1,1,1"],
                             ids=["row-sum", "scaled-entry"])
    def test_overflowing_row_names_index_without_warning(self, tmp_path, row):
        # 1e308 + 1e308 overflows the row sum; 1e307 * (A - D) overflows
        # although the row sum is finite.
        (tmp_path / "d.csv").write_text(f"label,p0,p1,p2,p3\n0,1,2,3,4\n{row}\n2,5,5,5,5\n")
        raw = load_csv(tmp_path / "d.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^raw input too large to scale to mass A at index 1$"):
                preprocess(raw, 900.0, K=3)

    def test_row_whose_scaled_sum_overflows_is_normalized(self):
        # total * (A - D) = 2.4e308 overflows, but no entry scales past
        # float64, so the row is valid.
        from truncmix.data import RawDataset
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = preprocess(RawDataset(np.full((2, 4), 1e307), np.zeros(2, dtype=int)), 10.0, K=1)
        np.testing.assert_array_equal(ds.Y, 2.5)

    def test_class_count_given(self):
        from truncmix.data import RawDataset
        raw = RawDataset(np.ones((4, 3)), np.array([0, 2, -1, 1]))
        assert preprocess(raw, 9.0, K=5).K == 5
        with pytest.raises(DataError):
            preprocess(raw, 9.0, K=2)  # label 2 out of range

    @pytest.mark.parametrize("X,labels,message", [
        (np.ones(4), np.zeros(4, dtype=int),
         r"^raw input must be an \(N, D\) array, got shape \(4,\)$"),
        (np.ones((3, 4)), np.zeros(2, dtype=int),
         r"^labels must align with Y rows: 3 rows, labels of shape \(2,\)$"),
    ], ids=["1-D-X", "misaligned-labels"])
    def test_preprocess_rejects_bad_shapes(self, X, labels, message):
        # A RawDataset is the loaders' record as read; preprocess checks it.
        from truncmix.data import RawDataset
        with pytest.raises(DataError, match=message):
            preprocess(RawDataset(X, labels), 10.0, K=1)

    @pytest.mark.parametrize("Y,labels,K,message", [
        (np.full(4, 2.5), np.zeros(4, dtype=int), 1, r"^Y must be an \(N, D\) matrix$"),
        (np.full((3, 4), 2.5), np.zeros(2, dtype=int), 1,
         r"^labels must align with Y rows: 3 rows, labels of shape \(2,\)$"),
        (np.full((3, 4), 2.5), np.full(3, -1), 0, "^K must be positive$"),
    ], ids=["1-D-Y", "misaligned-labels", "K=0"])
    def test_dataset_rejects_bad_shapes_and_class_count(self, Y, labels, K, message):
        with pytest.raises(DataError, match=message):
            Dataset(Y, labels, K, 10.0)

    @pytest.mark.parametrize("labels,message", [
        ([0.5, 1.9, -0.5], "^label 0.5 at index 0 is not an int64 integer$"),
        ([1.0, 2.0, -0.5], r"^label -0.5 at index 2 is not an int64 integer$"),
        ([0.0, np.nan, 1.0], "^label nan at index 1 is not an int64 integer$"),
        ([0.0, 1e300, 1.0], r"^label 1e\+300 at index 1 is not an int64 integer$"),
    ], ids=["fractions", "negative-fraction", "nan", "beyond-int64"])
    def test_datasets_reject_non_integer_labels(self, labels, message):
        from truncmix.data import RawDataset
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (lambda: preprocess(RawDataset(np.ones((3, 4)), labels), 10.0, 3),
                          lambda: Dataset(np.full((3, 4), 2.5), labels, 3, 10.0)):
                with pytest.raises(DataError, match=message):
                    build()

    @pytest.mark.parametrize("labels", [[0.0, 2.0, -1.0], [True, False, True],
                                        np.array([0, 2, 1], dtype=np.uint8)],
                             ids=["integer-floats", "bools", "uint8"])
    def test_datasets_keep_integer_valued_labels(self, labels):
        from truncmix.data import RawDataset
        want = np.asarray(labels).astype(np.int64)
        for ds in (preprocess(RawDataset(np.ones((3, 4)), labels), 10.0, 3),
                   Dataset(np.full((3, 4), 2.5), labels, 3, 10.0)):
            assert ds.labels.dtype == np.int64
            np.testing.assert_array_equal(ds.labels, want)

    def test_lgamma_cache_matches_direct(self):
        # 2 * _ROW_BLOCK + 1 rows: the last block holds one row.  Bit for bit.
        raw, _ = generate_mixture(3, 150, 2 * _ROW_BLOCK + 1, seed=2)
        ds = preprocess(raw, 600.0, K=3)
        assert np.array_equal(ds.lgamma_sums, _lgamma1p(ds.Y).sum(axis=1))

    def test_lgamma_entries_match_scipy(self):
        rng = np.random.default_rng(11)
        y = np.concatenate([rng.uniform(1.0, 20.0, 200_000),
                            np.exp(rng.uniform(0.0, np.log(1e6), 200_000)), [1.0, 9.0, 1e6]])
        ref = gammaln(y + 1.0)
        assert np.all(np.abs(_lgamma1p(y) - ref) <= 2e-14 * np.maximum(1.0, np.abs(ref)))

    def test_lgamma_is_inf_where_scipy_is(self):
        # gammaln(y + 1) overflows between y = 2.55e305 and 2.56e305.
        y = np.array([1e30, 1e300, 2.55e305, 2.56e305, 2.57e305, 1e306, 1.7e308])
        ref = gammaln(y + 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _lgamma1p(y)
        assert np.array_equal(np.isinf(got), np.isinf(ref)) and np.isinf(ref).sum() == 4
        finite = np.isfinite(ref)
        assert np.allclose(got[finite], ref[finite], rtol=2e-14, atol=0.0)

    def test_lgamma_row_sums_match_scipy(self):
        raw, _ = generate_mixture(4, 200, 700, seed=6)
        ds = preprocess(raw, 900.0, K=4)
        ref = gammaln(ds.Y + 1.0).sum(axis=1)
        assert np.allclose(ds.lgamma_sums, ref, rtol=1e-13, atol=0.0)

    def test_lgamma_peak_is_output_plus_two_blocks(self):
        raw, _ = generate_mixture(3, 64, 4000, seed=4)
        ds = preprocess(raw, 256.0, K=3)
        tracemalloc.start()
        try:
            out = ds.lgamma_sums
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 2 * _ROW_BLOCK * ds.D * 8

    def test_peak_is_the_float64_copy(self):
        # The load checks test finiteness, sign and >= 1 by min and max; the
        # (N, D) boolean masks they built took the peak to 1.125 copies.
        from truncmix.data import RawDataset
        rng = np.random.default_rng(5)
        raw = RawDataset(rng.integers(0, 256, size=(6000, 784), dtype=np.uint8),
                         np.zeros(6000, dtype=int))
        tracemalloc.start()
        try:
            preprocess(raw, 900.0, K=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * raw.X.size * 8

    def test_label_fault_is_found_before_the_float64_copy(self, tmp_path):
        # An IDX pair of the bench train shape with its last label dropped:
        # the label rules run before normalize_input copies the images.
        rng = np.random.default_rng(7)
        write_idx_images(tmp_path / "img", rng.integers(0, 256, size=(6000, 784)), 28, 28)
        write_idx_labels(tmp_path / "lab", rng.integers(0, 10, size=5999))
        raw = load_idx(tmp_path / "img", tmp_path / "lab")
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=r"^labels must align with Y rows: 6000 rows, "
                                                r"labels of shape \(5999,\)$"):
                preprocess(raw, 900.0, K=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < raw.X.nbytes

    def test_examples_view(self):
        raw, _ = generate_mixture(3, 6, 10, seed=3)
        ds = preprocess(raw, 24.0, K=3)
        assert ds.N == 10


class TestSubsampleLabels:
    def make_ds(self, n_per_class=20, K=4, D=6, seed=0):
        rng = np.random.default_rng(seed)
        N = n_per_class * K
        Y = np.ones((N, D)) + rng.dirichlet(np.ones(D), size=N) * (30.0 - D)
        labels = np.repeat(np.arange(K), n_per_class)
        return Dataset(Y, labels, K, 30.0)

    def test_exact_count_per_class(self):
        ds = subsample_labels(self.make_ds(), 5, seed=1)
        for k in range(4):
            assert np.sum(ds.labels == k) == 5
        assert ds.n_labeled == 20

    def test_deterministic_per_seed(self):
        base = self.make_ds()
        a = subsample_labels(base, 3, seed=9)
        b = subsample_labels(base, 3, seed=9)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = subsample_labels(base, 3, seed=10)
        assert not np.array_equal(a.labels, c.labels)

    def test_contents_and_order_untouched(self):
        base = self.make_ds()
        sub = subsample_labels(base, 2, seed=0)
        assert sub.Y is base.Y
        kept = sub.labels != UNLABELED
        np.testing.assert_array_equal(sub.labels[kept], base.labels[kept])

    def test_shares_checked_rows_without_rechecking(self, monkeypatch):
        # preprocess checked Y already, and every new label is -1 or below K.
        import truncmix.data as data
        base = self.make_ds()
        before = base.labels.copy()
        calls, row_blocks = [], data._row_blocks

        def counted(kernel, n):
            calls.append(n)
            return row_blocks(kernel, n)

        monkeypatch.setattr(data, "_row_blocks", counted)
        sub = subsample_labels(base, 3, seed=4)
        assert calls == []
        assert sub.Y is base.Y
        np.testing.assert_array_equal(base.labels, before)
        assert sub.labels is not base.labels and sub.n_labeled == 12

    def test_full_supervision_boundary(self):
        base = self.make_ds(n_per_class=7)
        sub = subsample_labels(base, 7, seed=0)
        np.testing.assert_array_equal(sub.labels, base.labels)

    def test_insufficient_examples(self):
        with pytest.raises(DataError, match="class 0 has only 20"):
            subsample_labels(self.make_ds(), 21, seed=0)


class TestGenerateMixture:
    def test_shapes_and_determinism(self):
        raw, W = generate_mixture(5, 15, 200, seed=4)
        assert raw.X.shape == (200, 15) and W.shape == (5, 15)
        assert np.all(raw.labels >= 0) and np.all(raw.labels < 5)
        assert np.all(raw.X.sum(axis=1) > 0)
        raw2, W2 = generate_mixture(5, 15, 200, seed=4)
        np.testing.assert_array_equal(raw.X, raw2.X)
        np.testing.assert_array_equal(W, W2)

    def test_rows_well_separated(self):
        _, W = generate_mixture(8, 16, 10, seed=5)
        np.testing.assert_allclose(W.sum(axis=1), 8.0 * 16, rtol=1e-12)
        # Each row's own block carries far more mass than it does in other rows.
        for c in range(8):
            block = slice(2 * c, 2 * c + 2)
            others = np.delete(np.arange(8), c)
            assert W[c, block].sum() > 3.0 * W[others, block].sum(axis=1).max()

    def test_bad_arguments(self):
        with pytest.raises(DataError):
            generate_mixture(10, 4, 10, seed=0)
        with pytest.raises(DataError, match="n=-5"):
            generate_mixture(2, 4, -5, seed=0)
        with pytest.raises(DataError, match="seed=-1"):
            generate_mixture(2, 4, 10, seed=-1)
