import struct

import numpy as np
import pytest
from scipy.special import gammaln

from truncmix import DataError, generate_mixture, load_csv, load_idx, preprocess, subsample_labels
from truncmix.data import (
    Dataset,
    UNLABELED,
    load_idx_images,
    load_idx_labels,
    write_csv,
    write_idx_images,
    write_idx_labels,
)


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
        assert raw.N == 2 and raw.D == 4

    def test_wrong_magic(self, tmp_path):
        img, lab = write_golden_idx(tmp_path, [[1]], [0], rows=1, cols=1)
        data = bytearray(img.read_bytes())
        data[3] = 0x99
        img.write_bytes(bytes(data))
        with pytest.raises(DataError, match="bad magic"):
            load_idx_images(img)
        with pytest.raises(DataError, match="bad magic"):
            load_idx_labels(img)

    def test_truncated_file(self, tmp_path):
        img, lab = write_golden_idx(tmp_path, [[1, 2, 3, 4]], [0], rows=2, cols=2)
        img.write_bytes(img.read_bytes()[:-2])
        with pytest.raises(DataError, match="truncated"):
            load_idx_images(img)
        lab.write_bytes(lab.read_bytes()[:4])
        with pytest.raises(DataError, match="truncated"):
            load_idx_labels(lab)

    def test_count_mismatch(self, tmp_path):
        img, _ = write_golden_idx(tmp_path, [[1], [2]], [0, 1], rows=1, cols=1)
        lab_dir = tmp_path / "other"
        lab_dir.mkdir()
        _, lab3 = write_golden_idx(lab_dir, [[1]], [0, 1, 2], rows=1, cols=1)
        with pytest.raises(DataError, match="count mismatch"):
            load_idx(img, lab3)

    def test_round_trip_through_package_writer(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 256, size=(13, 20))
        labels = rng.integers(0, 7, size=13)
        write_idx_images(tmp_path / "i", X, 4, 5)
        write_idx_labels(tmp_path / "l", labels)
        raw = load_idx(tmp_path / "i", tmp_path / "l")
        np.testing.assert_array_equal(raw.X, X)
        np.testing.assert_array_equal(raw.labels, labels)

    def test_writer_rejects_out_of_range(self, tmp_path):
        with pytest.raises(DataError, match="0, 255"):
            write_idx_images(tmp_path / "i", np.array([[300]]), 1, 1)


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

    def test_non_integer_label_rejected(self, tmp_path):
        (tmp_path / "bad.csv").write_text("label,p0,p1\n0,1.0,2.0\n1.7,3.0,4.0\n2,1.0,1.0\n")
        with pytest.raises(DataError, match="non-integer label 1.7 at data row 1"):
            load_csv(tmp_path / "bad.csv")


class TestPreprocess:
    def test_outputs_sum_to_mass(self):
        rng = np.random.default_rng(1)
        raw, _ = generate_mixture(4, 12, 100, seed=1)
        ds = preprocess(raw, 900.0)
        np.testing.assert_allclose(ds.Y.sum(axis=1), 900.0, rtol=1e-9)
        assert np.all(ds.Y >= 1.0)

    def test_constant_image_becomes_uniform(self):
        from truncmix.data import RawDataset
        raw = RawDataset(np.full((1, 10), 8.0), np.array([0]))
        ds = preprocess(raw, 25.0)
        np.testing.assert_allclose(ds.Y[0], 2.5, rtol=1e-14)

    def test_zero_image_names_index(self):
        from truncmix.data import RawDataset
        X = np.ones((5, 4))
        X[3] = 0.0
        with pytest.raises(DataError, match="index 3"):
            preprocess(RawDataset(X, np.zeros(5, dtype=int)), 10.0)

    def test_class_count_inferred_or_given(self):
        from truncmix.data import RawDataset
        raw = RawDataset(np.ones((4, 3)), np.array([0, 2, -1, 1]))
        assert preprocess(raw, 9.0).K == 3
        assert preprocess(raw, 9.0, K=5).K == 5
        with pytest.raises(DataError):
            preprocess(raw, 9.0, K=2)  # label 2 out of range

    def test_lgamma_cache_matches_direct(self):
        raw, _ = generate_mixture(3, 6, 20, seed=2)
        ds = preprocess(raw, 24.0)
        np.testing.assert_allclose(
            ds.lgamma_sums, gammaln(ds.Y + 1.0).sum(axis=1), rtol=1e-15
        )

    def test_examples_view(self):
        raw, _ = generate_mixture(3, 6, 10, seed=3)
        ds = preprocess(raw, 24.0)
        assert len(ds) == 10


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
