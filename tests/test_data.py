import json

import numpy as np
import pytest

from vroute import cli
from vroute.checkpoint import save_checkpoint
from vroute.config import config_from_dict
from vroute.data import (DataError, Dataset, SyntheticDomainSpec,
                         base_mode_means, csv_header, generate_domain,
                         load_csv, make_ood_suite, split_dataset)
from vroute.experiment import build_model, build_splits
from vroute.metrics import auroc
from vroute.model import attach_variational_routers
from vroute.rng import RngStream


def save_csv(ds: Dataset, path) -> None:
    """Oracle writer for the format ``load_csv`` reads: shortest round-trip
    floats, so a save/load round trip is bitwise."""
    lines = [csv_header(ds.features.shape[1])]
    for row, label in zip(ds.features, ds.labels):
        lines.append(",".join([repr(float(v)) for v in row] + [str(int(label))]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _spec(**kw):
    defaults = dict(num_classes=3, modes_per_class=2, feature_dim=6,
                    mean_scale=1.0, noise_scale=0.4, seed=11)
    defaults.update(kw)
    return SyntheticDomainSpec(**defaults)


class TestGenerateDomain:
    def test_sample_means_close_to_spec_means(self):
        spec = _spec(noise_scale=0.2)
        ds = generate_domain(spec, 60_000)
        means = base_mode_means(spec)
        # group samples by (class, mode) via nearest spec mean
        d = ((ds.features[:, None, :] - means[None]) ** 2).sum(-1)
        assign = d.argmin(1)
        for j in range(means.shape[0]):
            rows = ds.features[assign == j]
            n = len(rows)
            tol = 3 * spec.noise_scale / np.sqrt(n)
            assert np.abs(rows.mean(0) - means[j]).max() < 5 * tol

    def test_zero_samples_rejected(self):
        with pytest.raises(DataError):
            generate_domain(_spec(), 0)

    def test_same_seed_same_dataset(self):
        a = generate_domain(_spec(), 500)
        b = generate_domain(_spec(), 500)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_shift_increases_centroid_distance(self):
        base = _spec()
        means0 = base_mode_means(base)
        dist = []
        for delta in (0.0, 1.0, 3.0):
            spec = _spec(shift_magnitude=delta)
            ds = generate_domain(spec, 4000)
            centroid_gap = np.linalg.norm(
                ds.features.mean(0) - generate_domain(base, 4000).features.mean(0))
            dist.append(centroid_gap)
        assert dist[0] < dist[1] < dist[2]
        assert means0.shape == (6, 6)


class TestOodSuite:
    def test_tags_and_ordering(self):
        suite = make_ood_suite(_spec(), 1.0, 3.0, 400)
        assert suite["id"].domain_tag == "id" and suite["id"].shift == 0.0
        assert suite["near"].domain_tag == "near" and suite["near"].shift == 1.0
        assert suite["far"].domain_tag == "far" and suite["far"].shift == 3.0

    def test_ordering_violation_rejected(self):
        with pytest.raises(DataError):
            make_ood_suite(_spec(), 2.0, 1.0, 100)

    def test_zero_near_shift_is_second_id_sample(self):
        suite = make_ood_suite(_spec(), 0.0, 2.0, 4000)
        # distance-to-nearest-centroid scores separate nothing at delta=0
        means = base_mode_means(_spec())

        def scores(ds):
            d = ((ds.features[:, None, :] - means[None]) ** 2).sum(-1)
            return np.sqrt(d.min(1))

        assert abs(auroc(scores(suite["id"]), scores(suite["near"])) - 0.5) < 0.02

    def test_far_domain_separable_by_centroid_distance(self):
        spec = _spec(noise_scale=0.5)
        suite = make_ood_suite(spec, 1.0, 3.0, 2000)
        means = base_mode_means(spec)

        def scores(ds):
            d = ((ds.features[:, None, :] - means[None]) ** 2).sum(-1)
            return np.sqrt(d.min(1))

        assert auroc(scores(suite["id"]), scores(suite["far"])) > 0.95


class TestSplits:
    def test_disjoint_and_exhaustive(self):
        ds = generate_domain(_spec(), 100)
        parts = split_dataset(ds, 60, 20, 20)
        total = sum(len(parts[k]) for k in ("train", "val", "test"))
        assert total == 100
        stacked = np.vstack([parts["train"].features, parts["val"].features,
                             parts["test"].features])
        np.testing.assert_array_equal(stacked, ds.features)

    def test_bad_sizes_rejected(self):
        ds = generate_domain(_spec(), 100)
        with pytest.raises(DataError):
            split_dataset(ds, 50, 20, 20)


class TestCsv:
    def test_hand_written_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("f0,f1,label\n1.5,-2.0,0\n0.25,3.5,1\n-1.0,0.0,2\n")
        ds = load_csv(path, feature_dim=2, num_classes=3)
        np.testing.assert_array_equal(
            ds.features, [[1.5, -2.0], [0.25, 3.5], [-1.0, 0.0]])
        np.testing.assert_array_equal(ds.labels, [0, 1, 2])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, 2, 3)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("f0,f1,label\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, 2, 3)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b,label\n1,2,0\n")
        with pytest.raises(DataError, match="bad header"):
            load_csv(path, 2, 3)

    def test_malformed_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\nx,2.0,0\n1.0,2.0,9\n")
        with pytest.raises(DataError) as err:
            load_csv(path, 2, 3)
        assert "line 3" in str(err.value)
        assert "line 4" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", 2, 3)

    def test_round_trip_bitwise(self, tmp_path):
        ds = generate_domain(_spec(), 200)
        path = tmp_path / "round.csv"
        save_csv(ds, path)
        back = load_csv(path, feature_dim=6, num_classes=3)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)


class TestEvalFromCsv:
    """``vroute eval --data`` reads the CSV with the config's model counts."""

    CONFIG = {"seed": 0, "layers": [1],
              "model": {"feature_dim": 6, "hidden_dim": 8, "num_blocks": 2,
                        "num_experts": 4, "num_classes": 3},
              "router": {"eval_samples": 4},
              "data": {"n_train": 40, "n_val": 20, "n_test": 30, "n_ood": 20}}

    def test_csv_of_test_split_matches_split(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(self.CONFIG))
        cfg = config_from_dict(self.CONFIG)
        model = build_model(cfg)
        attach_variational_routers(model, cfg.layers, "vglr_mf", RngStream(1),
                                   cfg.router)
        save_checkpoint(model, tmp_path / "model.npz")
        argv = ["eval", "--config", str(cfg_path), "--variant", "vglr_mf",
                "--checkpoint", str(tmp_path / "model.npz")]
        save_csv(build_splits(cfg)["test"], tmp_path / "test.csv")
        assert cli.main(argv + ["--split", "test",
                                "--out", str(tmp_path / "split")]) == 0
        assert cli.main(argv + ["--data", str(tmp_path / "test.csv"),
                                "--out", str(tmp_path / "csv")]) == 0
        for name in ("eval_vglr_mf.csv", "eval_bins_vglr_mf.csv",
                     "eval_vglr_mf.json"):
            want = (tmp_path / "split" / name).read_bytes()
            assert (tmp_path / "csv" / name).read_bytes() == want, name


def test_dataset_invariants():
    with pytest.raises(DataError):
        Dataset(np.array([[np.nan, 1.0]]), np.array([0]), "id", 0.0, 2)
    with pytest.raises(DataError):
        Dataset(np.ones((2, 2)), np.array([0, 5]), "id", 0.0, 2)
