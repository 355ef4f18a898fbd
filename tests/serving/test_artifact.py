"""Schema hardening tests for the versioned model-artifact bundle."""

import json

import numpy as np
import pytest

from repro.core.detector import QuorumDetector
from repro.serving.artifact import (
    ARTIFACT_FORMAT,
    SCHEMA_VERSION,
    ArtifactCorruptError,
    ArtifactDtypeError,
    ArtifactError,
    ArtifactVersionError,
    ModelArtifact,
    load_model,
    save_model,
)


@pytest.fixture(scope="module")
def fitted_detector():
    rng = np.random.default_rng(42)
    data = rng.normal(size=(36, 7))
    detector = QuorumDetector(ensemble_groups=3, seed=11, shots=512)
    detector.fit(data)
    return detector


@pytest.fixture()
def model_path(fitted_detector, tmp_path):
    return save_model(fitted_detector, tmp_path / "model.json")


def _rewrite(path, mutate):
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    return path


class TestRoundTrip:
    def test_save_then_load_restores_every_member(self, fitted_detector,
                                                  model_path):
        artifact = load_model(model_path)
        assert artifact.schema_version == SCHEMA_VERSION
        assert artifact.config == fitted_detector.config
        assert len(artifact.members) == fitted_detector.config.ensemble_groups
        for plan, member in zip(fitted_detector.member_plans(),
                                artifact.members):
            assert np.array_equal(plan.selected_features,
                                  member.selected_features)
            assert plan.buckets.buckets == member.buckets
            assert np.array_equal(plan.ansatz.angles_, member.angles)
            assert plan.rng_state == member.rng_state

    def test_bucket_reference_statistics_round_trip(self, fitted_detector,
                                                    model_path):
        artifact = load_model(model_path)
        for result, member in zip(fitted_detector.member_results(),
                                  artifact.members):
            assert set(member.reference) == set(result.bucket_statistics)
            for level, (means, stds) in result.bucket_statistics.items():
                loaded_means, loaded_stds = member.reference[level]
                assert np.array_equal(loaded_means, means)
                assert np.array_equal(loaded_stds, stds)

    def test_restored_rng_continues_the_member_stream(self, fitted_detector,
                                                      model_path):
        artifact = load_model(model_path)
        member = artifact.members[0]
        plan_state = fitted_detector.member_plans()[0].rng_state
        expected = np.random.default_rng()
        expected.bit_generator.state = json.loads(json.dumps(plan_state))
        restored = member.restored_rng()
        assert np.array_equal(restored.integers(0, 1 << 30, size=16),
                              expected.integers(0, 1 << 30, size=16))

    def test_normalizer_round_trip(self, fitted_detector, model_path):
        artifact = load_model(model_path)
        rng = np.random.default_rng(5)
        probe = rng.normal(size=(9, artifact.num_features))
        expected = fitted_detector.normalizer.transform(probe)
        assert np.array_equal(artifact.build_normalizer().transform(probe),
                              expected)

    def test_library_versions_and_metadata_recorded(self, model_path):
        payload = json.loads(model_path.read_text())
        assert payload["format"] == ARTIFACT_FORMAT
        assert payload["schema_version"] == SCHEMA_VERSION
        assert set(payload["library_versions"]) == {"python", "numpy",
                                                    "quorum-repro"}
        assert payload["created_at"]

    def test_save_requires_a_fitted_detector(self, tmp_path):
        with pytest.raises(RuntimeError):
            save_model(QuorumDetector(ensemble_groups=2), tmp_path / "x.json")


class TestCorruptFiles:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactCorruptError, match="cannot read"):
            load_model(tmp_path / "missing.json")

    def test_truncated_json(self, model_path):
        text = model_path.read_text()
        model_path.write_text(text[: len(text) // 2])
        with pytest.raises(ArtifactCorruptError, match="not valid JSON"):
            load_model(model_path)

    def test_non_object_root(self, model_path):
        model_path.write_text("[1, 2, 3]")
        with pytest.raises(ArtifactCorruptError, match="root is not an object"):
            load_model(model_path)

    def test_scalar_where_object_expected(self, model_path):
        for field in ("normalizer", "fit"):
            path = _rewrite(model_path, lambda p, f=field: p.update({f: 5}))
            with pytest.raises(ArtifactCorruptError):
                load_model(path)

    def test_scalar_bucket_entry(self, model_path):
        def mutate(payload):
            payload["members"][0]["buckets"][0] = 7

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactCorruptError):
            load_model(model_path)

    def test_wrong_format_marker(self, model_path):
        _rewrite(model_path, lambda p: p.update(format="other/model"))
        with pytest.raises(ArtifactCorruptError, match="not a quorum-repro"):
            load_model(model_path)

    def test_missing_members(self, model_path):
        _rewrite(model_path, lambda p: p.pop("members"))
        with pytest.raises(ArtifactCorruptError, match="members"):
            load_model(model_path)

    def test_empty_members(self, model_path):
        _rewrite(model_path, lambda p: p.update(members=[]))
        with pytest.raises(ArtifactCorruptError, match="no ensemble members"):
            load_model(model_path)

    def test_missing_reference_level(self, model_path):
        def mutate(payload):
            payload["members"][0]["reference"].popitem()

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactCorruptError, match="reference"):
            load_model(model_path)

    def test_out_of_range_feature_index_rejected(self, model_path):
        def mutate(payload):
            payload["members"][0]["selected_features"][0] = 999

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactCorruptError, match="selected_features"):
            load_model(model_path)

    def test_negative_feature_index_rejected(self, model_path):
        def mutate(payload):
            payload["members"][0]["selected_features"][0] = -1

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactCorruptError, match="selected_features"):
            load_model(model_path)

    def test_duplicate_feature_indices_rejected(self, model_path):
        def mutate(payload):
            features = payload["members"][0]["selected_features"]
            features[0] = features[1]

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactCorruptError, match="duplicate"):
            load_model(model_path)

    def test_feature_subset_exceeding_register_rejected(self, tmp_path):
        # A 10-feature dataset on a 3-qubit register (capacity 2^3 - 1 = 7):
        # eight in-bounds distinct indices are one more than the register fits.
        rng = np.random.default_rng(1)
        detector = QuorumDetector(ensemble_groups=1, seed=2, shots=64)
        detector.fit(rng.normal(size=(24, 10)))
        path = save_model(detector, tmp_path / "wide.json")
        _rewrite(path, lambda p: p["members"][0].update(
            selected_features=list(range(8))))
        with pytest.raises(ArtifactCorruptError, match="register"):
            load_model(path)

    def test_buckets_must_partition_the_training_samples(self, model_path):
        def mutate(payload):
            # Duplicate one index: same count, no longer a partition.
            bucket = payload["members"][0]["buckets"][0]
            bucket[0] = bucket[1]

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactCorruptError, match="partition"):
            load_model(model_path)

    def test_empty_bucket_rejected(self, model_path):
        def mutate(payload):
            # Every sample is still covered once and the reference statistics
            # match the bucket count: only the empty bucket is wrong.
            member = payload["members"][0]
            member["buckets"].append([])
            for level in member["reference"].values():
                level["bucket_means"].append(0.5)
                level["bucket_stds"].append(0.1)

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactCorruptError, match="non-empty"):
            load_model(model_path)

    def test_bucket_index_out_of_range_rejected(self, model_path):
        def mutate(payload):
            payload["members"][0]["buckets"][0][0] = 10_000

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactCorruptError, match="partition"):
            load_model(model_path)

    def test_unknown_config_field(self, model_path):
        _rewrite(model_path, lambda p: p["config"].update(surprise=1))
        with pytest.raises(ArtifactCorruptError, match="surprise"):
            load_model(model_path)

    def test_broken_rng_state_fails_at_load(self, model_path):
        def mutate(payload):
            payload["members"][0]["rng_state"] = {"bit_generator": "NotAThing"}

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactCorruptError, match="bit generator"):
            load_model(model_path)

    def test_empty_rng_state_fails_at_load(self, model_path):
        _rewrite(model_path,
                 lambda p: p["members"][0].update(rng_state={}))
        with pytest.raises(ArtifactCorruptError):
            load_model(model_path)

    def test_non_bit_generator_name_rejected(self, model_path):
        """A name resolving to some other np.random callable must not run."""

        def mutate(payload):
            payload["members"][0]["rng_state"]["bit_generator"] = "seed"

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactCorruptError, match="bit generator"):
            load_model(model_path)

    def test_truncated_member_list_rejected(self, model_path):
        def mutate(payload):
            del payload["members"][-1]

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactCorruptError, match="ensemble_groups"):
            load_model(model_path)

    def test_level_sweep_must_match_the_config(self, model_path):
        def mutate(payload):
            payload["fit"]["compression_levels"] = [1]
            for member in payload["members"]:
                member["reference"] = {"1": member["reference"]["1"]}

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactCorruptError, match="compression sweep"):
            load_model(model_path)


class TestVersionMismatch:
    def test_newer_schema_is_rejected(self, model_path):
        _rewrite(model_path, lambda p: p.update(schema_version=SCHEMA_VERSION + 1))
        with pytest.raises(ArtifactVersionError, match="schema version"):
            load_model(model_path)

    def test_older_schema_is_rejected(self, model_path):
        _rewrite(model_path, lambda p: p.update(schema_version=0))
        with pytest.raises(ArtifactVersionError):
            load_model(model_path)

    def test_non_integer_schema_version(self, model_path):
        _rewrite(model_path, lambda p: p.update(schema_version="1"))
        with pytest.raises(ArtifactCorruptError, match="integer"):
            load_model(model_path)


class TestDtypeMismatch:
    def test_string_angles_rejected(self, model_path):
        def mutate(payload):
            payload["members"][0]["angles"] = ["a", "b", "c"]

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactDtypeError, match="angles"):
            load_model(model_path)

    def test_numeric_strings_rejected(self, model_path):
        """Even string-encoded numbers are a dtype mismatch, not a value."""

        def mutate(payload):
            angles = payload["members"][0]["angles"]
            payload["members"][0]["angles"] = [str(a) for a in angles]

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactDtypeError, match="angles"):
            load_model(model_path)

    def test_wrong_angle_count_rejected(self, model_path):
        def mutate(payload):
            payload["members"][0]["angles"] = [0.1, 0.2]

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactDtypeError, match="angles"):
            load_model(model_path)

    def test_fractional_feature_indices_rejected(self, model_path):
        def mutate(payload):
            payload["members"][0]["selected_features"] = [0.5, 1.25]

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactDtypeError, match="non-integer"):
            load_model(model_path)

    def test_non_finite_reference_rejected(self, model_path):
        def mutate(payload):
            level = next(iter(payload["members"][0]["reference"]))
            stats = payload["members"][0]["reference"][level]
            stats["bucket_means"][0] = None

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactDtypeError):
            load_model(model_path)

    def test_feature_bounds_shape_checked(self, model_path):
        def mutate(payload):
            payload["normalizer"]["feature_min"] = [0.0]

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactDtypeError, match="feature_min"):
            load_model(model_path)

    def test_boolean_scalar_rejected(self, model_path):
        def mutate(payload):
            payload["fit"]["num_samples"] = True

        _rewrite(model_path, mutate)
        with pytest.raises(ArtifactDtypeError, match="integer"):
            load_model(model_path)


class TestNoiseFingerprint:
    def test_noiseless_model_has_no_fingerprint(self, model_path):
        assert load_model(model_path).noise_fingerprint is None

    def test_tampered_fingerprint_rejected(self, model_path):
        _rewrite(model_path, lambda p: p.update(noise_fingerprint="deadbeef"))
        with pytest.raises(ArtifactError, match="fingerprint mismatch"):
            load_model(model_path)

    def test_noisy_model_records_and_verifies_fingerprint(self, tmp_path):
        rng = np.random.default_rng(0)
        detector = QuorumDetector(ensemble_groups=1, seed=2, shots=64,
                                  backend="density_matrix", noisy=True,
                                  num_qubits=2)
        detector.fit(rng.normal(size=(16, 4)))
        path = save_model(detector, tmp_path / "noisy.json")
        artifact = load_model(path)
        assert artifact.noise_fingerprint is not None
        assert len(artifact.noise_fingerprint) == 64  # sha256 hex

    def test_from_detector_artifact_passthrough(self, fitted_detector,
                                                tmp_path):
        artifact = ModelArtifact.from_detector(fitted_detector)
        path = save_model(artifact, tmp_path / "direct.json")
        assert load_model(path).num_samples == artifact.num_samples
