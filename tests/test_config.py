import pytest

from submatch.config import ConfigError, build_dataclass, parse_kv_file, split_sections
from submatch.sampling import SamplerConfig
from submatch.training import TrainConfig


class TestParse:
    def test_basic(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("a = 1\n# comment\nb = hello  # trailing\n\nc=2.5\n")
        assert parse_kv_file(p) == {"a": "1", "b": "hello", "c": "2.5"}

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("just a line\n")
        with pytest.raises(ConfigError, match=":1"):
            parse_kv_file(p)

    def test_not_utf8_rejected(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_bytes("a = 1\nb = caf\u00e9\n".encode("latin-1"))
        with pytest.raises(ConfigError, match="UTF-8"):
            parse_kv_file(p)

    def test_line_numbers_count_every_line_break(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_bytes(b"a = 1\r\n\r\nb = 2\rbad line\n")
        with pytest.raises(ConfigError, match=":4"):
            parse_kv_file(p)


class TestBuild:
    def test_typed_fields(self):
        cfg = build_dataclass(
            TrainConfig, {"epochs": "12", "learning_rate": "0.01", "seed": "5"}
        )
        assert cfg.epochs == 12 and cfg.learning_rate == 0.01 and cfg.seed == 5

    def test_bool_parsing(self):
        from submatch.encoder import EncoderConfig

        cfg = build_dataclass(
            EncoderConfig, {"use_structural_features": "false", "layers": "2"}
        )
        assert cfg.use_structural_features is False

    def test_unknown_keys_all_reported(self):
        with pytest.raises(ConfigError) as err:
            build_dataclass(TrainConfig, {"epochz": "1", "lr": "0.1", "epochs": "3"})
        assert "epochz" in str(err.value) and "lr" in str(err.value)

    def test_bad_values_reported_with_key(self):
        with pytest.raises(ConfigError, match="epochs"):
            build_dataclass(TrainConfig, {"epochs": "many"})

    def test_dataclass_invariants_still_apply(self):
        with pytest.raises(ConfigError):
            build_dataclass(SamplerConfig, {"min_nodes": "9", "max_nodes": "2"})


class TestSections:
    def test_split(self):
        out = split_sections(
            {"train.epochs": "1", "encoder.layers": "2", "loose": "3"},
            ["train", "encoder"],
        )
        assert out["train"] == {"epochs": "1"}
        assert out["encoder"] == {"layers": "2"}
        assert out[""] == {"loose": "3"}

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="optimizer.beta"):
            split_sections({"optimizer.beta": "0.9"}, ["train"])
