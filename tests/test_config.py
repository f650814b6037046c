import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submatch.cli import GenConfig
from submatch.config import ConfigError, build_dataclass, parse_kv_file, split_sections
from submatch.encoder import EncoderConfig
from submatch.graphs import from_json
from submatch.order import MarginConfig
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
            TrainConfig, {"epochs": "12", "plateau_delta": "0.5", "seed": "5"}
        )
        assert cfg.epochs == 12 and cfg.plateau_delta == 0.5 and cfg.seed == 5

    def test_unknown_keys_all_reported(self):
        with pytest.raises(ConfigError) as err:
            build_dataclass(TrainConfig, {"epochz": "1", "lr": "0.1", "epochs": "3"})
        assert "epochz" in str(err.value) and "lr" in str(err.value)

    def test_bad_values_reported_with_key(self):
        with pytest.raises(ConfigError, match="epochs"):
            build_dataclass(TrainConfig, {"epochs": "many"})

    def test_dataclass_invariants_still_apply(self):
        with pytest.raises(ConfigError):
            build_dataclass(SamplerConfig, {"max_nodes": "0"})


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


CONFIG_CLASSES = [TrainConfig, EncoderConfig, MarginConfig, SamplerConfig, GenConfig]
SECTIONS = ["train", "encoder", "margin", "sampler", "gen"]
# values a hand-edited file or a mistyped --set may hold: non-finite and
# overflowing floats, an integer past Python's 4300-digit parse limit,
# full-width digits, a NUL
ODD_VALUES = ["nan", "-inf", "1e400", "-1e400", "9" * 5000, "\uff11\uff12", "\x00", "1\x002",
              "", "0x10", "1_000", "+3", " 4 ", "true", "random_bfs", "mix"]
VALUES = (st.sampled_from(ODD_VALUES) | st.text(max_size=8) | st.integers().map(str)
          | st.floats().map(repr))


class TestFuzz:
    """The loader and the --set parser raise ConfigError and nothing else."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_build_dataclass(self, data):
        cls = data.draw(st.sampled_from(CONFIG_CLASSES))
        keys = st.sampled_from([f.name for f in fields(cls)]) | st.text(max_size=8)
        try:
            build_dataclass(cls, data.draw(st.dictionaries(keys, VALUES, max_size=6)))
        except ConfigError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.builds("{}.{}".format, st.sampled_from(SECTIONS) | st.text(max_size=4),
                  st.text(max_size=6)) | st.text(max_size=8),
        VALUES, max_size=6), st.lists(st.sampled_from(SECTIONS), unique=True))
    def test_split_sections(self, values, prefixes):
        try:
            split_sections(values, prefixes)
        except ConfigError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200) | st.text(max_size=200).map(str.encode))
    def test_parse_kv_file(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "fuzz.conf"
        path.write_bytes(content)
        try:
            parse_kv_file(path)
        except ConfigError:
            pass


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_values_parse_as_the_annotated_type(cls):
    # build_dataclass parses a value as its field's default is typed
    for f in fields(cls):
        assert f.type in ("int", "float", "str") and type(f.default).__name__ == f.type


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_every_config_key():
    """README's config paragraph lists, per section, exactly the keys train
    and gen accept: every field of the section's config, except the two that
    train works out and rejects, the threshold and the label alphabet. gen's
    keys are bare, so its list follows "`gen` takes bare keys only:"."""
    text = README.read_text(encoding="utf-8")
    listed = {section: set(re.findall(r"`(\w+)`", keys)) for section, keys in
              re.findall(r"`(\w+)\.?`(?: takes bare keys only)?:((?:\s*`\w+`,?)+)", text)}
    accepted = {section: {f.name for f in fields(cls)}
                for section, cls in zip(SECTIONS, CONFIG_CLASSES)}
    accepted["margin"].remove("threshold")
    accepted["encoder"].remove("label_alphabet_size")
    assert listed == accepted


def test_readme_graph_example_loads():
    """README's graph-format example is a complete document that from_json
    reads as the labeled path it describes."""
    (example,) = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    g = from_json(example)
    assert g.edges() == [(0, 1), (1, 2)]
    assert (g.node_labels, g.label_alphabet_size) == ((1, 0, 0), 3)


def test_readme_layout_lists_every_module():
    """README's Layout block names exactly the package's modules, one per
    line under `src/submatch/`, so a module added, removed or renamed
    without the doc fails here."""
    (block,) = re.findall(r"## Layout\n\n```\nsrc/submatch/\n(.*?)```",
                          README.read_text(encoding="utf-8"), re.S)
    listed = re.findall(r"^  (\w+\.py) ", block, re.M)
    package = README.parent / "src" / "submatch"
    modules = sorted(p.name for p in package.glob("*.py") if p.name != "__init__.py")
    assert sorted(listed) == modules
