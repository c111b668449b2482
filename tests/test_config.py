import pytest

from repgraph import ContractError, LayerConfig
from repgraph.config import (
    layer_config_from_text,
    layer_config_to_text,
    load_config_file,
)


class TestRoundTrip:
    def test_basic_round_trip(self):
        cfg = LayerConfig(c=64, cp=16, s=9, variant="bottleneck", fusion="concat",
                          init_mode="fresh", offset_source="input", seed=3)
        text = layer_config_to_text(cfg)
        back = layer_config_from_text(text)
        assert back == cfg
        assert back.gs == 1 and back.groups == 1

    def test_round_trip_with_variant_extensions(self):
        cfg = LayerConfig(c=32, cp=8, s=5, gs=4, groups=2)
        text = layer_config_to_text(cfg)
        back = layer_config_from_text(text)
        assert back == cfg
        assert back.gs == 4
        assert back.groups == 2


class TestParsing:
    def test_comments_and_blank_lines(self):
        text = """
# layer under test
c=16   # input width
cp=4
s = 2

variant=simple
"""
        cfg = layer_config_from_text(text)
        assert cfg == LayerConfig(c=16, cp=4, s=2)

    def test_unknown_key_rejected(self):
        with pytest.raises(ContractError, match="unknown config key"):
            layer_config_from_text("c=4\ncp=2\nstride=2\n")

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ContractError, match="missing required"):
            layer_config_from_text("s=2\n")

    def test_non_integer_rejected(self):
        with pytest.raises(ContractError, match="must be an integer"):
            layer_config_from_text("c=four\ncp=2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ContractError, match="key=value"):
            layer_config_from_text("c=4\ncp=2\njust-words\n")

    def test_duplicate_key_rejected_naming_the_line(self):
        with pytest.raises(ContractError, match="line 3: duplicate key 'cp'"):
            layer_config_from_text("c=8\ncp=4\ncp=2\n")

    def test_invalid_combination_rejected(self):
        text = "c=4\ncp=2\nfusion=concat\ninit_mode=pretrained_insert\n"
        with pytest.raises(ContractError):
            layer_config_from_text(text)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "layer.cfg"
        path.write_text("c=8\ncp=4\ngs=2\n")
        cfg = load_config_file(path)
        assert cfg.c == 8 and cfg.gs == 2 and cfg.groups == 1

    def test_file_with_duplicate_key_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "layer.cfg"
        path.write_text("c=8\n# comment\ncp=4\nc=16\n")
        with pytest.raises(ContractError, match=r"layer\.cfg: line 4: duplicate key 'c'"):
            load_config_file(path)
