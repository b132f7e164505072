import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import write_wav
from vowelkit.corpus import (
    VOWELS,
    find_utterances,
    load_audio,
    load_corpus_tokens,
    load_phn,
)
from vowelkit.errors import FormatError, InvalidInput, VowelkitError

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestLoadWav:
    def test_header_echo(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, np.zeros(1024), rate=16000)
        signal = load_audio(path)
        assert signal.sample_rate == 16000
        assert signal.samples.size == 1024

    def test_pcm16_normalization(self, tmp_path):
        import wave

        path = tmp_path / "b.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(np.array([32767, -32768, 0], dtype="<i2").tobytes())
        signal = load_audio(path)
        assert signal.samples[0] == pytest.approx(32767 / 32768)
        assert signal.samples[1] == pytest.approx(-1.0)
        assert signal.samples[2] == 0.0

    def test_stereo_rejected(self, tmp_path):
        import wave

        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(np.zeros(64, dtype="<i2").tobytes())
        with pytest.raises(FormatError):
            load_audio(path)

    @FUZZ
    @given(length=st.none() | st.integers(4, 63),
           flips=st.lists(st.tuples(st.integers(4, 63), st.integers(0, 255)), max_size=4))
    def test_fuzzed_header_raises_only_toolkit_errors(self, tmp_path, length, flips):
        # truncations and byte flips of the first 64 bytes, past the RIFF magic
        path = tmp_path / "fuzz.wav"
        write_wav(path, np.zeros(100))
        raw = bytearray(path.read_bytes())
        for at, value in flips:
            raw[at] = value
        path.write_bytes(raw[:length])
        try:
            signal = load_audio(path)
        except FormatError as exc:
            assert str(exc).startswith(f"{path}: ") and str(exc) != f"{path}: "
            return
        except InvalidInput:
            return
        assert signal.samples.ndim == 1


def sphere_bytes(samples, rate=16000, byte_format="01", coding="pcm", extra=""):
    header = (
        "NIST_1A\n   1024\n"
        f"sample_rate -i {rate}\n"
        "channel_count -i 1\n"
        "sample_n_bytes -i 2\n"
        f"sample_byte_format -s2 {byte_format}\n"
        f"sample_count -i {len(samples)}\n"
        f"sample_coding -s{len(coding)} {coding}\n"
        f"{extra}end_head\n"
    )
    dtype = "<i2" if byte_format == "01" else ">i2"
    return header.encode().ljust(1024, b" ") + np.asarray(samples, dtype=dtype).tobytes()


class TestLoadSphere:
    def test_header_echo(self, tmp_path):
        path = tmp_path / "a.sph"
        path.write_bytes(sphere_bytes([0, 100, -100], rate=16000))
        signal = load_audio(path)
        assert signal.sample_rate == 16000
        assert signal.samples.size == 3
        assert signal.samples[1] == pytest.approx(100 / 32768)

    def test_big_endian_data(self, tmp_path):
        path = tmp_path / "b.sph"
        path.write_bytes(sphere_bytes([1000, -1000], byte_format="10"))
        signal = load_audio(path)
        assert signal.samples[0] == pytest.approx(1000 / 32768)

    def test_shorten_coding_rejected(self, tmp_path):
        path = tmp_path / "c.sph"
        path.write_bytes(sphere_bytes([0, 0], coding="pcm,embedded-shorten-v2.00"))
        with pytest.raises(FormatError):
            load_audio(path)

    @pytest.mark.parametrize("field", ["channel_count", "sample_n_bytes", "sample_count"])
    def test_non_integer_field_rejected(self, tmp_path, field):
        path = tmp_path / "d.sph"
        path.write_bytes(re.sub(rb"(%s -i )\d" % field.encode(), rb"\1x", sphere_bytes([0, 0])))
        with pytest.raises(FormatError, match=field):
            load_audio(path)

    @pytest.mark.parametrize("sphere, match", [
        (sphere_bytes([0, 0], rate=-16000), "negative SPHERE sample_rate"),
        (sphere_bytes([0, 0]).replace(b"channel_count -i 1", b"channel_count -i 2"), "only mono"),
    ], ids=["negative sample_rate", "two channels"])
    def test_field_value_rejected(self, tmp_path, sphere, match):
        path = tmp_path / "g.sph"
        path.write_bytes(sphere)
        with pytest.raises(FormatError, match=match):
            load_audio(path)

    def test_sample_count_truncates(self, tmp_path):
        path = tmp_path / "e.sph"
        path.write_bytes(sphere_bytes([0, 100, -100]).replace(b"sample_count -i 3",
                                                                b"sample_count -i 2") + b"\x01")
        assert load_audio(path).samples.size == 2

    def test_odd_data_without_count_rejected(self, tmp_path):
        path = tmp_path / "f.sph"
        path.write_bytes(sphere_bytes([0, 0]).replace(b"sample_count -i 2", b" " * 17) + b"\x01")
        with pytest.raises(FormatError):
            load_audio(path)

    @FUZZ
    @given(
        lines=st.lists(st.tuples(
            st.sampled_from(["sample_rate", "channel_count", "sample_n_bytes", "sample_count",
                             "sample_coding", "sample_byte_format", "other"]),
            st.sampled_from(["-i", "-s2", "-r", "x"]),
            st.one_of(st.integers(-10, 70000).map(str),
                      st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1)),
        ), max_size=8),
        junk=st.binary(max_size=40),
        data=st.binary(max_size=64),
    )
    def test_fuzzed_header_raises_only_toolkit_errors(self, tmp_path, lines, junk, data):
        header = b"NIST_1A\n   1024\n" + "".join(f"{a} {b} {c}\n" for a, b, c in lines).encode()
        path = tmp_path / "fuzz.sph"
        path.write_bytes((header + junk)[:1024].ljust(1024, b" ") + data)
        try:
            load_audio(path)
        except VowelkitError:
            pass


class TestRawPcm:
    def test_requires_explicit_rate(self, tmp_path):
        path = tmp_path / "raw.pcm"
        path.write_bytes(np.array([0, 16384], dtype="<i2").tobytes())
        with pytest.raises(FormatError):
            load_audio(path)
        signal = load_audio(path, sample_rate=8000)
        assert signal.sample_rate == 8000
        assert signal.samples[1] == pytest.approx(0.5)

    def test_odd_byte_count_rejected(self, tmp_path):
        path = tmp_path / "odd.pcm"
        path.write_bytes(b"\x00\x00\x01")
        with pytest.raises(FormatError):
            load_audio(path, sample_rate=8000)


class TestLoadPhn:
    def test_whitelist_filtering(self, tmp_path):
        path = tmp_path / "a.phn"
        path.write_text("0 2260 h#\n2260 4070 iy\n4070 5000 t\n")
        tokens = load_phn(path)
        assert len(tokens) == 1
        assert tokens[0].label == "iy"
        assert (tokens[0].begin, tokens[0].end) == (2260, 4070)

    def test_vowel_inventory_size(self):
        assert len(VOWELS) == 20

    def test_bad_span_rejected(self, tmp_path):
        path = tmp_path / "b.phn"
        path.write_text("100 50 iy\n")
        with pytest.raises(FormatError) as err:
            load_phn(path)
        assert ":1:" in str(err.value)

    def test_unparsable_line_has_line_number(self, tmp_path):
        path = tmp_path / "c.phn"
        path.write_text("0 100 iy\nnot a span here\n")
        with pytest.raises(FormatError) as err:
            load_phn(path)
        assert ":2:" in str(err.value)

    def test_span_checked_against_signal_length(self, tmp_path):
        path = tmp_path / "d.phn"
        path.write_text("0 5000 iy\n")
        with pytest.raises(FormatError):
            load_phn(path, n_samples=4000)

    def test_non_integer_span(self, tmp_path):
        path = tmp_path / "e.phn"
        path.write_text("0 12.5 iy\n")
        with pytest.raises(FormatError):
            load_phn(path)

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "f.phn"
        path.write_bytes("0 100 iy\n100 200 \u00e6\n".encode("latin-1"))
        with pytest.raises(FormatError):
            load_phn(path)

    def test_line_endings(self, tmp_path):
        path = tmp_path / "g.phn"
        path.write_bytes(b"0 100 iy\r\n\r\n100 200 aa\r300 400 uw")
        tokens = load_phn(path)
        assert [(t.begin, t.label) for t in tokens] == [(0, "iy"), (100, "aa"), (300, "uw")]
        path.write_bytes(b"0 100 iy\r\nbad\n")
        with pytest.raises(FormatError, match=":2:"):
            load_phn(path)

    @FUZZ
    @given(st.one_of(
        st.binary(max_size=200),
        st.lists(st.tuples(st.integers(-5, 50).map(str) | st.text(max_size=4),
                           st.integers(-5, 50).map(str) | st.text(max_size=4),
                           st.sampled_from(["iy", "aa", "h#", ""]) | st.text(max_size=4)),
                 max_size=6).map(lambda rows: "\n".join(" ".join(r) for r in rows).encode()),
    ))
    def test_fuzzed_file_raises_only_toolkit_errors(self, tmp_path, raw):
        path = tmp_path / "fuzz.phn"
        path.write_bytes(raw)
        try:
            tokens = load_phn(path, n_samples=40)
        except VowelkitError:
            return
        assert all(0 <= t.begin < t.end <= 40 and t.label in VOWELS for t in tokens)


class TestCorpusWalk:
    def test_small_corpus_structure(self, small_corpus):
        train = find_utterances(small_corpus, "train")
        test = find_utterances(small_corpus, "test")
        assert len(train) == 3 * 18
        assert len(test) == 3 * 6
        tokens = load_corpus_tokens(small_corpus)
        assert len(tokens) == 3 * 24
        assert {t.split for t in tokens} == {"train", "test"}
        assert {t.label for t in tokens} == {"aa", "iy", "uw"}

    def test_missing_split_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            find_utterances(tmp_path, "train")

    def test_phn_extension_in_any_case(self, tmp_path):
        split = tmp_path / "train"
        split.mkdir()
        write_wav(split / "u.wav", np.zeros(400))
        (split / "u.Phn").write_text("0 200 iy\n")
        write_wav(split / "v.WAV", np.zeros(400))
        (split / "v.PHN").write_text("0 300 aa\n")
        write_wav(split / "w.wav", np.zeros(400))  # W.phn has another stem: not its transcription
        (split / "W.phn").write_text("0 300 aa\n")
        assert find_utterances(tmp_path, "train") == [
            (str(split / "u.wav"), str(split / "u.Phn")),
            (str(split / "v.WAV"), str(split / "v.PHN")),
        ]
        tokens = load_corpus_tokens(tmp_path, splits=("train",))
        assert [(t.utterance_id, t.label, t.end) for t in tokens] == [
            ("train/u", "iy", 200), ("train/v", "aa", 300),
        ]
