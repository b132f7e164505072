"""TIMIT-style corpus ingestion: audio files, .phn transcriptions, tokens."""

import io
import os
import wave
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import FormatError, InvalidInput
from .frontend import RawSignal

# The vowel phoneme inventory used throughout the toolkit.
VOWELS = (
    "aa", "ae", "ah", "ao", "aw", "ax", "ax-h", "axr", "ay", "eh",
    "er", "ey", "ih", "ix", "iy", "ow", "oy", "uh", "uw", "ux",
)

SPHERE_HEADER_SIZE = 1024


@dataclass(frozen=True)
class PhonemeToken:
    label: str
    begin: int
    end: int
    utterance_id: str
    split: str  # "train" or "test"
    audio_path: str = ""


def _pcm16_to_float(raw: bytes, path, dtype: str = "<i2") -> np.ndarray:
    if len(raw) % 2:
        raise FormatError(f"{path}: odd number of 16-bit sample bytes")
    return np.frombuffer(raw, dtype=dtype).astype(float) / 32768.0


def _load_wav(raw: bytes, path) -> RawSignal:
    try:
        with wave.open(io.BytesIO(raw), "rb") as wf:
            if wf.getsampwidth() != 2:
                raise FormatError(f"{path}: only 16-bit PCM supported")
            if wf.getnchannels() != 1:
                raise FormatError(f"{path}: only mono audio supported")
            rate = wf.getframerate()
            data = wf.readframes(wf.getnframes())
    # wave raises a bare EOFError on a truncated header, RuntimeError on a chunk past its parent
    except (wave.Error, EOFError, RuntimeError) as exc:
        raise FormatError(f"{path}: {str(exc) or 'truncated or malformed WAV header'}") from exc
    return RawSignal(_pcm16_to_float(data, path), rate)


def _load_sphere(raw: bytes, path) -> RawSignal:
    header, data = raw[:SPHERE_HEADER_SIZE], raw[SPHERE_HEADER_SIZE:]
    fields = {}
    for line in header.decode("ascii", errors="replace").splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1].startswith("-"):
            fields[parts[0]] = parts[2]

    def int_field(name, default=None):
        try:
            value = int(fields.get(name, default))
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}: SPHERE header lacks an integer {name}") from exc
        if value < 0:
            raise FormatError(f"{path}: negative SPHERE {name}")
        return value

    rate = int_field("sample_rate")
    if int_field("channel_count", 1) != 1:
        raise FormatError(f"{path}: only mono SPHERE supported")
    if int_field("sample_n_bytes", 2) != 2:
        raise FormatError(f"{path}: only 16-bit SPHERE supported")
    coding = fields.get("sample_coding", "pcm")
    if "pcm" not in coding or "shorten" in coding:
        raise FormatError(f"{path}: unsupported SPHERE coding {coding!r}")
    if "sample_count" in fields:
        data = data[: 2 * int_field("sample_count")]
    dtype = ">i2" if fields.get("sample_byte_format") == "10" else "<i2"
    return RawSignal(_pcm16_to_float(data, path, dtype), rate)


def load_audio(path, sample_rate: Optional[int] = None) -> RawSignal:
    """Read RIFF WAV, NIST SPHERE, or (with explicit rate) raw PCM16."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] == b"RIFF":
        return _load_wav(raw, path)
    if raw.startswith(b"NIST_1A"):
        return _load_sphere(raw, path)
    if sample_rate is not None:
        return RawSignal(_pcm16_to_float(raw, path), sample_rate)
    raise FormatError(f"{path}: unknown audio format (magic {raw[:4]!r})")


def load_phn(path, whitelist: Sequence[str] = VOWELS,
             n_samples: Optional[int] = None, split: str = "train",
             utterance_id: Optional[str] = None,
             audio_path: str = "") -> List[PhonemeToken]:
    """Parse "begin end label" lines, keeping only whitelisted phonemes."""
    allowed = set(whitelist)
    if utterance_id is None:
        utterance_id = os.path.splitext(os.path.basename(str(path)))[0]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")  # text mode turns \r and \r\n into \n
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text") from exc
    tokens = []
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 'begin end label'")
        try:
            begin, end = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: non-integer span") from exc
        if end <= begin or begin < 0:
            raise FormatError(f"{path}:{lineno}: invalid span [{begin}, {end})")
        if n_samples is not None and end > n_samples:
            raise FormatError(f"{path}:{lineno}: span exceeds signal length {n_samples}")
        if parts[2] in allowed:
            tokens.append(PhonemeToken(parts[2], begin, end, utterance_id, split, audio_path))
    return tokens


def find_utterances(corpus_root, split: str) -> List[Tuple[str, str]]:
    """(audio, transcription) path pairs under <root>/<split>/, sorted.

    An utterance is a .wav file with a sibling of the same stem whose
    extension is .phn in any case (the first such name in sorted order).
    """
    base = os.path.join(str(corpus_root), split)
    if not os.path.isdir(base):
        raise InvalidInput(f"missing corpus split directory: {base}")
    found = []
    for dirpath, _dirnames, filenames in os.walk(base):
        phn = {}
        for name in sorted(filenames):
            stem, ext = os.path.splitext(name)
            if ext.lower() == ".phn":
                phn.setdefault(stem, name)
        for name in filenames:
            stem, ext = os.path.splitext(name)
            if ext.lower() == ".wav" and stem in phn:
                found.append((os.path.join(dirpath, name), os.path.join(dirpath, phn[stem])))
    return sorted(found)


def load_corpus_tokens(corpus_root, whitelist: Sequence[str] = VOWELS,
                       splits: Sequence[str] = ("train", "test")) -> List[PhonemeToken]:
    """All whitelisted tokens from the given split trees (train/ and test/ by default)."""
    tokens = []
    for split in splits:
        for audio_path, phn_path in find_utterances(corpus_root, split):
            rel = os.path.relpath(audio_path, str(corpus_root))
            utt = os.path.splitext(rel)[0].replace(os.sep, "/")
            tokens.extend(
                load_phn(phn_path, whitelist=whitelist, split=split,
                         utterance_id=utt, audio_path=audio_path)
            )
    return tokens
