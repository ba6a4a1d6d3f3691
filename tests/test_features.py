import importlib.util
import io
import json
import math
import os
import re
import struct
import sys
import tempfile
import threading
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dvmer import features as F
from dvmer.errors import BadFeatureCache, BadSampleRate, ConfigError, TrackTooShort

import example_checks as ec

SR = 44100

FEATURE_EXAMPLES = [(n, f) for n, f in ec.EXAMPLES if n.startswith("features.")]


@pytest.mark.parametrize("label,check", FEATURE_EXAMPLES, ids=[n for n, _ in FEATURE_EXAMPLES])
def test_examples(label, check):
    check()


def test_select_segment_rejects_wrong_rate():
    with pytest.raises(BadSampleRate):
        F.select_segment(np.zeros(100 * 22050), 22050)


def test_select_segment_rejects_short_track():
    with pytest.raises(TrackTooShort):
        F.select_segment(np.zeros(29 * SR), SR)


def test_frame_len_must_fit_segment():
    with pytest.raises(ConfigError, match="frame_len"):
        F.FeatureConfig(frame_len=2 * 61 * SR, hop=61 * SR)
    # a segment built directly can still be shorter than the configured frame
    seg = F.AudioSegment(np.zeros(F.FeatureConfig().frame_size - 1), SR, 15.0)
    with pytest.raises(ConfigError, match="exceeds segment length"):
        F.mel_spectrogram(seg, F.FeatureConfig())


def test_default_frame_geometry_contract():
    # hop = ceil(segment/frames), frame = 2*hop, count = ceil(segment/hop)
    cfg = F.FeatureConfig()
    assert cfg.hop_len == -(-cfg.segment_len // cfg.frame_count)
    assert cfg.frame_size == 2 * cfg.hop_len
    assert cfg.n_frames(cfg.segment_len) == 87
    assert cfg.n_fft == 2 * cfg.frame_size


def _gather_frames(x, frame_len, hop):
    """The frame copy by an index gather that frame_signal's view replaced."""
    n = math.ceil(x.shape[0] / hop)
    needed = (n - 1) * hop + frame_len
    padded = np.concatenate([x, np.zeros(max(0, needed - x.shape[0]))])
    return padded[np.arange(frame_len)[None, :] + hop * np.arange(n)[:, None]]


@settings(max_examples=300, deadline=None)
@given(length=st.integers(1, 400), frame_len=st.integers(1, 64), hop=st.integers(1, 64))
def test_frame_signal_equals_the_index_gather_and_is_read_only(length, frame_len, hop):
    x = np.arange(1.0, length + 1.0)
    frames = F.frame_signal(x, frame_len, hop)
    assert np.array_equal(frames, _gather_frames(x, frame_len, hop))
    assert not frames.flags.writeable


def _reference_power(seg, cfg):
    """One-shot power spectra of the whole gathered frame array."""
    frames = _gather_frames(F.pre_emphasis(seg.samples, cfg.preemphasis), cfg.frame_size, cfg.hop_len)
    return np.abs(np.fft.rfft(frames * np.hamming(cfg.frame_size), n=cfg.n_fft, axis=1)) ** 2


@pytest.mark.parametrize("geometry", ({}, {"frame_len": 1000, "hop": 500}, {"frame_count": 13}, {"frame_count": 200}),
                         ids=("default", "len1000_hop500", "count13", "count200"))
def test_power_spectra_equal_the_one_shot_transform_at_any_worker_count(monkeypatch, geometry):
    cfg = F.FeatureConfig(**geometry)
    seg = F.AudioSegment(np.random.default_rng(4).normal(size=cfg.segment_len) * 0.1, SR, 15.0)
    reference = _reference_power(seg, cfg)
    for workers in (1, 4):
        monkeypatch.setattr(F, "FFT_WORKERS", workers)
        assert np.array_equal(F.windowed_power_spectra(seg, cfg), reference)


_ramp = np.linspace(-1.0, 1.0, 100)
_ramp_from_negative_zero = np.concatenate([[-0.0], _ramp[1:]])


@settings(max_examples=200, deadline=None)
@given(samples=hnp.arrays(np.float64, st.integers(48, 200), elements=st.floats(-1, 1)),
       half=st.integers(1, 24), hop=st.integers(1, 60), rows=st.integers(1, 5),
       coeff=st.sampled_from((0.0, 0.5, 0.97)))
@example(samples=_ramp, half=4, hop=13, rows=2, coeff=0.97)  # hop > frame_len: gaps between frames
@example(samples=_ramp, half=12, hop=5, rows=3, coeff=0.97)  # hop < frame_len / 2
@example(samples=_ramp[:97], half=12, hop=10, rows=4, coeff=0.97)  # last frame runs 17 samples past the end
@example(samples=_ramp_from_negative_zero, half=8, hop=8, rows=1, coeff=0.97)  # first sample -0.0
@example(samples=_ramp, half=8, hop=6, rows=2, coeff=0.0)  # no pre-emphasis
def test_block_spectra_are_the_bytes_of_the_whole_signal_transform(samples, half, hop, rows, coeff):
    """Each block pre-emphasises and pads only its own span; blocks of 1 to 5
    rows on 1 or 4 threads give the bytes of pre-emphasising and framing the
    whole signal at once."""
    cfg = F.FeatureConfig(segment_duration=samples.shape[0] / SR, frame_len=2 * half, hop=hop, preemphasis=coeff)
    seg = F.AudioSegment(samples, SR, 15.0)
    reference = _reference_power(seg, cfg).tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "FFT_BLOCK_BYTES", rows * 16 * (cfg.n_fft // 2 + 1))
        for workers in (1, 4):
            mp.setattr(F, "FFT_WORKERS", workers)
            assert F.windowed_power_spectra(seg, cfg).tobytes() == reference


@pytest.mark.parametrize("workers", (1, 4))
def test_power_spectra_hold_no_whole_signal_copy(monkeypatch, workers):
    """At the default geometry the traced peak above the 42 MB result stays
    within 4 MiB per worker; a float64 copy of the segment is 21 MB."""
    monkeypatch.setattr(F, "FFT_WORKERS", workers)
    cfg = F.FeatureConfig()
    seg = F.AudioSegment(np.random.default_rng(5).normal(size=cfg.segment_len) * 0.1, SR, 15.0)
    tracemalloc.start()
    try:
        power = F.windowed_power_spectra(seg, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    above = peak - power.nbytes
    assert above <= workers * (4 << 20), f"peak {above / 1e6:.1f} MB above the result at {workers} worker(s)"


def test_fft_workers_fall_back_to_the_cpu_count_without_affinity(monkeypatch):
    """Where os has no sched_getaffinity (macOS, Windows) the module still
    imports, and takes its worker count from os.cpu_count, capped at 4."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cpus, workers in ((None, 1), (1, 1), (3, 3), (64, 4)):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        # a second copy of the module, so its constants are computed under the patches
        spec = importlib.util.spec_from_file_location("dvmer._features_copy", F.__file__)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up there
        spec.loader.exec_module(module)
        assert module.FFT_WORKERS == workers


def _record_blocks(monkeypatch, workers):
    """Run the FFT blocks on that many workers, one frame per block, and
    record for each block whether the calling thread ran it and under which
    np.geterr(): every block pre-emphasises its span once."""
    seen, real = [], F.pre_emphasis

    def pre_emphasis(x, coeff):
        seen.append((threading.current_thread() is threading.main_thread(), np.geterr()))
        return real(x, coeff)

    monkeypatch.setattr(F, "pre_emphasis", pre_emphasis)
    monkeypatch.setattr(F, "FFT_WORKERS", workers)
    monkeypatch.setattr(F, "FFT_BLOCK_BYTES", 1)
    return seen


_SMALL_CFG = F.FeatureConfig(segment_duration=1.0, frame_count=8)
_SMALL_SEG = F.AudioSegment(np.random.default_rng(6).normal(size=_SMALL_CFG.segment_len) * 0.1, SR, 15.0)


def test_at_one_fft_worker_every_block_runs_on_the_calling_thread(monkeypatch):
    seen = _record_blocks(monkeypatch, 1)

    def start(thread):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", start)
    F.windowed_power_spectra(_SMALL_SEG, _SMALL_CFG)
    assert [main for main, _ in seen] == [True] * _SMALL_CFG.n_frames(_SMALL_CFG.segment_len)


def test_at_two_fft_workers_every_block_runs_in_the_callers_errstate(monkeypatch):
    """The caller holds its first block until the helper has taken one, so
    both threads run blocks; the helper runs under the caller's
    np.errstate, as an inference stream does."""
    seen = _record_blocks(monkeypatch, 2)
    helper_ran, record = threading.Event(), F.pre_emphasis

    def pre_emphasis(x, coeff):
        if threading.current_thread() is threading.main_thread():
            assert helper_ran.wait(timeout=30)
        else:
            helper_ran.set()
        return record(x, coeff)

    monkeypatch.setattr(F, "pre_emphasis", pre_emphasis)
    with np.errstate(all="ignore"):
        caller = np.geterr()
        F.windowed_power_spectra(_SMALL_SEG, _SMALL_CFG)
    assert len(seen) == _SMALL_CFG.n_frames(_SMALL_CFG.segment_len)
    assert {main for main, _ in seen} == {True, False}
    assert all(errstate == caller for _, errstate in seen)


def test_openblas_is_found_through_a_path_with_a_space_past_a_deleted_mapping(monkeypatch, tmp_path):
    """A maps line's path is its sixth field and may hold spaces. Each
    OpenBLAS line is fed back naming its library through a symlink in a
    directory whose name holds a space, after a line for a mapped file
    that is gone, which cannot be loaded and is passed over."""
    if F.openblas("get_num_threads") is None:
        pytest.skip("no OpenBLAS is mapped")
    site, gone = tmp_path / "site with space", tmp_path / "a gone dir" / "libscipy_openblas64_.so"
    site.mkdir()
    real_open, fed = open, []

    def maps_open(path, *args, **kwargs):
        with real_open(path, *args, **kwargs) as fh:
            lines = [line.split(None, 5) for line in fh if "openblas" in line.lower()]
        fed.append(f"7f0000000000-7f0000001000 r--p 00000000 00:00 0    {gone} (deleted)\n")
        for fields in lines:
            lib = fields[5].rstrip("\n")
            link = site / Path(lib).name
            if not link.exists():
                link.symlink_to(lib)
            fed.append(" ".join(fields[:5] + [f"   {link}\n"]))
        return io.StringIO("".join(fed))

    F.openblas.cache_clear()
    monkeypatch.setattr(F, "open", maps_open, raising=False)
    try:
        get_n = F.openblas("get_num_threads")
        assert len(fed) > 1 and get_n is not None and get_n() >= 1
    finally:
        F.openblas.cache_clear()


def _scatter(spans, shape):
    bank = np.zeros(shape)
    for b, (first, weights) in enumerate(spans):
        bank[b, first:first + weights.shape[0]] = weights
    return bank


def test_banks_are_built_once_per_config_and_read_only(monkeypatch):
    real = {name: getattr(F, name) for name in ("mel_spans", "gammatone_filterbank")}
    builds = []
    for name, build in real.items():
        monkeypatch.setattr(F, name, lambda cfg, name=name, build=build: builds.append(name) or build(cfg))
    F._banks.cache_clear()
    configs = (F.FeatureConfig(frame_len=2048, hop=1024), F.FeatureConfig(frame_len=1024, hop=512))
    for cfg in configs + configs:
        power = np.random.default_rng(6).random((3, cfg.n_fft // 2 + 1))
        dense = F.mel_filterbank(cfg)
        # the spans hold every entry of the dense bank with its bits; only the
        # order in which each band's energy is summed differs
        assert np.array_equal(_scatter(F._banks(cfg)[0], dense.shape), dense)
        np.testing.assert_allclose(F.mel_energies_from_spectra(power, cfg), dense @ power.T, rtol=1e-13, atol=0)
        assert np.array_equal(F.coch_energies_from_spectra(power, cfg), real["gammatone_filterbank"](cfg) @ power.T)
    assert sorted(builds) == ["gammatone_filterbank"] * 2 + ["mel_spans"] * 2
    spans, gammatone = F._banks(configs[0])
    for bank in [weights for _, weights in spans] + [gammatone]:
        with pytest.raises(ValueError, match="read-only"):
            bank[..., :1] = 1.0


@settings(max_examples=60, deadline=None)
@given(bands=st.integers(1, 160), fmin=st.floats(0.0, 21000.0), width=st.floats(1.0, 22050.0),
       hop=st.integers(1, 400))
# a 64-sample frame: bins 344.5 Hz apart, so the lowest bands hold no bin
@example(bands=128, fmin=0.0, width=22050.0, hop=32)
def test_mel_spans_scatter_to_the_dense_bank(bands, fmin, width, hop):
    cfg = F.FeatureConfig(mel_bands=bands, mel_fmin=fmin, mel_fmax=min(fmin + width, 22050.0), frame_len=2 * hop,
                          hop=hop)
    dense = F.mel_filterbank(cfg)
    spans = F.mel_spans(cfg)
    assert np.array_equal(_scatter(spans, dense.shape), dense)
    power = np.random.default_rng(bands).random((2, dense.shape[1]))
    energies = F.mel_energies_from_spectra(power, cfg)
    np.testing.assert_allclose(energies, dense @ power.T, rtol=1e-13, atol=0)
    for (_, weights), row in zip(spans, energies):
        assert weights.shape[0] or not row.any()


def test_extract_pair_mel_is_the_bytes_of_the_dense_bank_product():
    """A span one bin off moves a band's energy by a whole bin's weight; the
    cache's float32 grams show it where a tolerance over the gram may not."""
    cfg = F.FeatureConfig()
    rng = np.random.default_rng(22)
    t = np.arange(cfg.segment_len) / SR
    x = 0.3 * np.sin(2 * np.pi * 440.0 * t) * (1 + np.sin(2 * np.pi * 0.5 * t)) + 0.05 * rng.normal(size=t.shape)
    x[-10 * SR:] = 0.0  # a track that ends inside the window: its last frames hit the floor
    seg = F.AudioSegment(x, SR, 15.0)
    power = F.windowed_power_spectra(seg, cfg)
    want = np.log(np.maximum(F.mel_filterbank(cfg) @ power.T, cfg.log_floor)).astype(np.float32)
    assert F.extract_pair(seg, cfg).mel.tobytes() == want.tobytes()


def test_power_spectra_allocation_peak_stays_below_twice_the_result():
    cfg = F.FeatureConfig()
    seg = F.AudioSegment(np.random.default_rng(5).normal(size=cfg.segment_len) * 0.1, SR, 15.0)
    tracemalloc.start()
    try:
        power = F.windowed_power_spectra(seg, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * power.nbytes, f"peak {peak / 1e6:.1f} MB for a {power.nbytes / 1e6:.1f} MB result"


def test_segment_owns_its_samples():
    """The segment is a copy, so dropping the track frees the whole track;
    its samples are the window's, zero-padded past the track's end."""
    cfg = F.FeatureConfig()
    start = round(cfg.segment_start * SR)
    for seconds in (120, 50):
        track = np.random.default_rng(seconds).normal(size=seconds * SR)
        seg = F.select_segment(track, SR, cfg).samples
        window = track[start:start + cfg.segment_len]
        assert not np.shares_memory(seg, track)
        assert seg.tobytes() == np.concatenate([window, np.zeros(cfg.segment_len - window.shape[0])]).tobytes()


def test_extraction_deterministic():
    cfg = F.FeatureConfig(frame_len=2048, hop=1024)
    rng = np.random.default_rng(0)
    seg = F.AudioSegment(rng.normal(size=cfg.segment_len) * 0.1, SR, 15.0)
    a = F.extract_pair(seg, cfg)
    b = F.extract_pair(seg, cfg)
    assert np.array_equal(a.mel, b.mel)
    assert np.array_equal(a.coch, b.coch)


def test_gain_monotone_above_floor():
    cfg = F.FeatureConfig(frame_len=2048, hop=1024)
    rng = np.random.default_rng(1)
    x = rng.normal(size=cfg.segment_len) * 0.05
    base = F.mel_spectrogram(F.AudioSegment(x, SR, 15.0), cfg).values
    louder = F.mel_spectrogram(F.AudioSegment(3.0 * x, SR, 15.0), cfg).values
    floor = np.log(cfg.log_floor)
    above = base > floor + 1e-9
    assert np.all(louder[above] >= base[above] - 1e-9)


def test_views_share_preemphasised_signal():
    cfg = F.FeatureConfig(frame_len=2048, hop=1024)
    rng = np.random.default_rng(2)
    seg = F.AudioSegment(rng.normal(size=cfg.segment_len) * 0.1, SR, 15.0)
    pair = F.extract_pair(seg, cfg)
    mel = F.mel_spectrogram(seg, cfg)
    coch = F.cochleagram(seg, cfg)
    assert np.array_equal(pair.mel, mel.values.astype(np.float32))
    assert np.array_equal(pair.coch, coch.values.astype(np.float32))


def test_both_views_keep_the_segments_frame_order():
    """A segment silent in its first half and a 440 Hz tone in its second:
    the last frames of both views carry more energy than the first."""
    cfg = F.FeatureConfig(segment_duration=2.0, frame_count=16)
    t = np.arange(cfg.segment_len) / SR
    samples = np.where(t >= 1.0, 0.5 * np.sin(2 * np.pi * 440.0 * t), 0.0)
    pair = F.extract_pair(F.AudioSegment(samples, SR, 15.0), cfg)
    for view in (pair.mel, pair.coch):
        assert view[:, -4:].sum() > view[:, :4].sum()


def test_mel_frame_grid_matches_coch():
    pair = ec.silence_pair()
    assert pair.mel.shape[1] == pair.coch.shape[1] == 87


def test_pre_emphasis_empty_rejected():
    with pytest.raises(ConfigError):
        F.pre_emphasis(np.zeros(0))


def test_gammatone_centres_log_spaced():
    cfg = F.FeatureConfig()
    centers = F.gammatone_center_frequencies(cfg)
    assert centers.shape == (84,)
    assert centers[0] == pytest.approx(50.0)
    assert centers[-1] == pytest.approx(18000.0)
    ratios = centers[1:] / centers[:-1]
    assert np.allclose(ratios, ratios[0])


def test_cache_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    pair = F.FeaturePair(mel=rng.normal(size=(128, 87)), coch=rng.normal(size=(84, 87)))
    path = tmp_path / "track.dmrf"
    F.write_feature_cache(path, pair, "track", F.FeatureConfig())
    back = F.read_feature_cache(path)
    assert np.array_equal(back.mel, pair.mel)
    assert np.array_equal(back.coch, pair.coch)
    sidecar = (tmp_path / "track.dmrf.json").read_text()
    assert '"track_id": "track"' in sidecar
    assert '"config_hash"' in sidecar


GRAMS = hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6))


@settings(max_examples=100, deadline=None)
@given(mel=GRAMS, coch=GRAMS, track_id=st.text(max_size=12))
@example(mel=np.ones((2, 1), np.float32), coch=np.array([[0.5, -np.inf]], np.float32), track_id="t")
def test_cache_round_trips_exactly(mel, coch, track_id):
    """Finite grams read back bit-exact; a gram holding NaN or inf is refused by name."""
    cfg = F.FeatureConfig()
    bad = next((name for name, gram in (("mel", mel), ("coch", coch)) if not np.isfinite(gram).all()), None)
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "track.dmrf"
        F.write_feature_cache(path, F.FeaturePair(mel=mel, coch=coch), track_id, cfg)
        sidecar = json.loads((Path(root) / "track.dmrf.json").read_text())
        if bad is None:
            back = F.read_feature_cache(path)
        else:
            with pytest.raises(BadFeatureCache, match=f"^{re.escape(str(path))}: the {bad} gram holds a non-finite"):
                F.read_feature_cache(path)
    assert sidecar == {"track_id": track_id, "config_hash": cfg.config_hash(),
                       "grams": [{"name": "mel", "dims": list(mel.shape)}, {"name": "coch", "dims": list(coch.shape)}]}
    if bad is None:
        for stored, gram in ((back.mel, mel), (back.coch, coch)):
            assert stored.shape == gram.shape and stored.tobytes() == gram.tobytes()


def test_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.dmrf"
    path.write_bytes(b"WXYZ" + b"\x00" * 16)
    with pytest.raises(BadFeatureCache):
        F.read_feature_cache(path)


def _cache_fields():
    """End offset of every header field and payload in the cache `_small_cache` writes."""
    ends, offset = {}, 0
    for name, size in (("magic", 4), ("version", 4)):
        offset += size
        ends[name] = offset
    for gram, shape in (("mel", (3, 4)), ("coch", (2, 4))):
        for name, size in (("tag_rank", 2), ("dims", 8), ("payload", 4 * math.prod(shape))):
            offset += size
            ends[f"{gram}.{name}"] = offset
    return ends


def _small_cache(path):
    pair = F.FeaturePair(mel=np.arange(12.0).reshape(3, 4), coch=-np.arange(8.0).reshape(2, 4))
    F.write_feature_cache(path, pair, "small", F.FeatureConfig())
    return path.read_bytes()


CACHE_ENDS = _cache_fields()
# cutting after the last field would leave the whole file
CACHE_CUTS = [(f, w) for f in CACHE_ENDS for w in ("inside", "after") if (f, w) != ("coch.payload", "after")]


@pytest.mark.parametrize("field,where", CACHE_CUTS)
def test_truncated_cache_is_a_bad_cache(tmp_path, field, where):
    buf = _small_cache(tmp_path / "full.dmrf")
    assert len(buf) == CACHE_ENDS["coch.payload"]
    cut = CACHE_ENDS[field] - (1 if where == "inside" else 0)
    path = tmp_path / "cut.dmrf"
    path.write_bytes(buf[:cut])
    with pytest.raises(BadFeatureCache):
        F.read_feature_cache(path)


@pytest.mark.parametrize("defect,match", (
    ("tag", "unknown dtype tag 7 for coch"),
    ("version", "unsupported cache version 2"),
    ("stray", "1 stray byte"),
    ("rank", "2-d"),
))
def test_malformed_cache_is_a_bad_cache(tmp_path, defect, match):
    buf = bytearray(_small_cache(tmp_path / "full.dmrf"))
    if defect == "tag":
        buf[CACHE_ENDS["mel.payload"]] = 7
    elif defect == "version":
        buf[4] = 2
    elif defect == "stray":
        buf += b"\0"
    else:  # mel as a [12] vector: rank 1, one dim, the same payload
        start = CACHE_ENDS["version"]
        buf[start:start + 10] = struct.pack("<BBI", 0, 1, 12)
    path = tmp_path / "bad.dmrf"
    path.write_bytes(bytes(buf))
    with pytest.raises(BadFeatureCache, match=match):
        F.read_feature_cache(path)


def _write_wav(path, samples, channels=1):
    pcm = np.clip(np.asarray(samples) * 32767, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(SR)
        wf.writeframes(pcm.tobytes())


def test_read_wav_mono_and_stereo(tmp_path):
    t = np.arange(SR) / SR
    x = 0.25 * np.sin(2 * np.pi * 440 * t)
    mono = tmp_path / "mono.wav"
    _write_wav(mono, x)
    data, rate = F.read_wav(mono)
    assert rate == SR and data.shape == x.shape
    assert np.max(np.abs(data - x)) < 1e-3

    stereo = tmp_path / "stereo.wav"
    interleaved = np.empty(2 * x.shape[0])
    interleaved[0::2] = x
    interleaved[1::2] = -x
    _write_wav(stereo, interleaved, channels=2)
    data, rate = F.read_wav(stereo)
    assert data.shape == x.shape
    assert np.max(np.abs(data)) < 1e-3  # channels average to silence


def _write_pcm(path, pcm, channels):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(SR)
        wf.writeframes(pcm.astype("<i2").tobytes())


# WAV chunk lengths the decoder is read at: 1 and 7 frames put chunk
# boundaries inside a window, at its end and at the track's end
# (44100 = 7 * 6300); the default reads a short track in one chunk
WAV_CHUNKS = (1, 7, F.WAV_CHUNK_FRAMES)


@pytest.mark.parametrize("channels", (1, 2, 3, 6))
def test_read_wav_is_the_bytes_of_the_float_channel_mean(tmp_path, monkeypatch, channels):
    rng = np.random.default_rng(channels)
    pcm = rng.integers(-32768, 32768, size=(4001, channels))
    pcm[:3] = [[-32768] * channels, [32767] * channels, [-32768, 32767] * (channels // 2) + [1] * (channels % 2)]
    path = tmp_path / "track.wav"
    _write_pcm(path, pcm, channels)
    want = pcm.reshape(-1).astype("<i2").astype(np.float64) / 32768
    if channels > 1:
        want = want.reshape(-1, channels).mean(axis=1)
    for chunk in WAV_CHUNKS:
        monkeypatch.setattr(F, "WAV_CHUNK_FRAMES", chunk)
        data, rate = F.read_wav(path)
        assert rate == SR and data.dtype == np.float64
        assert data.tobytes() == want.tobytes(), f"{chunk}-frame chunks"


def test_a_read_that_ends_early_leaves_the_rest_of_the_track_zero(tmp_path, monkeypatch):
    """The header's frame count sizes the result; if the file yields fewer
    frames than that, the decode stops at the first empty read."""
    path = tmp_path / "track.wav"
    pcm = np.random.default_rng(3).integers(-32768, 32768, size=(100, 2))
    _write_pcm(path, pcm, 2)
    real, calls = wave.Wave_read.readframes, []

    def first_chunk_only(self, n):
        calls.append(n)
        return real(self, n) if len(calls) == 1 else b""

    monkeypatch.setattr(F, "WAV_CHUNK_FRAMES", 7)
    monkeypatch.setattr(wave.Wave_read, "readframes", first_chunk_only)
    data, _ = F.read_wav(path)
    assert calls == [7, 7]
    assert data.tobytes() == np.concatenate([pcm[:7].sum(axis=1) / 65536.0, np.zeros(93)]).tobytes()


def test_stereo_read_wav_peaks_below_the_interleaved_float64_size(tmp_path):
    frames = 200_000
    path = tmp_path / "stereo.wav"
    _write_pcm(path, np.random.default_rng(5).integers(-32768, 32768, size=(frames, 2)), 2)
    tracemalloc.start()
    try:
        data, _ = F.read_wav(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.shape == (frames,)
    interleaved = frames * 2 * 8
    assert peak < interleaved, f"peak {peak / 1e6:.2f} MB, interleaved float64 {interleaved / 1e6:.2f} MB"


def _malformed_wav(path, defect):
    """A WAV with one defect: not RIFF/WAVE, a header cut short, a fmt
    chunk size past its chunk, audio data that ends inside a frame, or a
    RIFF chunk size that ends the data inside a frame."""
    _write_wav(path, np.zeros(64), channels=2)
    buf = bytearray(path.read_bytes())
    if defect == "not_riff":
        buf[:4] = b"RIFX"
    elif defect == "cut_header":
        buf = buf[:20]
    elif defect == "chunk_size":
        buf[16:20] = struct.pack("<I", 0xFFFF)
    elif defect == "riff_cut":
        buf[4:8] = struct.pack("<I", len(buf) - 8 - 37)
    else:
        buf = buf[:-1]
    path.write_bytes(bytes(buf))


WAV_DEFECTS = ("not_riff", "cut_header", "chunk_size", "mid_frame", "riff_cut")


def test_read_wav_unopenable_path_is_a_config_error_naming_it(tmp_path):
    path = tmp_path / "folder.wav"
    path.mkdir()
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: cannot read"):
        F.read_wav(path)


@pytest.mark.parametrize("defect", WAV_DEFECTS)
def test_read_wav_malformed_file_is_a_config_error_naming_it(tmp_path, defect):
    path = tmp_path / "bad.wav"
    _malformed_wav(path, defect)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: malformed WAV") as whole:
        F.read_wav(path)
    with pytest.raises(ConfigError) as window:
        F.read_segment(path)
    assert str(window.value) == str(whole.value)


@pytest.mark.parametrize("seconds,channels,start", ((40, 1, 15.0), (90, 2, 15.0), (31, 3, 15.0), (80, 1, 50.0),
                                                    (40, 2, 45.0)))
def test_read_segment_is_select_segment_of_read_wav(tmp_path, monkeypatch, seconds, channels, start):
    """Reading only the window gives the segment's bytes, whether the track
    covers the window, ends inside it or ends before it starts, and wherever
    the chunk boundaries fall (1-frame reads of a 60 s window would take
    seconds; read_wav's test covers them)."""
    path = tmp_path / "track.wav"
    _write_pcm(path, np.random.default_rng(seconds).integers(-32768, 32768, size=(seconds * SR, channels)), channels)
    cfg = F.FeatureConfig(segment_start=start)
    want = F.select_segment(*F.read_wav(path), cfg).signal().tobytes()
    for chunk in WAV_CHUNKS[1:]:
        monkeypatch.setattr(F, "WAV_CHUNK_FRAMES", chunk)
        seg = F.read_segment(path, cfg)
        assert seg.signal().tobytes() == want, f"{chunk}-frame chunks"
        assert seg.start_offset == start


@pytest.mark.parametrize("channels", (1, 2, 3, 6))
def test_read_segment_holds_the_window_as_int32_channel_sums(tmp_path, monkeypatch, channels):
    """The window is the exact integer sum over channels, zero-padded past
    the track's end, at 4 bytes a sample; the signal divides it by
    channels * 32768."""
    cfg = F.FeatureConfig(segment_start=0.01, segment_duration=0.1)
    pcm = np.random.default_rng(channels).integers(-32768, 32768, size=(3000, channels))
    pcm[:2] = [[-32768] * channels, [32767] * channels]
    path = tmp_path / "track.wav"
    _write_pcm(path, pcm, channels)
    monkeypatch.setattr(F, "MIN_TRACK_SECONDS", 0.01)
    seg = F.read_segment(path, cfg)
    assert seg.samples.dtype == np.int32 and seg.samples.nbytes == 4 * cfg.segment_len
    assert seg.scale == channels * 32768.0
    covered = pcm.shape[0] - cfg.segment_offset
    assert np.array_equal(seg.samples[:covered], pcm[cfg.segment_offset:].sum(axis=1))
    assert not seg.samples[covered:].any()


# a 4,410-sample window in 8 frames of 1,104 samples, small enough for many
# examples; with a 1-byte block each frame is its own FFT block, so every
# block but the first reads its span from inside the window
SMALL_WAV_CFG = F.FeatureConfig(segment_start=0.01, segment_duration=0.1, frame_count=8)


@settings(max_examples=40, deadline=None)
@given(channels=st.integers(1, 6), frames=st.integers(441, 6000), seed=st.integers(0, 2**32 - 1))
@example(channels=3, frames=5000, seed=0)  # the float32 mean of 3 or 6 channels is not the float64 one
@example(channels=6, frames=2000, seed=1)
def test_the_int32_window_gives_the_spectra_and_grams_of_the_float_window(tmp_path_factory, channels, frames,
                                                                           seed):
    pcm = np.random.default_rng(seed).integers(-32768, 32768, size=(frames, channels))
    pcm[:2] = [[-32768] * channels, [32767] * channels]
    path = tmp_path_factory.mktemp("wav") / "track.wav"
    _write_pcm(path, pcm, channels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "MIN_TRACK_SECONDS", 0.01)
        mp.setattr(F, "FFT_BLOCK_BYTES", 1)
        window = F.read_segment(path, SMALL_WAV_CFG)
        whole = F.select_segment(*F.read_wav(path), SMALL_WAV_CFG)
        spectra = [F.windowed_power_spectra(seg, SMALL_WAV_CFG) for seg in (window, whole)]
        pairs = [F.extract_pair(seg, SMALL_WAV_CFG) for seg in (window, whole)]
    assert spectra[0].tobytes() == spectra[1].tobytes()
    assert pairs[0].mel.tobytes() == pairs[1].mel.tobytes()
    assert pairs[0].coch.tobytes() == pairs[1].coch.tobytes()


def test_read_segment_peaks_at_its_segment_plus_one_chunk(tmp_path):
    """A stereo track's window is decoded chunk by chunk into the segment:
    no track- or window-sized buffer beside it."""
    path = tmp_path / "stereo.wav"
    _write_pcm(path, np.random.default_rng(9).integers(-32768, 32768, size=(90 * SR, 2)), 2)
    tracemalloc.start()
    try:
        seg = F.read_segment(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    limit = seg.samples.nbytes + (1 << 20)
    assert peak <= limit, f"peak {peak / 1e6:.2f} MB, segment plus 1 MiB {limit / 1e6:.2f} MB"


@pytest.mark.parametrize("rate,seconds", ((SR, 29.99), (22050, 40)))
def test_read_segment_refuses_a_track_as_select_segment_does(tmp_path, rate, seconds):
    path = tmp_path / "track.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(np.zeros(int(seconds * rate), dtype="<i2").tobytes())
    with pytest.raises((TrackTooShort, BadSampleRate)) as whole:
        F.select_segment(*F.read_wav(path))
    with pytest.raises(whole.type, match=f"^{re.escape(str(whole.value))}$"):
        F.read_segment(path)


def test_data_that_ends_inside_a_frame_past_the_window_is_malformed(tmp_path):
    path = tmp_path / "cut.wav"
    _write_pcm(path, np.zeros((80 * SR, 2)), 2)
    path.write_bytes(path.read_bytes()[:-1])
    for read in (F.read_wav, F.read_segment):
        with pytest.raises(ConfigError, match="malformed WAV: audio data ends inside a 4-byte frame"):
            read(path)


@pytest.mark.parametrize("field,value", (
    ("sample_rate", 48000), ("sample_rate", 22050),
    ("segment_duration", 0.0), ("segment_duration", math.nan), ("frame_count", 0), ("mel_bands", 0),
    ("coch_channels", 0), ("gammatone_order", 0), ("compression", 0.0), ("compression", math.nan),
    ("log_floor", 0.0), ("log_floor", math.nan), ("segment_start", -1.0), ("segment_start", math.nan),
    ("mel_fmin", -1.0), ("mel_fmin", 22050.0), ("mel_fmin", math.nan), ("mel_fmax", 30000.0),
    ("mel_fmax", math.nan), ("gt_fmin", 0.0), ("gt_fmin", 18000.0), ("gt_fmin", math.nan),
    ("gt_fmax", 22051.0), ("gt_fmax", math.nan), ("preemphasis", 1.0), ("preemphasis", -0.1),
    ("preemphasis", math.nan), ("frame_len", 0), ("hop", 0), ("hop", math.nan),
    ("frame_len", 1001), ("frame_len", 2 * 60 * SR + 2), ("frame_count", 1), ("hop", 60 * SR),
    ("segment_duration", 1e-9), ("segment_duration", math.inf), ("segment_duration", 1e305),
    ("segment_start", math.inf), ("segment_start", 1e305), ("compression", math.inf), ("log_floor", math.inf),
    ("frame_len", -2),
))
def test_feature_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ConfigError, match=field):
        F.FeatureConfig(**{field: value})


def test_feature_config_accepts_the_range_edges_and_keeps_its_hash():
    edges = F.FeatureConfig(segment_start=0.0, mel_fmin=0.0, mel_fmax=22050.0, gt_fmax=22050.0,
                            preemphasis=0.0, frame_len=2, hop=1)
    assert edges.hop_len == 1
    assert F.FeatureConfig(frame_count=2).frame_size == F.FeatureConfig().segment_len
    # the checks add no field, so the default hash stays the same
    assert F.FeatureConfig().config_hash() == "7fac088bdb27b53b"
