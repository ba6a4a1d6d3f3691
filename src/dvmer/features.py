"""Audio feature extraction: Mel spectrogram and cochleagram views.

A fixed 60-second segment (15 s to 75 s after track onset, zero-padded when
the track ends early) is turned into two time-frequency views that share one
pre-emphasised signal and one frame grid:

  * Mel view: Hamming-windowed frames, double-length FFT, 128 triangular
    Mel filters over the power spectrum, natural log with a floor.
  * Cochlear view: the same windowed power spectra weighted by the power
    response of an 84-channel fourth-order gammatone bank (log-spaced
    centres), per-frame band energy, power-law compression, log10 with a
    floor.

Frame geometry is chosen so the segment yields exactly 87 frames with 50%
overlap: hop = ceil(segment_len / 87), frame_len = 2 * hop, and the frame
count n = ceil(segment_len / hop); the signal tail is zero-padded to cover
the last frame.

The spectra are computed in blocks of frames on the threads of `run_blocks`,
which also runs the inference batches. Each block converts, pre-emphasises
and zero-pads only the samples its own frames cover, so the segment is never
copied whole; the bytes are those of pre-emphasising and framing the whole
segment at once. `openblas` is the package's one search for numpy's OpenBLAS.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import hashlib
import json
import math
import os
import threading
import wave
from dataclasses import dataclass, asdict

import numpy as np

from .errors import BadFeatureCache, BadSampleRate, ConfigError, ShapeMismatch, TrackTooShort, check_fields, check_finite
from .ioutil import atomic_write_bytes, open_framed, pack_array, write_framed

CACHE_MAGIC = b"DMRF"
CACHE_VERSION = 1

REQUIRED_SAMPLE_RATE = 44100
MIN_TRACK_SECONDS = 30.0

# the cores the process may run on; macOS and Windows have no
# os.sched_getaffinity, and there the CPU count stands in for the mask
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# np.fft releases the GIL, so frame blocks transform in parallel on threads;
# each row's bits do not depend on the block or thread that computed it.
FFT_WORKERS = min(CORES, 4)
# complex spectrum bytes per block: one frame at the default geometry, many
# rows for small frames so that no geometry pays one task per frame
FFT_BLOCK_BYTES = 1 << 20
# WAV frames decoded per read: the window's raw bytes and int32 channel sum
# exist one chunk at a time, never whole
WAV_CHUNK_FRAMES = 1 << 16


@functools.lru_cache(maxsize=None)
def openblas(name: str):
    """The function `name` ("set_num_threads", "get_config", ...) of the
    OpenBLAS that numpy loaded, under the prefix and suffix its build
    exports, or None where none is mapped (macOS, another BLAS). Looked up
    on first use, so importing the package reads no /proc file."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # the path is the sixth field, and it may hold spaces
            libs = sorted({line.split(None, 5)[5].rstrip("\n") for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file is gone, such as "... (deleted)"
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            function = getattr(lib, f"{prefix}_{name}{suffix}", None)
            if function is not None:
                return function
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread inside the block and restore its count on
    exit, also when the block raises; without OpenBLAS it does nothing. An
    idle OpenBLAS thread spins on a core for a while after each parallel
    GEMM, so a block that runs its own threads beside BLAS calls holds it."""
    set_n, get_n = openblas("set_num_threads"), openblas("get_num_threads")
    if set_n is None or get_n is None:
        yield
        return
    before = get_n()
    set_n(1)
    try:
        yield
    finally:
        set_n(before)


def run_blocks(work, starts, workers: int) -> list:
    """[work(start) for start in starts], run by the calling thread and
    workers - 1 helpers, each taking the next start from one iterator. A
    helper runs in a copy of the caller's context, so under its np.errstate.
    The first error stops every thread at its next start, and is raised
    here once the helpers have joined."""
    pending, lock, done, errors = iter(starts), threading.Lock(), {}, []

    def run():
        while not errors:
            with lock:
                start = next(pending, None)
            if start is None:
                return
            try:
                done[start] = work(start)
            except BaseException as exc:  # raised by the caller once every thread has stopped
                errors.append(exc)

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(run,)) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    run()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return [done[start] for start in starts]


@dataclass(frozen=True)
class FeatureConfig:
    sample_rate: int = 44100
    segment_start: float = 15.0
    segment_duration: float = 60.0
    frame_count: int = 87
    preemphasis: float = 0.97
    mel_bands: int = 128
    mel_fmin: float = 0.0
    mel_fmax: float = 22050.0
    coch_channels: int = 84
    gammatone_order: int = 4
    gt_fmin: float = 50.0
    gt_fmax: float = 18000.0
    compression: float = 0.3
    log_floor: float = 1e-10
    # explicit frame geometry override; derived from frame_count when None
    frame_len: int | None = None
    hop: int | None = None

    def __post_init__(self):
        check_fields(self, positive=("segment_duration", "frame_count", "mel_bands", "coch_channels",
                                     "gammatone_order", "compression", "log_floor", "frame_len", "hop"),
                     non_negative=("segment_start",), below_one=("preemphasis",))
        if self.sample_rate != REQUIRED_SAMPLE_RATE:
            raise ConfigError(f"sample_rate must be {REQUIRED_SAMPLE_RATE}, got {self.sample_rate}")
        nyquist = self.sample_rate / 2
        if not 0 <= self.mel_fmin < self.mel_fmax <= nyquist:
            raise ConfigError(f"mel_fmin and mel_fmax must satisfy 0 <= mel_fmin < mel_fmax <= {nyquist}, "
                              f"got {self.mel_fmin} and {self.mel_fmax}")
        if not 0 < self.gt_fmin < self.gt_fmax <= nyquist:
            raise ConfigError(f"gt_fmin and gt_fmax must satisfy 0 < gt_fmin < gt_fmax <= {nyquist}, "
                              f"got {self.gt_fmin} and {self.gt_fmax}")
        if not math.isfinite((self.segment_start + self.segment_duration) * self.sample_rate):
            raise ConfigError(f"segment_start + segment_duration must be finite in samples, got "
                              f"{self.segment_start} + {self.segment_duration}")
        if not (self.frame_size % 2 == 0 and 0 < self.frame_size <= self.segment_len):
            key = "frame_len" if self.frame_len is not None else "hop" if self.hop is not None else "frame_count"
            raise ConfigError(f"{key} gives a frame of {self.frame_size} samples; a frame must be even, nonempty "
                              f"and no longer than the segment_duration's {self.segment_len} samples")

    @property
    def segment_len(self) -> int:
        return int(round(self.segment_duration * self.sample_rate))

    @property
    def segment_offset(self) -> int:
        """First sample of the analysis window."""
        return int(round(self.segment_start * self.sample_rate))

    @property
    def hop_len(self) -> int:
        if self.hop is not None:
            return self.hop
        return math.ceil(self.segment_len / self.frame_count)

    @property
    def frame_size(self) -> int:
        if self.frame_len is not None:
            return self.frame_len
        return 2 * self.hop_len

    @property
    def n_fft(self) -> int:
        return 2 * self.frame_size

    def n_frames(self, signal_len: int) -> int:
        return math.ceil(signal_len / self.hop_len)

    def config_hash(self) -> str:
        canon = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


@dataclass
class AudioSegment:
    """The analysis window: its signal is samples / scale. Integer samples
    (a WAV's int32 channel sums) are kept as they are, at half the bytes of
    float64; any other samples become float64."""

    samples: np.ndarray
    sample_rate: int
    start_offset: float
    scale: float = 1.0

    def __post_init__(self):
        samples = np.asarray(self.samples)
        self.samples = samples if samples.dtype.kind in "iu" else samples.astype(np.float64, copy=False)
        if self.sample_rate != REQUIRED_SAMPLE_RATE:
            raise BadSampleRate(f"segment must be {REQUIRED_SAMPLE_RATE} Hz, got {self.sample_rate}")

    def signal(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The float64 signal samples[lo:hi] / scale: one rounded division
        per sample, so x / 1.0 leaves float samples as they are."""
        return self.samples[lo:hi] / self.scale


@dataclass
class MelGram:
    values: np.ndarray  # [bands, frames], natural-log energy
    frame_len: int
    hop: int


@dataclass
class CochGram:
    values: np.ndarray  # [channels, frames], log10 compressed band energy


@dataclass
class FeaturePair:
    """One track's two views, aligned to the same segment and frame grid."""

    mel: np.ndarray  # [mel_bands, frames]
    coch: np.ndarray  # [coch_channels, frames]

    def __post_init__(self):
        self.mel = np.asarray(self.mel, dtype=np.float32)
        self.coch = np.asarray(self.coch, dtype=np.float32)
        if self.mel.ndim != 2 or self.coch.ndim != 2:
            raise ShapeMismatch("feature views must be 2-d [bands, frames]")


def select_segment(track, sample_rate: int, cfg: FeatureConfig | None = None) -> AudioSegment:
    """Cut the fixed analysis window out of a track.

    Returns samples covering [segment_start, segment_start + duration);
    tracks ending inside the window are zero-padded to the full length.
    """
    cfg = cfg or FeatureConfig()
    track = np.asarray(track, dtype=np.float64)
    window = track[cfg.segment_offset:cfg.segment_offset + cfg.segment_len]
    segment = np.zeros(cfg.segment_len)  # a copy, so the caller's track can be freed
    segment[:window.shape[0]] = window
    return _checked_segment(segment, track.shape[0], sample_rate, cfg)


def read_segment(path, cfg: FeatureConfig | None = None) -> AudioSegment:
    """The analysis window of a WAV file, read without the rest of the track
    and held as its int32 channel sums: the signal and errors of
    select_segment(*read_wav(path), cfg)."""
    cfg = cfg or FeatureConfig()
    sums, scale, rate, frames = _decode_wav(path, cfg.segment_offset, cfg.segment_len)
    return _checked_segment(sums, frames, rate, cfg, scale)


def _checked_segment(segment: np.ndarray, track_len: int, sample_rate: int, cfg: FeatureConfig,
                     scale: float = 1.0) -> AudioSegment:
    """The zero-padded segment as an AudioSegment, once the sample rate and
    the whole track's length in samples pass the checks."""
    if sample_rate != REQUIRED_SAMPLE_RATE:
        raise BadSampleRate(f"expected {REQUIRED_SAMPLE_RATE} Hz, got {sample_rate}")
    duration = track_len / sample_rate
    if duration < MIN_TRACK_SECONDS:
        raise TrackTooShort(f"track is {duration:.2f} s, minimum is {MIN_TRACK_SECONDS:.0f} s")
    return AudioSegment(samples=segment, sample_rate=sample_rate, start_offset=cfg.segment_start, scale=scale)


def pre_emphasis(x, coeff: float = 0.97) -> np.ndarray:
    """First-difference high-pass y[n] = x[n] - coeff * x[n-1], with x[-1] = 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 0:
        raise ConfigError("pre_emphasis requires a nonempty signal")
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - coeff * x[:-1]
    return y


def frame_signal(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Overlapping frames starting at i*hop, the tail zero-padded to cover
    the last one. Returns a read-only strided view [n_frames, frame_len]
    of the (padded) signal; no frame is copied."""
    n_frames = math.ceil(x.shape[0] / hop)
    needed = (n_frames - 1) * hop + frame_len
    if needed > x.shape[0]:
        x = np.concatenate([x, np.zeros(needed - x.shape[0])])
    return np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop][:n_frames]


def windowed_power_spectra(seg: AudioSegment, cfg: FeatureConfig) -> np.ndarray:
    """Shared front half of both views: pre-emphasis, framing, Hamming
    window, double-length FFT. Returns power spectra [n_frames, n_bins].

    Row blocks of about FFT_BLOCK_BYTES of spectrum are transformed and
    squared by run_blocks on FFT_WORKERS threads into the one output array.
    Each block converts to float64, pre-emphasises and zero-pads only the
    samples its own frames cover, so no whole-signal copy is made; pre-emphasis is elementwise, so
    every row equals np.abs(np.fft.rfft(...)) ** 2 of the whole frame array,
    whatever the block size or worker count."""
    length = seg.samples.shape[0]
    if cfg.frame_size > length:
        raise ConfigError(f"frame_len {cfg.frame_size} exceeds segment length {length}")
    frame_len, hop = cfg.frame_size, cfg.hop_len
    window = np.hamming(frame_len)
    n_bins = cfg.n_fft // 2 + 1
    power = np.empty((cfg.n_frames(length), n_bins))
    rows = max(1, FFT_BLOCK_BYTES // (16 * n_bins))

    def transform(start: int):
        block = power[start:start + rows]
        lo, end = start * hop, (start + block.shape[0] - 1) * hop + frame_len
        # the span starts one sample early so its first y[n] reads x[n-1];
        # at lo = 0 it starts at x[0], which keeps the x[-1] = 0 rule; only
        # this span of the window is ever float64
        span = pre_emphasis(seg.signal(max(lo - 1, 0), end), cfg.preemphasis)[min(lo, 1):]
        # neither the span nor its padded frames outlive the windowing, so the
        # FFT output is the block's only other large allocation
        windowed = frame_signal(span, frame_len, hop)[:block.shape[0]] * window
        del span
        np.abs(np.fft.rfft(windowed, n=cfg.n_fft, axis=1), out=block)
        np.square(block, out=block)

    run_blocks(transform, range(0, power.shape[0], rows), FFT_WORKERS)
    return power


def fft_bin_frequencies(cfg: FeatureConfig) -> np.ndarray:
    return np.fft.rfftfreq(cfg.n_fft, d=1.0 / cfg.sample_rate)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_edges(cfg: FeatureConfig) -> np.ndarray:
    """Band b rises from edge b to its peak at edge b + 1 and falls to edge b + 2."""
    return mel_to_hz(np.linspace(hz_to_mel(cfg.mel_fmin), hz_to_mel(cfg.mel_fmax), cfg.mel_bands + 2))


def _triangle(freqs: np.ndarray, lo: float, mid: float, hi: float) -> np.ndarray:
    """One unit-peak filter's weights at freqs: 0 outside (lo, hi)."""
    up = (freqs - lo) / max(mid - lo, 1e-12)
    down = (hi - freqs) / max(hi - mid, 1e-12)
    return np.clip(np.minimum(up, down), 0.0, None)


def mel_filterbank(cfg: FeatureConfig) -> np.ndarray:
    """Unit-peak triangular filters, [mel_bands, n_bins]."""
    freqs = fft_bin_frequencies(cfg)
    edges = _mel_edges(cfg)
    bank = np.zeros((cfg.mel_bands, freqs.shape[0]))
    for b in range(cfg.mel_bands):
        bank[b] = _triangle(freqs, *edges[b:b + 3])
    return bank


def mel_spans(cfg: FeatureConfig) -> tuple[tuple[int, np.ndarray], ...]:
    """Each Mel filter as (first bin, weights) over the bins strictly inside
    its edges, where mel_filterbank(cfg) is nonzero; outside them that row is
    exactly 0. Each weight has the bits of the dense entry, since the same
    elementwise formula sees the same frequency."""
    freqs = fft_bin_frequencies(cfg)
    edges = _mel_edges(cfg)
    spans = []
    for b in range(cfg.mel_bands):
        first = int(np.searchsorted(freqs, edges[b], side="right"))
        end = max(first, int(np.searchsorted(freqs, edges[b + 2], side="left")))
        spans.append((first, _triangle(freqs[first:end], *edges[b:b + 3])))
    return tuple(spans)


def erb_bandwidth(fc):
    """Equivalent rectangular bandwidth of the auditory filter at fc (Hz)."""
    return 24.7 * (4.37 * np.asarray(fc, dtype=np.float64) / 1000.0 + 1.0)


def gammatone_center_frequencies(cfg: FeatureConfig) -> np.ndarray:
    return np.geomspace(cfg.gt_fmin, cfg.gt_fmax, cfg.coch_channels)


def gammatone_magnitude(f, fc, order: int = 4) -> np.ndarray:
    """Normalised magnitude response of an order-n gammatone filter,
    [1 + ((f - fc)/b)^2]^(-n/2) with b = 1.019 * ERB(fc); peak 1 at fc."""
    b = 1.019 * erb_bandwidth(fc)
    return (1.0 + ((np.asarray(f, dtype=np.float64) - fc) / b) ** 2) ** (-order / 2.0)


def gammatone_filterbank(cfg: FeatureConfig) -> np.ndarray:
    """Power responses of the gammatone bank, [coch_channels, n_bins]."""
    freqs = fft_bin_frequencies(cfg)
    centers = gammatone_center_frequencies(cfg)
    bank = np.empty((cfg.coch_channels, freqs.shape[0]))
    for c, fc in enumerate(centers):
        bank[c] = gammatone_magnitude(freqs, fc, cfg.gammatone_order) ** 2
    return bank


@functools.lru_cache(maxsize=4)
def _banks(cfg: FeatureConfig) -> tuple[tuple[tuple[int, np.ndarray], ...], np.ndarray]:
    """The read-only Mel spans and dense gammatone bank of cfg, built once
    per config (41.8 MB at the default one: the gammatone bank 40.9 MB, the
    spans 0.96 MB where the dense Mel bank is 62.3 MB; the bound caps what
    stays resident)."""
    spans, gammatone = mel_spans(cfg), gammatone_filterbank(cfg)
    for weights in [w for _, w in spans] + [gammatone]:
        weights.setflags(write=False)
    return spans, gammatone


def mel_energies_from_spectra(power: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """Band energies [bands, frames] before the log: filter-weighted sums of
    squared magnitudes, one span product per band."""
    spans = _banks(cfg)[0]
    energies = np.empty((len(spans), power.shape[0]))
    for b, (first, weights) in enumerate(spans):
        energies[b] = power[:, first:first + weights.shape[0]] @ weights
    return energies


def _mel_view(power: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    return np.log(np.maximum(mel_energies_from_spectra(power, cfg), cfg.log_floor))


def mel_spectrogram(seg: AudioSegment, cfg: FeatureConfig | None = None) -> MelGram:
    cfg = cfg or FeatureConfig()
    values = _mel_view(windowed_power_spectra(seg, cfg), cfg)
    return MelGram(values=values, frame_len=cfg.frame_size, hop=cfg.hop_len)


def coch_energies_from_spectra(power: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    return _banks(cfg)[1] @ power.T


def _coch_view(power: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    return np.log10(np.maximum(coch_energies_from_spectra(power, cfg), cfg.log_floor) ** cfg.compression)


def cochleagram(seg: AudioSegment, cfg: FeatureConfig | None = None) -> CochGram:
    cfg = cfg or FeatureConfig()
    return CochGram(values=_coch_view(windowed_power_spectra(seg, cfg), cfg))


def extract_pair(seg: AudioSegment, cfg: FeatureConfig | None = None) -> FeaturePair:
    """Both views from one segment, sharing the pre-emphasised signal and
    windowed spectra. OpenBLAS is held at one thread throughout, so no BLAS
    thread spins beside the FFT workers."""
    cfg = cfg or FeatureConfig()
    with one_blas_thread():
        power = windowed_power_spectra(seg, cfg)
        return FeaturePair(mel=_mel_view(power, cfg), coch=_coch_view(power, cfg))


# -- WAV ingestion ---------------------------------------------------------


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read 16-bit PCM WAV; stereo is averaged to mono. Returns float
    samples in [-1, 1] and the sample rate. A file that cannot be opened
    (a directory, say), is not RIFF/WAVE, has a cut header or ends inside a
    frame raises ConfigError naming it."""
    sums, scale, rate, _ = _decode_wav(path)
    return sums / scale, rate


def _decode_wav(path, start: int = 0, count: int | None = None) -> tuple[np.ndarray, float, int, int]:
    """The int32 channel sums of count frames from frame start on,
    zero-padded past the track's end (all frames when count is None); the
    divisor channels * 32768.0 that turns them into read_wav's samples; the
    sample rate; and the number of whole frames the file holds. Only those
    frames are read, but a file whose data ends inside a frame anywhere is
    refused. The sums are decoded straight into the zero-padded result,
    WAV_CHUNK_FRAMES frames at a time, so no other buffer is larger than
    one chunk; a read that comes back empty early leaves the rest zero."""
    try:
        with open(path, "rb") as fh, wave.open(fh) as wf:
            if wf.getsampwidth() != 2:
                raise ConfigError(f"{path}: only 16-bit PCM WAV is supported")
            rate = wf.getframerate()
            channels = wf.getnchannels()
            # wave.open leaves the file at the start of the data; wave reads no
            # further than the file's end or the RIFF chunk's end (its size is
            # bytes 4-8), and either may cut the data the header gives
            data_at = fh.tell()
            fh.seek(4)
            data_end = min(os.fstat(fh.fileno()).st_size, 8 + int.from_bytes(fh.read(4), "little"))
            held = min(wf.getnframes() * 2 * channels, data_end - data_at)
            if held % (2 * channels):
                raise ConfigError(f"{path}: malformed WAV: audio data ends inside a {2 * channels}-byte frame")
            frames = held // (2 * channels)
            start = min(start, frames)
            wf.setpos(start)
            sums = np.zeros(frames - start if count is None else count, dtype=np.int32)
            n = min(sums.shape[0], frames - start)
            for at in range(0, n, WAV_CHUNK_FRAMES):
                raw = wf.readframes(min(WAV_CHUNK_FRAMES, n - at))
                if not raw:
                    break
                pcm = np.frombuffer(raw, dtype="<i2").reshape(-1, channels)
                # the exact integer channel sum (|sum| <= 65,535 * 32,768 < 2**31),
                # which one division by the divisor rounds to the float mean of
                # samples / 32768
                total = sums[at:at + pcm.shape[0]]
                total[:] = pcm[:, 0]
                for ch in range(1, channels):
                    total += pcm[:, ch]
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except (wave.Error, EOFError, RuntimeError) as exc:  # RuntimeError: a chunk size past its chunk
        raise ConfigError(f"{path}: malformed WAV: {str(exc) or 'cut or inconsistent header'}") from exc
    return sums, channels * 32768.0, rate, frames


# -- feature cache on disk ---------------------------------------------------

_CACHE_DTYPES = {0: np.float32}


def write_feature_cache(path, pair: FeaturePair, track_id: str, cfg: FeatureConfig):
    """Binary cache: the `DMRF` frame, then per gram (mel first, coch
    second) one float32 array. A JSON sidecar lists track id, config hash
    and dims."""
    write_framed(path, CACHE_MAGIC, CACHE_VERSION,
                 [pack_array(np.asarray(gram, dtype=np.float32)) for gram in (pair.mel, pair.coch)])

    sidecar = {
        "track_id": track_id,
        "config_hash": cfg.config_hash(),
        "grams": [
            {"name": "mel", "dims": list(pair.mel.shape)},
            {"name": "coch", "dims": list(pair.coch.shape)},
        ],
    }
    atomic_write_bytes(str(path) + ".json", (json.dumps(sidecar, indent=1) + "\n").encode("utf-8"))


def read_feature_cache(path) -> FeaturePair:
    """Parse a cache file; a bad magic or version, a cut field, an unknown
    dtype tag, a short payload, stray bytes, a non-finite value or a gram
    that is not 2-d raise BadFeatureCache."""
    reader = open_framed(path, CACHE_MAGIC, CACHE_VERSION, BadFeatureCache, "cache")
    grams = {name: reader.array(_CACHE_DTYPES, name) for name in ("mel", "coch")}
    reader.done("the second gram")
    for name, gram in grams.items():
        check_finite(gram, BadFeatureCache, f"{path}: the {name} gram holds a non-finite value")
    try:
        return FeaturePair(**grams)
    except ShapeMismatch as exc:
        raise BadFeatureCache(f"{path}: {exc}") from exc
