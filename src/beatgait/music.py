"""Audio to beat-phase pipeline.

Turns a mono clip into the 100 Hz feature stream the gait controller
consumes: a spectral-flux onset envelope, a tempo estimate, a beat grid,
a smoothed beat curve B(t), and a music phase theta that advances by
2*pi per beat interval and equals 3*pi/2 exactly at every beat time.
Beats anchor at 3*pi/2 because that is the phase at which a stance
force peaks, so "step on the beat" becomes plain phase equality.

Use: load or synthesize a clip, call analyze_clip, then sample theta/B
at control-loop times. AudioClip checks the samples where they enter;
later stages take the envelope and the grid as built.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, InsufficientDataError
from .oscillator import FOOTFALL_PHASE, FREQ_BAND_HZ, TWO_PI, wrap_phase

SUPPORTED_RATES = (16000, 22050, 44100, 48000)

#: Feature stream rate in Hz shared by envelope, B(t), and theta logs.
FRAME_RATE_HZ = 100.0

#: Spectral-flux analysis window and hop in samples (50% overlap).
ANALYSIS_WINDOW = 1024
ANALYSIS_HOP = 512
#: Frames per rfft block of onset_envelope; bounds its working memory.
FLUX_BLOCK_FRAMES = 256

TEMPO_RANGE_BPM = (60.0, 200.0)

#: Beat smoothing kernel: Gaussian, sigma 3 frames, truncated support 15.
KERNEL_SIGMA = 3.0
KERNEL_HALF = 7

#: Length of one synthesized click, seconds.
CLICK_S = 0.010
DEFAULT_SYNTH_RATE = 22050

#: Most samples a run may hold: the oscillator ticks of a scenario and
#: the samples of a synthesized click track. A tick costs about 180
#: bytes (traced on a freq_track run: its phases in the loop's log, its
#: osc row and the index arrays that fill it), so a run at the cap holds
#: about 1.8 GB; a click track sample costs about 17 (the float, then its
#: analysis). Longer requests raise InputError before anything is allocated.
MAX_SAMPLES = 10_000_000

#: An autocorrelation peak at a shorter lag wins over the global max
#: when it reaches this fraction of it (tempo octave disambiguation).
SUBHARMONIC_GATE = 0.5


@dataclass(frozen=True)
class AudioClip:
    """Mono PCM audio at one of the supported sample rates, samples within +-2."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        # the value itself, not int() of it: 22050.7 and "22050" are refused
        if self.sample_rate not in SUPPORTED_RATES:
            raise InputError(f"sample rate {self.sample_rate} not in {SUPPORTED_RATES}")
        x = np.asarray(self.samples, dtype=float)
        if x.ndim != 1:
            raise InputError(f"expected mono samples, got shape {x.shape}")
        # two full scales pass every integer WAV (int16 -32768 loads as -1.0000305);
        # a louder clip overflows the tempo autocorrelation. min and max carry a
        # NaN, need no temporary array, and pass an empty clip to onset_envelope.
        if not (x.min(initial=0.0) >= -2.0 and x.max(initial=0.0) <= 2.0):
            raise InputError("samples must be finite and within +-2")
        object.__setattr__(self, "samples", x)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def _check_chunks(path) -> None:
    """Raise ValueError unless a RIFF (or RIFX) file's chunks tile it.

    Reads the 8-byte chunk headers, no samples. Each chunk ID must be four
    printable ASCII characters, and the file and the end its RIFF size
    gives must both end where the last chunk does, or one byte short of
    it when that chunk's size is odd and its pad byte is missing. So a
    size field that understates its chunk fails here, where scipy would
    read what follows as more chunks and load a shorter clip. Other
    signatures (RF64, or none) are left to wavfile.read.
    """
    with open(path, "rb") as fh:
        head = fh.read(12)
        order = {b"RIFF": "little", b"RIFX": "big"}.get(head[:4])
        if order is None or len(head) < 12:
            return
        length = fh.seek(0, 2)
        riff_end = 8 + int.from_bytes(head[4:8], order)
        pos, pad = 12, 0
        while pos < min(length, riff_end):
            fh.seek(pos)
            chunk = fh.read(8)
            if len(chunk) < 8 or not all(32 <= c < 127 for c in chunk[:4]):
                raise ValueError(f"no chunk header at byte {pos}")
            size = int.from_bytes(chunk[4:], order)
            pad = size % 2
            pos += 8 + size + pad
    for what, end in (("the file", length), ("its RIFF size", riff_end)):
        if end not in (pos, pos - pad):
            raise ValueError(f"{what} ends at byte {end}, its chunks at byte {pos}")


def load_wav(path) -> AudioClip:
    """Read a WAV file (PCM16/24/32, float32/64, mono or downmixed stereo).

    A file that cannot be opened raises InputError ("cannot open"), and
    so does any other failure to parse it ("unreadable"): a file that
    ends before its RIFF header says, which scipy would read in part
    with a warning, or one whose chunks do not tile it (see _check_chunks).
    """
    # imported here, not at module load, so that runs without WAV files
    # (and every CLI start) skip the cost of loading scipy.io
    from scipy.io import wavfile

    try:
        _check_chunks(path)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "Reached EOF prematurely", wavfile.WavFileWarning)
            rate, data = wavfile.read(path)
    except OSError as exc:
        raise InputError(f"cannot open WAV file {path}: {exc}") from exc
    except Exception as exc:  # damaged headers fail in scipy with many exception types
        raise InputError(f"unreadable WAV file {path}: {exc}") from exc
    # normalize by the file's sample type before any downmix (the mean of
    # integer channels is float and would pass as already normalized),
    # in place on the one float copy
    x = data.astype(float, copy=False)
    if data.dtype.kind == "i":
        x /= float(np.iinfo(data.dtype).max)
    elif data.dtype.kind == "u":
        half = (np.iinfo(data.dtype).max + 1) / 2.0
        x -= half
        x /= half
    if x.ndim == 2:
        x = x.mean(axis=1)
    return AudioClip(samples=x, sample_rate=int(rate))


def save_wav(path, clip: AudioClip) -> None:
    """Write a clip as 16-bit PCM."""
    from scipy.io import wavfile

    pcm = np.clip(clip.samples, -1.0, 1.0)
    wavfile.write(path, clip.sample_rate, (pcm * 32767.0).astype(np.int16))


def synth_click_track(bpm: float, duration_s: float) -> AudioClip:
    """Full-scale rectangular clicks, CLICK_S long, at every beat of a constant tempo.

    The first click starts at t=0; clicks repeat every 60/bpm seconds for
    the whole duration, sampled at DEFAULT_SYNTH_RATE. A period shorter
    than one sample raises InputError: no two clicks could be told
    apart; so does a period too long to represent in samples, and a
    track of more than MAX_SAMPLES samples or of none.
    """
    if not (bpm > 0 and math.isfinite(bpm)):
        raise InputError(f"bpm must be positive, got {bpm!r}")
    if not (duration_s > 0 and math.isfinite(duration_s)):
        raise InputError(f"duration must be positive and finite, got {duration_s!r}")
    period = 60.0 / bpm
    sample_rate = DEFAULT_SYNTH_RATE
    if period * sample_rate < 1.0:
        raise InputError(
            f"bpm {bpm!r} gives a click period under one sample at {sample_rate} Hz")
    if not math.isfinite(period * sample_rate):  # else the first click starts at 0 * inf
        raise InputError(
            f"bpm {bpm!r} gives a click period too long to represent at {sample_rate} Hz")
    if duration_s * sample_rate > MAX_SAMPLES:
        raise InputError(f"a {duration_s!r} s click track at {sample_rate} Hz is more than "
                         f"the {MAX_SAMPLES:,} samples one may hold")
    n = int(round(duration_s * sample_rate))
    if n == 0:
        raise InputError(f"a {duration_s!r} s click track at {sample_rate} Hz holds no sample")
    x = np.zeros(n)
    click_n = max(1, int(round(CLICK_S * sample_rate)))
    k = 0
    while True:
        start = int(round(k * period * sample_rate))
        if start >= n:
            break
        x[start : min(start + click_n, n)] = 1.0
        k += 1
    return AudioClip(samples=x, sample_rate=sample_rate)


def onset_envelope(clip: AudioClip) -> np.ndarray:
    """Half-wave-rectified spectral flux, resampled to 100 Hz.

    One non-negative value per frame, finite because AudioClip bounds
    the samples. Frames are centered: frame k spans the window starting
    half a window before sample k * ANALYSIS_HOP, zero beyond either end
    of the clip, so a click's flux peak lands on the frame nearest the
    click itself rather than half a window late. The frames are
    transformed FLUX_BLOCK_FRAMES at a time, with the last magnitude row
    of a block carried into the next. A block inside the clip takes its
    frames as strided views of the samples; only a block that reaches
    past either end copies its own samples into a zero-padded piece. So
    working memory stays bounded by one block whatever the clip's length,
    and no copy of the whole clip is made.
    """
    x = clip.samples
    if x.size == 0:
        raise InsufficientDataError("empty clip")
    hop, size = ANALYSIS_HOP, ANALYSIS_WINDOW
    pad = size // 2
    # the frames of the clip padded by half a window before and a whole one after
    n_frames = (x.size + pad) // hop + 1
    window = np.hanning(size + 1)[:-1]
    flux = np.empty(n_frames)
    prev = np.zeros((1, size // 2 + 1))
    for i in range(0, n_frames, FLUX_BLOCK_FRAMES):
        m = min(FLUX_BLOCK_FRAMES, n_frames - i)
        lo = i * hop - pad
        hi = lo + (m - 1) * hop + size
        if lo >= 0 and hi <= x.size:
            piece = x[lo:hi]
        else:
            piece = np.zeros(hi - lo)
            inside = x[max(lo, 0):hi]
            start = max(-lo, 0)
            piece[start : start + inside.size] = inside
        frames = sliding_window_view(piece, size)[::hop]
        mags = np.abs(np.fft.rfft(frames * window, axis=1))
        rise = np.maximum(np.diff(mags, axis=0, prepend=prev), 0.0)
        flux[i : i + m] = rise.sum(axis=1)
        prev = mags[-1:]
    native_t = np.arange(n_frames) * (hop / clip.sample_rate)
    out_n = int(math.floor(native_t[-1] * FRAME_RATE_HZ)) + 1
    out_t = np.arange(out_n) / FRAME_RATE_HZ
    return np.interp(out_t, native_t, flux)


@dataclass(frozen=True)
class BeatGrid:
    """Beat timestamps plus the tempo they imply, taken as detect_beats builds them."""

    beat_times: np.ndarray
    tempo_bpm: float


def _vertex_offset(y, i: int) -> float:
    """Vertex of the parabola through y[i-1:i+2] less i, clipped to +-0.5; 0.0 if flat."""
    y1, y2, y3 = y[i - 1], y[i], y[i + 1]
    denom = y1 - 2.0 * y2 + y3
    return 0.0 if denom == 0 else float(min(max(0.5 * (y1 - y3) / denom, -0.5), 0.5))


def _autocorr_norm(x: np.ndarray, n_lags: int) -> np.ndarray:
    """Autocorrelation at lags 0..n_lags-1 (fewer for a shorter x), divided
    by overlap length so periodic peaks tie. One dot product per lag makes
    it O(n * n_lags), not the O(n^2) of a full correlation."""
    n = x.size
    return np.array([np.dot(x[: n - k], x[k:]) / (n - k) for k in range(min(n_lags, n))])


def estimate_tempo(v: np.ndarray) -> tuple[float, float]:
    """Tempo in BPM from the onset envelope v's autocorrelation, with a confidence score.

    Correlates the whole envelope at the lags for 60-200 BPM only (plus
    lag 0 and one neighbour each side for the interpolation), picks the
    shortest lag among near-maximal peaks so subharmonics do not halve
    the tempo, and parabolic-interpolates the peak to sub-frame
    resolution. Raises InsufficientDataError on a flat envelope, on one
    with no positive autocorrelation peak in the tempo range, and when
    the envelope spans fewer than four beats at the estimated tempo.
    """
    if v.size < 2 or np.ptp(v) < 1e-12:
        raise InsufficientDataError("envelope is flat; no periodicity to estimate")
    x = v - v.mean()
    lag_min = int(round(FRAME_RATE_HZ * 60.0 / TEMPO_RANGE_BPM[1]))
    lag_max = int(round(FRAME_RATE_HZ * 60.0 / TEMPO_RANGE_BPM[0]))
    if v.size <= lag_min + 1:
        raise InsufficientDataError("envelope shorter than the minimum tempo lag")
    r = _autocorr_norm(x, lag_max + 2)
    hi = min(lag_max, r.size - 2)
    lags = np.arange(lag_min, hi + 1)
    seg = r[lag_min : hi + 1]
    if seg.size == 0 or seg.max() <= 0:
        raise InsufficientDataError("no positive autocorrelation peak in tempo range")
    # local maxima only; endpoints allowed so 60/200 BPM stay reachable
    is_peak = np.ones(seg.size, dtype=bool)
    is_peak[1:] &= seg[1:] >= seg[:-1]
    is_peak[:-1] &= seg[:-1] >= seg[1:]
    # shortest near-maximal lag beats the subharmonic multiples; the
    # threshold must survive the 100 Hz resampling, which makes
    # alternate onset peaks differ in shape and can pull the
    # fundamental's correlation down to ~0.75 of a same-parity multiple
    peaks = lags[is_peak & (seg >= SUBHARMONIC_GATE * seg.max())]
    best = int(peaks.min())
    lag = best + _vertex_offset(r, best)
    bpm = 60.0 * FRAME_RATE_HZ / lag
    if v.size / FRAME_RATE_HZ < 4.0 * 60.0 / bpm:
        raise InsufficientDataError(
            f"envelope {v.size / FRAME_RATE_HZ:.2f}s spans fewer than 4 beats at {bpm:.1f} BPM"
        )
    confidence = float(seg.max() / (r[0] + 1e-12))
    return float(bpm), confidence


def detect_beats(v: np.ndarray, tempo_bpm: float) -> BeatGrid:
    """Place a beat grid of the given tempo on the onset envelope v.

    A comb of period 60/tempo is scored at every integer frame offset;
    each comb tooth of the winning offset then snaps to the local
    envelope maximum (with parabolic sub-frame refinement), and a least
    squares line through the snapped times yields the emitted grid, so
    one missing click still gets its beat from the fit. tempo_bpm is
    estimate_tempo's, positive and finite.
    """
    period = FRAME_RATE_HZ * 60.0 / tempo_bpm
    n = v.size
    if n < 2 * period:
        raise InsufficientDataError("envelope shorter than two beat periods")
    n_teeth = int(n // period)
    offsets = np.arange(int(math.ceil(period)))
    best_off, best_score = 0, -1.0
    for o in offsets:
        idx = np.round(o + period * np.arange(n_teeth)).astype(int)
        idx = idx[idx < n]
        score = float(v[idx].sum())
        if score > best_score:
            best_off, best_score = o, score
    def snap_pass(anchor: float, per: float, follow: bool):
        w = max(2, int(round(0.2 * per)))
        ks, frames, snapped = [], [], []
        # the offset scan treats offsets ~0 and ~per as distinct combs,
        # so the winner may sit one period in; walk back over teeth whose
        # snap window still reaches the envelope so the grid covers the
        # window start
        k = 0
        while anchor + (k - 1) * per >= -w:
            k -= 1
        pos = anchor + k * per
        while True:
            center = int(round(pos))
            if center >= n:
                break
            lo, hi = max(0, center - w), min(n, center + w + 1)
            seg = v[lo:hi]
            hit = bool(seg.size) and seg.max() > 0
            if hit:
                p = lo + int(seg.argmax())
                frame = float(p)
                if 0 < p < n - 1:
                    frame += _vertex_offset(v, p)
            elif 0 <= center:
                frame = pos  # in-window dropout: keep the comb position
            else:
                k += 1  # walked-back tooth with no envelope support
                pos = anchor + k * per
                continue
            ks.append(k)
            frames.append(frame)
            snapped.append(hit)
            k += 1
            # following the last landing point keeps the scan centered on
            # the clicks even when per is off; accumulated comb drift
            # otherwise outruns the snap window on long envelopes
            pos = (frame + per) if follow else (anchor + k * per)
        return (np.asarray(ks, dtype=float), np.asarray(frames),
                np.asarray(snapped, dtype=bool))

    # the raw tempo can be off enough (the 100 Hz resampling biases the
    # short-lag autocorrelation peak by up to ~1%) that a rigid comb
    # drifts past the snap window over a long envelope; the first pass
    # therefore tracks tooth to tooth, the refit recovers the period
    # from the teeth with real envelope support, and one more rigid pass
    # against the fitted line settles the grid
    anchor = float(best_off)
    ks, frames, snapped = snap_pass(anchor, period, follow=True)
    for _ in range(3):
        if ks.size < 2:
            break
        sel = snapped if snapped.sum() >= 2 else np.ones(ks.size, dtype=bool)
        per_fit, anchor_fit = np.polyfit(ks[sel], frames[sel], 1)
        converged = (abs(per_fit - period) < 1e-9 * period
                     and abs(anchor_fit - anchor) < 1e-6)
        anchor, period = float(anchor_fit), float(per_fit)
        if converged:
            break
        ks, frames, snapped = snap_pass(anchor, period, follow=False)
    if ks.size >= 2:
        frames = anchor + period * ks
        tempo_bpm = 60.0 * FRAME_RATE_HZ / period
    return BeatGrid(beat_times=frames / FRAME_RATE_HZ, tempo_bpm=float(tempo_bpm))


def smooth_beats(grid: BeatGrid, n_frames: int) -> np.ndarray:
    """Smoothed beat curve B(t): unit impulses at beat frames, Gaussian blurred.

    Frames run at FRAME_RATE_HZ, like the envelope's. Kernel sigma is 3
    frames with truncated support of 15 frames, and the kernel peak is 1
    so B equals 1.0 exactly at beat frames. The output has n_frames
    samples, also when n_frames is shorter than the kernel.
    """
    b = np.zeros(max(0, n_frames))
    if b.size == 0:
        return b
    frames = np.round(grid.beat_times * FRAME_RATE_HZ).astype(int)
    frames = frames[(frames >= 0) & (frames < n_frames)]
    b[frames] = 1.0
    k = np.arange(-KERNEL_HALF, KERNEL_HALF + 1)
    kernel = np.exp(-(k.astype(float) ** 2) / (2.0 * KERNEL_SIGMA**2))
    return np.convolve(b, kernel)[KERNEL_HALF : KERNEL_HALF + b.size]


def interpolate_phase(grid: BeatGrid, t):
    """Music phase theta at time(s) t: 3*pi/2 at each beat, +2*pi per interval.

    Within an interval the advance is linear in local time, so theta at a
    beat time is the anchor constant itself, exact to the bit. Times
    before the first beat extrapolate backward from the first interval;
    times after the last extrapolate forward from the last.
    """
    bt = grid.beat_times
    t_arr = np.asarray(t, dtype=float)
    if bt.size == 1:
        frac = (t_arr - bt[0]) * grid.tempo_bpm / 60.0
    else:
        k = np.clip(np.searchsorted(bt, t_arr, side="right") - 1, 0, bt.size - 2)
        frac = k + (t_arr - bt[k]) / (bt[k + 1] - bt[k])
    theta = wrap_phase(FOOTFALL_PHASE + TWO_PI * np.mod(frac, 1.0))
    return theta if t_arr.ndim else float(theta)


def fold_tempo(bpm: float) -> float:
    """Fold a tempo into the trackable gait band by octave jumps.

    bpm/60 Hz is doubled while at or below 1.0 Hz and halved while above
    4.0 Hz; the result lands in (1.0, 4.0].
    """
    f = bpm / 60.0
    # bpm / 60 underflows to 0.0 on the smallest subnormal tempi, and doubling keeps 0.0
    if not (f > 0 and math.isfinite(bpm)):
        raise InputError(f"tempo {bpm!r} BPM cannot be folded")
    while f <= FREQ_BAND_HZ[0]:
        f *= 2.0
    while f > FREQ_BAND_HZ[1]:
        f *= 0.5
    return f


@dataclass(frozen=True)
class MusicAnalysis:
    """Offline analysis product: envelope, tempo, grid, and B(t) series."""

    envelope: np.ndarray
    tempo_bpm: float
    confidence: float
    grid: BeatGrid
    smoothed: np.ndarray


def analyze_clip(clip: AudioClip) -> MusicAnalysis:
    """Full offline pipeline: envelope, tempo, beat grid, smoothed beats."""
    env = onset_envelope(clip)
    tempo, conf = estimate_tempo(env)
    grid = detect_beats(env, tempo)
    smoothed = smooth_beats(grid, env.size)
    return MusicAnalysis(envelope=env, tempo_bpm=grid.tempo_bpm, confidence=conf,
                         grid=grid, smoothed=smoothed)

