import math
import tracemalloc
import wave
from dataclasses import fields

import numpy as np
import pytest

from beatgait.errors import InputError, InsufficientDataError
from beatgait.music import (
    ANALYSIS_HOP,
    ANALYSIS_WINDOW,
    CLICK_S,
    DEFAULT_SYNTH_RATE,
    FLUX_BLOCK_FRAMES,
    FRAME_RATE_HZ,
    MAX_SAMPLES,
    TEMPO_RANGE_BPM,
    AudioClip,
    BeatGrid,
    _autocorr_norm,
    _vertex_offset,
    analyze_clip,
    detect_beats,
    estimate_tempo,
    fold_tempo,
    interpolate_phase,
    load_wav,
    onset_envelope,
    save_wav,
    smooth_beats,
    synth_click_track,
)
from beatgait.oscillator import FOOTFALL_PHASE, FREQ_BAND_HZ


class TestSynthAndIo:
    def test_click_positions(self):
        clip = synth_click_track(120.0, 2.0)
        assert clip.sample_rate == DEFAULT_SYNTH_RATE == 22050
        assert clip.samples.size == 44100
        assert clip.samples[0] == 1.0
        period_n = int(round(0.5 * 22050))
        assert clip.samples[period_n] == 1.0
        # silence between the clicks
        assert clip.samples[period_n - 100] == 0.0

    def test_synth_validation(self):
        with pytest.raises(InputError):
            synth_click_track(0.0, 2.0)
        with pytest.raises(InputError):
            synth_click_track(120.0, -1.0)
        with pytest.raises(InputError):
            synth_click_track(120.0, math.nan)

    def test_track_length_capped(self):
        # refused before the samples are allocated
        with pytest.raises(InputError, match="10,000,000 samples"):
            synth_click_track(120.0, (MAX_SAMPLES + 1) / DEFAULT_SYNTH_RATE)

    def test_sub_sample_period_rejected(self):
        # 60/bpm seconds must span at least one sample
        assert synth_click_track(1e6, 0.01).samples[:3].tolist() == [1.0] * 3
        synth_click_track(60.0 * 22050 * 0.999, 0.01)  # just over one sample
        with pytest.raises(InputError, match="under one sample at 22050 Hz"):
            synth_click_track(60.0 * 22050 * 1.001, 0.01)

    @pytest.mark.parametrize("bpm", [1e-303, 1e-305, 1e-310, 5e-324])
    def test_period_too_long_to_represent_rejected(self, bpm):
        # 60/bpm seconds times the rate overflows to inf below about 7.4e-303 BPM
        with pytest.raises(InputError, match="too long to represent at 22050 Hz"):
            synth_click_track(bpm, 1.0)

    @pytest.mark.parametrize("duration", [1e-9, 0.5 / 22050])
    def test_track_without_samples_rejected(self, duration):
        # round(duration * 22050) = 0: no sample to write
        with pytest.raises(InputError, match="holds no sample"):
            synth_click_track(120.0, duration)

    def test_one_sample_track_is_one_click(self):
        assert synth_click_track(120.0, 1.0 / 22050).samples.tolist() == [1.0]

    def test_slowest_representable_period_gives_one_click(self):
        samples = synth_click_track(1e-300, 1.0).samples
        assert samples.size == 22050
        assert np.flatnonzero(samples).tolist() == list(range(int(round(CLICK_S * 22050))))

    @pytest.mark.parametrize("rate", [22050.7, "22050", True])
    def test_unsupported_sample_rate_value_rejected(self, rate):
        with pytest.raises(InputError, match="sample rate .* not in"):
            AudioClip(samples=np.zeros(10), sample_rate=rate)

    @pytest.mark.parametrize("rate, stored", [(np.int64(44100), 44100), (22050.0, 22050)])
    def test_integral_sample_rate_stored_as_int(self, rate, stored):
        clip = AudioClip(samples=np.zeros(10), sample_rate=rate)
        assert clip.sample_rate == stored and type(clip.sample_rate) is int

    def test_wav_round_trip(self, tmp_path):
        clip = synth_click_track(100.0, 1.0)
        path = tmp_path / "c.wav"
        save_wav(path, clip)
        back = load_wav(path)
        assert back.sample_rate == clip.sample_rate
        assert back.samples.shape == clip.samples.shape
        # 16-bit quantization bound
        assert np.max(np.abs(back.samples - clip.samples)) < 2e-4

    @pytest.mark.parametrize("dtype, scale, offset", [
        (np.int16, 32767, 0), (np.int32, 2**31 - 1, 0), (np.uint8, 127, 128)])
    def test_stereo_integer_wav_normalized(self, tmp_path, dtype, scale, offset):
        # one click track as mono and as two equal channels: the samples
        # are normalized by their type before the downmix
        from scipy.io import wavfile

        clip = synth_click_track(120.0, 1.0)
        pcm = (clip.samples * scale + offset).astype(dtype)
        wavfile.write(tmp_path / "mono.wav", clip.sample_rate, pcm)
        wavfile.write(tmp_path / "stereo.wav", clip.sample_rate, np.column_stack([pcm, pcm]))
        mono, stereo = load_wav(tmp_path / "mono.wav"), load_wav(tmp_path / "stereo.wav")
        assert 0.99 < np.abs(stereo.samples).max() <= 1.0
        assert np.array_equal(stereo.samples, mono.samples)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot open WAV file"):
            load_wav(tmp_path / "nope.wav")

    def test_load_garbage_file(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"not a wav at all")
        with pytest.raises(InputError, match="unreadable WAV file"):
            load_wav(path)

    def test_trailing_list_chunk_loads(self, tmp_path):
        # a LIST chunk after the samples, odd-sized with its pad byte, as
        # tagging tools append one
        save_wav(tmp_path / "plain.wav", synth_click_track(120.0, 1.0))
        raw = bytearray((tmp_path / "plain.wav").read_bytes())
        raw += b"LIST" + (5).to_bytes(4, "little") + b"INFOx\0"
        raw[4:8] = (len(raw) - 8).to_bytes(4, "little")
        (tmp_path / "tagged.wav").write_bytes(raw)
        assert np.array_equal(load_wav(tmp_path / "tagged.wav").samples,
                              load_wav(tmp_path / "plain.wav").samples)

    @pytest.mark.parametrize("width, frames", [(2, 22050), (1, 101)])
    def test_wave_module_file_loads(self, tmp_path, width, frames):
        # written as perfbench writes its clips; 101 one-byte frames end
        # the file without the pad byte an odd chunk calls for
        path = tmp_path / "w.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(width)
            fh.setframerate(22050)
            fh.writeframes(bytes(frames * width))
        assert load_wav(path).samples.size == frames

    @pytest.mark.parametrize("riff_counts_pad", [True, False])
    def test_missing_pad_byte_after_odd_last_chunk_loads(self, tmp_path, riff_counts_pad):
        # scipy writes odd-sized data with no pad byte after it, and a RIFF
        # size that does not count one; other writers count it
        from scipy.io import wavfile

        wavfile.write(tmp_path / "odd.wav", 22050, np.arange(101, dtype=np.uint8))
        raw = bytearray((tmp_path / "odd.wav").read_bytes())
        assert len(raw) == 44 + 101 == 8 + int.from_bytes(raw[4:8], "little")
        if riff_counts_pad:
            raw[4:8] = (len(raw) + 1 - 8).to_bytes(4, "little")
        (tmp_path / "odd.wav").write_bytes(raw)
        assert load_wav(tmp_path / "odd.wav").samples.size == 101

    def test_big_endian_rifx_loads(self, tmp_path):
        # a RIFX file's sizes are big-endian; 100 int16 samples, mono, 22050 Hz
        def be(value, width=4):
            return value.to_bytes(width, "big")

        fmt = be(1, 2) + be(1, 2) + be(22050) + be(44100) + be(2, 2) + be(16, 2)
        body = (b"WAVEfmt " + be(16) + fmt + b"data" + be(200)
                + np.arange(100, dtype=">i2").tobytes())
        (tmp_path / "x.wav").write_bytes(b"RIFX" + be(len(body)) + body)
        assert np.array_equal(load_wav(tmp_path / "x.wav").samples, np.arange(100) / 32767)

    @pytest.mark.parametrize("damage, message", [
        ("data size", "no chunk header at byte 22086"),
        ("riff size", "its RIFF size ends at byte 22086, its chunks at byte 22094"),
        ("trailing bytes", "the file ends at byte 22098, its chunks at byte 22094"),
        ("unprintable id", "no chunk header at byte 12"),
    ])
    def test_chunks_that_do_not_tile_the_file_rejected(self, tmp_path, damage, message):
        save_wav(tmp_path / "c.wav", synth_click_track(120.0, 0.5))
        raw = bytearray((tmp_path / "c.wav").read_bytes())
        size = int.from_bytes(raw[40:44], "little")
        if damage == "data size":  # 8 bytes fewer; scipy reads them as a chunk
            raw[40:44] = (size - 8).to_bytes(4, "little")
        elif damage == "riff size":
            raw[4:8] = (len(raw) - 16).to_bytes(4, "little")
        elif damage == "trailing bytes":
            raw += b"\0" * 4
        else:
            raw[12:16] = b"fm\x00 "
        (tmp_path / "c.wav").write_bytes(raw)
        with pytest.raises(InputError, match=message):
            load_wav(tmp_path / "c.wav")

    @pytest.mark.parametrize("peak", [1e160, 1e308])
    def test_float_wav_too_loud_rejected(self, tmp_path, peak):
        # from about 1e155 the tempo autocorrelation overflows; refused on load
        from scipy.io import wavfile

        clip = synth_click_track(120.0, 5.0)
        wavfile.write(tmp_path / "loud.wav", clip.sample_rate, clip.samples * peak)
        with pytest.raises(InputError, match=r"finite and within \+-2"):
            load_wav(tmp_path / "loud.wav")

    def test_samples_within_two_full_scales_load(self, tmp_path):
        from scipy.io import wavfile

        clip = synth_click_track(120.0, 5.0)
        wavfile.write(tmp_path / "hot.wav", clip.sample_rate, clip.samples * 1.5)
        assert load_wav(tmp_path / "hot.wav").samples.max() == 1.5
        # the most negative int16 loads just past full scale
        wavfile.write(tmp_path / "min.wav", 22050, np.full(8, -32768, dtype=np.int16))
        assert load_wav(tmp_path / "min.wav").samples.min() == -32768 / 32767
        for bad in (np.nan, np.inf, -2.0000001):
            with pytest.raises(InputError):
                AudioClip(samples=np.array([0.0, bad]), sample_rate=22050)


class TestEnvelope:
    def test_peaks_near_clicks(self):
        clip = synth_click_track(120.0, 5.0)
        env = onset_envelope(clip)
        # every click should produce a local flux peak within one frame
        for k in range(1, 9):
            t_click = k * 0.5
            i = int(round(t_click * FRAME_RATE_HZ))
            window = env[i - 3:i + 4]
            assert window.max() > 0
            assert abs(int(np.argmax(window)) - 3) <= 1

    def test_empty_clip_rejected(self):
        # too short to analyse, as a one-sample clip is
        with pytest.raises(InsufficientDataError, match="empty clip"):
            onset_envelope(AudioClip(samples=np.zeros(0), sample_rate=22050))

    def test_envelope_nonnegative(self):
        env = onset_envelope(synth_click_track(90.0, 3.0))
        assert np.all(env >= 0)


def _envelope_reference(clip):
    """The whole-clip formula: every frame, its spectrum and the flux at once."""
    x = np.concatenate([np.zeros(ANALYSIS_WINDOW // 2), clip.samples, np.zeros(ANALYSIS_WINDOW)])
    n_frames = 1 + (x.size - ANALYSIS_WINDOW) // ANALYSIS_HOP
    window = np.hanning(ANALYSIS_WINDOW + 1)[:-1]
    idx = np.arange(ANALYSIS_WINDOW)[None, :] + ANALYSIS_HOP * np.arange(n_frames)[:, None]
    mags = np.abs(np.fft.rfft(x[idx] * window, axis=1))
    prev = np.vstack([np.zeros(mags.shape[1]), mags[:-1]])
    flux = np.maximum(mags - prev, 0.0).sum(axis=1)
    native_t = np.arange(n_frames) * (ANALYSIS_HOP / clip.sample_rate)
    out_n = int(math.floor(native_t[-1] * FRAME_RATE_HZ)) + 1
    return np.interp(np.arange(out_n) / FRAME_RATE_HZ, native_t, flux)


class TestBlockwiseEnvelope:
    # a clip of n samples has 2 + n // ANALYSIS_HOP frames (the padding
    # adds two), so 2 is the fewest a non-empty clip can have
    @pytest.mark.parametrize("n_frames", [2, FLUX_BLOCK_FRAMES - 1, FLUX_BLOCK_FRAMES,
                                          FLUX_BLOCK_FRAMES + 1, 3 * FLUX_BLOCK_FRAMES + 5])
    def test_matches_whole_clip_formula(self, n_frames):
        rng = np.random.default_rng(n_frames)
        n = (n_frames - 2) * ANALYSIS_HOP + int(rng.integers(1, ANALYSIS_HOP))
        x = rng.normal(0.0, 0.01, n)
        x[:: 8000] += 0.6  # clicks at 2 Hz
        clip = AudioClip(samples=x, sample_rate=16000)
        env = onset_envelope(clip)
        assert np.array_equal(env, _envelope_reference(clip))

    # clip lengths at a hop, a window and a block's span: one block that
    # reaches past both ends of the clip, or a last block of one or two frames
    @pytest.mark.parametrize("n", [1, ANALYSIS_HOP - 1, ANALYSIS_WINDOW - 1, ANALYSIS_WINDOW,
                                   3 * ANALYSIS_HOP, FLUX_BLOCK_FRAMES * ANALYSIS_HOP - 1,
                                   FLUX_BLOCK_FRAMES * ANALYSIS_HOP,
                                   FLUX_BLOCK_FRAMES * ANALYSIS_HOP + 1])
    def test_matches_padded_copy_at_clip_lengths(self, n):
        rng = np.random.default_rng(n)
        clip = AudioClip(samples=rng.uniform(-1.0, 1.0, n), sample_rate=22050)
        assert np.array_equal(onset_envelope(clip), _envelope_reference(clip))

    def test_memory_bounded(self):
        # 240 s at 22.05 kHz: the clip alone holds 42 MB
        clip = synth_click_track(120.0, 240.0)
        tracemalloc.start()
        try:
            onset_envelope(clip)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one block's arrays, and no copy of the clip
        assert peak < clip.samples.nbytes / 4


#: The tempo lags at 100 Hz; estimate_tempo reads lags 0..LAG_MAX + 1.
LAG_MIN = int(round(FRAME_RATE_HZ * 60.0 / TEMPO_RANGE_BPM[1]))
LAG_MAX = int(round(FRAME_RATE_HZ * 60.0 / TEMPO_RANGE_BPM[0]))


class TestAutocorr:
    # estimate_tempo correlates only envelopes longer than LAG_MIN + 1;
    # the sizes straddle both that floor and the LAG_MAX + 2 lags read
    @pytest.mark.parametrize("n", [LAG_MIN + 2, LAG_MIN + 3, 60, LAG_MAX + 1, LAG_MAX + 2,
                                   LAG_MAX + 3, 500, 3000])
    def test_matches_full_correlation(self, n):
        x = np.random.default_rng(n).normal(size=n)
        n_lags = LAG_MAX + 2
        r = _autocorr_norm(x, n_lags)
        full = np.correlate(x, x, "full")[n - 1:] / (n - np.arange(n))
        assert r.size == min(n_lags, n)
        assert np.array_equal(r, full[: r.size])

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_vectors_shorter_than_the_lags(self, n):
        # np.correlate sums the full overlap of vectors of at most 8
        # samples in another order, so lag 0 may differ in the last bit
        x = np.random.default_rng(n).normal(size=n)
        r = _autocorr_norm(x, LAG_MAX + 2)
        full = np.correlate(x, x, "full")[n - 1:] / (n - np.arange(n))
        assert r.size == n
        np.testing.assert_allclose(r, full, rtol=1e-15, atol=1e-15)


class TestTempo:
    def test_click_tempo(self):
        env = onset_envelope(synth_click_track(120.0, 10.0))
        bpm, conf = estimate_tempo(env)
        assert abs(bpm - 120.0) <= 1.0
        assert 0 < conf

    def test_flat_envelope(self):
        env = np.full(1000, 3.0)
        with pytest.raises(InsufficientDataError, match="flat|no positive autocorrelation"):
            estimate_tempo(env)

    def test_silence(self):
        env = onset_envelope(AudioClip(samples=np.zeros(22050), sample_rate=22050))
        with pytest.raises(InsufficientDataError, match="flat|no positive autocorrelation"):
            estimate_tempo(env)

    def test_short_window(self):
        env = onset_envelope(synth_click_track(60.0, 2.5))
        with pytest.raises(InsufficientDataError):
            estimate_tempo(env)

    def test_subharmonic_rejection(self):
        # the shortest near-maximal lag wins, so 80 BPM is not read as 40
        env = onset_envelope(synth_click_track(80.0, 10.0))
        bpm, _ = estimate_tempo(env)
        assert abs(bpm - 80.0) <= 1.0


class TestVertexOffset:
    def test_parabola_vertex(self):
        # y = -(x - 1.3)^2 sampled at 0, 1, 2 peaks 0.3 past index 1
        y = np.array([-(x - 1.3) ** 2 for x in (0.0, 1.0, 2.0)])
        assert _vertex_offset(y, 1) == pytest.approx(0.3, abs=1e-12)
        assert type(_vertex_offset(y, 1)) is float

    def test_flat_peak(self):
        # denom == 0: three equal points, or three on a line
        assert _vertex_offset(np.array([2.0, 2.0, 2.0]), 1) == 0.0
        assert _vertex_offset(np.array([5.0, 0.0, 1.0, 2.0]), 2) == 0.0

    def test_clipped(self):
        # a vertex outside the middle sample's half-frame is clipped to +-0.5
        assert _vertex_offset(np.array([0.0, 1.0, 1.9]), 1) == 0.5
        assert _vertex_offset(np.array([1.9, 1.0, 0.0]), 1) == -0.5

    def test_matches_inline_formula(self):
        rng = np.random.default_rng(3)
        for y in rng.normal(size=(500, 3)):
            denom = y[0] - 2.0 * y[1] + y[2]
            ref = 0.0 if denom == 0 else min(max(0.5 * (y[0] - y[2]) / denom, -0.5), 0.5)
            assert _vertex_offset(y, 1) == ref


class TestBeatGrid:
    def test_detected_beats_near_truth(self):
        clip = synth_click_track(100.0, 10.0)
        env = onset_envelope(clip)
        bpm, _ = estimate_tempo(env)
        grid = detect_beats(env, bpm)
        assert abs(grid.tempo_bpm - 100.0) <= 1.0
        truth = np.arange(0, 10.0, 0.6)
        for b in grid.beat_times:
            assert np.min(np.abs(truth - b)) <= 0.010
        assert [f.name for f in fields(BeatGrid)] == ["beat_times", "tempo_bpm"]

    @pytest.mark.parametrize("bpm", [60.0, 89.6, 120.0, 181.8, 200.0])
    def test_grid_uniform(self, bpm):
        # the refit line is uniform by construction; BeatGrid takes it unchecked
        env = onset_envelope(synth_click_track(bpm, 10.0))
        grid = detect_beats(env, estimate_tempo(env)[0])
        iv = np.diff(grid.beat_times)
        assert np.all(iv > 0)
        np.testing.assert_allclose(iv, 60.0 / grid.tempo_bpm, rtol=1e-9, atol=0)

    def test_detect_requires_two_periods(self):
        env = onset_envelope(synth_click_track(60.0, 1.2))
        with pytest.raises(InsufficientDataError):
            detect_beats(env, 60.0)


class TestPhaseInterpolation:
    def grid(self):
        return BeatGrid(beat_times=np.array([1.0, 1.5, 2.0, 2.5]), tempo_bpm=120.0)

    def test_anchor_exact(self):
        g = self.grid()
        for b in g.beat_times:
            assert interpolate_phase(g, b) == FOOTFALL_PHASE

    def test_quarter_and_midpoint(self):
        g = self.grid()
        assert interpolate_phase(g, 1.125) == pytest.approx(0.0, abs=1e-12)
        assert interpolate_phase(g, 1.25) == pytest.approx(0.5 * math.pi)

    def test_extrapolation(self):
        g = self.grid()
        # before the first beat: linear in the first interval
        assert interpolate_phase(g, 0.75) == pytest.approx(0.5 * math.pi)
        # after the last: linear in the last interval
        assert interpolate_phase(g, 2.75) == pytest.approx(0.5 * math.pi)

    def test_vectorized(self):
        g = self.grid()
        out = interpolate_phase(g, np.array([1.0, 1.25, 1.5]))
        assert out.shape == (3,)
        assert out[0] == FOOTFALL_PHASE

    def test_single_beat_grid(self):
        g = BeatGrid(beat_times=np.array([2.0]), tempo_bpm=120.0)
        assert interpolate_phase(g, 2.0) == FOOTFALL_PHASE
        assert interpolate_phase(g, 2.25) == pytest.approx(0.5 * math.pi)


class TestSmoothedBeats:
    def test_unit_peak_at_beat_frames(self):
        g = BeatGrid(beat_times=np.array([0.5, 1.0, 1.5]), tempo_bpm=120.0)
        b = smooth_beats(g, 200)
        for t in g.beat_times:
            assert b[int(round(t * 100))] == pytest.approx(1.0)
        assert np.all(b >= 0)

    def test_gaussian_falloff(self):
        g = BeatGrid(beat_times=np.array([1.0]), tempo_bpm=60.0)
        b = smooth_beats(g, 300)
        assert b[103] == pytest.approx(math.exp(-9 / 18))
        assert b[100 + 8] == 0.0  # outside the truncated kernel

    @pytest.mark.parametrize("n_frames", [0, 1, 5, 14, 15, 16])
    def test_length_is_n_frames(self, n_frames):
        g = BeatGrid(beat_times=np.array([0.02]), tempo_bpm=120.0)
        b = smooth_beats(g, n_frames)
        assert b.size == n_frames
        # the kernel centred on the beat at frame 2, if the curve reaches it
        i = np.arange(n_frames)
        expect = np.exp(-((i - 2.0) ** 2) / 18.0) * (np.abs(i - 2) <= 7) * (n_frames > 2)
        np.testing.assert_allclose(b, expect, rtol=0, atol=1e-15)
        if n_frames >= 15:
            # from the kernel's length on, numpy's "same" mode, bit for bit
            imp = (i == 2).astype(float)
            kernel = np.exp(-(np.arange(-7, 8) ** 2) / 18.0)
            assert np.array_equal(b, np.convolve(imp, kernel, mode="same"))


class TestFolding:
    def test_in_band_unchanged(self):
        assert fold_tempo(89.6) == pytest.approx(89.6 / 60.0)
        assert fold_tempo(120.0) == pytest.approx(2.0)

    def test_fold_down(self):
        # 220 BPM = 3.667 Hz is already inside (1, 4]: no halving
        assert fold_tempo(220.0) == pytest.approx(220.0 / 60.0)
        assert fold_tempo(480.0) == pytest.approx(4.0)
        assert fold_tempo(500.0) == pytest.approx(500.0 / 60.0 / 4.0)

    def test_fold_up(self):
        assert fold_tempo(30.0) == pytest.approx(2.0)
        # exactly 1.0 Hz is outside the open lower bound: doubled
        assert fold_tempo(60.0) == pytest.approx(2.0)

    def test_band_edges(self):
        assert fold_tempo(240.0) == pytest.approx(4.0)

    @pytest.mark.parametrize("bpm", [1e-300, 0.5, 59.9, 60.0, 60.0001, 89.6, 239.99,
                                     240.0, 240.01, 1e6, 1e308])
    def test_every_positive_tempo_lands_in_band(self, bpm):
        # modulate takes the folded tempo unchecked: every positive finite
        # tempo lands in (1, 4] Hz, a whole number of octaves from bpm/60
        f = fold_tempo(bpm)
        assert FREQ_BAND_HZ[0] < f <= FREQ_BAND_HZ[1]
        octaves = math.log2(f / (bpm / 60.0))
        assert octaves == round(octaves)

    def test_invalid(self):
        with pytest.raises(InputError, match="cannot be folded"):
            fold_tempo(0.0)
        with pytest.raises(InputError, match="cannot be folded"):
            fold_tempo(-120.0)
        with pytest.raises(InputError, match="cannot be folded"):
            fold_tempo(float("inf"))
        # positive tempi whose bpm / 60 underflows to 0.0
        for bpm in (5e-324, 1e-322):
            with pytest.raises(InputError, match="cannot be folded"):
                fold_tempo(bpm)


class TestAnalyzeClip:
    def test_end_to_end(self):
        analysis = analyze_clip(synth_click_track(132.0, 10.0))
        assert abs(analysis.grid.tempo_bpm - 132.0) <= 1.0
        assert analysis.smoothed.size == analysis.envelope.size
        assert interpolate_phase(analysis.grid, analysis.grid.beat_times[3]) == FOOTFALL_PHASE

