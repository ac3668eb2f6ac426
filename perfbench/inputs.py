"""Seeded click-track WAVs for the song workloads.

Each clip is 16-bit mono PCM at 22.05 kHz: a 10 ms rectangular click
starting at every written beat k * 60 / bpm, each click with its own
amplitude drawn from the seed, over low-level Gaussian noise. The seed
changes only the amplitudes and the noise; the click times, tempi and
lengths are fixed by the workload, so the expected beats are known
without running the program.

Written with the standard library's wave module, not with the program's
own WAV writer, so the inputs do not depend on the code under test.

    python3 perfbench/inputs.py --workload song-sync --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import wave
from pathlib import Path

import numpy as np

SAMPLE_RATE = 22050
CLICK_S = 0.010
#: Click amplitudes are drawn uniformly from this range, full scale 1.
CLICK_AMPLITUDE = (0.45, 0.75)
#: Standard deviation of the background noise, full scale 1 (about -52 dBFS).
NOISE_STD = 0.0025

#: (tempo in BPM, clip length in s) for each clip of a song workload.
CLIPS = {
    "song-sync": [(89.6, 60.0), (120.0, 60.0), (181.8, 60.0)],
    "song-analysis": [(64.0, 240.0), (96.0, 240.0), (128.0, 240.0),
                      (160.0, 240.0), (192.0, 240.0)],
}


def click_times(bpm: float, length_s: float) -> np.ndarray:
    """Written beat times: k * 60 / bpm for every click that starts in the clip."""
    period = 60.0 / bpm
    n = int(np.floor(length_s / period - 1e-9)) + 1
    return np.arange(n) * period


def clip_name(bpm: float) -> str:
    return f"clicks_{bpm:g}bpm.wav"


def render(bpm: float, length_s: float, rng: np.random.Generator) -> np.ndarray:
    """int16 samples of one click track."""
    n = int(round(length_s * SAMPLE_RATE))
    x = rng.normal(0.0, NOISE_STD, n)
    width = int(round(CLICK_S * SAMPLE_RATE))
    times = click_times(bpm, length_s)
    amps = rng.uniform(*CLICK_AMPLITUDE, times.size)
    for t, a in zip(times, amps):
        start = int(round(t * SAMPLE_RATE))
        x[start:start + width] += a
    return np.round(np.clip(x, -1.0, 1.0) * 32767.0).astype("<i2")


def write_wav(path: Path, samples: np.ndarray) -> None:
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(samples.tobytes())


def write_inputs(workload: str, seed: int, outdir: Path) -> list[dict]:
    """Write the workload's clips into outdir; return their descriptions."""
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    clips = []
    for bpm, length_s in CLIPS.get(workload, []):
        path = outdir / clip_name(bpm)
        write_wav(path, render(bpm, length_s, rng))
        clips.append({"path": str(path), "bpm": bpm, "length_s": length_s})
    return clips


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, metavar="DIR")
    args = ap.parse_args()
    clips = write_inputs(args.workload, args.seed, Path(args.out))
    print(json.dumps(clips))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
