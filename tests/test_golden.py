"""Same bytes, held by tier-1: the sha256 of every file a fixed recipe of
commands writes, against a table recorded on one numpy and OpenBLAS build.

The recipe runs in one child process with OpenBLAS at 2 threads, set before
numpy loads, since the thread count changes the bits. The child writes a
16-track synth workspace (the caches of `data.synth_dataset(n=16, seed=1)`,
a manifest whose arousal sign carries the class, a 1-epoch run config),
then runs through `cli.main`: `train` at seven configurations, `eval
--json` on both splits, `export-embeddings` and `diagnose`, and
`extract-features` on a seeded mono and a seeded 3-channel 30 s WAV at a
small feature config whose window runs past each track's end. The inputs
follow `bench/workloads.make_synth_inputs` but are written here, without
importing `bench/`: the benchmark's inputs change with the benchmark, and
this table must move only when a change to the package moves its bytes.

The table is keyed by numpy's version and OpenBLAS's config string, which
names its version and kernel set. On another build the test skips and
prints the key and hashes it got. A change that means to move bits edits
the table and lists each old and new hash with the reason.

Run the child alone to print its key and hashes as JSON:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=2 python tests/test_golden.py WORKDIR
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

from dvmer import cli
from dvmer import data as dk
from dvmer import features as F

import blas_build

SRC = Path(__file__).resolve().parents[1] / "src"
SR = 44100
TRACKS, SEED = 16, 1
RUN_CFG = f"epochs = 1\nbatch_size = 16\nseed = {SEED}\ndimension = arousal\n"
SEMI_CFG = RUN_CFG + "mode = semi\nlabeled_fraction = 0.5\n"
# (output directory, run config file, flags): full, semi, and the five ablations
TRAIN_RUNS = (
    ("full", "run.cfg", []),
    ("semi", "semi.cfg", []),
    ("semi-no-pcl", "semi.cfg", ["--no-pcl"]),
    ("no-dsaf", "run.cfg", ["--no-dsaf"]),
    ("no-pcl", "run.cfg", ["--no-pcl"]),
    ("no-saml", "run.cfg", ["--no-saml"]),
    ("no-pcl-no-saml", "run.cfg", ["--no-pcl", "--no-saml"]),
)
# a 15 s window from 20 s: a 30 s track ends inside it and is zero-padded
FEATURE_CFG = "segment_start = 20.0\nsegment_duration = 15.0\nframe_count = 24\nmel_bands = 24\ncoch_channels = 12\n"
WAV_SECONDS = 30.0


def _write_wav(path, rng, channels):
    """A few steady partials over noise, as 16-bit PCM at 44.1 kHz."""
    n = int(WAV_SECONDS * SR)
    t = np.arange(n) / SR
    sig = 0.05 * rng.standard_normal((n, channels))
    for ch in range(channels):
        for f0 in rng.uniform(60.0, 4000.0, size=3):
            sig[:, ch] += 0.1 * np.sin(2 * np.pi * f0 * t + rng.uniform(0, 2 * np.pi))
    pcm = np.round(sig / np.abs(sig).max() * 0.8 * 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(SR)
        wf.writeframes(pcm.tobytes())


def _write_inputs(work: Path):
    cache = work / "caches"
    cache.mkdir()
    rng = np.random.default_rng([SEED, 2])
    lines = []
    for s in dk.synth_dataset(n=TRACKS, seed=SEED):
        F.write_feature_cache(cache / f"{s.track_id}.dmrf", s.pair, s.track_id, F.FeatureConfig())
        arousal = rng.uniform(0.05, 1.0) * (1 if s.label == 1 else -1)
        lines.append(f"{s.track_id}\t{rng.uniform(-1.0, 1.0)!r}\t{arousal!r}\t")
    (work / "manifest.tsv").write_text("\n".join(lines) + "\n")
    (work / "run.cfg").write_text(RUN_CFG)
    (work / "semi.cfg").write_text(SEMI_CFG)
    (work / "features.cfg").write_text(FEATURE_CFG)
    wavs = work / "wavs"
    wavs.mkdir()
    rng = np.random.default_rng(SEED)
    for channels in (1, 3):
        _write_wav(wavs / f"c{channels}.wav", rng, channels)


def _run(argv) -> str:
    """What cli.main printed; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    assert code == 0, (argv, out.getvalue())
    return out.getvalue()


def child(work: Path) -> dict:
    """Write the inputs under work, run the recipe, and return the build's
    key and the sha256 of every file under work, by relative path."""
    _write_inputs(work)
    data = ["--manifest", work / "manifest.tsv", "--features", work / "caches"]
    for out, config, flags in TRAIN_RUNS:
        _run(["train", "--config", work / config, *data, "--out", work / out, *flags])
    trained = ["--config", work / "run.cfg", *data, "--checkpoint", work / "full" / "checkpoint.dmrc"]
    for split in ("train", "test"):
        (work / f"eval-{split}.json").write_text(_run(["eval", *trained, "--split", split, "--json"]))
    _run(["export-embeddings", *trained, "--out", work / "embeddings.csv"])
    _run(["diagnose", "--log", work / "full" / "epochs.log", "--out", work / "diagnose.csv"])
    _run(["extract-features", "--in", work / "wavs", "--out", work / "extracted", "--config", work / "features.cfg"])
    hashes = {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(work.rglob("*")) if p.is_file()}
    return {"numpy": np.__version__, "blas": blas_build.openblas_config(), "hashes": hashes}


# (numpy version, OpenBLAS config string) -> {relative path: sha256}, recorded
# on Intel Xeon (SkylakeX kernels); the Haswell table under OPENBLAS_CORETYPE=Haswell
SKYLAKEX = ("2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64")
HASWELL = ("2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64")
GOLDEN = {SKYLAKEX: {
    "caches/synth-0000.dmrf": "6535d35b3720ca1b87a9cd09212e08f8a3e2b8709f53e4e8522fb66bf0afeb9d",
    "caches/synth-0000.dmrf.json": "21c43f278cc7f41d88599251bd70f44bba3f4b67667300c53c91b2a7ace84b26",
    "caches/synth-0001.dmrf": "c83dd29e40e23622fb9c0493dddaed29db5570050d44770999972f6bf7fa5af4",
    "caches/synth-0001.dmrf.json": "7cdac697e13966f17233e5c9441e54024af372739ad2b30267dca1b96fb3c8cb",
    "caches/synth-0002.dmrf": "bae0eb233de684b91382116c1ca75a6c142bab94374d4c3dab7aa5fbbc775259",
    "caches/synth-0002.dmrf.json": "b1109aa77cadd1f3d3c8aa9769a9bf6f5a78b2b3c4c76803dc6531ae32eeab43",
    "caches/synth-0003.dmrf": "376b1da9d8fb77eaadc8e88c70c83561762fbe613c650e32b37cde5d5d10d8f8",
    "caches/synth-0003.dmrf.json": "a5053950276716fab3ec43484d451df49ff1acc5e74cd87d9df0d633fe980641",
    "caches/synth-0004.dmrf": "39fd8eb1ff151587ac43076d17fe8cdb27ef057f2dfc236e87a977e7795515d8",
    "caches/synth-0004.dmrf.json": "05a0b87705a4ea95153633b68cecddff72179128200e17cadb781ebdf9814167",
    "caches/synth-0005.dmrf": "5ce4d078abfa400887e391029bacf7a8e0bf7cdff9c7e52c0741e5940e9cf9f9",
    "caches/synth-0005.dmrf.json": "9613fdf14d94a3b38f8d8798adc7103bd84ea0030e85c17527059c829aa9fb8e",
    "caches/synth-0006.dmrf": "2de32d5e47a7d34dd1a6f9edc2c83e00a3e2b10762a759616eb22c1fe86fb82a",
    "caches/synth-0006.dmrf.json": "c26831d200c18bea0d01fee9c737eab6bf7d0cdac57811ef8885fd0e51e285dd",
    "caches/synth-0007.dmrf": "40a3c755ccc5ccc19c0e671b31ddf1a04818525ab678f1a77bd66d564c600de0",
    "caches/synth-0007.dmrf.json": "8125e49fb23eeee1a8b93fe1b24eef3fa3cbce1607c96052121e898411f0bd80",
    "caches/synth-0008.dmrf": "4372dac3675152915f5cb6e71a7fc53041d8a72cb8f71d3e7da5b6348d7ce9a8",
    "caches/synth-0008.dmrf.json": "cb05fea2523e97080d8d9301d3113f413402d8b5d1e903c39eb2bcb4213eca20",
    "caches/synth-0009.dmrf": "98e942db5c8fff7693105151342f9370674d90ba8ddd6de519dd73cae9fd2273",
    "caches/synth-0009.dmrf.json": "13829471349133a9d11b864dc14fd2fe3dc3525420a58ce88013c2be51282bd9",
    "caches/synth-0010.dmrf": "beb1fa88392af4563de6b02ecee1566e2f2d8aa2dcf24262677cd3624a2c3f1d",
    "caches/synth-0010.dmrf.json": "4a8ff16cd9ea94697b4c30c66b3e11fc83b76c92558f0b50dbcadcb82c8c7c2e",
    "caches/synth-0011.dmrf": "6bc52977acd20c9bb843048a2043a247f4f45ab2ec09d5765d8246d553237c72",
    "caches/synth-0011.dmrf.json": "75e436a04d1ad159325ab88fc35068d3c9f29f59a3a16a6fff82347a98a5a9ff",
    "caches/synth-0012.dmrf": "55a66f0f25b4d9b90f6c19d820417b96f8bad12fbdadd4f0fd44c28be15010eb",
    "caches/synth-0012.dmrf.json": "9c5195405c7139e34c9ae67b62c74cc8656b7537bed9c0ca42ae8fd5a825d390",
    "caches/synth-0013.dmrf": "f6b24a8697f2f09349814e4d061a34a3429732f86f1dbeaec650971fcf366465",
    "caches/synth-0013.dmrf.json": "015cec6d44f6ea4f52e3c0f290043efe56191eaec63fa0c0d06f60005e276246",
    "caches/synth-0014.dmrf": "4ca72c7014d57394aa39648f66833678955c23d61b88c8dae11b1ae853cccfdc",
    "caches/synth-0014.dmrf.json": "636c53579d01de9330ed9b57e90e52e02a3219354c7074ef62c1eae5bcf9dc24",
    "caches/synth-0015.dmrf": "66fe638de6189205710f7cb57df7d2b2476efe47c882bf67759c82a63d00a5c6",
    "caches/synth-0015.dmrf.json": "d9d6d49f20bf09724c56600d10de520c9fc6130c23e5317811a67c33fcb666b9",
    "diagnose.csv": "329822ff519238338e62bb683833e3b96ec5ad7bd767f92a66af1ef59a5d8307",
    "embeddings.csv": "0760591e279ce70f6e9fdc2c37964c2f5f449324e6522e6e6ea048b52dcc3008",
    "eval-test.json": "68af73133847c3fe62a6ab88cabe6eb9e3bc460b6537ed441de31b50b07badd9",
    "eval-train.json": "c5d285ded03c63d66e83f7e9c14d5a77da6f1b3ef2c7b8b77085865803d09346",
    "extracted/c1.dmrf": "5fee3fb53ff6aac9750f7f8e367771c29470c5b1ee240bac60a4fcd8ced3c4f2",
    "extracted/c1.dmrf.json": "ff1065877f1a1ffc999030d485147962b9e555395718655474aa3a2718a4d425",
    "extracted/c3.dmrf": "2f93a09d1e428842e759796c1f2103babfc6b8f7b2529bdddd39f4af51ce4d0d",
    "extracted/c3.dmrf.json": "d5531228543eac4ff7c7dc5604b5c138ea99e8d5d38f9ec6fcabe7ea11955775",
    "features.cfg": "b032eacf81d157ec0c1ffec1fd7ceb5f763dfc35c39e7b3f8a8edc47a8113771",
    "full/checkpoint.dmrc": "21b3d95f104809f400710f60065cc08fd301b17cde4c8a41eb8c2aee4fad5f78",
    "full/epochs.log": "d707a93d76c73eae4eeaa06b679c84446f0eb84efce678ff4373bd69abbe1d69",
    "full/result.json": "e6d4787eaabbe40488af14af29f73599001bc0920fbf7941519cd84ac06d92eb",
    "full/split.json": "0d491fdedc395a885c489b29805a95c8bc79cc763593640f6af5003c9586d318",
    "manifest.tsv": "376fcf0593f9b6c6d5f841ff1090786088d7928c58ee5c59d8a5675452e35d20",
    "no-dsaf/checkpoint.dmrc": "136c8447eb5ff95b136a95397bc2dca6f2814cba5d29710efbe225a368702858",
    "no-dsaf/epochs.log": "6f9a722e787b750480e7e08b1f8f8abf6e576c3e5089df259fc831f72ea15ea2",
    "no-dsaf/result.json": "94dd81aa574e1c2972a7735f41d738afd9a9db9c70aff8f3a24a3e41c7e726c8",
    "no-dsaf/split.json": "0d491fdedc395a885c489b29805a95c8bc79cc763593640f6af5003c9586d318",
    "no-pcl/checkpoint.dmrc": "1f3bdbb22ea060e24ef79b0dcaceee5574c23c65f399a1922b878e981a49de36",
    "no-pcl/epochs.log": "bc1d24e9c8adf867ed00f51728903e08d119098677b90702ee58c8c40837b3a6",
    "no-pcl/result.json": "8c8d782ef3a4e50d305d96484a2cea0a1d1704911cf7b1f18646d2962e3aeaf6",
    "no-pcl/split.json": "0d491fdedc395a885c489b29805a95c8bc79cc763593640f6af5003c9586d318",
    "no-pcl-no-saml/checkpoint.dmrc": "a68873875c97b375e2d5cfa6fc86a60a1c787c098ff8255fa2a486d1ed7c3648",
    "no-pcl-no-saml/epochs.log": "5bf1b2818631ee15a8d9b576079ba4e14e4b307abbefa665b30e71c9c729e912",
    "no-pcl-no-saml/result.json": "da0907be1870007ab2337a8d1bf82933786551fcfcac473d75d0219a378c5839",
    "no-pcl-no-saml/split.json": "0d491fdedc395a885c489b29805a95c8bc79cc763593640f6af5003c9586d318",
    "no-saml/checkpoint.dmrc": "5a7820de87089bea73b8f21c6abc2d48b55f9f04646df3ce5b6fa02d2caceeb7",
    "no-saml/epochs.log": "47d39e8261b906a576bc2434347d04fc08a24899f7a9bab15e39aaa927492131",
    "no-saml/result.json": "a4c4fa4bb7528c71bc38aeb108753d8cc1c0b481e5f6584f0e6b707b9e9ef1de",
    "no-saml/split.json": "0d491fdedc395a885c489b29805a95c8bc79cc763593640f6af5003c9586d318",
    "run.cfg": "8edf09856ff0ab1705b7826279eaec7bf6a791214320a34a1cca6f2a37342a6c",
    "semi/checkpoint.dmrc": "41bc4b470eb4a1f2b5c3bbcf5e66f2a759840ea4b64e90444e251e68bf9e6596",
    "semi/epochs.log": "5af77ebf53006d152f96f2fa3f7c0e6376db4e084c7220cb2cd2944af8cdc826",
    "semi/result.json": "161e67803ed8291af155583c186897b1f889a6fdb09894db7fc6fe617bb3c356",
    "semi/split.json": "0d491fdedc395a885c489b29805a95c8bc79cc763593640f6af5003c9586d318",
    "semi-no-pcl/checkpoint.dmrc": "e6bc5f0ed81f10a82114214f5dbb3b77c11d7f9316c71337e9103c1f33ab426e",
    "semi-no-pcl/epochs.log": "33c64ee7bf1a794f1f32330908c912d2f9bf87e5bc3cc863c9c1febfafd63ed0",
    "semi-no-pcl/result.json": "5669e1ed4965f9af07435e65e55e68d5991e9695a3d907b6cf30cec5f3e237e9",
    "semi-no-pcl/split.json": "0d491fdedc395a885c489b29805a95c8bc79cc763593640f6af5003c9586d318",
    "semi.cfg": "533f9b423cfc29c3c438e99d01b0f15fef9817e38b791738df58c1c3328b0c4a",
    "wavs/c1.wav": "caf21e57cfa29005ce2f9938163553ab73c81868fb285bdb75059ac550fea182",
    "wavs/c3.wav": "88694dcc699b66774b14520b26d735aa42bc87be29ada7687e2f355167e51c41",
}}
# the Haswell kernels change the training and inference bits, not the inputs or the features
GOLDEN[HASWELL] = {**GOLDEN[SKYLAKEX], **{
    "diagnose.csv": "e5b81c05bd4173e5ad34eb30984f4b797cfefb8b531baadd51561da4aaec354d",
    "embeddings.csv": "a668733d9d1aa0d27d427f890e36f71dd169c4c6634c4f93ba1b6d3797c8fadf",
    "full/checkpoint.dmrc": "4a3e4a6e7b2a6c33cea8c342ecd51c3c40c45f21a11074511e471c508b5c0dba",
    "full/epochs.log": "f32b3db117f7037b3e907eef10d40c8e85142bf129cd36355bdabc669f9b7576",
    "no-dsaf/checkpoint.dmrc": "abacc827615664373d3f9245116ad4ab68cf274f75412a281dfdceede18e7e4a",
    "no-dsaf/epochs.log": "0d8e7b572b5057ecfee27f301b4d69bf0ec8074c37bcfd6cb518af580890c14a",
    "no-pcl/checkpoint.dmrc": "d9464c6c00a9d7c1ccb7243eaddc5ac04a4f0397f111e018a093305889bc3df1",
    "no-pcl/epochs.log": "061149da80ff7c021e8998c889c1c1e20e9a0e1481a31236fff88dc40e12662b",
    "no-pcl-no-saml/checkpoint.dmrc": "12d92d99387badee532a12bbbc09cf1a0ac886d1a9afe42fc55d2ad944293e3f",
    "no-pcl-no-saml/epochs.log": "84147522466a0020d9ce950cf9ba50e9159266f8ffd12fabf67bfdf07a991d32",
    "no-saml/checkpoint.dmrc": "0245411c343d164ff648fff2379dd3185dcfc9a70ef4ea1aed02df71c2ec7598",
    "no-saml/epochs.log": "434c77189e6bce771652974b4adc8aa5e946bd4354f3dfb2ff04c265ff1cbac4",
    "semi/checkpoint.dmrc": "60cf04033011c318c6f3bebcec6853d44a82a8b3024215162b9dc577ace986c2",
    "semi/epochs.log": "05ab21820bcc24b5080e429d95d56e998f64acd57b0f8a940d5a61a2deb3e81c",
    "semi-no-pcl/checkpoint.dmrc": "4e448723e89f25cb2e302c4c84d8e3daa4cad4f86494ac40f447325e70379770",
    "semi-no-pcl/epochs.log": "d50f1b36df21ca37931be53e0a51226e5cc51c2adbc90f9c570fc3d771a021a3",
}}


def test_every_output_keeps_its_bytes(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    want = GOLDEN.get((got["numpy"], got["blas"]))
    if want is None:
        pytest.skip(f"no table for this build; it gave {json.dumps(got, indent=1)}")
    assert sorted(got["hashes"]) == sorted(want)
    moved = sorted(name for name in want if got["hashes"][name] != want[name])
    assert not moved, f"files whose bytes moved: {moved}"


if __name__ == "__main__":
    print(json.dumps(child(Path(sys.argv[1]))))
