"""Golden pins: exact output bytes of small, fixed runs.

Each case is pinned by the SHA-256 of what it writes, so a refactor of the
engine, the posterior kernel, the Monte Carlo reducer or the CLI must
reproduce the outputs bit for bit.  A change that alters results on purpose
re-generates the digests with ``python tests/test_golden.py`` and says why in
CHANGES.md.
"""

import hashlib

import pytest

from noisysearch.channel import AffineNoise
from noisysearch.cli import main
from noisysearch.posterior import PosteriorPartition
from noisysearch.sim import (
    FixedLength,
    SearchConfig,
    VariableLength,
    episode_final_posterior,
    run_episode,
    trial_rng,
)
from noisysearch.strategies import StrategyKind

AFFINE = ["--noise", "affine:0.1:0.5"]
MC = ["--trials", "40", "--seed", "7"]

# name -> (argv without --out, extra output flag or None)
CLI_CASES = {
    "simulate-median-vl": (["simulate", "--strategy", "median", "--L", "8", *AFFINE,
                            "--vl", "0.01", *MC], None),
    "simulate-sort-vl": (["simulate", "--strategy", "sort", "--L", "6", *AFFINE,
                          "--vl", "0.01", *MC], None),
    "simulate-dya-vl": (["simulate", "--strategy", "dya", "--L", "8", *AFFINE,
                         "--vl", "0.01", *MC], None),
    "simulate-hie-vl-w2": (["simulate", "--strategy", "hie", "--L", "8", *AFFINE,
                            "--vl", "0.01", *MC, "--workers", "2"], None),
    "simulate-dya-fl": (["simulate", "--strategy", "dya", "--L", "8", *AFFINE,
                         "--fl", "12", *MC], None),
    "simulate-median-fl-constant-json": (["simulate", "--strategy", "median", "--L", "6",
                                          "--noise", "constant:0.2", "--fl", "10", *MC,
                                          "--format", "json"], None),
    "sweep-dya-w2": (["sweep", "--strategy", "dya", "--L", "7", *AFFINE, "--n", "5:30:5",
                      "--trials", "60", "--seed", "3", "--workers", "2"], None),
    "sweep-sort-w2": (["sweep", "--strategy", "sort", "--L", "8", *AFFINE, "--n", "5:40:5",
                       "--trials", "128", "--seed", "3", "--workers", "2"], None),
    "simulate-hie-fl-w2": (["simulate", "--strategy", "hie", "--L", "8", *AFFINE, "--fl", "20",
                            "--trials", "100", "--seed", "3", "--workers", "2"], None),
    "dump-partition-hie": (["simulate", "--strategy", "hie", "--L", "8", *AFFINE,
                            "--vl", "0.001", "--trials", "5", "--seed", "11"],
                           "--dump-partition"),
    # episodes that span several of the engine's 64-uniform blocks (tau
    # 75-538 and 173-830); constant noise makes exact ties between sort runs
    "simulate-median-vl-long": (["simulate", "--strategy", "median", "--L", "12", *AFFINE,
                                 "--vl", "1e-6", "--trials", "8", "--seed", "5"], None),
    "simulate-sort-vl-constant-long-w2": (["simulate", "--strategy", "sort", "--L", "10",
                                           "--noise", "constant:0.4", "--vl", "1e-3",
                                           "--trials", "8", "--seed", "5", "--workers", "2"],
                                          None),
    "dump-partition-median-long": (["simulate", "--strategy", "median", "--L", "12", *AFFINE,
                                    "--vl", "1e-6", "--trials", "1", "--seed", "5"],
                                   "--dump-partition"),
    # a connected rule under constant noise, where the profile's slope is 0
    "simulate-hie-vl-constant": (["simulate", "--strategy", "hie", "--L", "10",
                                  "--noise", "constant:0.3", "--vl", "1e-3", *MC], None),
    # p(x) = 0.5 x falls below p_floor on the smallest queries (30 of 779)
    "simulate-dya-vl-floor": (["simulate", "--strategy", "dya", "--L", "30",
                               "--noise", "affine:0:0.5", "--vl", "1e-3", "--trials", "20",
                               "--seed", "3"], None),
    # stopping thresholds 1 - eps of 0.6, 0.5 and 0.3, on both sides of 1/2
    "simulate-median-vl0.4": (["simulate", "--strategy", "median", "--L", "8", *AFFINE,
                               "--vl", "0.4", *MC], None),
    "simulate-dya-vl0.4": (["simulate", "--strategy", "dya", "--L", "8", *AFFINE,
                            "--vl", "0.4", *MC], None),
    "simulate-hie-vl0.4": (["simulate", "--strategy", "hie", "--L", "8", *AFFINE,
                            "--vl", "0.4", *MC], None),
    "simulate-median-vl0.5": (["simulate", "--strategy", "median", "--L", "8", *AFFINE,
                               "--vl", "0.5", *MC], None),
    "simulate-dya-vl0.5": (["simulate", "--strategy", "dya", "--L", "8", *AFFINE,
                            "--vl", "0.5", *MC], None),
    "simulate-hie-vl0.5": (["simulate", "--strategy", "hie", "--L", "8", *AFFINE,
                            "--vl", "0.5", *MC], None),
    "simulate-median-vl0.7": (["simulate", "--strategy", "median", "--L", "8", *AFFINE,
                               "--vl", "0.7", *MC], None),
    "simulate-dya-vl0.7": (["simulate", "--strategy", "dya", "--L", "8", *AFFINE,
                            "--vl", "0.7", *MC], None),
    "simulate-hie-vl0.7": (["simulate", "--strategy", "hie", "--L", "8", *AFFINE,
                            "--vl", "0.7", *MC], None),
    "bounds": (["bounds", "--L", "12", *AFFINE, "--vl", "0.001"], None),
    "frontier": (["frontier", *AFFINE], None),
}

GOLDEN_CLI = {
    "simulate-median-vl": "a1fb9f9097a36c69b45756c3093ac816c77a6a9fb921bcac5a90465c2e044847",
    "simulate-sort-vl": "c54380106ceaa01eb1108a4c32787f66e2183f9c3cb012b15c30cde0aa4a56e8",
    "simulate-dya-vl": "c67dc53abd0a833aaf18d8e948d0edd9b3f215f03a4e6ee79181e0b0f39db37b",
    "simulate-hie-vl-w2": "215e75b418037ca50c259cbbfb3761edfb2f5027696e9d0963e7a41c6a02d6d4",
    "simulate-dya-fl": "62ecddc7d08bfa23fda2a562bca4ef95c1cc31c7e502f3ac79bb1ebddf357c84",
    "simulate-median-fl-constant-json": "83af41559c68b84eea552240827f9234fe247d47dbd058ceb10f2e2e1b767355",
    "sweep-dya-w2": "a8c5177f2cfa7cdf0a6512fd1e50c7021e62ea0d495f032009720ae8a254dd9e",
    "sweep-sort-w2": "78e950bba844685f1adf5565189816181b06503e0ab0e4699252c62b8730e5de",
    "simulate-hie-fl-w2": "fd8f261360fd5eab7f172ae921d40333e561181d466e17045da3bb403715ea75",
    "dump-partition-hie": "30b0fb592ef9c2fa228c836605eea615a113b889f92fee71a2449aab7fb21b93",
    "simulate-median-vl-long": "ffa80e7bf1050b77bcfb91abb82e680e5634aad4b2f0068e18a14b0b7c21cd23",
    "simulate-sort-vl-constant-long-w2": "ddaf6052c2319cf9755d6317b79969c68e4d0ee6115c672c6411d5805ba9061d",
    "dump-partition-median-long": "47da215c15dd449ce1eea83519c1683fdba7636ec51c92832a412a113a63c6d0",
    "simulate-hie-vl-constant": "28a5e9c64a93c38e6e365ec25645f469df180ee29b370f6e6d30dcc61e7337e2",
    "simulate-dya-vl-floor": "d8e746c8ecd9c5fc41a8c5b9042971918dba032a3290bcb0565c23762f08b1c5",
    "simulate-median-vl0.4": "9bc4a9e0e8674e475ac1da3cc955bfe4963b6c11f64d7a0cc0b3df065a01d348",
    "simulate-dya-vl0.4": "7654a8d4439eb9b62092e7c32424942db17cb52491f308f5ca5bce1639dfdfef",
    "simulate-hie-vl0.4": "1264c033b5f18398597a61c26996c0f5dc3a028d7656ec9294f5b894bf89d091",
    "simulate-median-vl0.5": "4192c6f5e716cfeca2c975cf819efbe97054278cc84167e6b22f067ac70101ea",
    "simulate-dya-vl0.5": "b0c7d4267ae8d7a1bc306c88256ff9988cf70c413b2dbcea47a0c5d7e77063aa",
    "simulate-hie-vl0.5": "de3c6014f906c70d6ae843a78e7270dec3813025dedfa8d3a2afd71576c9889c",
    "simulate-median-vl0.7": "0d54b83a09a7b34537a099e6c6202c48d61f2f78bde1f2d62cc71a50add59ea5",
    "simulate-dya-vl0.7": "bbdad640ec3dd1f1ec960032d77922a187de27dddb072b75f4d86497d2653aa6",
    "simulate-hie-vl0.7": "f8cc7c8bac5c48a4436e09fa458ace37f6a74be3a20fb06e6a185969610ca198",
    "bounds": "9df85a159c1346d4fa169a6d71d3705d9459088faff60fecd10be5f5327e489e",
    "frontier": "29794db2469586fcea4584234f88f181a4ea6fb2b59da704938dcba94b265532",
}

GOLDEN_EPISODES = {
    "median": "c69a5125a9e66883b9bfeffe16b5fcbfb6619c80830d02adeb3b595937bc0096",
    "sort": "e1e2f02a324b57dc8573a5a4874d6a6a65dda9c179a96bcd3716be3e8a604aec",
    "dya": "6a5395b84ea2e7ca52aae0af77500c9726aacd00833603c96c17d8f590edd3a8",
    "hie": "6100438f48cfcf16df982edc325bacf47278692a638e91ddbf970ac32def2f10",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digest(name: str, tmp_path) -> str:
    """Digest of the file the case writes: the --dump-partition CSV if the
    case names that flag, else --out."""
    argv, extra = CLI_CASES[name]
    out = tmp_path / f"{name}.out"
    argv = argv + ["--out", str(out)]
    if extra is not None:
        dump = tmp_path / f"{name}.dump"
        argv += [extra, str(dump)]
        out = dump
    assert main(argv) == 0
    return sha256(out.read_bytes())


def episode_digest(kind: StrategyKind) -> str:
    """Digest of traced episodes under both stopping rules, checkpoint reads
    and the replayed final posteriors."""
    lines = []
    profile = AffineNoise(0.1, 0.5)
    for stopping, cps in ((VariableLength(1e-3), None), (FixedLength(25), (5, 10, 25))):
        cfg = SearchConfig(L=7, strategy=kind, profile=profile, stopping=stopping, seed=5)
        for i in range(4):
            rec = run_episode(cfg, trial_rng(cfg.seed, i), trace=True, checkpoint_steps=cps)
            lines.append(repr(rec))
        for i in range(2):
            post = episode_final_posterior(cfg, i)
            if isinstance(post, PosteriorPartition):
                lines.append(repr(post.intervals))
            else:
                lines.append(repr(post.mass.tolist()))
    return sha256("\n".join(lines).encode())


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_is_pinned(name, tmp_path):
    assert cli_digest(name, tmp_path) == GOLDEN_CLI[name]


@pytest.mark.parametrize("kind", list(StrategyKind), ids=lambda k: k.value)
def test_episodes_are_pinned(kind):
    assert episode_digest(kind) == GOLDEN_EPISODES[kind.value]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for name in CLI_CASES:
            print(f'    "{name}": "{cli_digest(name, Path(tmp))}",')
    for kind in StrategyKind:
        print(f'    "{kind.value}": "{episode_digest(kind)}",')
