"""The benchmark's workloads: seeded inputs, one timed operation, its checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one ends.  Operation ``i`` of a run with seed ``s`` draws
its inputs from ``numpy.random.default_rng([s, 1, i])`` and the untimed
warm-up operation from ``default_rng([s, 0])``, so every operation sees
fresh matrices and the same seed gives the same inputs.

The program is called through module attributes (``smoothing.auto_theta``,
not a name bound at import) so that the tracer's rebinding reaches the
outermost call as well.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks

EPSILON = 0.1
SMOOTH_M = 128                # canonical_generators(m): n = 2m = 256
SMOOTH_NOISE = 1e-4
LONG_GRID = 2048
WIDE_COPIES = 12
WIDE_GRID = 64                # phase step 2*pi*12/64 ~ 1.18: one doubling
SWEEP_DELTAS = [1e-2, 1e-3, 1e-4, 1e-5]
SWEEP_SAMPLES = 5
SWEEP_GRID = 16
SWEEP_CONSEQUENCE = "pos(sym(x'*x - (h - h'*h))) - neg(sym(x'*x - (h - h'*h)))"


def op_rng(seed: int, op: int | None) -> np.random.Generator:
    """Input stream of operation ``op``; ``None`` is the warm-up."""
    return np.random.default_rng([seed, 0] if op is None else [seed, 1, op])


def _gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _unit_norm(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, 2)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


class SmoothDense:
    """auto_theta(epsilon=0.1) on canonical_generators(128) plus 1e-4 noise."""

    name = "smooth-dense"

    def __init__(self, qcwb, workdir: Path):
        self.qcwb = qcwb
        self.base = qcwb.qc_model.canonical_generators(SMOOTH_M)

    def inputs(self, rng: np.random.Generator) -> dict:
        n = self.base.dim
        dh = _gaussian(rng, n)
        dk = _gaussian(rng, n)
        dx = _gaussian(rng, n)
        return {
            "h": self.base.h + SMOOTH_NOISE * _unit_norm(dh + dh.conj().T),
            "x": self.base.x + SMOOTH_NOISE * _unit_norm(dx),
            "k": self.base.k + SMOOTH_NOISE * _unit_norm(dk + dk.conj().T),
        }

    def run(self, inp: dict):
        triple = self.qcwb.qc_model.QcTriple(inp["h"], inp["x"], inp["k"])
        return self.qcwb.smoothing.auto_theta(triple, epsilon=EPSILON)

    def output(self, result) -> dict:
        params, out, report = result
        return {"theta": params.theta, "h": out.h, "x": out.x, "k": out.k}

    def check(self, inp: dict, out: dict) -> None:
        checks.check_smoothing(inp, out, EPSILON, SMOOTH_M)


class _Boundary:
    """run_scenario on endpoint triples conjugated by a seeded Haar unitary."""

    copies: int
    grid: int

    def __init__(self, qcwb, workdir: Path):
        self.qcwb = qcwb
        n = 2 * self.copies
        # eval-at-one, repeated: h(0) = 1 (+) 0 on each 2x2 block, all else 0
        self.h0 = np.kron(np.eye(self.copies), np.diag([1.0, 0.0])).astype(complex)
        self.zero = np.zeros((n, n), dtype=complex)
        # the orientation the generator carries, from the unconjugated input
        self.sign = self._unit_sign()

    def _unit_sign(self) -> int:
        b = self.qcwb.boundary
        result, _, _ = b.run_scenario("eval-at-one", grid_size=64)
        winding, _ = checks.recount_winding(result.u.values)
        if abs(winding) != 1:
            raise checks.CheckFailed(f"eval-at-one winds {winding} times, not +-1")
        return winding

    def inputs(self, rng: np.random.Generator) -> dict:
        return {"v": haar_unitary(rng, 2 * self.copies)}

    def run(self, inp: dict):
        qc = self.qcwb.qc_model
        v = inp["v"]
        conj = v @ self.h0 @ v.conj().T
        z = self.zero
        rep = self.qcwb.boundary.BScenarioRep(qc.QcTriple(conj, z, z), qc.QcTriple(z, z, z))
        return self.qcwb.boundary.run_scenario(rep, grid_size=self.grid)

    def output(self, result) -> dict:
        res, lift, model = result
        return {"winding": int(res.winding), "u": res.u.values, "grid": model.grid_size}

    def check(self, inp: dict, out: dict) -> None:
        checks.check_boundary(out, self.copies * self.sign)


class BoundaryLong(_Boundary):
    name = "boundary-long"
    copies = 1
    grid = LONG_GRID


class BoundaryWide(_Boundary):
    name = "boundary-wide"
    copies = WIDE_COPIES
    grid = WIDE_GRID


class RelationsSweep:
    """In-process ``qcwb relations --sweep`` on the qc relation file."""

    name = "relations-sweep"

    def __init__(self, qcwb, workdir: Path):
        self.qcwb = qcwb
        workdir.mkdir(parents=True, exist_ok=True)
        self.rel = workdir / "qc.rel"
        self.spec = workdir / "sweep.json"
        self.out = workdir / "sweep-report.json"
        self.replay_out = workdir / "sweep-replay.json"
        self.rel.write_text(qcwb.relations.QC_RELATION_SOURCE, encoding="utf-8")
        self.spec.write_text(
            json.dumps(
                {
                    "deltas": SWEEP_DELTAS,
                    "samples_per_delta": SWEEP_SAMPLES,
                    "sampler_grid": SWEEP_GRID,
                    "consequence": SWEEP_CONSEQUENCE,
                }
            ),
            encoding="utf-8",
        )

    def inputs(self, rng: np.random.Generator) -> dict:
        self.out.unlink(missing_ok=True)
        return {"seed": int(rng.integers(2**31))}

    def _main(self, seed: int, report: Path) -> int:
        argv = [
            "relations",
            "--input", str(self.rel),
            "--sweep", str(self.spec),
            "--seed", str(seed),
            "--output", str(report),
        ]
        return self.qcwb.cli.main(argv)

    def run(self, inp: dict):
        return self._main(inp["seed"], self.out)

    def _read(self, exit_code: int, report: Path) -> dict:
        doc = json.loads(report.read_text(encoding="utf-8")) if exit_code == 0 else {}
        return {"exit_code": exit_code, "sweep": doc.get("result", {}).get("sweep", [])}

    def output(self, result) -> dict:
        return self._read(result, self.out)

    def replay(self, seed: int) -> dict:
        """Run the operation again, recording every environment the sampler draws."""
        cli = self.qcwb.cli
        make_sampler = cli.perturbation_sampler
        samples = []

        def recording_sampler(*args, **kwargs):
            sample = make_sampler(*args, **kwargs)

            def record(delta, rng):
                env = sample(delta, rng)
                samples.append((delta, env))
                return env

            return record

        self.replay_out.unlink(missing_ok=True)
        cli.perturbation_sampler = recording_sampler
        try:
            exit_code = self._main(seed, self.replay_out)
        finally:
            cli.perturbation_sampler = make_sampler
        return dict(self._read(exit_code, self.replay_out), samples=samples)

    def check(self, inp: dict, out: dict) -> None:
        checks.check_sweep(out, SWEEP_DELTAS, self.replay(inp["seed"]))


WORKLOADS = {w.name: w for w in (SmoothDense, BoundaryLong, BoundaryWide, RelationsSweep)}
