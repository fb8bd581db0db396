"""End-to-end acceptance checks for the whole pipeline.

Nine checks, one test each, every one printing a single
``criterion N (name): PASS/FAIL`` line with its measured numbers:

 1. constraint suite       - fitted banks satisfy zero-mean / unit-variance /
                             decorrelation on their constraint data
 2. eigensolver oracle     - gen_eig_sym vs. brute-force inverse on 1,000 pairs
 3. toy latent recovery    - slowest output of the toy signal is the latent
 4. ordering + identity    - eigenvalues equal measured slowness, ascending,
                             through sfa.apply and through featurize
 5. selectivity ordering   - discriminative beats supervised selectivity
 6. benchmark accuracy     - sequence accuracy over 5 seeds, beats baseline
 7. determinism            - rerunning a seed reproduces every artifact byte
 8. mirror symmetry        - feature mirroring is an involution; mirrored
                             positions land in mirrored region cells
 9. format round trips     - sequence and bank files round-trip bit-exactly

The benchmark runs are shared between criteria 5, 6, and 7 through a
module-scoped fixture; budgets are asserted where a criterion has one.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

import oracles

from slowfeat import (benchmark, cli, cuboid, dataio, features, linalg,
                      pipeline, sfa, synth)
from slowfeat.config import RunConfig

SEEDS = (0, 1, 2, 3, 4)

MEAN_TOL = 1e-6
VAR_TOL = 1e-4
CORR_TOL = 1e-4
EIG_ATOL = 1e-8
RESIDUAL_RTOL = 1e-7
LAMBDA_DELTA_TOL = 1e-6
FEATURIZE_LAMBDA_RTOL = 1e-9


def emit(capsys, num, name, ok, detail):
    """Print the per-criterion verdict line, then enforce it."""
    with capsys.disabled():
        print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'}  "
              f"[{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def constraint_data(tmp_path_factory):
    """All four strategies fitted on one pool of >= 2,000 cuboids."""
    cfg = RunConfig(strategy="sdsfa", classes=4, sequences_per_class=6,
                    train_per_class=5, frames=36, height=40, width=52,
                    cuboid_h=8, cuboid_w=8, cuboid_d=6, delta_t=3,
                    pca_dim=16, k_per_class=6, fraction=0.25,
                    max_cuboids=100, seed=0,
                    data_dir=str(tmp_path_factory.mktemp("constraint")))
    start = time.perf_counter()
    cli.cmd_synth(cfg)
    entries = cli.load_manifest(os.path.join(cfg.data_dir, cli.MANIFEST_NAME))
    cuboids = pipeline._training_cuboids(cfg, entries, entries)
    # the banks are fitted on the lazily cut set, as training fits them;
    # the checks read its windows materialized
    lazy = cuboids.data.windows(cfg.delta_t)
    minis = lazy[:]
    labels, regions = cuboids.labels, cuboids.regions
    banks = {s: sfa.fit_bank(s, lazy, cfg.pca_dim, cfg.k_per_class,
                             labels=labels, regions=regions, grid=cfg.grid,
                             gamma=cfg.gamma)
             for s in sfa.STRATEGIES}
    return {"cuboids": cuboids, "minis": minis, "banks": banks,
            "fit_seconds": time.perf_counter() - start}


@pytest.fixture(scope="module")
def bench_runs(tmp_path_factory):
    """Five seeded benchmark runs; dsfa + baseline timed separately."""
    root = tmp_path_factory.mktemp("bench")
    runs = {}
    timed = 0.0
    for seed in SEEDS:
        workdir = str(root / f"seed{seed}")
        start = time.perf_counter()
        out = benchmark.run_benchmark(seed, workdir, strategies=("dsfa",),
                                      baseline=True)
        timed += time.perf_counter() - start
        ssfa_cfg = benchmark._with_paths(
            dataclasses.replace(out["configs"]["dsfa"], strategy="ssfa"),
            workdir)
        out["configs"]["ssfa"] = ssfa_cfg
        out["strategies"]["ssfa"] = benchmark.run_strategy(ssfa_cfg)
        out["workdir"] = workdir
        runs[seed] = out
    return {"runs": runs, "timed_seconds": timed}


# ---------------------------------------------------------------------------
# 1. constraint suite


def _constraint_rows(strategy, model, cuboids, minis, all_rows):
    """Rows of the pool a model's constraints were computed over."""
    if strategy in ("usfa", "dsfa"):
        return all_rows
    if strategy == "ssfa":
        return np.vstack(minis[cuboids.labels == model.class_label])
    return np.vstack(minis[cuboids.regions == model.region_label])


def test_criterion_1_constraint_suite(constraint_data, capsys):
    start = time.perf_counter()
    cuboids = constraint_data["cuboids"]
    minis = constraint_data["minis"]
    all_rows = np.vstack(minis)
    worst_mean = worst_var = worst_corr = 0.0
    for bank in constraint_data["banks"].values():
        for model in bank.models:
            rows = _constraint_rows(bank.strategy, model, cuboids, minis,
                                    all_rows)
            outs = sfa.apply(model, rows)
            worst_mean = max(worst_mean, np.abs(outs.mean(axis=0)).max())
            cov = np.cov(outs.T, bias=True)
            diag = np.diag(cov)
            worst_var = max(worst_var, np.abs(diag - 1.0).max())
            corr = cov / np.sqrt(np.outer(diag, diag))
            off = corr - np.diag(np.diag(corr))
            worst_corr = max(worst_corr, np.abs(off).max())
    seconds = constraint_data["fit_seconds"] + time.perf_counter() - start
    ok = (len(cuboids.data) >= 2000 and worst_mean < MEAN_TOL
          and worst_var < VAR_TOL and worst_corr < CORR_TOL
          and seconds < 60.0)
    emit(capsys, 1, "constraint suite", ok,
         f"{len(cuboids.data)} cuboids, |mean| {worst_mean:.2e}, "
         f"|var-1| {worst_var:.2e}, |corr| {worst_corr:.2e}, "
         f"{seconds:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. eigensolver oracle equivalence


def test_criterion_2_eigensolver_oracle(capsys):
    rng = np.random.default_rng(20260814)
    start = time.perf_counter()
    worst_gap = worst_resid = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = rng.normal(size=(n, n))
        a = (m + m.T) / 2.0
        q = rng.normal(size=(n, n))
        b = q @ q.T + 0.1 * np.eye(n)
        lam, w = linalg.gen_eig_sym(a, b)
        ref = oracles.brute_force_gen_eig_values(a, b)
        worst_gap = max(worst_gap, np.abs(lam - ref).max())
        resid = np.abs(a @ w - (b @ w) * lam).max()
        worst_resid = max(
            worst_resid, resid / (np.abs(a).max() + np.abs(b).max()))
    seconds = time.perf_counter() - start
    ok = (worst_gap < EIG_ATOL and worst_resid < RESIDUAL_RTOL
          and seconds < 30.0)
    emit(capsys, 2, "eigensolver oracle", ok,
         f"1000 pairs, max |lambda gap| {worst_gap:.2e}, "
         f"max rel residual {worst_resid:.2e}, {seconds:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 3. toy slow-latent recovery


def test_criterion_3_toy_latent_recovery(capsys):
    start = time.perf_counter()
    observed, latent = synth.toy_slow_signal(2000, seed=0)
    bank = sfa.fit_bank("usfa", [observed], pca_dim=2, k=2)
    y = sfa.apply(bank.models[0], observed)
    corr = abs(float(np.corrcoef(y[:, 0], latent)[0, 1]))
    slow = sfa.delta_value(y[:, 0])
    channel_min = min(sfa.delta_value(observed[:, j])
                      for j in range(observed.shape[1]))
    seconds = time.perf_counter() - start
    ok = corr > 0.95 and slow < 0.1 * channel_min and seconds < 10.0
    emit(capsys, 3, "toy latent recovery", ok,
         f"|corr| {corr:.4f} > 0.95, delta {slow:.2e} < "
         f"{0.1 * channel_min:.2e}, {seconds:.1f}s < 10s")


# ---------------------------------------------------------------------------
# 4. ordering and the eigenvalue-slowness identity


def _featurize_slowness_gaps(constraint_data):
    """Per model of every bank, the largest gap between its eigenvalues
    and the slowness featurize measures on the training cuboids, relative
    to its largest |eigenvalue|.

    ``features.bank_squared_derivatives`` gives each cuboid's mean
    squared derivative per output; every cuboid has the same number of
    differences, so the mean over a cell's cuboids is the cell's
    slowness.  An eigenvalue is the training objective of its output:
    the slowness over all cuboids (usfa), over its class (ssfa), or, in
    its region, its class's slowness minus ``gamma`` times the mean of
    the other classes' (dsfa, sdsfa).
    """
    cuboids = constraint_data["cuboids"]
    gaps = []
    for bank in constraint_data["banks"].values():
        values = features.bank_squared_derivatives(cuboids.data[:], bank,
                                                   cuboids.regions)
        edges = np.cumsum([0] + [m.k for m in bank.models])
        for model, lo, hi in zip(bank.models, edges[:-1], edges[1:]):
            cols = values[:, lo:hi]
            inside = (cuboids.regions == model.region_label
                      if bank.strategy == "sdsfa" else True)
            slowness = {c: cols[inside & (cuboids.labels == c)].mean(axis=0)
                        for c in bank.class_labels}
            if bank.strategy == "usfa":
                measured = cols.mean(axis=0)
            elif bank.strategy == "ssfa":
                measured = slowness[model.class_label]
            else:
                others = [v for c, v in slowness.items()
                          if c != model.class_label]
                measured = (slowness[model.class_label]
                            - bank.gamma * np.mean(others, axis=0))
            gaps.append(np.abs(measured - model.eigenvalues).max()
                        / np.abs(model.eigenvalues).max())
    return gaps


def test_criterion_4_eigenvalue_slowness_identity(constraint_data, capsys):
    model = constraint_data["banks"]["usfa"].models[0]
    sq_sum = np.zeros(model.k)
    count = 0
    for mini in constraint_data["minis"]:
        dy = np.diff(sfa.apply(model, mini), axis=0)
        sq_sum += (dy * dy).sum(axis=0)
        count += dy.shape[0]
    measured = sq_sum / count
    gap = np.abs(measured - model.eigenvalues).max()
    ascending = bool(np.all(np.diff(measured) >= -LAMBDA_DELTA_TOL))
    featurize_gap = max(_featurize_slowness_gaps(constraint_data))
    ok = (gap < LAMBDA_DELTA_TOL and ascending
          and featurize_gap <= FEATURIZE_LAMBDA_RTOL)
    emit(capsys, 4, "ordering and slowness identity", ok,
         f"max |delta - eigenvalue| {gap:.2e} < 1e-6, "
         f"deltas nondecreasing: {ascending}, featurize route "
         f"{featurize_gap:.2e} <= 1e-9 of max |eigenvalue|")


# ---------------------------------------------------------------------------
# 5. selectivity ordering


def test_criterion_5_selectivity_ordering(bench_runs, capsys):
    pairs = [(run["strategies"]["dsfa"]["average_selectivity"],
              run["strategies"]["ssfa"]["average_selectivity"])
             for run in bench_runs["runs"].values()]
    wins = sum(d > s for d, s in pairs)
    ok = wins >= 4
    emit(capsys, 5, "selectivity ordering", ok,
         f"discriminative > supervised in {wins}/5 seeds "
         + " ".join(f"({d:.1f} vs {s:.1f})" for d, s in pairs))


# ---------------------------------------------------------------------------
# 6. benchmark accuracy


def test_criterion_6_benchmark_accuracy(bench_runs, capsys):
    accs = [run["strategies"]["dsfa"]["sequence_accuracy"]
            for run in bench_runs["runs"].values()]
    base = [run["baseline"]["sequence_accuracy"]
            for run in bench_runs["runs"].values()]
    mean_acc = float(np.mean(accs))
    mean_base = float(np.mean(base))
    seconds = bench_runs["timed_seconds"]
    ok = mean_acc >= 0.90 and mean_acc > mean_base and seconds < 300.0
    emit(capsys, 6, "benchmark accuracy", ok,
         f"mean accuracy {mean_acc:.3f} >= 0.90 and > baseline "
         f"{mean_base:.3f}, {seconds:.0f}s < 300s")


# ---------------------------------------------------------------------------
# 7. determinism


def _artifact_bytes(config, workdir):
    out = {}
    for path in benchmark.artifact_paths(config):
        with open(path, "rb") as handle:
            out[os.path.relpath(path, workdir)] = handle.read()
    return out


def test_criterion_7_determinism(bench_runs, tmp_path_factory, capsys):
    root = tmp_path_factory.mktemp("rerun")
    mismatched = []
    checked = 0
    for seed, run in bench_runs["runs"].items():
        workdir = str(root / f"seed{seed}")
        again = benchmark.run_benchmark(seed, workdir, strategies=("dsfa",),
                                        baseline=False)
        first = _artifact_bytes(run["configs"]["dsfa"], run["workdir"])
        second = _artifact_bytes(again["configs"]["dsfa"], workdir)
        if sorted(first) != sorted(second):
            mismatched.append(f"seed {seed}: file sets differ")
            continue
        checked += len(first)
        mismatched.extend(f"seed {seed}: {name}" for name in sorted(first)
                          if first[name] != second[name])
    ok = not mismatched
    emit(capsys, 7, "determinism", ok,
         f"{checked} artifacts bit-identical across reruns of 5 seeds"
         if ok else "; ".join(mismatched[:5]))


# ---------------------------------------------------------------------------
# 8. mirror involution and region symmetry


def test_criterion_8_mirror_symmetry(capsys):
    grid = (2, 3)
    block = 7
    rng = np.random.default_rng(88)
    values = np.abs(rng.normal(size=(100, grid[0] * grid[1] * block)))
    values /= values.sum(axis=1, keepdims=True)
    twice = features.mirror_features(
        features.mirror_features(values, grid), grid)
    involution_ok = (twice.dtype == values.dtype
                     and twice.tobytes() == values.tobytes())

    region_ok = True
    checked = 0
    for bbox in ((0, 0, 110, 80), (13, 9, 110, 80)):
        bx, by, bw, bh = bbox
        for y in range(by, by + bh):
            for x in range(bx, bx + bw):
                idx = cuboid.region_label((x, y), bbox, grid)
                mirrored = cuboid.region_label(
                    (2 * bx + bw - 1 - x, y), bbox, grid)
                iy, ix = divmod(idx, grid[0])
                region_ok &= mirrored == iy * grid[0] + (grid[0] - 1 - ix)
                checked += 1
    ok = involution_ok and region_ok
    emit(capsys, 8, "mirror symmetry", ok,
         f"100 double mirrors bit-identical: {involution_ok}; "
         f"{checked} mirrored positions in mirrored cells: {region_ok}")


# ---------------------------------------------------------------------------
# 9. format round trips


def _random_pca(rng):
    in_dim = int(rng.integers(2, 7))
    pca_dim = int(rng.integers(1, in_dim + 1))
    return linalg.PcaModel(mean=rng.normal(size=in_dim),
                           projection=rng.normal(size=(pca_dim, in_dim)),
                           explained_eigenvalues=np.sort(
                               np.abs(rng.normal(size=pca_dim)))[::-1].copy())


def _random_bank(rng):
    """A bank of random arrays: one k per bank, as a fit gives."""
    strategy = str(rng.choice(sfa.STRATEGIES))
    pca = _random_pca(rng)
    expanded = sfa.expanded_dim(pca.out_dim)
    k = int(rng.integers(1, expanded + 1))
    classes = (() if strategy == "usfa"
               else tuple(range(int(rng.integers(2, 5)))))
    gamma = (float(rng.uniform(0.0, 1.0)) if strategy in ("dsfa", "sdsfa")
             else None)
    grid = ((int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            if strategy == "sdsfa" else (1, 1))
    cells = grid[0] * grid[1] * max(1, len(classes))
    return sfa.ModelBank(
        strategy, pca, h0=rng.normal(size=(cells, expanded)),
        w=rng.normal(size=(expanded, cells * k)),
        eigenvalues=np.sort(np.abs(rng.normal(size=(cells, k))), axis=1),
        class_labels=classes, grid=grid, gamma=gamma)


def _models_equal(a, b):
    return (np.array_equal(a.pca.mean, b.pca.mean)
            and np.array_equal(a.pca.projection, b.pca.projection)
            and np.array_equal(a.pca.explained_eigenvalues,
                               b.pca.explained_eigenvalues)
            and np.array_equal(a.h0, b.h0)
            and np.array_equal(a.w, b.w)
            and np.array_equal(a.eigenvalues, b.eigenvalues)
            and (a.class_label, a.region_label)
            == (b.class_label, b.region_label))


def test_criterion_9_format_round_trips(tmp_path, capsys):
    rng = np.random.default_rng(991)
    ok = True
    for i in range(100):
        shape = tuple(int(v) for v in rng.integers(1, 9, size=3))
        pixels = rng.integers(0, 256, size=shape).astype(np.uint8)
        path = tmp_path / f"seq{i}.sfv"
        dataio.save_sequence(path, pixels)
        loaded = dataio.load_sequence(path)
        dataio.save_sequence(tmp_path / "seq-again.sfv", loaded)
        ok &= (loaded.dtype == np.uint8 and np.array_equal(loaded, pixels)
               and path.read_bytes()
               == (tmp_path / "seq-again.sfv").read_bytes())

    for i in range(100):
        bank = _random_bank(rng)
        path = tmp_path / f"bank{i}.sfam"
        dataio.save_bank(path, bank)
        loaded = dataio.load_bank(path)
        dataio.save_bank(tmp_path / "bank-again.sfam", loaded)
        ok &= ((loaded.strategy, loaded.grid, loaded.class_labels,
                loaded.gamma)
               == (bank.strategy, bank.grid, bank.class_labels, bank.gamma)
               and len(loaded.models) == len(bank.models)
               and all(_models_equal(x, y) for x, y
                       in zip(loaded.models, bank.models))
               and path.read_bytes()
               == (tmp_path / "bank-again.sfam").read_bytes())
    emit(capsys, 9, "format round trips", ok,
         "100 sequence + 100 bank files round-trip bit-identically")
