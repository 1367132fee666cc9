"""Exact pins of four small fixed-seed estimates.

A change that is meant to leave the estimators' output bit for bit the
same (a faster sampler, path or reduction) must pass this file unchanged.
A change that moves these numbers on purpose re-pins them and reports a
statistical comparison against the previous code.  The values come from
numpy 2.4 on x86-64 with AVX-512; numpy's vectorised exp and power may
round differently on other CPUs.
"""

from fkmoments import (
    Constant,
    EstimatorConfig,
    GaussianBump,
    HeatKernel,
    PoissonKernel,
    QueryPoint,
    RieszKernel,
    TemporalKernel,
    estimate_second_moment_fractional,
    estimate_second_moment_white,
)


def test_a6_importance():
    # constant data: the K = 1 rows read one difference path, while the
    # counts and the K = 0 and K >= 2 entries keep their earlier bits
    q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
    cfg = EstimatorConfig(replicates=100_000, seed=17, mode="importance")
    est = estimate_second_moment_fractional(
        q, TemporalKernel(0.75), HeatKernel(dim=1, bandwidth=1.0), Constant(1.0), cfg
    )
    assert est.value == 1.1230660450765084
    assert est.stderr == 0.0011351629972348575
    assert est.per_order == {
        0: (0.9987920106247266, 0.0020258639218772405, 77786),
        1: (0.11708772659923863, 0.0009238912507046268, 19573),
        2: (0.006918303654437606, 0.0001655047657341578, 2431),
        3: (0.00026143156823862305, 1.8906238448929227e-05, 200),
        4: (6.57262986698045e-06, 2.368479333657746e-06, 10),
    }


def test_poisson_bump_uniform():
    q = QueryPoint(t=1.0, s=0.6, x=(0.0, 0.0), y=(0.3, 0.0))
    u0 = GaussianBump(center=(0.1, 0.0), width=0.5)
    cfg = EstimatorConfig(replicates=50_000, seed=18, mode="uniform")
    est = estimate_second_moment_fractional(q, TemporalKernel(hurst=0.85), PoissonKernel(dim=2), u0, cfg)
    assert est.value == 0.15463130687171936
    assert est.stderr == 0.0005537981401107961
    assert est.per_order == {
        0: (0.1472385696939563, 0.0005719184907234609, 27246),
        1: (0.007209249744267446, 7.645409655999876e-05, 16587),
        2: (0.00018051617909844704, 4.871701095371742e-06, 5056),
        3: (2.9272060367436183e-06, 1.978847905932212e-07, 961),
        4: (4.179586617201143e-08, 1.3522356145270683e-08, 131),
        5: (2.2470274157777198e-09, 1.7853770163623755e-09, 15),
        6: (5.22157811005621e-12, 4.244830274861147e-12, 3),
        7: (2.4523412465087653e-13, 2.4515567483492937e-13, 1),
    }


def test_white_bump():
    u0 = GaussianBump(center=(0.1,), width=0.5)
    cfg = EstimatorConfig(replicates=50_000, seed=19)
    est = estimate_second_moment_white(1.0, (0.0,), (0.3,), HeatKernel(dim=1, bandwidth=1.0), u0, cfg)
    assert est.value == 0.4495605983814256
    assert est.stderr == 0.0015942408403823891
    assert est.per_order == {
        0: (0.3274500465610191, 0.001671205512237331, 18373),
        1: (0.10312097907444212, 0.0007000875921544266, 18240),
        2: (0.016853312490679808, 0.00019529904075894837, 9277),
        3: (0.0019543320633348877, 4.0682923890363574e-05, 3135),
        4: (0.00017162525673282707, 1.0195696245298919e-05, 801),
        5: (9.600026620620838e-06, 1.2577474689375006e-06, 150),
        6: (6.957236462495678e-07, 2.5980418754958206e-07, 22),
        7: (7.184949920921074e-09, 7.180246956251534e-09, 2),
    }


def test_riesz_bump_uniform_3d():
    # d = 3 points, rows of K >= 3 times and the redraw count
    q = QueryPoint(t=0.9, s=0.7, x=(0.0, 0.0, 0.0), y=(0.2, -0.1, 0.0))
    u0 = GaussianBump(center=(0.1, 0.0, -0.1), width=0.6)
    cfg = EstimatorConfig(replicates=20_000, seed=20, mode="uniform")
    est = estimate_second_moment_fractional(
        q, TemporalKernel(hurst=0.85), RieszKernel(dim=3, order=1.0), u0, cfg
    )
    assert est.value == 0.33918964510387895
    assert est.stderr == 0.03398631052041437
    assert est.per_order == {
        0: (0.07839091987313339, 0.0005034612587062094, 10720),
        1: (0.1104745574542983, 0.0059364107310344374, 6718),
        2: (0.09799773716852739, 0.026248715387019065, 2051),
        3: (0.04527307358611947, 0.013210130942133939, 436),
        4: (0.0043237307501345044, 0.0018300967356967431, 68),
        5: (0.002729626271665875, 0.0014548844266829633, 7),
    }
    assert est.diagnostics == {
        "max_abs_replicate": 341.0037843127199,
        "abs_replicate_q999": 27.247714886472,
        "effective_sample_size": 142.88031015022625,
        "naive_stderr": 0.028275505636868037,
        "singular_hits": 0,
        "variance_warning": None,
    }
