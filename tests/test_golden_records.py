"""Exact pins of three small fixed-seed estimates.

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
    TemporalKernel,
    estimate_second_moment_fractional,
    estimate_second_moment_white,
)


def test_a6_importance():
    q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
    cfg = EstimatorConfig(replicates=100_000, seed=17, mode="importance")
    est = estimate_second_moment_fractional(
        q, TemporalKernel(0.75), HeatKernel(dim=1, bandwidth=1.0), Constant(1.0), cfg
    )
    assert est.value == 1.1230724136074073
    assert est.stderr == 0.0011244193652220989
    assert est.per_order == {
        0: (0.9987920106247266, 0.0020258639218772405, 77786),
        1: (0.11709409513013762, 0.0009361747680372262, 19573),
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
