"""The seed-1 instances of the three benchmark workloads (``ladder-lp``,
``ladder-l2``, ``small-grid``; see ``bench/README.md``), as the benchmark
reads them: generated, then round-tripped through the JSON format."""
import pgframes as pg


def instances():
    """The 4 ``ladder-lp``, 4 ``ladder-l2`` and 12 ``small-grid`` instances."""
    def ladder(i, n, fe, ye):
        return dict(x2_dim=n, y_dims=[2] * (n // 2), frame_exponent=fe,
                    y_exponents=[ye] * (n // 2), seed=1000 + i)

    specs = [ladder(i, n, 1.5, 3.0) for i, n in enumerate((4, 8, 12, 16))]
    specs += [ladder(i, n, 2.0, 2.0) for i, n in enumerate((16, 32, 64, 96))]
    for j, (fe, ye) in enumerate(((1.5, 3.0), (3.0, 1.5), (1.25, 4.0))):
        for k, y_dims in enumerate(((2,), (1, 1), (3,), (2, 1))):
            specs.append(dict(x2_dim=sum(y_dims), y_dims=list(y_dims), frame_exponent=fe,
                              y_exponents=[ye] * len(y_dims), x2_exponent=ye,
                              x1_exponent=fe, seed=1000 + 4 * j + k))
    return [pg.parse(pg.serialize(pg.gen("riesz-pair", **spec))) for spec in specs]
