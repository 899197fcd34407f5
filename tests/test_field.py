import functools
import gc
import weakref

import numpy as np
import pytest
from conftest import (
    hermitian_defect, numpy_spectral_gradient, sample_scalar, sample_vector, stream_flow,
)

from wlns.field import (
    Grid,
    ScalarField,
    SnapshotFormatError,
    SpectralField,
    VectorField,
    ball_mask,
    cell_box,
    forward_transform,
    gradient_squares,
    inverse_transform,
    read_snapshot_header,
    read_vector_snapshot,
    rescale,
    rescale_profile,
    write_snapshot,
    write_table,
)
from wlns.field import _BLOCKS, _block, _forward


def random_scalar(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return ScalarField(grid, scale * rng.standard_normal((grid.n,) * 3))


def random_vector(grid, seed=0):
    return VectorField.from_arrays(grid, *(random_scalar(grid, seed + i).values for i in range(3)))


class TestGrid:
    def test_spacing_times_n_is_length(self):
        g = Grid(n=16, length=3.5)
        assert g.spacing * g.n == g.length

    @pytest.mark.parametrize("n", [7, 9, 6, 4, 0, -8])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            Grid(n=n)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Grid(n=8, length=-1.0)

    def test_mode_numbers_layout(self):
        g = Grid(n=8)
        assert list(g.mode_numbers) == [0, 1, 2, 3, -4, -3, -2, -1]

    def test_dealias_two_thirds(self):
        g = Grid(n=12)
        keep = g.dealias_mask()
        # cutoff at 12/3 = 4: modes with any |m| > 4 are dropped
        m = g.mode_numbers
        for i in range(12):
            assert keep[i, 0, 0] == (abs(m[i]) <= 4)


class TestVectorField:
    @pytest.mark.parametrize("shape", [(3, 8, 8, 6), (8, 8, 8), (2, 8, 8, 8), (3, 16, 16, 16)])
    def test_rejects_a_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="shape"):
            VectorField(Grid(n=8), np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_value(self, bad):
        values = np.zeros((3, 8, 8, 8))
        values[2, 1, 2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            VectorField(Grid(n=8), values)

    def test_holds_one_contiguous_array(self):
        u = random_vector(Grid(n=8), 4)
        assert u.as_array() is u.values
        assert u.values.dtype == np.float64 and u.values.flags.c_contiguous
        # a C-contiguous float64 array is kept; any other layout is copied into one
        assert VectorField(u.grid, u.values).values is u.values
        strided = np.zeros((3, 16, 8, 8))[:, ::2]
        held = VectorField(u.grid, strided).values
        assert held.flags.c_contiguous and np.array_equal(held, strided)


class TestTransforms:
    def test_constant_field_single_mode(self):
        g = Grid(n=8)
        f = ScalarField(g, np.full((8, 8, 8), 2.5))
        spec = forward_transform(f)
        assert spec.modes[0, 0, 0] == pytest.approx(2.5)
        off = spec.modes.copy()
        off[0, 0, 0] = 0.0
        assert np.abs(off).max() < 1e-14

    def test_roundtrip_identity(self):
        g = Grid(n=16)
        for seed in range(5):
            f = random_scalar(g, seed)
            back = inverse_transform(forward_transform(f))
            assert np.abs(back.values - f.values).max() < 1e-12

    def test_parseval(self):
        g = Grid(n=16, length=4.0)
        # the half spectrum holds the last-axis modes 1..n/2-1 once for
        # themselves and once for their conjugates
        weight = np.full(g.n // 2 + 1, 2.0)
        weight[[0, -1]] = 1.0
        for seed in range(5):
            f = random_scalar(g, seed)
            spec = forward_transform(f)
            mean_sq = np.mean(f.values**2)
            mode_sum = np.sum(weight * np.abs(spec.modes) ** 2)
            assert mean_sq == pytest.approx(mode_sum, rel=1e-12)

    def test_hermitian_symmetry_of_real_fields(self):
        g = Grid(n=12)
        spec = forward_transform(random_scalar(g, 3))
        assert hermitian_defect(spec) < 1e-14
        # only the self-conjugate last-axis planes 0 and n/2 constrain a
        # half spectrum; a mode of any other plane is free
        for plane, defect in ((0, 0.5), (g.n // 2, 0.5), (1, 0.0)):
            broken = spec.modes.copy()
            broken[1, 2, plane] += 0.5j
            assert hermitian_defect(SpectralField(g, broken)) == pytest.approx(
                defect, abs=1e-14
            )

    def test_half_spectrum_layout(self):
        g = Grid(n=8)
        assert forward_transform(random_scalar(g)).modes.shape == (8, 8, 5)
        with pytest.raises(ValueError):
            SpectralField(g, np.zeros((8, 8, 8), dtype=np.complex128))

    def test_rejects_nonfinite(self):
        g = Grid(n=8)
        bad = np.zeros((8, 8, 8))
        bad[1, 2, 3] = np.nan
        with pytest.raises(ValueError):
            ScalarField(g, bad)


class TestDerivatives:
    def test_gradient_of_sine(self):
        g = Grid(n=32)
        f = sample_scalar(g, lambda X, Y, Z: np.sin(X))
        X = g.coordinates[0]
        assert np.abs(gradient_squares(f) - np.cos(X) ** 2).max() < 1e-12

    def test_wavenumbers_scale_with_box(self):
        g = Grid(n=32, length=4 * np.pi)
        f = sample_scalar(g, lambda X, Y, Z: np.sin(X / 2))
        X = g.coordinates[0]
        assert np.abs(gradient_squares(f) - 0.25 * np.cos(X / 2) ** 2).max() < 1e-13


class TestFieldCalculusOracle:
    """The field calculus against a numpy.fft full-spectrum reference."""

    REL = 1e-12  # fixed before the comparison was run

    @pytest.mark.parametrize("length", [2 * np.pi, 3.5])
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_matches_numpy_full_spectrum(self, n, length):
        grid = Grid(n=n, length=length)
        rng = np.random.default_rng(n)
        f = rng.standard_normal(grid.shape)
        v = rng.standard_normal((3, *grid.shape))
        # white noise fills the Nyquist planes, whose zeroed symbols matter
        f_modes = np.fft.fftn(f)
        for axis in range(3):
            assert np.abs(np.take(f_modes, n // 2, axis=axis)).max() > 1e-3 * n**1.5
        f_grad2 = sum(d**2 for d in numpy_spectral_gradient(f, length))
        v_grad2 = sum(d**2 for c in v for d in numpy_spectral_gradient(c, length))

        def close(got, want):
            assert np.max(np.abs(got - want)) <= self.REL * np.max(np.abs(want))

        close(gradient_squares(ScalarField(grid, f)), f_grad2)
        close(gradient_squares(VectorField(grid, v)), v_grad2)

    def test_gradient_squares_skip_only_a_zero_component(self):
        # the bitwise-zero u_z is not transformed; every bit stays that of
        # all nine derivatives transformed through scipy.fft
        import scipy.fft

        grid = Grid(n=16)
        u = stream_flow(grid, seed=2)
        kx, ky, kz, _ = _block(grid, 1.0).symbols
        want = np.zeros(grid.shape)
        for component in u.values:
            modes = scipy.fft.rfftn(component, norm="forward")
            for k in (kx, ky, kz):
                want += scipy.fft.irfftn(1j * k * modes, s=grid.shape, norm="forward") ** 2
        assert gradient_squares(u).tobytes() == want.tobytes()


class TestKeptBlock:
    """The solver's kept-mode block against the masked half spectrum."""

    FRACTIONS = [2.0 / 3.0, 0.5, 1.0]

    @pytest.mark.parametrize("batch", [(3,), ()], ids=["vector", "scalar"])
    @pytest.mark.parametrize("fraction", FRACTIONS)
    @pytest.mark.parametrize("n", [8, 10, 24, 30, 48, 64])
    def test_pruned_inverse_and_round_trip(self, n, fraction, batch):
        # scipy.fft is the reference: every transform keeps its bits
        import scipy.fft

        grid = Grid(n=n)
        block = _block(grid, fraction)
        rng = np.random.default_rng(n)
        shape = (*batch, *block.shape)
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = block.scatter(b)
        assert np.array_equal(block.gather(full), b)
        inverse = functools.partial(
            scipy.fft.irfftn, s=grid.shape, axes=(-3, -2, -1), norm="forward"
        )
        # the block of fraction 1 inverts the whole half spectrum
        assert np.array_equal(_block(grid, 1.0).inverse(full), inverse(full))
        assert np.array_equal(block.inverse(b), inverse(full))
        # a second call on the reused buffers sees nothing of the first
        assert np.array_equal(block.inverse(0.5 * b), inverse(0.5 * full))

        values = rng.standard_normal((*batch, *grid.shape))
        modes = scipy.fft.rfftn(values, axes=(-3, -2, -1), norm="forward")
        assert np.array_equal(_forward(values), modes)
        pruned = np.empty(shape, dtype=complex)
        for field in np.ndindex(batch):
            block.forward(values[field], pruned[field])
        assert np.array_equal(pruned, block.gather(modes))

    @pytest.mark.parametrize("fraction", FRACTIONS)
    @pytest.mark.parametrize("n", [8, 24])
    def test_zero_field_of_a_batch_is_not_transformed(self, monkeypatch, n, fraction):
        # a field of +0 modes gets +0 values with no transform; one holding
        # a -0 is not bitwise zero and is transformed
        import scipy.fft

        grid = Grid(n=n)
        block = _block(grid, fraction)
        rng = np.random.default_rng(n)
        shape = (4, *block.shape)
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b[1:3] = 0.0
        b[2, 1, 1, 1] = complex(-0.0, 0.0)
        irfft, calls = np.fft.irfft, []
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: calls.append(1) or irfft(*a, **k))
        got = block.inverse(b)
        assert len(calls) == 3
        want = scipy.fft.irfftn(block.scatter(b), s=grid.shape, axes=(-3, -2, -1), norm="forward")
        assert got.tobytes() == want.tobytes()
        assert not got[1].view(np.uint64).any()
        # a strided batch, such as a slice of a full spectrum, is read alike
        assert block.inverse(np.asfortranarray(b)).tobytes() == got.tobytes()

    @pytest.mark.parametrize("fraction", FRACTIONS)
    @pytest.mark.parametrize("n", [8, 24])
    def test_zero_values_get_plus_zero_modes_without_a_transform(self, monkeypatch, n, fraction):
        # values of either zero sign: the full transform's modes are zeros,
        # the pruned one writes +0 and calls no rfft
        grid = Grid(n=n)
        block = _block(grid, fraction)
        values = np.zeros(grid.shape)
        values[::2] = -0.0
        want = block.gather(_forward(values))
        rfft, calls = np.fft.rfft, []
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
        got = block.forward(values, np.full(block.shape, np.nan, dtype=complex))
        assert not calls
        assert not got.view(np.uint64).any()
        assert np.all(want == 0.0)
        # a zero first plane alone does not skip the transform
        values[-1, -1, -1] = 1.0
        got = block.forward(values, np.empty(block.shape, dtype=complex))
        assert calls
        assert got.tobytes() == block.gather(_forward(values)).tobytes()

    @pytest.mark.parametrize("fraction", FRACTIONS)
    @pytest.mark.parametrize("n", [8, 24, 48, 64])
    def test_block_is_the_dealias_mask(self, n, fraction):
        grid = Grid(n=n)
        block = _block(grid, fraction)
        assert np.array_equal(block.scatter(np.ones(block.shape)) == 1.0, block.mask)
        if fraction == 1.0:
            assert block.shape == (n, n, n // 2 + 1)

    def test_cache_shares_equal_grids_and_keeps_none_alive(self):
        # a length no other test uses, so this grid is the one the cache holds
        grid = Grid(n=8, length=3.25)
        block = _block(grid, 0.5)
        assert _block(Grid(n=8, length=3.25), 0.5) is block
        assert _block(grid, 1.0) is not block
        assert _block(Grid(n=8, length=3.5), 0.5) is not block
        alive = weakref.ref(grid)
        del grid
        gc.collect()
        assert alive() is None
        assert not any(isinstance(part, Grid) for key in _BLOCKS for part in key)
        assert _block(Grid(n=8, length=3.25), 0.5) is block


def box_cases(grid):
    """``(name, box)``: centred, wrapping across each face and all three, one cell, whole grid."""
    L, h = grid.length, grid.spacing
    mid, r = L / 2.0, 0.2 * L
    return [
        ("centred", cell_box(grid, (mid, mid, mid), r)),
        ("wrap-x", cell_box(grid, (0.5 * h, mid, mid), r)),
        ("wrap-y", cell_box(grid, (mid, L - 0.5 * h, mid), r)),
        ("wrap-z", cell_box(grid, (mid, mid, 0.1), r)),
        ("wrap-xyz", cell_box(grid, (0.1, 0.2, 6.0 % L), r)),
        ("one-cell", cell_box(grid, (3 * h, 2 * h, h), 0.25 * h)),
        ("whole", cell_box(grid, (mid, mid, mid), L)),
    ]


class TestCellBox:
    """A box of cells gets the bytes of the whole grid's inverse, restricted to it."""

    @pytest.mark.parametrize("n", range(8, 65, 2))
    def test_box_inverse_is_the_restricted_whole_inverse(self, n):
        grid = Grid(n=n)
        rng = np.random.default_rng(n)
        for fraction in (0.5, 2.0 / 3.0, 1.0):
            block = _block(grid, fraction)
            shape = (2, *block.shape)
            b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            whole = block.inverse(b)
            for name, box in box_cases(grid):
                got = block.inverse(b, box)
                want = whole[(..., *np.ix_(*box))]
                assert got.shape == want.shape, (fraction, name)
                assert got.tobytes() == want.tobytes(), (fraction, name)

    def test_boxes_hold_their_balls_in_row_major_order(self):
        grid = Grid(n=16)
        cases = dict(box_cases(grid))
        assert [len(i) for i in cases["one-cell"]] == [1, 1, 1]
        assert all(np.array_equal(i, np.arange(16)) for i in cases["whole"])
        assert min(map(len, cases["wrap-xyz"])) < 16
        for center in ((np.pi,) * 3, (0.1, 0.2, 6.0), (0.0, 0.0, 0.0)):
            for radius in (0.3, 1.35, 2.0):
                box = cell_box(grid, center, radius)
                assert all(np.all(np.diff(i) > 0) for i in box)
                inside = np.zeros(grid.shape, dtype=bool)
                inside[np.ix_(*box)] = True
                ball = ball_mask(grid, center, radius)
                assert np.all(inside[ball])
                # masking the box lists the ball's cells as masking the grid does
                values = np.arange(grid.n**3, dtype=float).reshape(grid.shape)
                assert np.array_equal(values[np.ix_(*box)][ball[np.ix_(*box)]], values[ball])

    @pytest.mark.parametrize("n", [16, 24])
    def test_gradient_squares_on_a_box(self, n):
        grid = Grid(n=n)
        for u in (random_vector(grid, seed=n), stream_flow(grid, seed=n), random_scalar(grid)):
            whole = gradient_squares(u)
            for name, box in box_cases(grid):
                got = gradient_squares(u, box)
                assert got.tobytes() == whole[np.ix_(*box)].tobytes(), name


class TestRescale:
    def test_identity(self):
        g = Grid(n=16)
        f = random_scalar(g, 1)
        out = rescale(f, 1)
        assert np.abs(out.values - f.values).max() == 0.0

    def test_integer_zoom_matches_closed_form(self):
        g = Grid(n=32)
        f = sample_scalar(g, lambda X, Y, Z: np.sin(X) * np.cos(Y))
        zoom = rescale(f, 2)
        expected = sample_scalar(
            g, lambda X, Y, Z: 2 * np.sin(2 * X) * np.cos(2 * Y)
        )
        assert np.abs(zoom.values - expected.values).max() < 1e-12

    def test_rejects_fractional_eps(self):
        g = Grid(n=16)
        with pytest.raises(ValueError):
            rescale(random_scalar(g), 1.5)

    def test_rejects_off_grid_center(self):
        g = Grid(n=16)
        with pytest.raises(ValueError):
            rescale(random_scalar(g), 2, center=(0.1234, 0.0, 0.0))

    @pytest.mark.parametrize("eps", [np.inf, -np.inf, np.nan])
    def test_rejects_a_non_finite_factor(self, eps):
        with pytest.raises(ValueError, match="eps"):
            rescale(random_scalar(Grid(n=8)), eps)

    @pytest.mark.parametrize("eps", [1e300, 2.0**70, 8 * 10**30 + 3])
    def test_huge_integer_factor(self, eps):
        # the stretched index i0 + factor * j is taken mod n, so it cannot overflow
        g = Grid(n=8)
        f, v = random_scalar(g, 5), random_vector(g, 6)
        c = 3 * g.spacing
        idx = (3 + (int(eps) % g.n) * np.arange(g.n)) % g.n
        cells = np.ix_(idx, idx, idx)
        assert np.array_equal(rescale(f, eps, (c, c, c)).values, float(eps) * f.values[cells])
        got = rescale(v, eps, (c, c, c)).values
        assert np.array_equal(got, float(eps) * v.values[(..., *cells)])

    def test_profile_composition(self):
        # two zooms about the origin compose into one with the product factor
        def prof(X, Y, Z):
            return np.sin(X) + np.cos(Y + Z)

        g = Grid(n=16)
        once = rescale_profile(rescale_profile(prof, 2.0), 3.0)
        both = rescale_profile(prof, 6.0)
        a = sample_scalar(g, once)
        b = sample_scalar(g, both)
        assert np.abs(a.values - b.values).max() < 1e-12

    def test_vector_rescale_centre_shift(self):
        g = Grid(n=16)
        v = sample_vector(g, lambda X, Y, Z: (np.sin(X), np.sin(Y), np.sin(Z)))
        c = 4 * g.spacing
        out = rescale(v, 2, center=(c, c, c))
        expected = sample_vector(
            g,
            lambda X, Y, Z: (
                2 * np.sin(c + 2 * X),
                2 * np.sin(c + 2 * Y),
                2 * np.sin(c + 2 * Z),
            ),
        )
        for got, want in zip(out.values, expected.values):
            assert np.abs(got - want).max() < 1e-12


class TestSnapshots:
    HEADER = 4 + 4 + 4 + 8 + 8 + 4

    def test_roundtrip(self, tmp_path):
        g = Grid(n=8, length=2.0)
        v = random_vector(g, 1)
        path = tmp_path / "snap.wlns"
        write_snapshot(path, 0.125, v)
        time, back = read_vector_snapshot(path)
        assert time == 0.125
        assert back.grid == g
        for a, b in zip(back.values, v.values):
            assert np.array_equal(a, b)

    def test_read_gives_one_contiguous_array(self, tmp_path):
        path = tmp_path / "snap.wlns"
        write_snapshot(path, 0.0, random_vector(Grid(n=8), 2))
        values = read_vector_snapshot(path)[1].values
        assert values.shape == (3, 8, 8, 8) and values.dtype == np.float64
        assert values.flags.c_contiguous

    def test_payload_is_x_fastest(self, tmp_path):
        g = Grid(n=8)
        X = g.coordinates[0]
        path = tmp_path / "snap.wlns"
        write_snapshot(path, 0.0, VectorField.from_arrays(g, X, X + 1.0, X + 2.0))
        raw = path.read_bytes()
        # the components follow one another, and in each x varies fastest,
        # so its leading doubles sweep the x axis
        for i in range(3):
            start = self.HEADER + i * 8 * g.n**3
            first = np.frombuffer(raw[start : start + 8 * 8], dtype="<f8")
            assert np.allclose(first, g.axis_coordinates + i)

    def test_header_fields(self, tmp_path):
        g = Grid(n=8, length=3.0)
        path = tmp_path / "snap.wlns"
        write_snapshot(path, 1.5, random_vector(g))
        raw = path.read_bytes()
        assert raw[:4] == b"WLNS"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 8
        assert int.from_bytes(raw[28:32], "little") == 3

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.wlns"
        path.write_bytes(b"XXXX" + b"\0" * 40)
        with pytest.raises(SnapshotFormatError):
            read_vector_snapshot(path)

    def test_truncated_payload_rejected(self, tmp_path):
        g = Grid(n=8)
        path = tmp_path / "snap.wlns"
        write_snapshot(path, 0.0, random_vector(g))
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(SnapshotFormatError):
            read_vector_snapshot(path)

    def test_header_reports_time_and_grid(self, tmp_path):
        g = Grid(n=8, length=3.0)
        path = tmp_path / "snap.wlns"
        write_snapshot(path, 1.5, random_vector(g, 1))
        assert read_snapshot_header(path) == (1.5, g)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: raw[:-8], "truncated snapshot payload"),
            (lambda raw: raw + b"\0", "trailing bytes after snapshot payload"),
            (lambda raw: raw[:20], "truncated snapshot header"),
            (lambda raw: raw[:4] + (2).to_bytes(4, "little") + raw[8:], "version 2"),
            (lambda raw: raw[:28] + (0).to_bytes(4, "little") + raw[32:],
             "^expected 3 fields, found 0$"),
            (lambda raw: raw[:28] + (2).to_bytes(4, "little") + raw[32:],
             "^expected 3 fields, found 2$"),
        ],
        ids=["truncated", "trailing", "short-header", "version", "no-fields", "two-fields"],
    )
    def test_header_check_rejects_bad_files(self, tmp_path, edit, message):
        path = tmp_path / "snap.wlns"
        write_snapshot(path, 0.0, random_vector(Grid(n=8)))
        path.write_bytes(edit(path.read_bytes()))
        for reader in (read_snapshot_header, read_vector_snapshot):
            with pytest.raises(SnapshotFormatError, match=message):
                reader(path)

    def test_interrupted_write_leaves_nothing(self, tmp_path, monkeypatch):
        g = Grid(n=8)
        path = tmp_path / "snap.wlns"

        def interrupt(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr("wlns.field.os.replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            write_snapshot(path, 0.0, random_vector(g))
        assert list(tmp_path.iterdir()) == []


class TestTables:
    def test_golden_text(self, tmp_path):
        path = tmp_path / "table.csv"
        columns = {
            "k": np.array([0, 1, 2, 3]),
            "x": np.array([0.1, 1.0 / 3.0, 1e-300, -0.0]),
            "y": [2, 0.5, float("inf"), float("nan")],
        }
        write_table(path, columns, index="k")
        assert path.read_bytes() == (
            b"k,x,y\n"
            b"0,0.1,2.0\n"
            b"1,0.3333333333333333,0.5\n"
            b"2,1e-300,inf\n"
            b"3,-0.0,nan\n"
        )

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equal lengths"):
            write_table(tmp_path / "t.csv", {"a": [1.0, 2.0], "b": [1.0]})


def test_ball_mask_volume_converges():
    volumes = []
    for n in (32, 64):
        g = Grid(n=n)
        mask = ball_mask(g, (np.pi, np.pi, np.pi), 1.0)
        volumes.append(np.count_nonzero(mask) * g.cell_volume)
    exact = 4 * np.pi / 3
    assert abs(volumes[1] - exact) < abs(volumes[0] - exact)
    assert volumes[1] == pytest.approx(exact, rel=0.02)
