import numpy as np
import pytest

import diracharmonic as dh

from conftest import curvature, second_fundamental, shape_operator


def fd_second_fundamental(p, X, Y, eps=1e-6):
    """Oracle: A(X, Y) as the normal part of the ambient derivative of the
    projected extension of Y along the great-circle curve through p with
    velocity X."""
    sphere = dh.Sphere(2)
    X = sphere.tangent_project(p, X)
    Y = sphere.tangent_project(p, Y)

    def tangent_ext(q):
        return Y - q * (q @ Y)

    speed = np.linalg.norm(X)
    if speed < 1e-14:
        return np.zeros(3)
    gamma = lambda t: np.cos(speed * t) * p + np.sin(speed * t) * X / speed
    dY = (tangent_ext(gamma(eps)) - tangent_ext(gamma(-eps))) / (2 * eps)
    return p * (p @ dY)


class TestSphereBasics:
    def test_project_point(self):
        assert np.allclose(dh.Sphere(2).project_point([0.0, 0.0, 2.0]), [0, 0, 1])

    def test_project_origin_rejected(self):
        with pytest.raises(ValueError):
            dh.Sphere(2).project_point([0.0, 0.0, 0.0])

    def test_tangent_project_fixes_tangent(self):
        s = dh.Sphere(2)
        assert np.allclose(s.tangent_project([0, 0, 1.0], [1.0, 0, 0]), [1, 0, 0])

    def test_tangent_project_kills_normal(self):
        s = dh.Sphere(2)
        assert np.allclose(s.tangent_project([0, 0, 1.0], [0, 0, 5.0]), 0.0)

    def test_tangent_projector_has_rank_dim(self, rng):
        s = dh.Sphere(2)
        p = s.project_point(rng.normal(size=3))
        P = np.column_stack([s.tangent_project(p, e) for e in np.eye(3)])
        assert np.linalg.matrix_rank(P, tol=1e-10) == 2
        assert np.abs(P @ P - P).max() < 1e-12


class TestSecondFundamentalForm:
    def test_value_at_pole_against_fd_oracle(self):
        s = dh.Sphere(2)
        p = np.array([0.0, 0.0, 1.0])
        X = np.array([1.0, 0.0, 0.0])
        out = second_fundamental(s, p, X, X)
        assert np.allclose(out, [0, 0, -1.0])
        assert np.abs(out - fd_second_fundamental(p, X, X)).max() < 1e-6

    def test_fd_oracle_on_random_points(self, rng):
        s = dh.Sphere(2)
        for _ in range(10):
            p = s.project_point(rng.normal(size=3))
            X = s.tangent_project(p, rng.normal(size=3))
            Y = s.tangent_project(p, rng.normal(size=3))
            sym = 0.5 * (fd_second_fundamental(p, X + Y, X + Y)
                         - fd_second_fundamental(p, X, X)
                         - fd_second_fundamental(p, Y, Y))
            assert np.abs(second_fundamental(s, p, X, Y) - sym).max() < 1e-5

    def test_orthogonal_arguments_give_zero(self):
        s = dh.Sphere(2)
        p = s.project_point([1.0, 1.0, 1.0])
        X = s.tangent_project(p, [1.0, -1.0, 0.0])
        Y = np.cross(p, X)
        assert np.abs(second_fundamental(s, p, X, Y)).max() < 1e-12

    def test_symmetric_and_normal_valued(self, rng):
        s = dh.Sphere(2)
        for _ in range(20):
            p = s.project_point(rng.normal(size=3))
            X = s.tangent_project(p, rng.normal(size=3))
            Y = s.tangent_project(p, rng.normal(size=3))
            a_xy = second_fundamental(s, p, X, Y)
            a_yx = second_fundamental(s, p, Y, X)
            assert np.abs(a_xy - a_yx).max() < 1e-12
            tangent_part = s.tangent_project(p, a_xy)
            assert np.abs(tangent_part).max() < 1e-12

    def test_flat_target_vanishes(self, rng):
        f = dh.Flat(4)
        assert np.abs(second_fundamental(f, rng.normal(size=4), rng.normal(size=4),
                                         rng.normal(size=4))).max() == 0.0


class TestShapeOperator:
    def test_duality_oracle(self, rng):
        # Solve <P, Y> = <A(X, Y), xi> over a tangent basis and compare.
        s = dh.Sphere(2)
        for _ in range(10):
            p = s.project_point(rng.normal(size=3))
            X = s.tangent_project(p, rng.normal(size=3))
            xi = p * rng.normal()
            basis = [s.tangent_project(p, e) for e in np.eye(3)]
            produced = shape_operator(s, p, xi, X)
            for Y in basis:
                lhs = produced @ Y
                rhs = second_fundamental(s, p, X, Y) @ xi
                assert abs(lhs - rhs) < 1e-12

    def test_example_at_pole(self):
        s = dh.Sphere(2)
        out = shape_operator(s, [0, 0, 1.0], [0, 0, 1.0], [1.0, 0, 0])
        assert np.allclose(out, [-1.0, 0, 0])

    def test_zero_normal_gives_zero(self):
        s = dh.Sphere(2)
        assert np.abs(shape_operator(s, [0, 0, 1.0], [0.0, 0, 0], [1.0, 0, 0])).max() == 0.0

    def test_flat_target(self):
        f = dh.Flat(3)
        assert np.abs(shape_operator(f, [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0])).max() == 0.0


class TestCurvature:
    def test_round_sphere_value(self):
        s = dh.Sphere(2)
        out = curvature(s, [0, 0, 1.0], [1.0, 0, 0], [0, 1.0, 0], [0, 1.0, 0])
        assert np.allclose(out, [1.0, 0, 0])

    def test_gauss_assembly_oracle(self, rng):
        # Assemble <R(X,Y)Z, W> = <A(X,W), A(Y,Z)> - <A(X,Z), A(Y,W)> from
        # the second fundamental form alone and compare with the operator.
        s = dh.Sphere(2)
        for _ in range(10):
            p = s.project_point(rng.normal(size=3))
            X, Y, Z, W = (s.tangent_project(p, rng.normal(size=3)) for _ in range(4))
            lhs = curvature(s, p, X, Y, Z) @ W
            rhs = (second_fundamental(s, p, X, W) @ second_fundamental(s, p, Y, Z)
                   - second_fundamental(s, p, X, Z) @ second_fundamental(s, p, Y, W))
            assert abs(lhs - rhs) < 1e-12

    def test_antisymmetry_in_first_slots(self, rng):
        s = dh.Sphere(2)
        p = s.project_point(rng.normal(size=3))
        X, Y, Z = (s.tangent_project(p, rng.normal(size=3)) for _ in range(3))
        assert np.abs(curvature(s, p, X, Y, Z) + curvature(s, p, Y, X, Z)).max() < 1e-12
        assert np.abs(curvature(s, p, X, X, Z)).max() < 1e-12

    def test_first_bianchi(self, rng):
        s = dh.Sphere(2)
        for _ in range(10):
            p = s.project_point(rng.normal(size=3))
            X, Y, Z = (s.tangent_project(p, rng.normal(size=3)) for _ in range(3))
            total = (curvature(s, p, X, Y, Z) + curvature(s, p, Y, Z, X)
                     + curvature(s, p, Z, X, Y))
            assert np.abs(total).max() < 1e-12

    def test_pair_symmetry(self, rng):
        s = dh.Sphere(2)
        for _ in range(10):
            p = s.project_point(rng.normal(size=3))
            X, Y, Z, W = (s.tangent_project(p, rng.normal(size=3)) for _ in range(4))
            assert abs(curvature(s, p, X, Y, Z) @ W
                       - curvature(s, p, Z, W, X) @ Y) < 1e-12

    def test_sectional_curvature_one(self, rng):
        s = dh.Sphere(2)
        for _ in range(20):
            p = s.project_point(rng.normal(size=3))
            X = s.tangent_project(p, rng.normal(size=3))
            Y = s.tangent_project(p, rng.normal(size=3))
            sec = curvature(s, p, X, Y, Y) @ X
            expect = (X @ X) * (Y @ Y) - (X @ Y) ** 2
            assert abs(sec - expect) < 1e-12 * max(1.0, abs(expect))

    def test_flat_curvature_zero(self, rng):
        f = dh.Flat(3)
        out = curvature(f, rng.normal(size=3), rng.normal(size=3),
                        rng.normal(size=3), rng.normal(size=3))
        assert np.abs(out).max() == 0.0
