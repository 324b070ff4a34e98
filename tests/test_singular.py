from fractions import Fraction

import pytest

from opertau import linalg
from opertau.errors import WindowOverflow
from opertau.singular import (
    VacuumModule,
    raising_generators,
    singular_vector_search,
)

from .conftest import gram_matrix

F = Fraction


class TestModuleAction:
    def test_vacuum_annihilated(self):
        mod = VacuumModule(F(1))
        for g in [(0, "e"), (0, "f"), (0, "h"), (1, "e"), (2, "f")]:
            assert mod.act(g, {(): F(1)}) == {}

    def test_central_term(self):
        # [e_1, f_{-1}] = h_0 + k on the vacuum
        mod = VacuumModule(F(7, 3))
        got = mod.act((1, "e"), {((-1, "f"),): F(1)})
        assert got == {(): F(7, 3)}

    def test_h_pairing(self):
        # [h_1, h_{-1}] = 2k
        mod = VacuumModule(F(5))
        got = mod.act((1, "h"), {((-1, "h"),): F(1)})
        assert got == {(): F(10)}

    def test_pbw_ordering(self):
        mod = VacuumModule(F(1))
        w = mod.act((-1, "e"), {((-1, "e"),): F(1)})
        assert w == {((-1, "e"), (-1, "e")): F(1)}


class TestShapovalov:
    def test_depth1_gram_generic(self):
        mod = VacuumModule(F(1, 3))
        for wt in (-2, 0, 2):
            basis, g = gram_matrix(mod, 1, wt)
            assert len(basis) == 1
            assert g[0][0] != 0

    def test_depth2_weight4_resonance(self):
        # <e_{-1}^2 v, e_{-1}^2 v> = 2k(k-1): zero exactly at level 1
        basis, g = gram_matrix(VacuumModule(F(1)), 2, 4)
        assert len(basis) == 1
        assert g[0][0] == 0
        basis, g = gram_matrix(VacuumModule(F(1, 3)), 2, 4)
        assert g[0][0] != 0

    def test_gram_dets_nonzero_generic(self):
        mod = VacuumModule(F(1, 3))
        for d in (1, 2):
            for wt in sorted({mod.weight(w) for w in mod.slice_basis(d)}):
                basis, g = gram_matrix(mod, d, wt)
                assert linalg.det(g) != 0, (d, wt)


class TestSearch:
    def test_generic_level_empty(self):
        assert singular_vector_search(F(1, 3), 2) == []

    def test_level_one_depth_two(self):
        found = singular_vector_search(F(1), 2)
        assert len(found) == 1
        depth, wt, elem = found[0]
        assert (depth, wt) == (2, 4)
        assert set(elem) == {((-1, "e"), (-1, "e"))}

    def test_found_vector_killed_by_raising(self):
        mod = VacuumModule(F(1))
        (_, _, elem) = singular_vector_search(F(1), 2)[0]
        for g in raising_generators(2):
            out = {}
            for w, c in elem.items():
                for w2, c2 in mod.act(g, {w: F(1)}).items():
                    out[w2] = out.get(w2, F(0)) + c * c2
            assert all(v == 0 for v in out.values())

    def test_gram_kernel_contains_singular(self):
        mod = VacuumModule(F(1))
        basis, g = gram_matrix(mod, 2, 4)
        assert linalg.det(g) == 0

    def test_depth_cap(self):
        with pytest.raises(WindowOverflow):
            singular_vector_search(F(1), 9)
