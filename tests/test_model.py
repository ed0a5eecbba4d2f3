import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptspec.contour import StraightLine, UShaped
from ptspec.errors import DomainError, GeometryError
from ptspec.model import (
    DECAYING_PAIR,
    PLANE_WAVE_PAIR,
    CoulombKratzer,
    Oscillator,
    classify_asymptotics,
    effective_L,
    evaluate_potential,
    integer_L,
    stability_verdict,
)


class TestPotential:
    def test_coulomb_at_minus_i(self):
        assert evaluate_potential(CoulombKratzer(Z=1.0), -1j) == pytest.approx(-1.0)

    def test_quadratic_well_on_imaginary_axis(self):
        assert evaluate_potential(Oscillator(), 3j) == pytest.approx(-9.0)

    def test_singular_origin(self):
        with pytest.raises(DomainError, match="Coulomb-Kratzer potential evaluated at x = 0"):
            evaluate_potential(CoulombKratzer(1.0), 0.0)

    def test_quadratic_well_regular_at_origin(self):
        assert evaluate_potential(Oscillator(), 0.0) == 0.0

    @given(
        re=st.floats(min_value=-10, max_value=10),
        im=st.floats(min_value=-10, max_value=10),
        Z=st.floats(min_value=-5, max_value=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_pt_conjugation_symmetry(self, re, im, Z):
        x = complex(re, im)
        if abs(x) < 1e-6:  # x = 0 is singular, and 1/x overflows near it
            return
        p = CoulombKratzer(Z=Z)
        left = evaluate_potential(p, -x.conjugate())
        right = evaluate_potential(p, x).conjugate()
        assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


class TestEffectiveL:
    def test_free_centrifugal_flagged(self):
        L = effective_L(0, 0.0)
        assert L == pytest.approx(0.0, abs=1e-15)
        assert integer_L(L)

    def test_kratzer_two_flagged(self):
        L = effective_L(0, 2.0)
        assert L == pytest.approx(1.0)
        assert integer_L(L)

    def test_valid_half(self):
        L = effective_L(0, 0.75)
        assert L == pytest.approx(0.5)
        assert not integer_L(L)

    def test_fall_to_center(self):
        with pytest.raises(DomainError, match=r"= 0.0 <= 0: no real effective L exists"):
            effective_L(0, -0.25)
        with pytest.raises(DomainError, match=r"<= 0: no real effective L exists"):
            effective_L(0, -0.3)

    @given(L=st.floats(min_value=-0.499, max_value=40.0), ell=st.integers(0, 6))
    @settings(max_examples=300, deadline=None)
    def test_inverse_of_strength_map(self, L, ell):
        F = L * (L + 1) - ell * (ell + 1)
        assert effective_L(ell, F) == pytest.approx(L, rel=1e-9, abs=1e-9)


class TestClassification:
    def test_positive_mass_u_path_negative_energy(self):
        assert classify_asymptotics(1, UShaped(1.0), -1.0) == PLANE_WAVE_PAIR

    def test_negative_mass_u_path_negative_energy(self):
        assert classify_asymptotics(-1, UShaped(1.0), -1.0) == DECAYING_PAIR

    def test_negative_mass_u_path_positive_energy(self):
        assert classify_asymptotics(-1, UShaped(1.0), 1.0) == PLANE_WAVE_PAIR

    def test_real_line_textbook(self):
        assert classify_asymptotics(1, StraightLine(0.0), -4.0) == DECAYING_PAIR

    def test_threshold_not_classified(self):
        with pytest.raises(DomainError):
            classify_asymptotics(1, UShaped(1.0), 0.0)

    def test_tilted_line_unsupported(self):
        with pytest.raises(GeometryError, match="supports the U path and the phi=0 line only"):
            classify_asymptotics(1, StraightLine(0.4), 1.0)

    @given(
        E=st.floats(min_value=0.01, max_value=50.0),
        sign=st.sampled_from([1, -1]),
        positive=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_mass_energy_flip_symmetry(self, E, sign, positive):
        energy = E if positive else -E
        a = classify_asymptotics(sign, UShaped(1.0), energy)
        b = classify_asymptotics(-sign, UShaped(1.0), -energy)
        assert a == b


class TestStability:
    def test_truth_table(self):
        assert not stability_verdict(1, UShaped(1.0)).bounded_below
        assert stability_verdict(-1, UShaped(1.0)).bounded_below
        assert stability_verdict(1, StraightLine(0.0)).bounded_below
        assert not stability_verdict(-1, StraightLine(0.0)).bounded_below

    def test_narratives_nonempty(self):
        for sign in (1, -1):
            for contour in (UShaped(1.0), StraightLine(0.0)):
                v = stability_verdict(sign, contour)
                assert isinstance(v.narrative, str) and v.narrative

    def test_unsupported_geometry(self):
        with pytest.raises(GeometryError, match="supports the U path and the phi=0 line only"):
            stability_verdict(1, StraightLine(0.7))

    def test_sign_rule_is_the_classifiers(self, monkeypatch):
        # the verdict reads classify_asymptotics at a negative energy; it
        # forms no sign product of its own
        import ptspec.model as model

        calls = []

        def classify(mass_sign, contour, E):
            calls.append((mass_sign, contour, E))
            return PLANE_WAVE_PAIR

        monkeypatch.setattr(model, "classify_asymptotics", classify)
        assert not stability_verdict(-1, UShaped(1.0)).bounded_below
        assert calls == [(-1, UShaped(1.0), -1.0)]
        monkeypatch.undo()
        # the mass sign is checked before the contour
        with pytest.raises(DomainError, match="mass sign must be"):
            stability_verdict(0, StraightLine(0.7))
        with pytest.raises(GeometryError):
            stability_verdict(1, StraightLine(0.7))

    def test_consistency_with_classifier(self):
        # bounded below exactly when negative energies host no free waves
        for sign in (1, -1):
            for contour in (UShaped(1.0), StraightLine(0.0)):
                v = stability_verdict(sign, contour)
                c = classify_asymptotics(sign, contour, -1.0)
                assert v.bounded_below == (c == DECAYING_PAIR)
