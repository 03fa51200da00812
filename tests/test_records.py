"""The flat record of every verdict: one instance of each report class and
both refusals, with the exact keys and values of its record and the exact
text of each refusal message."""

import numpy as np
import pytest

from isolab.contspace import (
    DecompositionReport,
    GridFunction,
    GridIsometryReport,
    IntervalGrid,
    NotWeightedComposition,
    RecoveredSymbol,
)
from isolab.gauges import AdmissibilityReport, HypothesisCheck
from isolab.holodisc import (
    Characterization,
    IsometryReport,
    NotCharacterizable,
    ThreeCircleReport,
)
from isolab.metric import SeparationResult
from isolab.recovery import LogMeasure, RoundtripReport

GRID = IntervalGrid(np.linspace(0.2, 0.8, 7))
CERT = {"surjectivity_gap": 0.25, "collapsed_pairs": 0}  # not in key order


def _cases():
    measure = LogMeasure(np.array([0.0]), np.array([0.5]))
    checks = (HypothesisCheck("zero_value", True, 0.0), HypothesisCheck("monotone", False, 2.5))
    return [
        (
            RoundtripReport(1e-4, 2e-4, 0.0, measure, 1, 9, 257, "closed_form"),
            {
                "max_position_error": 1e-4, "max_mass_error": 2e-4, "residual": 0.0,
                "passed": True, "pencil_rank": 1, "fit_nfev": 9, "frequencies_used": 257,
                "kernel_transform": "closed_form",
            },
        ),
        (
            SeparationResult("separated", 0.5, 0.125, 64),
            {"verdict": "separated", "t_star": 0.5, "gap": 0.125, "t_grid_size": 64},
        ),
        (
            SeparationResult("inconclusive", None, 0.0, 64),
            {"verdict": "inconclusive", "gap": 0.0, "t_grid_size": 64},
        ),
        (
            IsometryReport("sup", 0.5, 1e-9, 256),
            {"family": "sup", "max_gap": 0.5, "tol": 1e-9, "passed": False, "circle_samples": 256},
        ),
        (
            ThreeCircleReport(-1.0, -0.5, 0.5, False, True, 64),
            {
                "lhs": -1.0, "rhs": -0.5, "slack": 0.5, "rigidity_flag": False,
                "monomial": True, "circle_samples": 64,
            },
        ),
        (
            GridIsometryReport(0.1, 0.2, 1e-9),
            {"max_gap": 0.1, "budget": 0.2, "tol": 1e-9, "passed": True},
        ),
        (
            DecompositionReport(-0.5, 0.1, 0.0, 1.0),
            {
                "worst_slack": -0.5, "budget": 0.1, "linearity_gap": 0.0,
                "dual_norm_max": 1.0, "passed": False,
            },
        ),
        (
            RecoveredSymbol(GridFunction.constant(GRID, 1.0), GridFunction.coordinate(GRID), CERT),
            {"certificate.collapsed_pairs": 0, "certificate.surjectivity_gap": 0.25},
        ),
        (
            AdmissibilityReport("clip", 1202, 25281, checks),
            {
                "gauge": "clip", "all_pass": False, "value_samples": 1202,
                "subadditive_pairs": 25281, "zero_value.passed": True,
                "zero_value.worst_gap": 0.0, "monotone.passed": False, "monotone.worst_gap": 2.5,
            },
        ),
        (
            Characterization(1j, -1.0 + 0j, {"unimodularity": 0.0, "constant_tail": 1e-17}, 64),
            {
                "alpha": 1j, "beta": -1.0 + 0j, "circle_samples": 64,
                "certificate.constant_tail": 1e-17, "certificate.unimodularity": 0.0,
            },
        ),
    ]


@pytest.mark.parametrize("report, want", _cases(), ids=lambda c: type(c).__name__)
def test_report_record_keys_and_values(report, want):
    rec = report.as_record()
    assert rec == want  # the exact key set, and each value
    cert = [k for k in rec if k.startswith("certificate.")]
    assert cert == sorted(cert)


@pytest.mark.parametrize(
    "refusal, message",
    [
        (
            NotWeightedComposition("injectivity", "3 collapsed pairs", CERT),
            "not a weighted composition at grid scale: injectivity (3 collapsed pairs)",
        ),
        (
            NotWeightedComposition("resolution", "", {}),
            "not a weighted composition at grid scale: resolution",
        ),
        (
            NotCharacterizable("unimodularity", "|alpha| = 2", CERT, 512),
            "not characterizable: unimodularity (|alpha| = 2)",
        ),
        (NotCharacterizable("flatness", "", {}, 64), "not characterizable: flatness"),
    ],
    ids=["weighted_details", "weighted_bare", "char_details", "char_bare"],
)
def test_refusal_message_and_attributes(refusal, message):
    assert isinstance(refusal, RuntimeError)
    assert str(refusal) == message
    assert refusal.check == message.split(": ", 1)[1].split(" (")[0]
    assert refusal.certificate == (CERT if refusal.details else {})
    assert refusal.certificate is not CERT  # the refusal holds its own copy
    if isinstance(refusal, NotCharacterizable):
        assert refusal.circle_samples in (512, 64)


@pytest.mark.parametrize(
    "refusal",
    [
        NotWeightedComposition("injectivity", "3 collapsed pairs", CERT),
        NotCharacterizable("injectivity", "", CERT, 512),
    ],
    ids=["weighted", "char"],
)
def test_refusal_record_is_the_check_and_the_sorted_certificate(refusal):
    assert list(refusal.as_record().items()) == [
        ("failed_check", "injectivity"),
        ("certificate.collapsed_pairs", 0),
        ("certificate.surjectivity_gap", 0.25),
    ]
