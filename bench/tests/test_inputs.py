"""Seeds: same seed, same inputs and outputs; another seed, other numbers
but the same amount of work."""

from bench import harness
from bench.inputs import ENSEMBLE_MEMBERS, make_inputs


def test_inputs_are_a_function_of_the_seed_and_in_range():
    a, b = make_inputs(7), make_inputs(7)
    assert a == b
    assert a != make_inputs(8)
    assert 0.01 <= a.perturbation <= 0.03 and 0.9 <= a.b0 <= 1.1
    assert len(a.viscosities) == ENSEMBLE_MEMBERS
    assert 0 <= a.member < ENSEMBLE_MEMBERS


def test_same_seed_same_digest_other_seed_same_work(tiny_step_workload):
    w = tiny_step_workload
    w.import_program()
    first = harness.run_round(w, make_inputs(1)).facts
    again = harness.run_round(w, make_inputs(1)).facts
    other = harness.run_round(w, make_inputs(2)).facts
    assert first == again
    assert other["digest"] != first["digest"]
    assert other["launches"] == first["launches"]
    assert other["steps"] == first["steps"]
