"""Bayesian-baseline tests: posterior conditioning and prior sensitivity."""

import random

import pytest

from repro.evaluate.answers import images_of
from repro.evaluate.bayes import (
    ChoicePrior,
    TupleIndependentPrior,
    posterior_over_sensitive,
    total_variation,
)
from repro.relalg.translate import translate_select
from repro.sqlir.parser import parse_select
from repro.workloads import hospital


def tr1(sql, schema, name=None):
    return translate_select(parse_select(sql), schema, name).disjuncts[0]


class TestTotalVariation:
    def test_identical_distributions(self):
        d = {frozenset({(1,)}): 1.0}
        assert total_variation(d, d) == 0.0

    def test_disjoint_distributions(self):
        left = {frozenset({(1,)}): 1.0}
        right = {frozenset({(2,)}): 1.0}
        assert total_variation(left, right) == 1.0

    def test_partial_overlap(self):
        left = {frozenset({(1,)}): 0.5, frozenset({(2,)}): 0.5}
        right = {frozenset({(1,)}): 1.0}
        assert total_variation(left, right) == pytest.approx(0.5)


class TestPriors:
    def test_tuple_independent_sampling(self):
        prior = TupleIndependentPrior(
            fixed={"R": {(1, 1)}},
            uncertain={"R": [((2, 2), 1.0), ((3, 3), 0.0)]},
        )
        instance = prior.sample(random.Random(0))
        assert (1, 1) in instance["R"]
        assert (2, 2) in instance["R"]
        assert (3, 3) not in instance["R"]

    def test_choice_prior_exactly_one(self):
        prior = ChoicePrior(
            choices={"R": [[((1, "a"), 0.5), ((1, "b"), 0.5)]]}
        )
        rng = random.Random(1)
        for _ in range(20):
            instance = prior.sample(rng)
            assert len(instance["R"]) == 1


class TestHospitalScenario:
    """Example 4.1: the posterior narrows John's disease to two options."""

    @pytest.fixture
    def scenario(self):
        schema = hospital.make_schema()
        db = hospital.make_database(size=8, seed=11)
        views = hospital.ground_truth_policy().view_defs({})
        sensitive = tr1(
            "SELECT Disease FROM PatientConditions WHERE PId = 1", schema, "S"
        )
        observed = images_of(views, db.relation_contents())
        fixed = {
            rel: rows
            for rel, rows in db.relation_contents().items()
            if rel != "PatientConditions"
        }
        diseases = sorted(
            {d for (_, d) in db.relation_contents()["DoctorDiseases"]}
        )
        patients = sorted(p for (p, _, _) in db.relation_contents()["Patients"])
        return db, views, sensitive, observed, fixed, diseases, patients

    def make_prior(self, fixed, diseases, patients, weights):
        groups = []
        for pid in patients:
            groups.append([((pid, d), w) for d, w in zip(diseases, weights)])
        return ChoicePrior(fixed=fixed, choices={"PatientConditions": groups})

    def test_posterior_concentrates_on_doctors_diseases(self, scenario):
        db, views, sensitive, observed, fixed, diseases, patients = scenario
        uniform = [1.0 / len(diseases)] * len(diseases)
        prior = self.make_prior(fixed, diseases, patients, uniform)
        report = posterior_over_sensitive(
            prior, views, observed, sensitive, samples=3000, rng=random.Random(2)
        )
        # Wait: the views don't see PatientConditions, so every sample is
        # accepted and the posterior equals the prior — unless the prior
        # itself encodes the treated-by-doctor constraint. This uniform
        # prior does not, so the shift must be ~0: the Bayesian criterion
        # is only as good as the modeled prior, which is §4.2's point.
        assert report.acceptance_rate == 1.0
        assert report.belief_shift < 0.05

    def test_constraint_aware_prior_narrows_answer(self, scenario):
        db, views, sensitive, observed, fixed, diseases, patients = scenario
        # A prior that knows the integrity constraint: each patient's
        # disease is drawn from their doctor's specialties.
        contents = db.relation_contents()
        doctor_of = {p: doc for (p, _, doc) in contents["Patients"]}
        treats = {}
        for doc, disease in contents["DoctorDiseases"]:
            treats.setdefault(doc, []).append(disease)
        groups = []
        for pid in patients:
            options = sorted(treats[doctor_of[pid]])
            groups.append([((pid, d), 1.0 / len(options)) for d in options])
        prior = ChoicePrior(fixed=fixed, choices={"PatientConditions": groups})
        report = posterior_over_sensitive(
            prior, views, observed, sensitive, samples=2000, rng=random.Random(3)
        )
        # John's doctor treats exactly two diseases → the posterior support
        # has exactly two answers (the paper's "narrow down to two").
        support = {
            next(iter(answer))[0] if answer else None
            for answer in report.posterior_distribution
        }
        assert support == set(hospital.JOHN_DOCTOR_DISEASES)

    def test_prior_sensitivity_of_belief_shift(self, scenario):
        """E8's core claim: different priors → wildly different posteriors."""
        db, views, sensitive, observed, fixed, diseases, patients = scenario
        contents = db.relation_contents()
        doctor_of = {p: doc for (p, _, doc) in contents["Patients"]}
        treats = {}
        for doc, disease in contents["DoctorDiseases"]:
            treats.setdefault(doc, []).append(disease)

        def prior_with_tilt(tilt):
            groups = []
            for pid in patients:
                options = sorted(treats[doctor_of[pid]])
                weights = [tilt if d == options[0] else (1 - tilt) / (len(options) - 1)
                           for d in options] if len(options) > 1 else [1.0]
                groups.append([((pid, d), w) for d, w in zip(options, weights)])
            return ChoicePrior(fixed=fixed, choices={"PatientConditions": groups})

        posteriors = []
        for tilt in (0.05, 0.5, 0.95):
            report = posterior_over_sensitive(
                prior_with_tilt(tilt),
                views,
                observed,
                sensitive,
                samples=1500,
                rng=random.Random(4),
            )
            top = report.top_posterior()
            posteriors.append(top[1] if top else 0.0)
        # The adversary's confidence about John's disease swings with the
        # prior while the policy and data are fixed.
        assert max(posteriors) - min(posteriors) > 0.3
