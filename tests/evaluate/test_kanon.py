"""k-anonymity tests."""

import pytest

from repro.evaluate.kanon import (
    l_diversity,
    age_hierarchy,
    categorical_hierarchy,
    find_minimal_generalization,
    generalize_rows,
    k_anonymity,
    suppress_to_k,
    zip_hierarchy,
)
from repro.util.errors import DbacError

ROWS = [
    # (name, age, zip)
    ("a", 34, "02139"),
    ("b", 36, "02139"),
    ("c", 34, "02141"),
    ("d", 61, "94703"),
    ("e", 62, "94703"),
]


class TestMeasure:
    def test_k_of_release(self):
        # Quasi-identifier (age, zip): every group is a singleton.
        assert k_anonymity(ROWS, [1, 2]) == 1

    def test_k_with_coarse_quasi(self):
        # Quasi-identifier zip only: {02139: 2, 02141: 1, 94703: 2} → 1.
        assert k_anonymity(ROWS, [2]) == 1

    def test_empty_release(self):
        assert k_anonymity([], [0]) == 0

    def test_uniform_release(self):
        rows = [("x", 1), ("y", 1), ("z", 1)]
        assert k_anonymity(rows, [1]) == 3


class TestHierarchies:
    def test_age_banding(self):
        h = age_hierarchy()
        assert h.apply(0, 34) == 34
        assert h.apply(1, 34) == "30-34"
        assert h.apply(2, 34) == "30-39"
        assert h.apply(3, 34) == "20-39"
        assert h.apply(4, 34) == "*"

    def test_zip_masking(self):
        h = zip_hierarchy()
        assert h.apply(0, "02139") == "02139"
        assert h.apply(1, "02139") == "0213*"
        assert h.apply(3, "02139") == "02***"
        assert h.apply(4, "02139") == "*****"

    def test_categorical(self):
        h = categorical_hierarchy("dept")
        assert h.apply(0, "eng") == "eng"
        assert h.apply(1, "eng") == "*"

    def test_level_out_of_range(self):
        with pytest.raises(DbacError):
            age_hierarchy().apply(9, 34)


class TestGeneralize:
    def test_generalize_rows(self):
        out = generalize_rows(ROWS, [1, 2], [age_hierarchy(), zip_hierarchy()], [2, 1])
        assert out[0][1] == "30-39"
        assert out[0][2] == "0213*"
        # Non-quasi columns untouched.
        assert out[0][0] == "a"

    def test_misaligned_arguments(self):
        with pytest.raises(DbacError):
            generalize_rows(ROWS, [1], [age_hierarchy(), zip_hierarchy()], [0, 0])

    def test_suppress_to_k(self):
        generalized = generalize_rows(
            ROWS, [1, 2], [age_hierarchy(), zip_hierarchy()], [2, 1]
        )
        kept, suppressed = suppress_to_k(generalized, [1, 2], 2)
        assert suppressed == 1  # the 02141 row
        assert k_anonymity(kept, [1, 2]) >= 2


class TestMinimalGeneralization:
    def test_finds_minimal_levels(self):
        result = find_minimal_generalization(
            ROWS, [1, 2], [age_hierarchy(), zip_hierarchy()], k=2, max_suppressed=1
        )
        assert result is not None
        assert result.k >= 2
        assert result.suppressed <= 1

    def test_minimality_by_total_level(self):
        result = find_minimal_generalization(
            ROWS, [1, 2], [age_hierarchy(), zip_hierarchy()], k=2, max_suppressed=1
        )
        # No strictly lower total level achieves the same guarantee.
        from repro.evaluate.kanon import _levels_with_total

        heights = [age_hierarchy().height, zip_hierarchy().height]
        for total in range(result.total_level):
            for levels in _levels_with_total(heights, total):
                generalized = generalize_rows(
                    ROWS, [1, 2], [age_hierarchy(), zip_hierarchy()], levels
                )
                kept, suppressed = suppress_to_k(generalized, [1, 2], 2)
                assert suppressed > 1 or not kept or k_anonymity(kept, [1, 2]) < 2

    def test_k1_trivial(self):
        result = find_minimal_generalization(
            ROWS, [1, 2], [age_hierarchy(), zip_hierarchy()], k=1
        )
        assert result is not None
        assert result.total_level == 0

    def test_impossible_without_suppression(self):
        rows = [("only", 30, "02139")]
        result = find_minimal_generalization(
            rows, [1, 2], [age_hierarchy(), zip_hierarchy()], k=2, max_suppressed=0
        )
        assert result is None

    def test_employees_workload_release(self, employees_db):
        from repro.workloads.employees import quasi_identifiers

        rows = employees_db.query("SELECT Age, Dept, ZIP, Salary FROM Employees").rows
        result = find_minimal_generalization(
            rows,
            [0, 1, 2],
            [age_hierarchy(), categorical_hierarchy("dept"), zip_hierarchy()],
            k=3,
            max_suppressed=len(rows) // 10,
        )
        assert result is not None
        assert result.k >= 3


class TestLDiversity:
    ROWS = [
        # (zip, disease)
        ("02139", "flu"),
        ("02139", "flu"),
        ("02139", "tb"),
        ("94703", "flu"),
        ("94703", "flu"),
    ]

    def test_homogeneous_group_has_l_1(self):
        # The 94703 group is 2-anonymous but perfectly homogeneous.
        assert l_diversity(self.ROWS, [0], 1) == 1

    def test_diverse_group_counts_values(self):
        only_cambridge = [r for r in self.ROWS if r[0] == "02139"]
        assert l_diversity(only_cambridge, [0], 1) == 2

    def test_empty_release(self):
        assert l_diversity([], [0], 1) == 0

    def test_k_anonymity_does_not_imply_diversity(self):
        # The paper's Example 4.1 in microdata form: k >= 2 yet l = 1.
        assert k_anonymity(self.ROWS, [0]) >= 2
        assert l_diversity(self.ROWS, [0], 1) == 1
