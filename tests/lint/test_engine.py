"""Engine behavior: suppressions, rule selection, finding ordering."""

import pytest

from repro.lint import Severity, all_rules, get_rule, lint_source

SLICE = "def f(imsi: str) -> str:\n    return imsi[:5]{comment}\n"


def _lint(source, path="src/repro/core/x.py", **kwargs):
    return lint_source(source, path=path, **kwargs)


class TestSuppression:
    def test_targeted_noqa_silences_the_rule(self):
        findings = _lint(SLICE.format(comment="  # repro: noqa[ID001]"))
        assert findings == []

    def test_bare_noqa_silences_everything_on_the_line(self):
        findings = _lint(SLICE.format(comment="  # repro: noqa"))
        assert findings == []

    def test_noqa_for_the_wrong_rule_does_not_silence(self):
        # An empty id list names no rule, so it silences nothing either.
        for comment in ("  # repro: noqa[RNG001]", "  # repro: noqa[]"):
            findings = _lint(SLICE.format(comment=comment))
            rule_ids = sorted(f.rule_id for f in findings)
            # The slice still fires and the mismatched suppression is stale.
            assert rule_ids == ["ID001", "NOQA001"], comment
            (stale,) = [f for f in findings if f.rule_id == "NOQA001"]
            assert "all rules" not in stale.message

    def test_comma_separated_ids(self):
        findings = _lint(SLICE.format(comment="  # repro: noqa[RNG001, ID001]"))
        assert findings == []

    def test_unused_suppression_warns(self):
        findings = _lint("x = 1  # repro: noqa[ID001]\n")
        assert [f.rule_id for f in findings] == ["NOQA001"]
        assert findings[0].severity is Severity.WARNING
        assert "ID001" in findings[0].message

    def test_noqa_in_docstring_is_not_a_directive(self):
        source = '"""Examples use `# repro: noqa[ID001]` inline."""\n'
        assert _lint(source) == []

    def test_unused_suppression_can_itself_be_ignored(self):
        findings = _lint("x = 1  # repro: noqa[ID001]\n", ignore=["NOQA001"])
        assert findings == []

    def test_comma_separated_ids_tolerate_arbitrary_whitespace(self):
        findings = _lint(
            SLICE.format(comment="  # repro: noqa[ RNG001 ,ID001 , RNG002 ]")
        )
        assert findings == []

    def test_noqa_inside_multi_line_string_is_not_a_directive(self):
        source = (
            "TEMPLATE = '''\n"
            "code example:  # repro: noqa[ID001]\n"
            "and also:  # repro: noqa\n"
            "'''\n"
        )
        # Neither line is a real comment: no suppression is registered,
        # so no stale-suppression warning fires either.
        assert _lint(source) == []

    def test_stale_suppression_not_reported_when_rule_selected_away(self):
        # --select that omits NOQA001 must not smuggle the warning in.
        findings = _lint("x = 1  # repro: noqa[ID001]\n", select=["ID001"])
        assert findings == []

    def test_ignoring_a_rule_makes_its_suppressions_stale(self):
        # With ID001 ignored the directive silences nothing, and the
        # stale-suppression warning says so.
        findings = _lint(
            SLICE.format(comment="  # repro: noqa[ID001]"), ignore=["ID001"]
        )
        assert [f.rule_id for f in findings] == ["NOQA001"]


class TestSelection:
    BOTH = (
        "import random\n\n\n"
        "def f(imsi: str) -> str:\n    return imsi[:5]\n"
    )

    def test_select_runs_only_named_rules(self):
        findings = _lint(self.BOTH, select=["RNG001"])
        assert [f.rule_id for f in findings] == ["RNG001"]

    def test_ignore_drops_named_rules(self):
        findings = _lint(self.BOTH, ignore=["RNG001"])
        assert [f.rule_id for f in findings] == ["ID001"]

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="BOGUS999"):
            _lint("x = 1\n", select=["BOGUS999"])

    def test_syntax_errors_respect_selection(self):
        findings = _lint("def broken(:\n", select=["RNG001"])
        assert findings == []
        findings = _lint("def broken(:\n")
        assert [f.rule_id for f in findings] == ["SYNTAX001"]


class TestCatalog:
    def test_rule_ids_are_unique_and_sorted(self):
        rule_ids = [rule.rule_id for rule in all_rules()]
        assert rule_ids == sorted(rule_ids)
        assert len(rule_ids) == len(set(rule_ids))

    def test_every_rule_carries_metadata(self):
        for rule in all_rules():
            assert rule.rule_id and rule.name and rule.summary, rule
            assert isinstance(rule.severity, Severity)
            assert rule.fix_hint, f"{rule.rule_id} has no fix hint"

    def test_get_rule_round_trips(self):
        for rule in all_rules():
            assert get_rule(rule.rule_id) is rule

    def test_findings_sort_deterministically(self):
        source = (
            "import random\n"
            "from random import shuffle\n\n\n"
            "def f(plmn: str) -> str:\n    return plmn[:3]\n"
        )
        findings = _lint(source)
        assert findings == sorted(findings)
        assert [f.line for f in findings] == [1, 2, 6]
