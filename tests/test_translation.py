"""Tests for translation logic, translation functions and λ-actions (Section III-D)."""

from __future__ import annotations

import pytest

from repro.core.errors import TranslationError
from repro.core.message import AbstractMessage
from repro.core.translation.functions import default_translation_registry
from repro.core.translation.logic import Assignment, MessageFieldRef, TranslationLogic


class TestAssignmentParsing:
    def test_parse_message_field_shorthand(self):
        logic = TranslationLogic().assign("SSDP_M-Search.ST", "SLP_SrvReq.SRVType")
        assignment = logic.assignments[0]
        assert assignment.target == MessageFieldRef("SSDP_M-Search", "ST")
        assert assignment.source == MessageFieldRef("SLP_SrvReq", "SRVType")
        assert assignment.function is None

    def test_parse_with_state_prefix(self):
        logic = TranslationLogic().assign("s20:M.field", "s11:N.other")
        assignment = logic.assignments[0]
        assert assignment.target.state == "s20"
        assert assignment.source.state == "s11"

    def test_parse_dotted_field_path(self):
        logic = TranslationLogic().assign("M.URL.port", "N.port")
        assert logic.assignments[0].target.field == "URL.port"

    def test_missing_dot_raises(self):
        with pytest.raises(TranslationError):
            TranslationLogic().assign("JustAMessage", "N.field")

    def test_function_and_arguments_recorded(self):
        logic = TranslationLogic().assign("M.a", "N.b", "prefix", "x-")
        assignment = logic.assignments[0]
        assert assignment.function == "prefix"
        assert assignment.function_arguments == ("x-",)

    def test_str_rendering(self):
        assignment = Assignment(
            MessageFieldRef("M", "a"), MessageFieldRef("N", "b"), "to_int"
        )
        assert "to_int" in str(assignment)


class TestApply:
    def test_plain_copy(self):
        logic = TranslationLogic().assign("Out.x", "In.y")
        target = AbstractMessage("Out")
        logic.apply(target, {"In": AbstractMessage("In").set("y", "value")})
        assert target["x"] == "value"

    def test_copy_through_function(self):
        logic = TranslationLogic().assign("Out.n", "In.text", "to_int")
        target = AbstractMessage("Out")
        logic.apply(target, {"In": AbstractMessage("In").set("text", "42 units")})
        assert target["n"] == 42

    def test_missing_source_instance_skipped_by_default(self):
        logic = TranslationLogic().assign("Out.x", "In.y")
        target = AbstractMessage("Out")
        logic.apply(target, {})
        assert "x" not in target

    def test_missing_source_instance_strict_raises(self):
        logic = TranslationLogic().assign("Out.x", "In.y")
        with pytest.raises(TranslationError):
            logic.apply(AbstractMessage("Out"), {}, strict=True)

    def test_missing_source_field_strict_raises(self):
        logic = TranslationLogic().assign("Out.x", "In.y")
        with pytest.raises(TranslationError):
            logic.apply(AbstractMessage("Out"), {"In": AbstractMessage("In")}, strict=True)

    def test_self_referential_assignment_reads_target(self):
        # e.g. SLP_SrvReply.XID = SLP_SrvReply.XID-style bookkeeping.
        logic = TranslationLogic().assign("Out.copy", "Out.original")
        target = AbstractMessage("Out").set("original", 7)
        logic.apply(target, {})
        assert target["copy"] == 7

    def test_assignments_for_and_source_messages_for(self):
        logic = (
            TranslationLogic()
            .assign("A.x", "B.y")
            .assign("A.z", "C.w")
            .assign("D.q", "B.y")
        )
        assert len(logic.assignments_for("A")) == 2
        assert logic.source_messages_for("A") == ["B", "C"]

    def test_equivalences_recorded(self):
        logic = TranslationLogic().declare_equivalent("A", "B")
        assert ("A", "B") in logic.equivalences

    def test_context_passed_to_functions(self):
        logic = TranslationLogic().assign(
            "Out.loc", "In.any", "bridge_http_location", "HTTP"
        )
        target = AbstractMessage("Out")
        logic.apply(
            target,
            {"In": AbstractMessage("In").set("any", "x")},
            context={"bridge_endpoints": {"HTTP": ("bridge.local", 4100)}},
        )
        assert target["loc"] == "http://bridge.local:4100/description.xml"


class TestTranslationPlan:
    """``apply`` runs a cached per-target plan of pre-parsed paths."""

    def test_assign_after_first_apply_is_picked_up(self):
        logic = TranslationLogic().assign("Out.x", "In.y")
        source = {"In": AbstractMessage("In").set("y", 1).set("z", 2)}
        first = logic.apply(AbstractMessage("Out"), source)
        assert first.labels() == ["x"]
        logic.assign("Out.w", "In.z")
        second = logic.apply(AbstractMessage("Out"), source)
        assert second["x"] == 1 and second["w"] == 2
        logic.add_assignment(
            Assignment(MessageFieldRef("Out", "v"), MessageFieldRef("In", "y"))
        )
        assert logic.apply(AbstractMessage("Out"), source)["v"] == 1

    def test_xpath_references_go_through_the_plan(self):
        logic = TranslationLogic().add_assignment(
            Assignment(
                MessageFieldRef("Out", "/field/structuredField[label='URL']"
                                "/primitiveField[label='port']/value"),
                MessageFieldRef("In", "/field/primitiveField[label='p']/value"),
            )
        )
        source = {"In": AbstractMessage("In").set("p", 8080)}
        for _ in range(2):  # the second apply runs the cached plan
            target = logic.apply(AbstractMessage("Out"), source)
            assert target["URL.port"] == 8080

    def test_strict_and_missing_source_texts_unchanged(self):
        logic = TranslationLogic().assign("Out.x", "In.y")
        with pytest.raises(TranslationError) as missing_instance:
            logic.apply(AbstractMessage("Out"), {}, strict=True)
        assert str(missing_instance.value) == (
            "no instance of source message 'In' available for assignment Out.x = In.y"
        )
        with pytest.raises(TranslationError) as missing_field:
            logic.apply(
                AbstractMessage("Out"),
                {"In": AbstractMessage("In").set("q", 1)},
                strict=True,
            )
        assert str(missing_field.value) == "source field missing for assignment Out.x = In.y"
        lenient = logic.apply(AbstractMessage("Out"), {"In": AbstractMessage("In")})
        assert lenient.labels() == []

    def test_functions_get_a_read_only_context(self):
        seen = []

        def grab(value, **extras):
            seen.append(extras["context"])
            extras["context"]["bridge_host"] = "elsewhere"

        registry = default_translation_registry()
        registry.register("grab", grab)
        logic = TranslationLogic(functions=registry).assign("Out.x", "In.y", "grab")
        context = {"bridge_host": "bridge.local"}
        with pytest.raises(TranslationError, match="translation function 'grab' failed"):
            logic.apply(
                AbstractMessage("Out"),
                {"In": AbstractMessage("In").set("y", 1)},
                context=context,
            )
        assert seen[0]["bridge_host"] == "bridge.local"
        assert context == {"bridge_host": "bridge.local"}


class TestTranslationFunctions:
    @pytest.fixture
    def registry(self):
        return default_translation_registry()

    def test_identity_and_casts(self, registry):
        assert registry.apply("identity", "x") == "x"
        assert registry.apply("to_int", "  -5 things") == -5
        assert registry.apply("to_str", 5) == "5"
        assert registry.apply("to_int", True) == 1

    def test_to_int_failure(self, registry):
        with pytest.raises(TranslationError):
            registry.apply("to_int", "no digits here")

    def test_url_helpers(self, registry):
        url = "http://device.local:8080/description.xml"
        assert registry.apply("url_host", url) == "device.local"
        assert registry.apply("url_port", url) == 8080
        assert registry.apply("url_path", url) == "/description.xml"
        assert registry.apply("url_port", "http://device.local/d") == 80

    def test_url_base_extracts_from_xml_body(self, registry):
        body = "<root><URLBase>http://h:9000/service</URLBase></root>"
        assert registry.apply("url_base", body) == "http://h:9000/service"
        with pytest.raises(TranslationError):
            registry.apply("url_base", "no url at all")

    def test_service_type_to_dns(self, registry):
        assert registry.apply("service_type_to_dns", "service:test") == "_test._tcp.local"
        assert (
            registry.apply("service_type_to_dns", "urn:schemas-upnp-org:service:test:1")
            == "_test._tcp.local"
        )

    def test_dns_to_service_type(self, registry):
        assert registry.apply("dns_to_service_type", "_test._tcp.local") == "service:test"

    def test_slp_and_upnp_service_type_normalisation(self, registry):
        for spelled in ("service:test", "_test._tcp.local", "urn:schemas-upnp-org:service:test:1"):
            assert registry.apply("slp_service_type", spelled) == "service:test"
            assert (
                registry.apply("upnp_service_type", spelled)
                == "urn:schemas-upnp-org:service:test:1"
            )

    def test_prefix_suffix_constant(self, registry):
        assert registry.apply("prefix", "b", arguments=("a-",)) == "a-b"
        assert registry.apply("suffix", "a", arguments=("-z",)) == "a-z"
        assert registry.apply("constant", "ignored", arguments=("literal",)) == "literal"
        with pytest.raises(TranslationError):
            registry.apply("constant", "x")

    def test_device_description_wraps_url(self, registry):
        body = registry.apply("device_description", "http://h:1/s")
        assert "<URLBase>http://h:1/s</URLBase>" in body

    def test_bridge_http_location_requires_context(self, registry):
        with pytest.raises(TranslationError):
            registry.apply("bridge_http_location", "x", arguments=("HTTP",))

    def test_unknown_function_raises(self, registry):
        with pytest.raises(TranslationError):
            registry.apply("does_not_exist", "x")

    def test_register_custom_function(self, registry):
        registry.register("shout", lambda value, **_: str(value).upper())
        assert registry.apply("shout", "hi") == "HI"
        assert "shout" in registry.names()
