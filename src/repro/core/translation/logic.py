"""Translation logic: field assignments between semantically equivalent messages.

Section III-D: once the merged automaton says *when* to translate, the
translation logic says *what* to translate.  Its central operation is the
assignment (equations 5 and 6 of the paper)::

    s1_i.m1.field_a = s2_j.m2.field_b          # same-type copy
    s1_i.m1.field_a = T(s2_j.m2.field_b)       # through a translation function

The left-hand side addresses a field of a message to be sent from a state
of one automaton; the right-hand side addresses a field of a message stored
in the queue of a state of another (or the same) automaton.  ``T`` is a
translation function used when the content is not directly assignable
(different types or encodings).

A :class:`TranslationLogic` bundles the three parts of Fig. 5:

1. the message-kind equivalences (lines 1-3),
2. the assignments (lines 4-9), and
3. the δ-transition specifications (lines 10-12) — those live in
   :class:`~repro.core.automata.merge.MergedAutomaton`, but the XML bridge
   document keeps them together, so the logic records them as opaque
   references for round-tripping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import TranslationError
from ..fieldpath import FieldPath
from ..message import AbstractMessage, StructuredField
from .functions import TranslationFunctionRegistry, default_translation_registry

__all__ = ["MessageFieldRef", "Assignment", "TranslationLogic"]


@dataclass(frozen=True)
class MessageFieldRef:
    """A reference ``state.message.field`` used on either side of an assignment.

    ``state`` may be empty when the reference is resolved purely by message
    name (the engine keeps the latest instance of every message kind, which
    matches the paper's one-instance-per-state queues for the discovery
    case studies).
    """

    message: str
    field: str
    state: str = ""

    def path(self) -> FieldPath:
        return FieldPath(self.field)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        prefix = f"{self.state}." if self.state else ""
        return f"{prefix}{self.message}.{self.field}"


@dataclass(frozen=True)
class Assignment:
    """``target = T(source)`` — one field assignment of the translation logic."""

    target: MessageFieldRef
    source: MessageFieldRef
    #: Name of the translation function ``T``; ``None`` means plain copy (eq. 5).
    function: Optional[str] = None
    #: Extra literal arguments passed to the translation function.
    function_arguments: Tuple[str, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        rhs = str(self.source)
        if self.function:
            rhs = f"{self.function}({rhs})"
        return f"{self.target} = {rhs}"


class TranslationLogic:
    """The set of equivalences and assignments for one merged automaton."""

    def __init__(
        self,
        equivalences: Optional[Sequence[Tuple[str, str]]] = None,
        assignments: Optional[Sequence[Assignment]] = None,
        functions: Optional[TranslationFunctionRegistry] = None,
    ) -> None:
        self._equivalences: List[Tuple[str, str]] = list(equivalences or [])
        self._assignments: List[Assignment] = list(assignments or [])
        self.functions = functions if functions is not None else default_translation_registry()
        #: Target message name -> its assignments with pre-parsed source
        #: and target paths, built on first use; adding an assignment
        #: clears it.
        self._plans: Dict[str, Tuple[Tuple[Assignment, FieldPath, FieldPath], ...]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def declare_equivalent(self, left: str, right: str) -> "TranslationLogic":
        """Record ``left |= right`` (Fig. 5 lines 1-3)."""
        self._equivalences.append((left, right))
        return self

    def assign(
        self,
        target: str,
        source: str,
        function: Optional[str] = None,
        *function_arguments: str,
    ) -> "TranslationLogic":
        """Add an assignment using ``"Message.field"`` shorthand strings.

        ``target`` and ``source`` are ``"[state:]Message.field"`` — the
        optional state prefix is separated by a colon, the message and the
        (possibly dotted) field path by the first dot.
        """
        return self.add_assignment(
            Assignment(
                self._parse_ref(target),
                self._parse_ref(source),
                function,
                tuple(function_arguments),
            )
        )

    def add_assignment(self, assignment: Assignment) -> "TranslationLogic":
        self._assignments.append(assignment)
        self._plans.clear()
        return self

    @staticmethod
    def _parse_ref(text: str) -> MessageFieldRef:
        state = ""
        rest = text.strip()
        if ":" in rest:
            state, _, rest = rest.partition(":")
        if "." not in rest:
            raise TranslationError(
                f"assignment reference {text!r} must be '[state:]Message.field'"
            )
        message, _, field_path = rest.partition(".")
        return MessageFieldRef(message=message, field=field_path, state=state.strip())

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def equivalences(self) -> List[Tuple[str, str]]:
        return list(self._equivalences)

    @property
    def assignments(self) -> List[Assignment]:
        return list(self._assignments)

    def assignments_for(self, target_message: str) -> List[Assignment]:
        """All assignments whose target is a field of ``target_message``."""
        return [a for a in self._assignments if a.target.message == target_message]

    def _plan(
        self, target_message: str
    ) -> Tuple[Tuple[Assignment, FieldPath, FieldPath], ...]:
        plan = self._plans.get(target_message)
        if plan is None:
            plan = tuple(
                (assignment, assignment.source.path(), assignment.target.path())
                for assignment in self.assignments_for(target_message)
            )
            self._plans[target_message] = plan
        return plan

    def source_messages_for(self, target_message: str) -> List[str]:
        """Message kinds read by the assignments targeting ``target_message``."""
        seen: List[str] = []
        for assignment in self.assignments_for(target_message):
            if assignment.source.message not in seen:
                seen.append(assignment.source.message)
        return seen

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def apply(
        self,
        target: AbstractMessage,
        instances: Dict[str, AbstractMessage],
        context: Optional[Dict[str, Any]] = None,
        strict: bool = False,
    ) -> AbstractMessage:
        """Fill ``target`` by executing every assignment targeting it.

        ``instances`` maps message names to the latest received/constructed
        instance of that kind (the engine builds it from the state queues).
        ``context`` carries engine-provided values translation functions may
        need (e.g. the bridge's own HTTP endpoint).  With ``strict`` a
        missing source instance or field raises
        :class:`~repro.core.errors.TranslationError`; otherwise the
        assignment is skipped.
        """
        for assignment, source_path, target_path in self._plan(target.name):
            source_instance = instances.get(assignment.source.message)
            if source_instance is None:
                if assignment.source.message == target.name:
                    source_instance = target
                elif strict:
                    raise TranslationError(
                        f"no instance of source message '{assignment.source.message}' "
                        f"available for assignment {assignment}"
                    )
                else:
                    continue
            source_field = source_instance.lookup(source_path.dotted)
            if source_field is None:
                if strict:
                    raise TranslationError(
                        f"source field missing for assignment {assignment}"
                    )
                continue
            value: Any = (
                source_field
                if isinstance(source_field, StructuredField)
                else source_field.value
            )
            if assignment.function:
                value = self.functions.apply(
                    assignment.function,
                    value,
                    arguments=assignment.function_arguments,
                    context=context,
                    source=source_instance,
                    target=target,
                )
            target_path.assign(target, value)
        return target

    def __repr__(self) -> str:
        return (
            f"TranslationLogic(equivalences={len(self._equivalences)}, "
            f"assignments={len(self._assignments)})"
        )
