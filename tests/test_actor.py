from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import mock_provider
from socialagent import canonical
from socialagent.actor import (
    ActionResult,
    CategoryPair,
    CategoryTaxonomy,
    ToolEntry,
    ToolStore,
    act,
    load_taxonomy,
    load_toolstore,
    lookup,
)
from socialagent.core import ActionSpec, ContentItem, PromptArtifact, Transcript
from socialagent.engine import create_action_prompt
from socialagent.errors import ActionParseError, InvariantError


def reasoned(*texts: str) -> PromptArtifact:
    return PromptArtifact(
        system_role="analyst",
        segments=tuple(ContentItem.from_text(t) for t in (texts or ("context",))),
    )


def taxonomy() -> CategoryTaxonomy:
    return CategoryTaxonomy(
        level1=("sport", "politics"),
        level2={"sport": ("tennis", "football"), "politics": ("elections",)},
    )


FLAT = CategoryTaxonomy(level1=("politics", "sport"))


class TestTaxonomy:
    def test_duplicate_level1_rejected(self):
        with pytest.raises(InvariantError):
            CategoryTaxonomy(level1=("a", "a"))

    def test_child_with_two_parents_rejected(self):
        with pytest.raises(InvariantError):
            CategoryTaxonomy(
                level1=("a", "b"), level2={"a": ("x",), "b": ("x",)}
            )

    def test_unknown_parent_rejected(self):
        with pytest.raises(InvariantError):
            CategoryTaxonomy(level1=("a",), level2={"zzz": ("x",)})

    def test_hierarchy_detection(self):
        assert taxonomy().is_hierarchical()
        assert not FLAT.is_hierarchical()


class TestToolStore:
    def store(self) -> ToolStore:
        return ToolStore(
            entries={
                "who": ToolEntry(
                    title="Health agency",
                    facts=("Fact one about the agency.", "Fact two."),
                ),
                "reef": ToolEntry(title="Coral reefs", facts=("Reefs bleach.",)),
            }
        )

    def test_title_hit_returns_entry_facts(self):
        facts = lookup(self.store(), "health agency")
        assert facts == ["Fact one about the agency.", "Fact two."]

    def test_case_insensitive_fact_hit(self):
        assert lookup(self.store(), "BLEACH") == ["Reefs bleach."]

    def test_miss_returns_empty(self):
        assert lookup(self.store(), "zzz-no-match") == []

    def test_store_unchanged_across_lookups(self):
        store = self.store()
        before = hashlib.sha256(canonical.serialize(store).encode()).hexdigest()
        for query in ("health", "zzz", "reefs", "fact"):
            lookup(store, query)
        after = hashlib.sha256(canonical.serialize(store).encode()).hexdigest()
        assert before == after

    def test_repeated_lookup_identical(self):
        store = self.store()
        assert lookup(store, "fact") == lookup(store, "fact")

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(canonical.serialize(self.store()), encoding="utf-8")
        loaded = load_toolstore(path)
        assert loaded.entries == self.store().entries


class TestPromptBuilders:
    """The prompt each action sends, as the actor's provider receives it."""

    def test_title_builder_ends_with_title_directive(self):
        provider = mock_provider("TITLE: t")
        act(
            ActionSpec.for_id(3, "make a headline"),
            reasoned(),
            None,
            provider,
            transcript=Transcript(),
        )
        last = provider.call_log[0][0].messages[-1].text
        assert last.startswith("Respond with a final line")
        assert "TITLE:" in last

    def test_vqa_builder_preserves_images_in_order(self):
        spec = replace(
            ActionSpec.for_id(2, "describe"),
            inputs=(
                ContentItem.from_image("a.png", "image/png"),
                ContentItem.from_text("middle"),
                ContentItem.from_image("b.png", "image/png"),
            ),
        )
        provider = mock_provider("ANSWER: a", supports_images=True)
        act(spec, create_action_prompt(spec, "analyst"), None, provider, transcript=Transcript())
        messages = provider.call_log[0][0].messages
        images = [s.image.location for s in messages if s.image is not None]
        assert images == ["a.png", "b.png"]

    def test_qa_with_image_input_is_allowed(self):
        spec = replace(
            ActionSpec.for_id(1, "answer about the picture"),
            inputs=(ContentItem.from_image("x.png", "image/png"),),
        )
        provider = mock_provider("ANSWER: a", supports_images=True)
        act(spec, create_action_prompt(spec, "analyst"), None, provider, transcript=Transcript())
        assert any(s.image is not None for s in provider.call_log[0][0].messages)


class TestActTextActions:
    def test_qa_answer_line_parsed(self):
        provider = mock_provider("reasoning...\nANSWER: 42")
        result = act(
            ActionSpec.for_id(1, "answer"), reasoned(), None, provider, transcript=Transcript()
        )
        assert result.answer == "42"
        assert result.provider_calls == 1
        assert result.structured is None

    def test_missing_answer_line_falls_back_to_prose(self):
        provider = mock_provider("just some prose response")
        result = act(
            ActionSpec.for_id(1, "answer"), reasoned(), None, provider, transcript=Transcript()
        )
        assert result.answer == "just some prose response"

    def test_title_parsed_and_structured(self):
        provider = mock_provider("TITLE: a fine headline")
        result = act(
            ActionSpec.for_id(3, "headline"), reasoned(), None, provider, transcript=Transcript()
        )
        assert result.answer == "a fine headline"
        assert result.structured == "a fine headline"

    def test_revision_context_included_verbatim(self):
        provider = mock_provider("ANSWER: better")
        act(
            ActionSpec.for_id(1, "answer"),
            reasoned(),
            None,
            provider,
            revision="cite the source document",
            transcript=Transcript(),
        )
        assert "cite the source document" in provider.call_log[0][0].flattened()

    def test_knowledge_directive_pulls_facts_into_prompt(self):
        store = ToolStore(
            entries={"solar": ToolEntry(title="Solar", facts=("Panels need light.",))}
        )
        provider = mock_provider("ANSWER: ok")
        spec = ActionSpec.for_id(1, "answer the question\nKNOWLEDGE: solar")
        act(spec, reasoned(), store, provider, transcript=Transcript())
        assert "Panels need light." in provider.call_log[0][0].flattened()
        # a blank query, at the end of the text or before the next line,
        # requests no facts rather than every entry in the store
        for blank in ("answer the question\nKNOWLEDGE: \t ", "KNOWLEDGE:\nsolar question"):
            provider = mock_provider("ANSWER: ok")
            act(ActionSpec.for_id(1, blank), reasoned(), store, provider, transcript=Transcript())
            assert "Panels need light." not in provider.call_log[0][0].flattened(), blank

    def test_no_directive_no_store_consultation(self):
        store = ToolStore(
            entries={"solar": ToolEntry(title="Solar", facts=("Panels need light.",))}
        )
        provider = mock_provider("ANSWER: ok")
        act(
            ActionSpec.for_id(1, "answer plainly"),
            reasoned(),
            store,
            provider,
            transcript=Transcript(),
        )
        assert "Panels need light." not in provider.call_log[0][0].flattened()


class TestActCategorization:
    def test_flat_taxonomy_single_call(self):
        provider = mock_provider("CATEGORY: politics")
        result = act(
            ActionSpec.for_id(4, "classify"),
            reasoned(),
            None,
            provider,
            taxonomy=FLAT,
            transcript=Transcript(),
        )
        assert result.structured == "politics"
        assert result.provider_calls == 1

    def test_unknown_category_fails_hard(self):
        provider = mock_provider("CATEGORY: astrology")
        with pytest.raises(ActionParseError, match="unknown category"):
            act(
                ActionSpec.for_id(4, "classify"),
                reasoned(),
                None,
                provider,
                taxonomy=FLAT,
                transcript=Transcript(),
            )

    def test_missing_category_line_fails_hard(self):
        provider = mock_provider("politics, I think")
        with pytest.raises(ActionParseError):
            act(
                ActionSpec.for_id(4, "classify"),
                reasoned(),
                None,
                provider,
                taxonomy=FLAT,
                transcript=Transcript(),
            )

    def test_taxonomy_required(self):
        with pytest.raises(InvariantError):
            act(
                ActionSpec.for_id(4, "classify"),
                reasoned(),
                None,
                mock_provider("x"),
                transcript=Transcript(),
            )

    def test_hierarchical_taxonomy_uses_two_calls(self):
        provider = mock_provider("CATEGORY: sport", "CATEGORY: tennis")
        result = act(
            ActionSpec.for_id(4, "classify"),
            reasoned(),
            None,
            provider,
            taxonomy=taxonomy(),
            transcript=Transcript(),
        )
        assert result.structured == CategoryPair("sport", "tennis")
        assert result.provider_calls == 2
        assert result.answer == "sport / tennis"


    def test_hierarchical_stages_carry_knowledge_and_revision(self):
        store = ToolStore(
            entries={"sport": ToolEntry(title="Sport", facts=("Tennis uses rackets.",))}
        )
        provider = mock_provider("CATEGORY: sport", "CATEGORY: tennis")
        act(
            ActionSpec.for_id(4, "classify\nKNOWLEDGE: sport"),
            reasoned(),
            store,
            provider,
            taxonomy=taxonomy(),
            revision="weigh the equipment",
            transcript=Transcript(),
        )
        assert len(provider.call_log) == 2
        for sent, _ in provider.call_log:
            text = sent.flattened()
            assert "Tennis uses rackets." in text
            assert "weigh the equipment\nProduce an improved response." in text


def categorize(tax: CategoryTaxonomy, provider) -> CategoryPair:
    """Two-level categorization through ``act``; its structured pair."""
    spec = ActionSpec.for_id(4, "Classify the content.")
    result = act(spec, reasoned(), None, provider, taxonomy=tax, transcript=Transcript())
    assert result.provider_calls == 2
    return result.structured


class TestCategorizeTwoLevel:
    def test_scripted_two_stage(self):
        provider = mock_provider("CATEGORY: sport", "CATEGORY: tennis")
        pair = categorize(taxonomy(), provider)
        assert pair == CategoryPair("sport", "tennis")
        # stage 2 offers only the children of the predicted parent
        second_request = provider.call_log[1][0].flattened()
        assert "tennis, football" in second_request
        assert "politics" not in second_request.split("choosing exactly one of: ")[1]

    def test_non_child_rejected(self):
        provider = mock_provider("CATEGORY: sport", "CATEGORY: elections")
        with pytest.raises(ActionParseError, match="not a child of sport"):
            categorize(taxonomy(), provider)

    def test_stage_one_unknown_rejected(self):
        provider = mock_provider("CATEGORY: astrology")
        with pytest.raises(ActionParseError, match="unknown category"):
            categorize(taxonomy(), provider)

    def test_degenerate_single_path_taxonomy(self):
        degenerate = CategoryTaxonomy(level1=("only",), level2={"only": ("child",)})
        provider = mock_provider("CATEGORY: only", "CATEGORY: child")
        pair = categorize(degenerate, provider)
        assert pair == CategoryPair("only", "child")

    def test_childless_parent_is_an_error(self):
        childless = CategoryTaxonomy(level1=("solo", "full"), level2={"full": ("kid",)})
        provider = mock_provider("CATEGORY: solo")
        with pytest.raises(ActionParseError, match="no second-level children"):
            categorize(childless, provider)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_hierarchy_safety_over_generated_taxonomies(self, data):
        names = st.text(st.sampled_from("abcdefgh"), min_size=1, max_size=6)
        level1 = data.draw(st.lists(names, min_size=1, max_size=4, unique=True))
        remaining = data.draw(
            st.lists(names.filter(lambda n: n not in level1), min_size=1, max_size=8, unique=True)
        )
        level2: dict[str, tuple[str, ...]] = {name: () for name in level1}
        for index, child in enumerate(remaining):
            parent = level1[index % len(level1)]
            level2[parent] = level2[parent] + (child,)
        tax = CategoryTaxonomy(level1=tuple(level1), level2=level2)
        parent = data.draw(st.sampled_from([p for p in level1 if tax.children(p)]))
        scripted_child = data.draw(st.sampled_from(list(tax.children(parent))))
        provider = mock_provider(f"CATEGORY: {parent}", f"CATEGORY: {scripted_child}")
        pair = categorize(tax, provider)
        assert pair.level2 in tax.children(pair.level1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=100))
    def test_non_child_outputs_always_rejected(self, seed):
        tax = taxonomy()
        provider = mock_provider("CATEGORY: sport", "CATEGORY: elections")
        with pytest.raises(ActionParseError):
            categorize(tax, provider)


def test_action_result_requires_answer():
    with pytest.raises(InvariantError):
        ActionResult(action_id=1, answer="  ")


def test_taxonomy_file_round_trip(tmp_path):
    path = tmp_path / "taxonomy.json"
    path.write_text(canonical.serialize(taxonomy()), encoding="utf-8")
    assert load_taxonomy(path) == taxonomy()
