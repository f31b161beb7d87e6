"""Reference-lyric selection penalty and register matching."""
from __future__ import annotations

import math
import random
from statistics import median

import pytest

from songpipe import prep
from songpipe.prep import (
    DEFAULT_PROFILES,
    OCTAVE_SHIFTS,
    PROFILE_WEIGHT,
    SENTENCE_WEIGHT,
    STRUCTURE_WEIGHT,
    SheetShape,
    SingerProfile,
    apply_transpose,
    load_lyrics,
    load_reference_bank,
    parse_lyrics,
    penalty_score,
    register_match,
    select_reference,
    tokenize_lyric_text,
)
from songpipe.score import SECTION_LABELS, Note, Section, VocalScore

from helpers import bpm_to_us, random_sheet, simple_score


def _sheet(*specs: tuple[str, int]) -> SheetShape:
    """Build a sheet from (tag, token_count) pairs."""
    return SheetShape(tuple(count for _, count in specs),
                      tuple(SECTION_LABELS.index(tag) for tag, _ in specs))


def test_sentence_penalty_is_relative_line_difference():
    target = _sheet(("verse", 4), ("verse", 4), ("chorus", 4))
    candidate = _sheet(("verse", 4), ("chorus", 4))
    assert penalty_score(target, candidate).sentence == pytest.approx(1 / 3)


def test_profile_penalty_closed_form():
    # token counts [4, 4] vs [4, 6]: mean |diff| is 1, largest count 6.
    target = _sheet(("verse", 4), ("verse", 4))
    candidate = _sheet(("verse", 4), ("verse", 6))
    assert penalty_score(target, candidate).profile == pytest.approx(1 / 6)


def test_profile_penalty_pads_shorter_sheet_with_its_median():
    # counts [2, 4, 10] vs [3]: candidate pads to [3, 3, 3] with median 3;
    # mean |diff| = (1 + 1 + 7) / 3 = 3, scale = 10.
    target = _sheet(("verse", 2), ("verse", 4), ("verse", 10))
    candidate = _sheet(("verse", 3))
    assert penalty_score(target, candidate).profile == pytest.approx(0.3)


def test_structure_penalty_counts_mismatches_and_length_gap():
    target = _sheet(("verse", 4), ("chorus", 4), ("verse", 4))
    candidate = _sheet(("verse", 4), ("verse", 4))
    # one positional mismatch over the shared prefix, one missing line.
    assert penalty_score(target, candidate).structure == pytest.approx(2 / 3)


def test_total_is_weighted_sum_on_random_sheets():
    rng = random.Random(5)
    for _ in range(100):
        target, candidate = random_sheet(rng), random_sheet(rng)
        got = penalty_score(target, candidate)
        expected = (
            SENTENCE_WEIGHT * got.sentence
            + PROFILE_WEIGHT * got.profile
            + STRUCTURE_WEIGHT * got.structure
        )
        assert got.total == pytest.approx(expected, abs=1e-12)


def test_identical_sheets_have_zero_penalty():
    sheet = _sheet(("verse", 4), ("chorus", 3))
    got = penalty_score(sheet, sheet)
    assert got.total == 0.0


def test_reject_fewer_lines_sets_total_infinite():
    target = _sheet(("verse", 4), ("verse", 4))
    candidate = _sheet(("verse", 4))
    got = penalty_score(target, candidate, reject_fewer_lines=True)
    assert math.isinf(got.total)
    assert math.isfinite(got.sentence)
    # equal or more lines stays finite
    assert math.isfinite(
        penalty_score(target, target, reject_fewer_lines=True).total
    )


def test_penalty_requires_non_empty_sheets():
    with pytest.raises(ValueError):
        penalty_score(_sheet(("verse", 2)), SheetShape((), ()))


def test_select_reference_matches_linear_scan():
    rng = random.Random(77)
    for _ in range(20):
        target = random_sheet(rng)
        bank = [random_sheet(rng) for _ in range(12)]
        index, breakdown = select_reference(target, bank)
        totals = [penalty_score(target, c).total for c in bank]
        best = min(totals)
        assert breakdown.total == pytest.approx(best)
        assert index == totals.index(best)  # earliest on ties


@pytest.mark.parametrize("reject_fewer_lines", [False, True])
def test_selection_is_the_first_least_penalty_or_refused(reject_fewer_lines):
    rng = random.Random(2318)
    for _ in range(40):
        target = random_sheet(rng)
        bank = [random_sheet(rng) for _ in range(rng.randint(1, 15))]
        scored = [penalty_score(target, c, reject_fewer_lines) for c in bank]
        index = min(range(len(bank)), key=lambda k: scored[k].total)
        if math.isinf(scored[index].total):
            with pytest.raises(ValueError, match="every bank entry was rejected"):
                select_reference(target, bank, reject_fewer_lines)
        else:
            assert select_reference(target, bank, reject_fewer_lines) == (index, scored[index])


def test_select_reference_rejects_empty_bank():
    with pytest.raises(ValueError):
        select_reference(_sheet(("verse", 2)), [])


def test_select_reference_rejects_fully_filtered_bank():
    target = _sheet(("verse", 4), ("verse", 4), ("verse", 4))
    bank = [_sheet(("verse", 4)), _sheet(("verse", 4), ("verse", 4))]
    with pytest.raises(ValueError):
        select_reference(target, bank, reject_fewer_lines=True)


def test_register_keeps_comfortable_melody_unshifted():
    score = simple_score([58, 60, 62, 64])
    decision = register_match(score)
    assert decision.profile.name == "male"
    assert decision.shift == 0
    assert decision.in_range == 4
    assert decision.total_notes == 4


def test_register_prefers_zero_shift_on_ties():
    # 70/72/74 fit female unshifted and male shifted down; zero shift wins.
    decision = register_match(simple_score([70, 72, 74]))
    assert decision.profile.name == "female"
    assert decision.shift == 0


def test_register_shifts_low_melody_up():
    decision = register_match(simple_score([40, 42]))
    assert decision.profile.name == "male"
    assert decision.shift == 12
    assert decision.in_range == 2


def test_register_tied_shifts_prefer_down():
    # 33 fits male only at +12 (45), 76 fits male only at -12 (64): one note
    # in range either way, and female matches one at -12 too.  The tie
    # resolves to the earlier profile with the negative shift.
    decision = register_match(simple_score([33, 76]))
    assert decision.profile.name == "male"
    assert decision.shift == -12
    assert decision.in_range == 1


def test_register_search_space_is_exactly_three_octave_shifts():
    assert OCTAVE_SHIFTS == (-12, 0, 12)
    assert [p.name for p in DEFAULT_PROFILES] == ["male", "female"]
    assert (DEFAULT_PROFILES[0].low, DEFAULT_PROFILES[0].high) == (45, 64)
    assert (DEFAULT_PROFILES[1].low, DEFAULT_PROFILES[1].high) == (55, 74)


def test_register_requires_notes_and_profiles():
    with pytest.raises(ValueError):
        register_match(simple_score([60]), profiles=())
    empty = VocalScore(sections=(Section("verse", 0, 1920),))
    with pytest.raises(ValueError):
        register_match(empty)


def test_apply_transpose_shifts_pitches():
    score = simple_score([60, 62])
    out = apply_transpose(score, -12)
    assert [n.pitch for n in out.notes] == [48, 50]
    assert out.sections == score.sections


def test_apply_transpose_rejects_out_of_range():
    with pytest.raises(ValueError):
        apply_transpose(simple_score([120]), 12)


def test_profile_validation():
    with pytest.raises(ValueError):
        SingerProfile("bad", 60, 50)


def test_cjk_lines_tokenize_per_character():
    assert tokenize_lyric_text("你好 世界") == ["你", "好", "世", "界"]
    assert tokenize_lyric_text("こんにちは") == list("こんにちは")
    assert tokenize_lyric_text("hello wide world") == ["hello", "wide", "world"]


#: The CJK ideograph (extensions included) and kana code points, inclusive.
_CJK_RANGES = ((0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0x20000, 0x2A6DF), (0xF900, 0xFAFF),
               (0x3040, 0x30FF))


def _tokenize_loop_oracle(text):
    """Reference tokenizer: one test of the explicit ranges per character."""
    if any(lo <= ord(c) <= hi for c in text for lo, hi in _CJK_RANGES):
        return [c for c in text if not c.isspace()]
    return text.split()


def test_cjk_test_agrees_with_is_cjk_on_every_code_point():
    # The oracle tests the explicit ranges, so every code point's tokenization is pinned.
    for cp in range(0x30000):
        if 0xD800 <= cp <= 0xDFFF:  # surrogates
            continue
        text = f"la {chr(cp)} li"
        assert tokenize_lyric_text(text) == _tokenize_loop_oracle(text), hex(cp)


def test_parse_lyrics_tags_and_defaults():
    sheet = parse_lyrics(
        "# a comment\n"
        "first line here\n"
        "[chorus]\n"
        "shine on\n"
        "[bridge] took a turn\n"
    )
    assert sheet == SheetShape((3, 2, 3), (1, 2, 3))  # verse, chorus, bridge


def test_parse_lyrics_rejects_unknown_tags():
    with pytest.raises(ValueError):
        parse_lyrics("[drop]\nboom\n")
    with pytest.raises(ValueError):
        parse_lyrics("[verse unterminated\n")


def test_lyrics_round_trip():
    # One [tag] per run of lines, tokens joined by a space.
    sheet = _sheet(("verse", 3), ("verse", 2), ("chorus", 4))
    assert parse_lyrics("[verse]\nw0 w1 w2\nw0 w1\n[chorus]\nw0 w1 w2 w3\n") == sheet


def test_cjk_lyrics_round_trip():
    # A line of single CJK characters is written without spaces.
    assert parse_lyrics("[verse]\n你好\n[chorus]\n世界啊\n") == SheetShape((2, 3), (1, 2))


def test_load_reference_bank_sorted(tmp_path):
    (tmp_path / "b.txt").write_text("[verse]\nsecond sheet\n", encoding="utf-8")
    (tmp_path / "a.txt").write_text("[verse]\nfirst sheet\n", encoding="utf-8")
    (tmp_path / "ignore.md").write_text("not lyrics\n", encoding="utf-8")
    names, shapes = load_reference_bank(tmp_path)
    assert names == ["a.txt", "b.txt"]
    assert shapes[0] == SheetShape((2,), (1,))  # two tokens, tagged verse


def test_load_reference_bank_requires_files(tmp_path):
    with pytest.raises(ValueError):
        load_reference_bank(tmp_path)


def test_bank_shapes_are_the_shapes_of_the_loaded_sheets(tmp_path):
    rng = random.Random(23)
    for j in range(12):
        sheet = random_sheet(rng)
        text = "".join(f"[{SECTION_LABELS[tag]}] {' '.join(['la'] * count)}\n"
                       for count, tag in zip(sheet.counts, sheet.tags))
        (tmp_path / f"s{j:02d}.txt").write_text(text, encoding="utf-8")
    (tmp_path / "ignore.md").write_text("not lyrics\n", encoding="utf-8")
    names = sorted(p.name for p in tmp_path.glob("*.txt"))
    assert load_reference_bank(tmp_path) == (names, [load_lyrics(tmp_path / n) for n in names])


def test_bank_shapes_parse_only_files_whose_bytes_are_new(tmp_path, monkeypatch):
    parsed = []
    monkeypatch.setattr(prep, "_BANK_SHAPES", {})
    monkeypatch.setattr(prep, "parse_lyrics", lambda text: parsed.append(text) or parse_lyrics(text))
    (tmp_path / "a.txt").write_text("[verse]\nla la\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("[chorus]\noh\noh oh\n", encoding="utf-8")
    load_reference_bank(tmp_path)
    load_reference_bank(tmp_path)
    assert len(parsed) == 2
    (tmp_path / "b.txt").write_text("[chorus]\noh\n", encoding="utf-8")
    (tmp_path / "c.txt").write_text("[verse]\nla la\n", encoding="utf-8")  # a.txt's bytes
    names, shapes = load_reference_bank(tmp_path)
    assert parsed[2:] == ["[chorus]\noh\n"]
    assert len(prep._BANK_SHAPES) == 2  # the old b.txt's bytes are forgotten
    assert names == ["a.txt", "b.txt", "c.txt"]
    assert shapes == [SheetShape((2,), (1,)), SheetShape((1,), (2,)), SheetShape((2,), (1,))]


#: A UTF-8 byte-order mark, which some editors put at the start of a text file.
_BOM = b"\xef\xbb\xbf"


def test_a_lyric_sheet_that_starts_with_a_byte_order_mark_reads_as_without(tmp_path):
    (tmp_path / "plain.txt").write_bytes(b"[chorus]\nla la\n")
    (tmp_path / "bom.txt").write_bytes(_BOM + b"[chorus]\nla la\n")
    assert load_lyrics(tmp_path / "bom.txt") == load_lyrics(tmp_path / "plain.txt") == \
        SheetShape((2,), (2,))


def test_a_bank_file_that_starts_with_a_byte_order_mark_reads_as_without(tmp_path):
    (tmp_path / "a.txt").write_bytes(_BOM + b"[chorus]\nla la\n")
    (tmp_path / "b.txt").write_bytes(b"[chorus]\nla la\n")
    assert load_reference_bank(tmp_path)[1] == [SheetShape((2,), (2,))] * 2


def test_bank_shapes_refuse_a_sheet_without_lines_and_name_it(tmp_path):
    with pytest.raises(ValueError, match="no .txt lyric files"):
        load_reference_bank(tmp_path)
    (tmp_path / "a.txt").write_text("[verse]\nla la\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("# empty sheet\n[verse]\n", encoding="utf-8")
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^bank file .*b\.txt has no lyric lines$"):
            load_reference_bank(tmp_path)
