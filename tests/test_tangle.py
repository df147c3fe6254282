"""The tangle language, strand orientations, moves, and turning numbers."""

import collections
import hashlib
import random

import pytest

from tanglex.tangle import (CAP, CUP, OVER, UNDER, EndpointCountError,
                            MorseWord, MoveError, OrientationError, R1Move,
                            R2Move, R3Move, Slice, TangleSyntaxError,
                            VALID_R3_TRIPLES, WidthError, analyze, apply_move,
                            braid_to_tangle, format_word, move_sites, parse,
                            random_move, random_word, turning_number)


def signs(word):
    return [c.sign for c in analyze(word).crossings]


class TestParse:
    def test_turnback(self):
        w = parse("bottom 1 up; cup 2 ccw; cap 1;")
        assert analyze(w).levels == ((1,), (1, -1, 1), (1,))
        assert w.endpoint_count == 2

    def test_single_crossing(self):
        w = parse("bottom 2 up up; x+ 1;")
        assert w.slices == (Slice(OVER, 1),)
        assert w.endpoint_count == 4

    def test_closed_loop(self):
        w = parse("bottom 0; cup 1 ccw; cup 1 ccw; cap 2; cap 1;")
        assert tuple(map(len, analyze(w).levels)) == (0, 2, 4, 2, 0)
        assert w.endpoint_count == 0

    def test_format_roundtrip(self):
        rng = random.Random(2)
        for _ in range(20):
            w = random_word(rng, max_crossings=4, bottom=rng.choice((0, 1, 2)))
            assert parse(format_word(w)) == w

    @pytest.mark.parametrize("max_width", [2, 4, 6])
    def test_random_word_respects_max_width(self, max_width):
        # a cup is drawn only while the cut stays max_width wide, so the
        # widest cut reaches max_width but never max_width + 1
        rng = random.Random(max_width)
        widest = 0
        for _ in range(300):
            w = random_word(rng, bottom=rng.randint(0, max_width),
                            max_width=max_width)
            widest = max(widest, *map(len, analyze(w).levels))
        assert widest == max_width

    def test_syntax_errors(self):
        with pytest.raises(TangleSyntaxError):
            parse("bogus 1;")
        with pytest.raises(TangleSyntaxError):
            parse("cup 1 cw;")                        # missing bottom
        with pytest.raises(TangleSyntaxError):
            parse("bottom 2 up;")                     # missing orientation
        with pytest.raises(TangleSyntaxError):
            parse("bottom 1 up; cup 2;")              # missing cup label
        with pytest.raises(TangleSyntaxError):
            parse("bottom 1 up; cap x;")              # non-integer
        with pytest.raises(TangleSyntaxError):
            parse("bottom 1 up; bottom 1 up;")        # duplicate
        err = None
        try:
            parse("bottom 1 up; cup 2 cw; zap 3;")
        except TangleSyntaxError as exc:
            err = str(exc)
        assert err and "statement 2" in err           # position reported

    def test_width_errors(self):
        with pytest.raises(WidthError):
            parse("bottom 1 up; cap 1;")
        with pytest.raises(WidthError):
            parse("bottom 2 up down; cap 5;")
        with pytest.raises(WidthError):
            parse("bottom 1 up; x+ 1;")
        with pytest.raises(WidthError):
            parse("bottom 0; cup 2 cw;")

    def test_orientation_errors(self):
        with pytest.raises(OrientationError):
            parse("bottom 2 up up; cap 1;")           # parallel strands capped
        with pytest.raises(OrientationError):
            parse("bottom 2 up down; cup 2 cw; cap 1;")  # up meets cup's up leg
        parse("bottom 2 up down; cap 1;")             # antiparallel cap is fine

    def test_first_fault_in_slice_order_wins(self):
        # the bad cap comes before the out-of-range crossing
        with pytest.raises(OrientationError):
            parse("bottom 2 up up; cap 1; x+ 5;")
        with pytest.raises(WidthError):
            parse("bottom 2 up up; x+ 5; cap 1;")
        # a cup's label is checked on its slice, after the slices below it
        with pytest.raises(WidthError):
            MorseWord(2, (Slice(OVER, 5), Slice(CUP, 1)), ("up", "up"))
        with pytest.raises(OrientationError):
            MorseWord(2, (Slice(CUP, 1), Slice(OVER, 5)), ("up", "up"))


class TestCrossingSigns:
    def test_anchor(self):
        assert signs(parse("bottom 2 up up; x+ 1;")) == [1]
        assert signs(parse("bottom 2 up up; x- 1;")) == [-1]

    def test_reversal_of_both_strands(self):
        for k in ("x+", "x-"):
            up = signs(parse(f"bottom 2 up up; {k} 1;"))
            down = signs(parse(f"bottom 2 down down; {k} 1;"))
            assert up == down

    def test_antiparallel_signs(self):
        assert signs(parse("bottom 2 up down; x+ 1;")) == [-1]
        assert signs(parse("bottom 2 up down; x- 1;")) == [1]

    def test_component_reversal(self):
        # reversing every strand of the diagram preserves each crossing sign;
        # a kink's self-crossing keeps its sign when its one component reverses
        w = parse("bottom 1 up; cup 2 cw; x+ 1; cap 2;")
        r = parse("bottom 1 down; cup 2 ccw; x+ 1; cap 2;")
        assert signs(w) == signs(r)

    def test_writhe(self):
        assert sum(signs(braid_to_tangle([1, 1, 1], 2))) == 3
        assert sum(signs(braid_to_tangle([1, -1], 2))) == 0


class TestTurningNumber:
    def test_circles(self):
        assert turning_number(parse("bottom 1 up; cup 2 ccw; cap 2;")) == 1
        assert turning_number(parse("bottom 1 up; cup 2 cw; cap 2;")) == -1

    def test_straight_strand(self):
        assert turning_number(parse("bottom 1 up;")) == 0
        assert turning_number(parse("bottom 1 up; cup 2 ccw; cap 1;")) == 0

    def test_requires_two_endpoints(self):
        with pytest.raises(EndpointCountError):
            turning_number(parse("bottom 2 up up;"))
        with pytest.raises(EndpointCountError):
            turning_number(parse("bottom 0;"))

    def test_wiggle_cancels(self):
        w = parse("bottom 0; cup 1 ccw; cup 1 ccw; cap 2; cap 1;")
        w2 = MorseWord(1, w.slices, ("up",))
        assert turning_number(w2) == 1  # the wiggly circle still turns once

    def test_r1_changes_tau_by_one(self):
        rng = random.Random(9)
        for _ in range(30):
            w = random_word(rng, max_crossings=3, bottom=1)
            t = rng.randrange(len(w.slices) + 1)
            width = len(analyze(w).levels[t])
            p = rng.randint(1, width)
            mv = R1Move(t, p, rng.choice(("left", "right")),
                        rng.choice(("over", "under")))
            assert abs(turning_number(apply_move(w, mv)) - turning_number(w)) == 1

    def test_r2_r3_preserve_tau(self):
        rng = random.Random(10)
        done = 0
        while done < 30:
            w = random_word(rng, max_crossings=5, bottom=1)
            moves = [m for m in move_sites(w) if not isinstance(m, R1Move)]
            if not moves:
                continue
            mv = rng.choice(moves)
            assert turning_number(apply_move(w, mv)) == turning_number(w)
            done += 1

    @pytest.mark.parametrize("text, tau", [
        ("bottom 0; cup 1 ccw; cup 3 cw; x+ 2; x+ 2; x+ 2; cap 3;", -1),
        ("bottom 2 down up; cup 3 cw; x+ 2; x+ 2; x+ 2; cap 3; cap 1;", -1),
        ("bottom 2 up down; cup 2 ccw; cap 2; cap 1;", 1),
        ("bottom 0; cup 1 ccw; cup 1 ccw; cap 2;", 0),
    ])
    def test_open_strand_with_both_ends_on_one_side(self, text, tau):
        assert turning_number(parse(text)) == tau

    def test_seeded_prefix_words_of_every_shape(self):
        # prefixes of random words with 2 endpoints, in all three shapes
        # (bottom, top) = (1, 1), (0, 2), (2, 0); the digest of every word
        # with its turning number was taken from a loop tracer that smoothed
        # each crossing and summed the critical points of the closed loops
        rng = random.Random(17)
        lines = []
        shapes = collections.Counter()
        while len(lines) < 2000:
            w = random_word(rng, max_crossings=rng.randint(0, 8),
                            bottom=rng.randint(0, 2), max_width=9)
            slices = w.slices[:rng.randint(0, len(w.slices))]
            p = MorseWord(w.bottom_count, slices, w.bottom_orientations)
            if p.endpoint_count == 2:
                lines.append(f"{format_word(p)} {turning_number(p)}")
                shapes[p.bottom_count, p.top_count] += 1
        assert shapes == {(1, 1): 880, (0, 2): 847, (2, 0): 273}
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        assert digest == "350470fe374f7608"

    def test_crossing_switch_and_smoothing_preserve_tau(self):
        from tanglex.invariant import with_crossing, with_crossing_smoothed
        rng = random.Random(11)
        done = 0
        while done < 30:
            w = random_word(rng, max_crossings=5, bottom=1)
            nc = w.crossing_count()
            if nc == 0:
                continue
            i = rng.randrange(nc)
            tau = turning_number(w)
            assert turning_number(with_crossing(w, i, OVER)) == tau
            assert turning_number(with_crossing(w, i, UNDER)) == tau
            assert turning_number(with_crossing_smoothed(w, i)) == tau
            done += 1


class TestBraids:
    def test_empty_braid(self):
        w = braid_to_tangle([], 1)
        assert w.slices == () and w.endpoint_count == 2

    def test_trefoil_structure(self):
        w = braid_to_tangle([1, 1, 1], 2)
        assert w.endpoint_count == 2
        assert w.crossing_count() == 3
        assert signs(w) == [1, 1, 1]

    def test_figure_eight_structure(self):
        w = braid_to_tangle([1, -2, 1, -2], 3)
        assert w.endpoint_count == 2
        assert signs(w) == [1, -1, 1, -1]

    def test_bad_generator(self):
        with pytest.raises(ValueError):
            braid_to_tangle([2], 2)
        with pytest.raises(ValueError):
            braid_to_tangle([0], 2)
        with pytest.raises(ValueError):
            braid_to_tangle([1], 1)


class TestMoves:
    def test_r1_insertion(self):
        w = parse("bottom 1 up;")
        k = apply_move(w, R1Move(0, 1, "right", "over"))
        assert k.crossing_count() == 1 and k.endpoint_count == 2

    def test_r2_insertion(self):
        w = parse("bottom 2 up up;")
        r = apply_move(w, R2Move(0, 1, "over"))
        assert [s.kind for s in r.slices] == [OVER, UNDER]

    def test_r3_slide(self):
        w = parse("bottom 3 up up up; x+ 1; x+ 2; x+ 1;")
        r = apply_move(w, R3Move(0))
        assert [s.pos for s in r.slices] == [2, 1, 2]
        assert [s.kind for s in r.slices] == [OVER, OVER, OVER]

    def test_r3_requires_valid_triple(self):
        w = parse("bottom 3 up up up; x+ 1; x- 2; x+ 1;")
        with pytest.raises(MoveError):
            apply_move(w, R3Move(0))
        assert (OVER, UNDER, OVER) not in VALID_R3_TRIPLES
        assert (UNDER, OVER, UNDER) not in VALID_R3_TRIPLES
        assert len(VALID_R3_TRIPLES) == 6

    def test_inapplicable_sites(self):
        w = parse("bottom 1 up;")
        with pytest.raises(MoveError):
            apply_move(w, R2Move(0, 1, "over"))   # width 1
        with pytest.raises(MoveError):
            apply_move(w, R1Move(0, 2, "left", "over"))
        with pytest.raises(MoveError):
            apply_move(w, R3Move(0))
        # a negative slice index is not counted from the top, and a crossing
        # kind other than over/under is not taken as under
        w = parse("bottom 3 up up up; x+ 1; x+ 2; x+ 1;")
        for move in (R3Move(-3), R2Move(-1, 1, "over"),
                     R1Move(-1, 1, "left", "over"),
                     R1Move(0, 1, "left", "sideways"), R2Move(0, 1, "x+")):
            with pytest.raises(MoveError):
                apply_move(w, move)
        with pytest.raises(MoveError):
            apply_move(w, (0, 1, "over"))

    def test_random_move_without_a_site(self):
        with pytest.raises(MoveError):
            random_move(random.Random(0), parse("bottom 0;"))

    def test_move_sites_all_apply(self):
        rng = random.Random(4)
        for _ in range(10):
            w = random_word(rng, max_crossings=4, bottom=1)
            for mv in move_sites(w):
                w2 = apply_move(w, mv)
                assert w2.endpoint_count == w.endpoint_count

    def test_width_bookkeeping_property(self):
        rng = random.Random(5)
        for _ in range(40):
            w = random_word(rng, max_crossings=5, bottom=rng.choice((0, 1, 2)))
            widths = tuple(map(len, analyze(w).levels))
            total = w.bottom_count
            for s, delta in zip(w.slices, (b - a for a, b in
                                           zip(widths, widths[1:]))):
                assert delta == {CUP: 2, CAP: -2}.get(s.kind, 0)
                total += delta
            assert total == widths[-1] == w.top_count


class TestRecords:
    def test_slice_repr(self):
        assert (repr(Slice("cup", 2, "cw"))
                == "Slice(kind='cup', pos=2, label='cw')")
        assert repr(Slice("cap", 1)) == "Slice(kind='cap', pos=1, label=None)"

    @pytest.mark.parametrize("slices, index", [
        ((Slice(OVER, 1), Slice(CUP, 2)), 1),              # unlabelled cup
        ((Slice(OVER, 1, "cw"),), 0),                      # labelled crossing
        ((Slice(CUP, 1, "ccw"), Slice(CAP, 1, "cw")), 1),  # labelled cap
        ((Slice(CUP, 3, "up"),), 0),                       # bad label
    ])
    def test_labels_are_checked_on_their_slices(self, slices, index):
        with pytest.raises(OrientationError, match=f"^slice {index}: "):
            MorseWord(2, slices, ("up", "up"))

    @pytest.mark.parametrize("bottom", [True, 1.0, "1"])
    def test_bottom_count_must_be_an_int(self, bottom):
        # True once passed and formatted as 'bottom True up;', which parse
        # refuses
        with pytest.raises(WidthError):
            MorseWord(bottom, (), ("up",))

    def test_word_keeps_no_caller_list(self):
        # the analysis is cached when the word is built; a list the caller
        # still holds once let the word change under it
        from tanglex.invariant import tangle_invariant
        slices, orients = [Slice(OVER, 1)], ["up", "up"]
        w = MorseWord(2, slices, orients)
        slices.append(Slice(OVER, 1))
        orients[0] = "down"
        want = parse("bottom 2 up up; x+ 1;")
        assert w == want
        assert type(w.slices) is type(w.bottom_orientations) is tuple
        assert tangle_invariant(w, "dp") == tangle_invariant(want, "dp")

    def test_replace_revalidates_word(self):
        w = parse("bottom 2 up down; cap 1;")
        bad = (Slice(CAP, 2),)
        with pytest.raises(WidthError):
            MorseWord(2, bad, ("up", "down"))
        with pytest.raises(WidthError):
            w._replace(slices=bad)

    def test_replace_revalidates_labels(self):
        w = parse("bottom 1 up; cup 2 cw; cap 2;")
        with pytest.raises(OrientationError, match="^slice 0: "):
            w._replace(slices=(Slice(CUP, 2), Slice(CAP, 2)))
        with pytest.raises(OrientationError, match="^slice 1: "):
            w._replace(slices=(Slice(CUP, 2, "cw"), Slice(CAP, 2, "cw")))
        flipped = w._replace(slices=(Slice(CUP, 2, "ccw"), Slice(CAP, 1)))
        assert flipped == parse("bottom 1 up; cup 2 ccw; cap 1;")

    def test_replace_matches_fresh_word(self):
        w = parse("bottom 2 up down; cap 1;")
        slices = (Slice(OVER, 1), Slice(CAP, 1))
        got = w._replace(slices=slices)
        fresh = MorseWord(2, slices, ("up", "down"))
        assert type(got) is MorseWord and got == fresh
        a, b = analyze(got), analyze(fresh)
        assert a == b and a._fields == ("levels", "crossings")
