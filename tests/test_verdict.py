from kamio.verdict import Verdict


class TestAllOf:
    def test_empty_is_verified(self):
        assert Verdict.all_of([]) == Verdict.verified()

    def test_later_refutation_beats_earlier_unknown(self):
        parts = [Verdict.unknown("fuel", witness=1), Verdict.refuted(2)]
        assert Verdict.all_of(parts) == Verdict.refuted(2)

    def test_first_unknown_is_kept(self):
        parts = [Verdict.verified(), Verdict.unknown("depth", witness=1),
                 Verdict.unknown("fuel", witness=2)]
        assert Verdict.all_of(parts) == Verdict.unknown("depth", witness=1)

    def test_sampled_propagates(self):
        assert Verdict.all_of([Verdict.verified(), Verdict.verified(sampled=True)]).sampled
        assert Verdict.all_of([Verdict.verified()], sampled=True).sampled
        assert not Verdict.all_of([Verdict.verified()]).sampled

    def test_stops_reading_at_the_first_refutation(self):
        read = []

        def parts():
            for i in range(5):
                read.append(i)
                yield Verdict.refuted(i) if i == 1 else Verdict.verified()

        assert Verdict.all_of(parts()) == Verdict.refuted(1)
        assert read == [0, 1]


def test_at_replaces_only_the_witness():
    verdict = Verdict.unknown("depth", witness="old").at("new")
    assert verdict == Verdict.unknown("depth", witness="new")
    assert Verdict.verified(sampled=True).at(1) == Verdict("verified", 1, None, True)
