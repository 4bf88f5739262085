"""Unit tests for repro.geometry.rect."""

import copy
import pickle

import pytest

from repro.geometry import Point, Rect, bounding_box, total_area
from repro.geometry.transform import ALL_ORIENTATIONS, Orientation, Transform


def _matrix_transformed(rect, transform):
    """The corner-mapping definition the fast paths must agree with."""
    x1, y1 = transform.apply_xy(rect.x1, rect.y1)
    x2, y2 = transform.apply_xy(rect.x2, rect.y2)
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


class TestConstruction:
    def test_canonical_required(self):
        with pytest.raises(ValueError):
            Rect(5, 0, 0, 5)

    def test_from_points_canonicalises(self):
        r = Rect.from_points(Point(5, 7), Point(1, 2))
        assert (r.x1, r.y1, r.x2, r.y2) == (1, 2, 5, 7)

    def test_from_size(self):
        r = Rect.from_size(Point(2, 3), 10, 4)
        assert r == Rect(2, 3, 12, 7)

    def test_from_size_negative_rejected(self):
        with pytest.raises(ValueError):
            Rect.from_size(Point(0, 0), -1, 5)

    def test_degenerate_allowed(self):
        r = Rect(3, 0, 3, 10)
        assert r.width == 0 and r.area == 0


class TestMeasures:
    def test_width_height_area(self):
        r = Rect(1, 2, 5, 10)
        assert (r.width, r.height, r.area) == (4, 8, 32)

    def test_center(self):
        assert Rect(0, 0, 10, 20).center == Point(5, 10)

    def test_aspect_ratio(self):
        assert Rect(0, 0, 10, 5).aspect_ratio() == 2.0
        assert Rect(0, 0, 5, 10).aspect_ratio() == 2.0

    def test_aspect_ratio_degenerate(self):
        assert Rect(0, 0, 0, 5).aspect_ratio() == float("inf")


class TestSetOperations:
    def test_intersects_touching(self):
        assert Rect(0, 0, 5, 5).intersects(Rect(5, 0, 10, 5))

    def test_overlaps_requires_interior(self):
        assert not Rect(0, 0, 5, 5).overlaps(Rect(5, 0, 10, 5))
        assert Rect(0, 0, 5, 5).overlaps(Rect(4, 4, 10, 10))

    def test_intersection(self):
        got = Rect(0, 0, 10, 10).intersection(Rect(5, 5, 20, 20))
        assert got == Rect(5, 5, 10, 10)

    def test_intersection_disjoint_is_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(5, 5, 6, 6)) is None

    def test_union_bbox(self):
        got = Rect(0, 0, 1, 1).union_bbox(Rect(5, 5, 6, 6))
        assert got == Rect(0, 0, 6, 6)

    def test_contains(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(2, 2, 8, 8))
        assert not outer.contains_rect(Rect(2, 2, 11, 8))
        assert outer.contains_point(Point(10, 10))


class TestSpacingAndAbutment:
    def test_spacing_straight(self):
        assert Rect(0, 0, 5, 5).spacing_to(Rect(8, 0, 12, 5)) == 3

    def test_spacing_diagonal_is_max(self):
        # dx=2, dy=3 -> corner spacing = max = 3
        assert Rect(0, 0, 5, 5).spacing_to(Rect(7, 8, 9, 10)) == 3

    def test_spacing_zero_when_touching(self):
        assert Rect(0, 0, 5, 5).spacing_to(Rect(5, 0, 9, 5)) == 0

    def test_abuts_vertical_edge(self):
        assert Rect(0, 0, 5, 5).abuts(Rect(5, 2, 9, 9))

    def test_abuts_requires_nonzero_shared_length(self):
        # Corner contact only: not an abutment.
        assert not Rect(0, 0, 5, 5).abuts(Rect(5, 5, 9, 9))

    def test_overlapping_do_not_abut(self):
        assert not Rect(0, 0, 5, 5).abuts(Rect(4, 0, 9, 5))


class TestDerivedRects:
    def test_translated(self):
        assert Rect(0, 0, 2, 2).translated(Point(3, 4)) == Rect(3, 4, 5, 6)

    def test_expanded(self):
        assert Rect(2, 2, 4, 4).expanded(1) == Rect(1, 1, 5, 5)

    def test_expanded_negative_shrinks(self):
        assert Rect(0, 0, 10, 10).expanded(-2) == Rect(2, 2, 8, 8)

    def test_transformed_r90_recanonicalises(self):
        t = Transform(Orientation.R90)
        got = Rect(1, 2, 3, 5).transformed(t)
        assert got == Rect(-5, 1, -2, 3)

    @pytest.mark.parametrize("orientation", ALL_ORIENTATIONS)
    @pytest.mark.parametrize("offset", [(0, 0), (7, -3), (0, 11), (-4, 0)])
    def test_transformed_matches_matrix_path(self, orientation, offset):
        t = Transform(orientation, Point(*offset))
        for rect in (Rect(1, 2, 3, 5), Rect(-6, -1, 0, 4), Rect(2, 2, 2, 9)):
            assert rect.transformed(t) == _matrix_transformed(rect, t)

    def test_transformed_identity_shares_the_rect(self):
        rect = Rect(1, 2, 3, 5)
        assert rect.transformed(Transform()) is rect


class TestValueSemantics:
    """A Rect is an immutable ``(x1, y1, x2, y2)`` tuple.

    Rect-vs-Rect equality, ordering and hashing are those of the field
    tuple, so set and dict orders, sorted shape lists and digests follow
    the coordinates alone.
    """

    def test_hash_is_the_field_tuple_hash(self):
        for fields in ((0, 0, 0, 0), (1, 2, 3, 4), (-7, -3, 5, 9)):
            assert hash(Rect(*fields)) == hash(fields)
        assert len({Rect(1, 2, 3, 4), Rect(1, 2, 3, 4)}) == 1

    def test_ordering_is_pinned(self):
        rects = [Rect(0, 0, 2, 2), Rect(-1, 5, 0, 6), Rect(0, 0, 1, 9),
                 Rect(0, -1, 3, 3), Rect(0, 0, 1, 2)]
        assert sorted(rects) == [Rect(-1, 5, 0, 6), Rect(0, -1, 3, 3),
                                 Rect(0, 0, 1, 2), Rect(0, 0, 1, 9),
                                 Rect(0, 0, 2, 2)]
        assert Rect(0, 0, 1, 1) < Rect(0, 0, 1, 2) <= Rect(0, 0, 1, 2)
        shapes = [("poly", Rect(3, 0, 4, 1)), ("metal1", Rect(9, 9, 9, 9)),
                  ("poly", Rect(1, 0, 2, 1))]
        assert sorted(shapes) == [shapes[1], shapes[2], shapes[0]]

    def test_is_its_box(self):
        r = Rect(1, 2, 3, 4)
        assert tuple(r) == (1, 2, 3, 4)
        x1, y1, x2, y2 = r
        assert (x1, y1, x2, y2) == (r.x1, r.y1, r.x2, r.y2)
        assert r[2] == 3 and len(r) == 4

    def test_fields_cannot_be_assigned(self):
        r = Rect(1, 2, 3, 4)
        for name in ("x1", "y1", "x2", "y2"):
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
        with pytest.raises(AttributeError):
            r.extra = 1  # no instance dict
        assert r == Rect(1, 2, 3, 4)

    def test_constructors_reject_or_canonicalise(self):
        with pytest.raises(ValueError):
            Rect(0, 5, 5, 0)
        with pytest.raises(TypeError):
            Rect(1, 2, 3)
        assert Rect.from_points(Point(4, -1), Point(-2, 3)) == \
            Rect(-2, -1, 4, 3)
        with pytest.raises(ValueError):
            Rect.from_size(Point(0, 0), 3, -1)
        assert Rect(1, 2, 3, 5).transformed(Transform(Orientation.MY90)) \
            == _matrix_transformed(Rect(1, 2, 3, 5),
                                   Transform(Orientation.MY90))
        assert Rect(0, 0, 2, 2).expanded(-3) == Rect(-1, -1, 3, 3)
        assert Rect(0, 0, 4, 4).intersection(Rect(4, 1, 6, 2)) == \
            Rect(4, 1, 4, 2)
        assert Rect(0, 0, 1, 1).intersection(Rect(2, 2, 3, 3)) is None
        assert Rect(5, 5, 6, 6).union_bbox(Rect(-1, 0, 0, 9)) == \
            Rect(-1, 0, 6, 9)

    def test_namedtuple_helpers_keep_the_check(self):
        with pytest.raises(ValueError):
            Rect._make((3, 0, 0, 3))
        with pytest.raises(ValueError):
            Rect(0, 0, 2, 2)._replace(x1=5)
        assert Rect(0, 0, 2, 2)._replace(x2=7) == Rect(0, 0, 7, 2)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        r = Rect(-3, 1, 4, 1)
        back = pickle.loads(pickle.dumps(r, protocol))
        assert back == r and type(back) is Rect

    def test_copy_round_trip(self):
        r = Rect(-3, 1, 4, 8)
        for clone in (copy.copy(r), copy.deepcopy(r)):
            assert clone == r and type(clone) is Rect

    def test_repr_is_unchanged(self):
        assert repr(Rect(1, -2, 3, 4)) == "Rect(x1=1, y1=-2, x2=3, y2=4)"
        assert str(Rect(0, 0, 0, 0)) == "Rect(x1=0, y1=0, x2=0, y2=0)"


class TestAggregates:
    def test_bounding_box(self):
        rects = [Rect(0, 0, 1, 1), Rect(5, -2, 6, 0), Rect(2, 3, 3, 9)]
        assert bounding_box(rects) == Rect(0, -2, 6, 9)

    def test_bounding_box_empty(self):
        assert bounding_box([]) is None
        assert bounding_box(()) is None
        assert bounding_box(r for r in ()) is None

    def test_bounding_box_single(self):
        assert bounding_box([Rect(3, -1, 4, 7)]) == Rect(3, -1, 4, 7)

    def test_bounding_box_of_one_rect_is_a_type_error(self):
        with pytest.raises(TypeError, match="collection of Rects"):
            bounding_box(Rect(3, -1, 4, 7))

    def test_bounding_box_generator(self):
        rects = [Rect(0, 0, 1, 1), Rect(5, -2, 6, 0), Rect(2, 3, 3, 9)]
        assert bounding_box(r for r in rects) == Rect(0, -2, 6, 9)

    def test_total_area_disjoint(self):
        assert total_area([Rect(0, 0, 2, 2), Rect(5, 5, 7, 7)]) == 8

    def test_total_area_overlapping_not_double_counted(self):
        assert total_area([Rect(0, 0, 4, 4), Rect(2, 2, 6, 6)]) == 28

    def test_total_area_contained(self):
        assert total_area([Rect(0, 0, 10, 10), Rect(2, 2, 4, 4)]) == 100

    def test_total_area_ignores_degenerate(self):
        assert total_area([Rect(0, 0, 0, 10)]) == 0
