"""Region derivation tree: alias/carve semantics, effective views,
exclusivity tracking, and revocation plumbing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmon.errors import ErrorCode, MonitorError
from capmon.regions import (
    PAGE, AttrFlags, DerivationKind, PhysRange, RegionAttributes,
    RegionStatus, RegionTree, Rights, ViewSegment,
)

from support import check_invariants, exclusivity_by_path_walk

A = [0x100000 + k * 0x1000 for k in range(6)]
TOP = 0x200000
TD0, TD1 = 0, 1


def fresh_tree() -> tuple[RegionTree, int]:
    tree = RegionTree()
    root = tree.create_root(TD0, PhysRange(A[0], TOP), Rights.RWX)
    return tree, root


def view_tuples(tree, node):
    return [(s.range.start, s.range.end, s.rights.render(), s.status.value)
            for s in tree.effective_view(node)]


def reference_view(tree: RegionTree, region_id: int) -> list[ViewSegment]:
    """The first, quadratic effective_view: every piece between two child
    boundaries is tested against every child."""
    node = tree.get(region_id)
    carves = []
    aliases = []
    for cid in node.children:
        child = tree.nodes[cid]
        if child.kind is DerivationKind.CARVE:
            carves.append(child.initial_range)
        else:
            aliases.append(child.initial_range)

    cuts = {node.initial_range.start, node.initial_range.end}
    for rng in carves + aliases:
        cuts.add(max(rng.start, node.initial_range.start))
        cuts.add(min(rng.end, node.initial_range.end))
    points = sorted(p for p in cuts
                    if node.initial_range.start <= p <= node.initial_range.end)

    segments: list[ViewSegment] = []
    for lo, hi in zip(points, points[1:]):
        if lo == hi:
            continue
        piece = PhysRange(lo, hi)
        if any(c.overlaps(piece) for c in carves):
            continue
        if node.status is RegionStatus.ALIASED or \
                any(a.overlaps(piece) for a in aliases):
            status = RegionStatus.ALIASED
        else:
            status = RegionStatus.EXCLUSIVE
        segments.append(ViewSegment(piece, node.rights, status))

    merged: list[ViewSegment] = []
    for seg in segments:
        if merged and merged[-1].status is seg.status and \
                merged[-1].range.end == seg.range.start:
            merged[-1] = ViewSegment(
                PhysRange(merged[-1].range.start, seg.range.end),
                seg.rights, seg.status)
        else:
            merged.append(seg)
    return merged


class TestPhysRange:
    def test_empty_range_rejected(self):
        with pytest.raises(MonitorError) as err:
            PhysRange(0x2000, 0x2000)
        assert err.value.code is ErrorCode.INVALID_RANGE

    def test_unaligned_rejected(self):
        with pytest.raises(MonitorError):
            PhysRange(0x100, 0x2000)

    def test_contains_and_overlaps(self):
        outer = PhysRange(0x1000, 0x5000)
        assert outer.contains(PhysRange(0x2000, 0x3000))
        assert not outer.contains(PhysRange(0x4000, 0x6000))
        assert outer.overlaps(PhysRange(0x4000, 0x6000))
        assert not outer.overlaps(PhysRange(0x5000, 0x6000))


class TestRights:
    def test_render_parse_round_trip(self):
        for value in range(1, 8):
            rights = Rights(value)
            assert Rights.parse(rights.render()) == rights

    def test_parse_compact(self):
        assert Rights.parse("RW") == Rights.RW
        assert Rights.parse("rwx") == Rights.RWX

    def test_attr_flags_render(self):
        flags = AttrFlags.HASH | AttrFlags.CLEAN | AttrFlags.VITAL
        assert flags.render() == "HASH|CLEAN|VITAL"
        assert AttrFlags.parse("HASH|CLEAN|VITAL") == flags
        assert AttrFlags.parse("clean") == AttrFlags.CLEAN


class TestDerivation:
    def test_alias_keeps_parent_access(self):
        tree, root = fresh_tree()
        r1 = tree.alias(TD0, root, PhysRange(A[1], A[2]), Rights.RW)
        node = tree.nodes[r1]
        assert node.kind is DerivationKind.ALIAS
        assert node.status is RegionStatus.ALIASED
        assert view_tuples(tree, root) == [
            (A[0], A[1], "RWX", "exclusive"),
            (A[1], A[2], "RWX", "aliased"),
            (A[2], TOP, "RWX", "exclusive"),
        ]

    def test_alias_identity_subrange(self):
        tree, root = fresh_tree()
        r = tree.carve(TD0, root, PhysRange(A[1], A[3]), Rights.RW)
        child = tree.alias(TD0, r, PhysRange(A[1], A[3]), Rights.RW)
        node = tree.nodes[child]
        assert node.initial_range == PhysRange(A[1], A[3])
        assert node.rights == Rights.RW
        assert node.status is RegionStatus.ALIASED

    def test_alias_over_carved_range_is_out_of_range(self):
        # the independent per-page model agrees the range left the parent
        tree, root = fresh_tree()
        tree.carve(TD0, root, PhysRange(A[2], A[5]), Rights.RWX)
        accessible = {p for seg in tree.effective_view(root)
                      for p in seg.range.pages()}
        assert not accessible & set(PhysRange(A[2], A[3]).pages())
        with pytest.raises(MonitorError) as err:
            tree.alias(TD0, root, PhysRange(A[2], A[3]), Rights.RW)
        assert err.value.code is ErrorCode.OUT_OF_RANGE

    def test_carve_removes_parent_access(self):
        tree, root = fresh_tree()
        tree.alias(TD0, root, PhysRange(A[1], A[2]), Rights.RW)
        r2 = tree.carve(TD0, root, PhysRange(A[2], A[5]), Rights.RWX)
        assert tree.nodes[r2].status is RegionStatus.EXCLUSIVE
        assert view_tuples(tree, root) == [
            (A[0], A[1], "RWX", "exclusive"),
            (A[1], A[2], "RWX", "aliased"),
            (A[5], TOP, "RWX", "exclusive"),
        ]

    def test_carve_of_aliased_parent_is_aliased(self):
        tree, root = fresh_tree()
        r1 = tree.alias(TD0, root, PhysRange(A[1], A[4]), Rights.RWX)
        child = tree.carve(TD0, r1, PhysRange(A[2], A[3]), Rights.RWX)
        assert tree.nodes[child].status is RegionStatus.ALIASED

    def test_carve_chain_stays_exclusive(self):
        tree, root = fresh_tree()
        r2 = tree.carve(TD0, root, PhysRange(A[2], A[5]), Rights.RWX)
        r4 = tree.carve(TD0, r2, PhysRange(A[4], A[5]), Rights.RWX)
        assert tree.nodes[r4].status is RegionStatus.EXCLUSIVE
        assert exclusivity_by_path_walk(tree, r4) is RegionStatus.EXCLUSIVE

    def test_rights_monotonicity(self):
        tree, root = fresh_tree()
        r = tree.carve(TD0, root, PhysRange(A[1], A[2]), Rights.RW)
        with pytest.raises(MonitorError) as err:
            tree.alias(TD0, r, PhysRange(A[1], A[2]), Rights.RWX)
        assert err.value.code is ErrorCode.RIGHTS_ESCALATION

    def test_no_rights_capability(self):
        tree, root = fresh_tree()
        with pytest.raises(MonitorError) as err:
            tree.alias(TD0, root, PhysRange(A[1], A[2]), Rights(0))
        assert err.value.code is ErrorCode.NO_RIGHTS

    def test_not_owner(self):
        tree, root = fresh_tree()
        with pytest.raises(MonitorError) as err:
            tree.alias(TD1, root, PhysRange(A[1], A[2]), Rights.RW)
        assert err.value.code is ErrorCode.NOT_OWNER

    def test_carve_overlapping_carve(self):
        tree, root = fresh_tree()
        tree.carve(TD0, root, PhysRange(A[1], A[3]), Rights.RWX)
        with pytest.raises(MonitorError) as err:
            tree.carve(TD0, root, PhysRange(A[2], A[4]), Rights.RWX)
        assert err.value.code is ErrorCode.OVERLAPS_CARVE

    def test_carve_overlapping_alias(self):
        # carving under a live alias would silently revoke shared access
        tree, root = fresh_tree()
        tree.alias(TD0, root, PhysRange(A[1], A[3]), Rights.RW)
        with pytest.raises(MonitorError) as err:
            tree.carve(TD0, root, PhysRange(A[2], A[4]), Rights.RWX)
        assert err.value.code is ErrorCode.OVERLAPS_ALIAS

    def test_sibling_aliases_may_overlap(self):
        tree, root = fresh_tree()
        tree.alias(TD0, root, PhysRange(A[1], A[3]), Rights.RW)
        second = tree.alias(TD0, root, PhysRange(A[2], A[4]), Rights.RWX)
        assert tree.nodes[second].status is RegionStatus.ALIASED

    def test_region_ids_never_reused(self):
        tree, root = fresh_tree()
        r1 = tree.carve(TD0, root, PhysRange(A[1], A[2]), Rights.RWX)
        tree.destroy([r1])
        r2 = tree.carve(TD0, root, PhysRange(A[1], A[2]), Rights.RWX)
        assert r2 > r1


class TestEffectiveView:
    def test_boot_root_is_one_exclusive_segment(self):
        tree, root = fresh_tree()
        assert view_tuples(tree, root) == [(A[0], TOP, "RWX", "exclusive")]

    def test_nested_figure_views(self):
        tree, root = fresh_tree()
        tree.alias(TD0, root, PhysRange(A[1], A[2]), Rights.RW)
        r2 = tree.carve(TD0, root, PhysRange(A[2], A[5]), Rights.RWX)
        tree.alias(TD0, r2, PhysRange(A[3], A[4]), Rights.RW)
        tree.carve(TD0, r2, PhysRange(A[4], A[5]), Rights.RWX)
        assert view_tuples(tree, r2) == [
            (A[2], A[3], "RWX", "exclusive"),
            (A[3], A[4], "RWX", "aliased"),
        ]

    def test_unknown_region(self):
        tree, _ = fresh_tree()
        with pytest.raises(MonitorError) as err:
            tree.effective_view(999)
        assert err.value.code is ErrorCode.UNKNOWN_REGION

    def test_view_merges_adjacent_segments(self):
        tree, root = fresh_tree()
        r1 = tree.alias(TD0, root, PhysRange(A[1], A[2]), Rights.RW)
        tree.alias(TD0, root, PhysRange(A[2], A[3]), Rights.RW)
        spans = view_tuples(tree, root)
        assert (A[1], A[3], "RWX", "aliased") in spans

    def test_view_is_local_after_grandchild_changes(self):
        # subdividing a child never changes the parent's own view
        tree, root = fresh_tree()
        r2 = tree.carve(TD0, root, PhysRange(A[2], A[5]), Rights.RWX)
        before = view_tuples(tree, root)
        tree.carve(TD0, r2, PhysRange(A[3], A[4]), Rights.RWX)
        tree.alias(TD0, r2, PhysRange(A[2], A[3]), Rights.RW)
        assert view_tuples(tree, root) == before


class TestViewAgainstReference:
    def test_root_with_74_single_page_aliases(self):
        # the shape of the host's root region in the guest_mem benchmark:
        # 74 single-page aliases, in runs of three with a page between runs
        tree = RegionTree()
        root = tree.create_root(TD0, PhysRange(0x100000, 0x200000),
                                Rights.RWX)
        for k in range(74):
            page = 0x100000 + (k + k // 3) * PAGE
            tree.alias(TD0, root, PhysRange(page, page + PAGE), Rights.RW)
        assert len(tree.nodes[root].children) == 74
        assert tree.effective_view(root) == reference_view(tree, root)
        assert len(tree.effective_view(root)) == 2 * 25

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["alias", "carve", "destroy"]),
                  st.integers(0, 63), st.integers(0, 15), st.integers(1, 8)),
        min_size=1, max_size=30))
    def test_sweep_equals_quadratic_reference(self, program):
        tree = RegionTree()
        tree.create_root(TD0, PhysRange(A[0], A[0] + 16 * PAGE), Rights.RWX)
        for op, pick, lo, span in program:
            ids = sorted(tree.nodes)
            if op == "destroy":
                if len(ids) > 1:
                    tree.destroy(tree.subtree(ids[1:][pick % (len(ids) - 1)]))
            else:
                parent = tree.nodes[ids[pick % len(ids)]]
                base, limit = parent.initial_range.start, \
                    parent.initial_range.end
                start = min(base + lo * PAGE, limit - PAGE)
                end = min(start + span * PAGE, limit)
                derive = tree.alias if op == "alias" else tree.carve
                try:
                    derive(TD0, parent.id, PhysRange(start, end),
                           parent.rights)
                except MonitorError:
                    pass
            for nid in tree.nodes:
                assert tree.effective_view(nid) == reference_view(tree, nid)


class TestViewMemo:
    def test_second_read_without_a_write_is_the_same_object(self):
        tree, root = fresh_tree()
        tree.alias(TD0, root, PhysRange(A[1], A[2]), Rights.RW)
        view = tree.nodes[root]._view
        assert tree.effective_view(root) == tree.effective_view(root)
        assert tree.nodes[root]._view is view

    @pytest.mark.parametrize("field, value, want", [
        ("rights", Rights.R, [(A[0], A[2], "R__", "exclusive")]),
        ("status", RegionStatus.ALIASED, [(A[0], A[2], "RWX", "aliased")]),
        ("initial_range", PhysRange(A[0], A[1]),
         [(A[0], A[1], "RWX", "exclusive")]),
    ])
    def test_behind_the_back_write_changes_next_view(self, field, value,
                                                     want):
        tree, root = fresh_tree()
        r1 = tree.carve(TD0, root, PhysRange(A[0], A[2]), Rights.RWX)
        assert view_tuples(tree, r1) == [(A[0], A[2], "RWX", "exclusive")]
        setattr(tree.nodes[r1], field, value)
        tree.sweep_all()
        assert view_tuples(tree, r1) == want

    @pytest.mark.parametrize("field, value", [
        ("owner", TD1),
        ("attributes", RegionAttributes(clean=True)),
    ])
    def test_owner_and_attribute_writes_keep_the_view(self, field, value):
        # neither field is read by the sweep, so a send keeps the view
        tree, root = fresh_tree()
        r1 = tree.carve(TD0, root, PhysRange(A[0], A[2]), Rights.RWX)
        view = tree.nodes[r1]._view
        setattr(tree.nodes[r1], field, value)
        assert tree.nodes[r1]._view is view

    def test_alias_and_carve_patch_the_parent_view(self, monkeypatch):
        tree, root = fresh_tree()
        sweeps = []
        sweep = RegionTree._sweep

        def counted(tree, node, window=None):
            sweeps.append(node.id)
            return sweep(tree, node, window)

        monkeypatch.setattr(RegionTree, "_sweep", counted)
        r1 = tree.alias(TD0, root, PhysRange(A[1], A[4]), Rights.RW)
        view = tree.nodes[root]._view
        # a second alias over aliased pages leaves the very same bytes
        tree.alias(TD0, root, PhysRange(A[2], A[3]), Rights.R)
        assert tree.nodes[root]._view is view
        tree.carve(TD0, r1, PhysRange(A[2], A[3]), Rights.RW)
        tree.carve(TD0, root, PhysRange(A[4], A[5]), Rights.RW)
        assert sweeps == []
        for nid in tree.nodes:
            assert tree.effective_view(nid) == reference_view(tree, nid)
        assert view_tuples(tree, root) == [
            (A[0], A[1], "RWX", "exclusive"), (A[1], A[4], "RWX", "aliased"),
            (A[5], TOP, "RWX", "exclusive")]

    def test_destroy_patches_every_surviving_view(self, monkeypatch):
        # a destroy sweeps the surviving parent on the child's range only;
        # no node's view is dropped, and only sweep_all sweeps a whole node
        tree, root = fresh_tree()
        unwindowed = []
        sweep = RegionTree._sweep

        def counted(tree, node, window=None):
            if window is None:
                unwindowed.append(node.id)
            return sweep(tree, node, window)

        monkeypatch.setattr(RegionTree, "_sweep", counted)
        r1 = tree.alias(TD0, root, PhysRange(A[0], A[4]), Rights.RW)
        r2 = tree.carve(TD0, root, PhysRange(A[4], A[5]), Rights.RWX)
        r3 = tree.alias(TD0, r1, PhysRange(A[1], A[2]), Rights.R)
        r4 = tree.carve(TD0, r1, PhysRange(A[2], A[3]), Rights.RW)
        tree.alias(TD0, r2, PhysRange(A[4], A[5]), Rights.RX)
        tree.alias(TD0, root, PhysRange(A[1], A[3]), Rights.R)
        for doomed in (r3, r4, r2, r1):
            tree.destroy(tree.subtree(doomed))
            assert all(len(node._view) == (node.initial_range.end -
                                           node.initial_range.start) // PAGE
                       for node in tree.nodes.values())
            for nid in tree.nodes:
                assert tree.effective_view(nid) == reference_view(tree, nid)
        assert unwindowed == []
        tree.sweep_all()
        assert sorted(unwindowed) == sorted(tree.nodes)

    def test_moved_carve_child_leaves_parent_memo_stale(self):
        # only the tree's own writes patch a view; a child moved behind the
        # back is what check_invariants is there to catch
        tree, root = fresh_tree()
        r1 = tree.carve(TD0, root, PhysRange(A[1], A[2]), Rights.RWX)
        tree.effective_view(root)
        check_invariants(tree)
        tree.nodes[r1].initial_range = PhysRange(A[3], A[4])
        with pytest.raises(AssertionError, match=f"region {root}$"):
            check_invariants(tree)

    def test_children_cannot_change_in_place(self):
        tree, root = fresh_tree()
        tree.alias(TD0, root, PhysRange(A[1], A[2]), Rights.RW)
        with pytest.raises(AttributeError):
            tree.nodes[root].children.append(99)


class TestRandomTreesAgainstPathWalk:
    def test_status_equals_independent_path_walk(self):
        import random
        rng = random.Random(7)
        for trial in range(40):
            tree, root = fresh_tree()
            nodes = [root]
            for _ in range(rng.randrange(2, 14)):
                parent = rng.choice(nodes)
                span = tree.nodes[parent].initial_range
                pages = (span.end - span.start) // PAGE
                lo = rng.randrange(pages)
                hi = rng.randrange(lo, pages) + 1
                sub = PhysRange(span.start + lo * PAGE,
                                span.start + hi * PAGE)
                try:
                    if rng.random() < 0.5:
                        nodes.append(tree.carve(TD0, parent, sub, Rights.RWX))
                    else:
                        nodes.append(tree.alias(TD0, parent, sub, Rights.RWX))
                except MonitorError:
                    continue
            for node in nodes:
                assert tree.nodes[node].status is \
                    exclusivity_by_path_walk(tree, node)
            check_invariants(tree)


class TestSubtreeCollection:
    def test_subtree_is_bottom_up(self):
        tree, root = fresh_tree()
        r2 = tree.carve(TD0, root, PhysRange(A[2], A[5]), Rights.RWX)
        r3 = tree.alias(TD0, r2, PhysRange(A[3], A[4]), Rights.RW)
        r4 = tree.carve(TD0, r2, PhysRange(A[4], A[5]), Rights.RWX)
        order = tree.subtree(r2)
        assert set(order) == {r2, r3, r4}
        assert order.index(r3) < order.index(r2)
        assert order.index(r4) < order.index(r2)

    def test_check_revoke_owner_and_child(self):
        tree, root = fresh_tree()
        r2 = tree.carve(TD0, root, PhysRange(A[2], A[5]), Rights.RWX)
        r4 = tree.carve(TD0, r2, PhysRange(A[4], A[5]), Rights.RWX)
        with pytest.raises(MonitorError) as err:
            tree.check_revoke(TD1, root, r2)
        assert err.value.code is ErrorCode.NOT_OWNER
        with pytest.raises(MonitorError) as err:
            tree.check_revoke(TD0, root, r4)  # grandchild, not a child
        assert err.value.code is ErrorCode.NOT_A_CHILD

    def test_destroy_restores_parent_view(self):
        tree, root = fresh_tree()
        r2 = tree.carve(TD0, root, PhysRange(A[2], A[5]), Rights.RWX)
        tree.destroy(tree.subtree(r2))
        assert view_tuples(tree, root) == [(A[0], TOP, "RWX", "exclusive")]
