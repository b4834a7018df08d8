"""``VFS.path_of`` memo: memoised answers always equal a fresh name-cache walk.

A hypothesis state machine mixes tree mutations, lookups (by each name
of a hard link, through ``..``, through the dcache), lazy forks, and
template mutations that force a live fork to materialize.  After every
step, every vnode seen so far — live, unlinked, or replaced by a fork's
private clone — must get the same ``path_of`` outcome from the memo as
from an uncached walk, ``ENOENT`` included.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import SysError
from repro.kernel.vfs import VFS, Vnode, VType

NAMES = ["a", "b", "c"]


def outcome(fn, vp: Vnode):
    try:
        return fn(vp)
    except SysError as err:
        return (err.name, str(err))


class PathMemoMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.vfs = VFS()
        self.templates: list[VFS] = []
        self.known: list[Vnode] = [self.vfs.root]

    def _dirs(self) -> list[Vnode]:
        return [vp for vp in self.known if vp.is_dir]

    # -- operations -------------------------------------------------------

    @rule(path=st.lists(st.sampled_from(NAMES + [".."]), max_size=4))
    def walk(self, path):
        node = self.vfs.root
        for name in path:
            try:
                node = self.vfs.lookup(node, name)
            except SysError:
                return
            self.known.append(node)

    @rule(name=st.sampled_from(NAMES), is_dir=st.booleans(), data=st.data())
    def create(self, name, is_dir, data):
        parent = data.draw(st.sampled_from(self._dirs()))
        vtype = VType.VDIR if is_dir else VType.VREG
        try:
            self.known.append(self.vfs.create(parent, name, vtype, 0o755, 0, 0))
        except SysError:
            pass

    @rule(name=st.sampled_from(NAMES), data=st.data())
    def hard_link(self, name, data):
        files = [vp for vp in self.known if vp.is_reg]
        if not files:
            return
        target = data.draw(st.sampled_from(files))
        parent = data.draw(st.sampled_from(self._dirs()))
        try:
            self.vfs.link(target, parent, name)
        except SysError:
            pass

    @rule(name=st.sampled_from(NAMES), data=st.data())
    def unlink(self, name, data):
        parent = data.draw(st.sampled_from(self._dirs()))
        try:
            self.vfs.unlink(parent, name)
        except SysError:
            pass

    @rule(src=st.sampled_from(NAMES), dst=st.sampled_from(NAMES), data=st.data())
    def rename(self, src, dst, data):
        src_dir = data.draw(st.sampled_from(self._dirs()))
        dst_dir = data.draw(st.sampled_from(self._dirs()))
        try:
            self.vfs.rename(src_dir, src, dst_dir, dst)
        except SysError:
            pass

    @rule(data=st.data())
    def chmod(self, data):
        self.vfs.set_meta(data.draw(st.sampled_from(self.known)), mode=0o700)

    @rule()
    def fork(self):
        # Keep the template alive and mutable: its vnodes stay reachable
        # through the fork's still-shared entries until materialized.
        self.templates.append(self.vfs)
        self.vfs = self.vfs.fork()
        self.known.append(self.vfs.root)

    @precondition(lambda self: self.templates)
    @rule(name=st.sampled_from(NAMES))
    def mutate_template(self, name):
        template = self.templates[-1]
        try:
            template.create(template.root, name + "-t", VType.VREG, 0o644, 0, 0)
        except SysError:
            pass

    # -- the property -----------------------------------------------------

    @invariant()
    def memo_agrees_with_a_fresh_walk(self):
        for vp in self.known:
            memo = outcome(self.vfs.path_of, vp)
            assert memo == outcome(self.vfs._walk_path, vp), vp
            assert outcome(self.vfs.path_of, vp) == memo, vp


TestPathMemo = PathMemoMachine.TestCase
TestPathMemo.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)


def test_memo_follows_a_hard_link_reached_by_its_other_name():
    vfs = VFS()
    one = vfs.create(vfs.root, "one", VType.VDIR, 0o755, 0, 0)
    two = vfs.create(vfs.root, "two", VType.VDIR, 0o755, 0, 0)
    f = vfs.create(one, "f", VType.VREG, 0o644, 0, 0)
    vfs.link(f, two, "g")
    assert vfs.lookup(one, "f") is f
    assert vfs.path_of(f) == "/one/f"
    assert vfs.lookup(two, "g") is f            # a dcache miss, then...
    assert vfs.path_of(f) == "/two/g"
    assert vfs.lookup(one, "f") is f            # ...a dcache hit
    assert vfs.path_of(f) == "/one/f"


def test_memo_drops_a_path_through_a_replaced_template_vnode():
    template = VFS()
    d = template.create(template.root, "d", VType.VDIR, 0o755, 0, 0)
    template.create(d, "f", VType.VREG, 0o644, 0, 0)
    fork = template.fork()
    shared = fork.root.entries["d"]              # still the template's vnode
    assert shared is d
    d.nc_parent = fork.root                      # as a fork-side walk would leave it
    assert fork.path_of(shared) == "/d"
    private = fork.lookup(fork.root, "d")        # materializes a private clone
    assert private is not shared
    assert fork.path_of(private) == "/d"
    assert outcome(fork.path_of, shared) == outcome(fork._walk_path, shared)
    assert outcome(fork.path_of, shared)[0] == "ENOENT"
