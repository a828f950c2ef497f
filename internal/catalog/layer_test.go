package catalog

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"perm/internal/rel"
	"perm/internal/schema"
	"perm/internal/types"
)

func intRelation(col string, vals ...int64) *rel.Relation {
	r := rel.New(schema.New("", col))
	for _, v := range vals {
		r.Add(rel.Tuple{types.NewInt(v)}, 1)
	}
	return r
}

// TestRegisterMergesDuplicateRows: Register folds a relation's duplicate
// rows into one slot each, once at load; RegisterWithKinds, the INSERT and
// CREATE TABLE path, publishes the slots as given.
func TestRegisterMergesDuplicateRows(t *testing.T) {
	slots := func(c *Catalog, name string) (n int) {
		r, err := c.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		_ = r.Each(func(rel.Tuple, int) error { n++; return nil })
		return n
	}
	c := New()
	c.Register("r", intRelation("a", 1, 2, 1, 1))
	c.RegisterWithKinds("s", intRelation("a", 1, 2, 1, 1), nil)
	if got := slots(c, "r"); got != 2 {
		t.Errorf("Register kept %d slots of (1)×3, (2)×1, want 2", got)
	}
	if got := slots(c, "s"); got != 4 {
		t.Errorf("RegisterWithKinds kept %d slots of 4 rows, want 4", got)
	}
	r, _ := c.Relation("r")
	s, _ := c.Relation("s")
	if r.Card() != 4 || !r.Equal(s) {
		t.Errorf("the merged relation %s is not the bag %s", r, s)
	}
}

func TestRegisterAndLookup(t *testing.T) {
	c := New()
	c.Register("r", intRelation("a", 1))
	got, err := c.Relation("r")
	if err != nil || got.Card() != 1 {
		t.Fatalf("lookup: %v", err)
	}
	if got.Schema.Attrs[0].Qual != "r" {
		t.Errorf("registration should qualify the schema: %s", got.Schema)
	}
	if _, err := c.Relation("nope"); err == nil {
		t.Error("unknown relation should error")
	}
	sch, err := c.Schema("r")
	if err != nil || sch.Len() != 1 {
		t.Errorf("Schema: %s, %v", sch, err)
	}
	if ks, err := c.Kinds("r"); err != nil || len(ks) != 1 || ks[0] != types.KindInt {
		t.Errorf("Kinds: %v, %v", ks, err)
	}
	if !c.Has("r") || c.Has("nope") {
		t.Error("Has misreports")
	}
}

func TestNamesSortedAndDrop(t *testing.T) {
	c := New()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		c.Register(n, rel.New(schema.New("", "x")))
	}
	got := c.Names()
	if len(got) != 3 || got[0] != "alpha" || got[2] != "zeta" {
		t.Errorf("Names = %v", got)
	}
	if err := c.Drop("mid"); err != nil {
		t.Errorf("Drop: %v", err)
	}
	if err := c.Drop("mid"); err == nil || !strings.Contains(err.Error(), `unknown relation "mid"`) {
		t.Errorf("second Drop = %v, want unknown relation", err)
	}
	if c.Has("mid") || len(c.Names()) != 2 {
		t.Error("Drop failed")
	}
}

// TestConcurrentAccess runs writers of distinct names beside readers. Every
// write is a clone–edit–publish cycle of the whole table map, so a write
// that is not serialised with the others loses theirs: the final count
// catches that even where -race sees no data race.
func TestConcurrentAccess(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				name := fmt.Sprintf("x%d_%d", w, i)
				c.Register(name, rel.New(schema.New("", "a")))
				if i%2 == 1 {
					if err := c.Drop(name); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		c.Names()
		c.Has("x0_0")
		_, _ = c.Relation("x0_0")
	}
	wg.Wait()
	if got := len(c.Names()); got != 200 {
		t.Fatalf("%d names after 4 writers registered 100 each and dropped 50 each, want 200", got)
	}
}

func TestOverlayShadowsBase(t *testing.T) {
	base := New()
	base.Register("r", intRelation("a", 1, 2))
	o := NewOverlay(base)

	if err := o.Create("w", intRelation("a", 7), []types.Kind{types.KindInt}); err != nil {
		t.Fatal(err)
	}
	if !o.Has("w") || !o.Has("r") {
		t.Fatalf("overlay visibility: w=%v r=%v", o.Has("w"), o.Has("r"))
	}
	if base.Has("w") {
		t.Fatal("overlay CREATE leaked into the base catalog")
	}
	if got := strings.Join(o.Names(), ","); got != "r,w" {
		t.Fatalf("Names() = %s, want r,w", got)
	}
	ks, err := o.Kinds("w")
	if err != nil || len(ks) != 1 || ks[0] != types.KindInt {
		t.Fatalf("Kinds(w) = %v, %v", ks, err)
	}

	// Creating a name that the base already owns must fail.
	if err := o.Create("r", intRelation("a"), nil); err == nil {
		t.Fatal("Create over a base relation succeeded")
	}
	// Registering it shadows: the overlay sees its own version, the base keeps its.
	o.Register("r", intRelation("a", 5))
	if r, _ := o.Relation("r"); r.Card() != 1 {
		t.Fatalf("overlay r = %s, want the shadowing 1-row version", r)
	}
	if r, _ := base.Relation("r"); r.Card() != 2 {
		t.Fatalf("base r = %s: the overlay wrote through", r)
	}
	if got := strings.Join(o.Names(), ","); got != "r,w" {
		t.Fatalf("Names() with a shadowed name = %s, want r,w", got)
	}
}

func TestOverlaySnapshotIsImmutable(t *testing.T) {
	base := New()
	base.Register("r", intRelation("a", 1))
	o := NewOverlay(base)
	if err := o.Create("w", intRelation("a", 1), nil); err != nil {
		t.Fatal(err)
	}
	snap := o.Snapshot()

	// Every class of later write: replace, create, drop — the snapshot
	// must keep observing the pre-write state.
	o.Register("w", intRelation("a", 1, 2, 3))
	if err := o.Create("w2", intRelation("a"), nil); err != nil {
		t.Fatal(err)
	}
	if err := o.Drop("r"); err != nil {
		t.Fatal(err)
	}

	r, err := snap.Relation("w")
	if err != nil || r.Card() != 1 {
		t.Fatalf("snapshot w: len=%v err=%v, want the 1-row version", r.Card(), err)
	}
	if snap.Has("w2") {
		t.Fatal("snapshot sees a relation created after it was taken")
	}
	if !snap.Has("r") {
		t.Fatal("snapshot lost a base relation dropped after it was taken")
	}

	// The overlay itself sees the new state.
	r, err = o.Relation("w")
	if err != nil || r.Card() != 3 {
		t.Fatalf("overlay w: len=%v err=%v", r.Card(), err)
	}
	if o.Has("r") {
		t.Fatal("overlay still sees dropped base relation")
	}
}

// TestSnapshotPinsBase: a snapshot taken through an overlay is immutable
// all the way down — writes to the base after it was taken do not reach it,
// while the overlay's next snapshot sees them.
func TestSnapshotPinsBase(t *testing.T) {
	base := New()
	base.Register("r", intRelation("a", 1))
	base.Register("gone", intRelation("a", 1))
	o := NewOverlay(base)
	snap := o.Snapshot()
	oldRel, _ := snap.Relation("r")
	oldKinds, _ := snap.Kinds("r")

	base.Register("r", rel.FromTuples(schema.New("", "a"), rel.Tuple{types.NewString("x")}))
	base.Register("late", intRelation("a", 1))
	if err := base.Drop("gone"); err != nil {
		t.Fatal(err)
	}

	if r, err := snap.Relation("r"); err != nil || r != oldRel {
		t.Errorf("snapshot r = %p (%v), want the relation pinned at %p", r, err, oldRel)
	}
	if ks, err := snap.Kinds("r"); err != nil || &ks[0] != &oldKinds[0] || ks[0] != types.KindInt {
		t.Errorf("snapshot kinds(r) = %v (%v), want the pinned %v", ks, err, oldKinds)
	}
	if got := strings.Join(snap.Names(), ","); got != "gone,r" {
		t.Errorf("snapshot Names() = %s, want gone,r", got)
	}
	if got := strings.Join(o.Names(), ","); got != "late,r" {
		t.Errorf("overlay Names() after base DDL = %s, want late,r", got)
	}
	if ks, _ := o.Kinds("r"); ks[0] != types.KindString {
		t.Errorf("overlay kinds(r) = %v, want the base's new version", ks)
	}
}

func TestOverlayDropTombstonesBase(t *testing.T) {
	base := New()
	base.Register("r", intRelation("a", 1))
	o := NewOverlay(base)

	if err := o.Drop("r"); err != nil {
		t.Fatal(err)
	}
	if o.Has("r") {
		t.Fatal("dropped base relation still visible")
	}
	if !base.Has("r") {
		t.Fatal("overlay DROP mutated the base catalog")
	}
	if _, err := o.Relation("r"); err == nil {
		t.Fatal("Relation on a tombstoned name succeeded")
	}
	if len(o.Names()) != 0 {
		t.Fatalf("Names() lists a tombstoned name: %v", o.Names())
	}
	if err := o.Drop("r"); err == nil {
		t.Fatal("double DROP succeeded")
	}
	if err := o.Drop("nope"); err == nil {
		t.Fatal("DROP of an unknown name succeeded")
	}

	// The tombstoned name is free for reuse in the layer.
	if err := o.Create("r", intRelation("a", 9), nil); err != nil {
		t.Fatalf("re-CREATE after DROP: %v", err)
	}
	r, err := o.Relation("r")
	if err != nil || r.Card() != 1 {
		t.Fatalf("recreated r: len=%v err=%v", r.Card(), err)
	}
	// Dropping the recreated layer relation re-tombstones the base name.
	if err := o.Drop("r"); err != nil {
		t.Fatal(err)
	}
	if o.Has("r") {
		t.Fatal("base relation resurfaced after dropping its layer shadow")
	}
}

// TestLayerVersionIdentity: the published state pointer is the version — it
// is stable across reads and changes on every write — and With layers a
// private entry over a state without publishing it.
func TestLayerVersionIdentity(t *testing.T) {
	l := NewLayer[string](nil)
	v0 := l.Snapshot()
	if l.Snapshot() != v0 {
		t.Fatal("two snapshots without a write differ")
	}
	a := "a"
	l.Put("x", &a)
	v1 := l.Snapshot()
	if v1 == v0 || v0.Get("x") != nil || v1.Get("x") != &a {
		t.Fatalf("Put: v0=%p v1=%p, v0.x=%v v1.x=%v", v0, v1, v0.Get("x"), v1.Get("x"))
	}
	if l.Drop("nope") || l.Snapshot() != v1 {
		t.Fatal("a failed Drop published a new version")
	}

	b := "b"
	probe := v1.With("y", &b)
	if probe.Get("y") != &b || probe.Get("x") != &a || v1.Get("y") != nil || l.Snapshot() != v1 {
		t.Fatal("With leaked into the state it extends")
	}
	var empty *State[string]
	if empty.Get("x") != nil || len(empty.Names()) != 0 || empty.With("y", &b).Get("y") != &b {
		t.Fatal("the nil State is not the empty state")
	}
}

// TestShapeIdentity: a name keeps its Shape pointer for as long as its
// schema and column kinds stay what they are, whatever happens to its rows;
// any change of either, and any drop, gives it a new one.
func TestShapeIdentity(t *testing.T) {
	c := New()
	if c.Snapshot().Shape("r") != nil {
		t.Fatal("shape of an unknown relation")
	}
	c.Register("r", intRelation("a", 1))
	first := c.Snapshot().Shape("r")
	if first == nil || first.Schema.Len() != 1 || first.Kinds[0] != types.KindInt {
		t.Fatalf("shape = %+v", first)
	}
	c.Register("r", intRelation("a", 1, 2, 3)) // other rows
	c.RegisterWithKinds("r", intRelation("a"), []types.Kind{types.KindInt})
	if got := c.Snapshot().Shape("r"); got != first {
		t.Error("same schema and kinds, new shape")
	}
	if r, _ := c.Relation("r"); &r.Schema.Attrs[0] == &first.Schema.Attrs[0] {
		// Sharing the schema is allowed, not promised; the pointer is.
		t.Log("relation shares the shape's schema")
	}
	c.RegisterWithKinds("r", intRelation("a"), []types.Kind{types.KindNull})
	unknown := c.Snapshot().Shape("r")
	if unknown == first {
		t.Error("other kinds, same shape")
	}
	c.RegisterWithKinds("r", intRelation("a", 5), []types.Kind{types.KindInt}) // the column's kind is established
	if got := c.Snapshot().Shape("r"); got == unknown || got == first {
		t.Error("a widened kind must give a new shape")
	}
	c.Register("r", intRelation("b", 1))
	renamed := c.Snapshot().Shape("r")
	if renamed == first || renamed.Schema.Attrs[0].Name != "b" {
		t.Error("other schema, same shape")
	}
	if err := c.Drop("r"); err != nil {
		t.Fatal(err)
	}
	c.Register("r", intRelation("b", 1))
	if got := c.Snapshot().Shape("r"); got == renamed {
		t.Error("a dropped relation's shape came back")
	}

	// A snapshot keeps the shape it saw; an overlay's own table of a base
	// table's shape shares it, one of another shape does not.
	sn := c.Snapshot()
	pinned := sn.Shape("r")
	c.Register("r", intRelation("z", 1))
	if sn.Shape("r") != pinned {
		t.Error("snapshot's shape changed under it")
	}
	o := NewOverlay(c)
	base := c.Snapshot().Shape("r")
	o.Register("r", intRelation("z", 9, 9))
	if o.Snapshot().Shape("r") != base {
		t.Error("overlay table of the base table's shape: new shape")
	}
	o.Register("r", intRelation("other", 1))
	if o.Snapshot().Shape("r") == base || c.Snapshot().Shape("r") != base {
		t.Error("overlay table of another shape must not touch the base's")
	}
}
