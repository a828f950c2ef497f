package lint

import (
	"go/types"
	"testing"
)

func TestValSetOps(t *testing.T) {
	a := absVal{param: 0}
	b := absVal{param: 1}
	s1 := oneVal(a)
	s2 := oneVal(b)

	if !s1.empty() == true && len(s1.vals) != 1 {
		t.Fatalf("oneVal: %+v", s1)
	}
	u := unionVals(s1, s2)
	if u.top || len(u.vals) != 2 {
		t.Errorf("union = %+v, want 2 values", u)
	}
	if !equalVals(u, unionVals(s2, s1)) {
		t.Errorf("union not commutative")
	}
	if ut := unionVals(u, topSet); !ut.top {
		t.Errorf("union with top lost top")
	}
	if equalVals(s1, s2) {
		t.Errorf("distinct singletons compare equal")
	}
	if equalVals(s1, topSet) {
		t.Errorf("singleton equals top")
	}
}

func TestFreshFactJoin(t *testing.T) {
	site := absVal{param: 3} // stands in for any distinct value
	obj := types.NewVar(0, nil, "x", types.NewSlice(types.Typ[types.Int]))
	other := types.NewVar(0, nil, "y", types.NewSlice(types.Typ[types.Int]))

	a := freshFact{env: map[types.Object]valSet{obj: oneVal(site)}, pub: map[absVal]bool{}}
	b := freshFact{env: map[types.Object]valSet{obj: oneVal(site), other: oneVal(site)}, pub: map[absVal]bool{site: true}}

	j := joinFresh(a, b)
	// A variable absent on one path joins to ⊤, not to the present side.
	if got := j.env[other]; !got.top {
		t.Errorf("one-sided variable joined to %+v, want top", got)
	}
	if got := j.env[obj]; got.top || len(got.vals) != 1 {
		t.Errorf("two-sided variable joined to %+v, want the singleton", got)
	}
	// Publication is a may-property: the union survives the join.
	if !j.pub[site] {
		t.Errorf("publication lost in join")
	}
	// clone must not share map storage with the original.
	c := a.clone()
	c.env[obj] = topSet
	c.pub[site] = true
	if a.env[obj].top || a.pub[site] {
		t.Errorf("clone shares storage with the original")
	}
	if !equalFresh(a, a.clone()) {
		t.Errorf("clone not equal to original")
	}
	if equalFresh(a, b) {
		t.Errorf("distinct facts compare equal")
	}
}

// lookupSummary resolves a fixture function's summary by name.
func lookupSummary(t *testing.T, idx *storeAliasIndex, name string) *FuncSummary {
	t.Helper()
	for fn, sum := range idx.Sums {
		if fn.Name() == name {
			return sum
		}
	}
	t.Fatalf("no summary for %s", name)
	return nil
}

// TestStoreAliasSummaries checks the interprocedural summaries the fixture
// packages give rise to: result freshness, frozen-parameter mutation
// levels, and the purity lattice.
func TestStoreAliasSummaries(t *testing.T) {
	pkg, err := sharedLoader().LoadDir(fixturePath("immutcheck"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	idx := newRunCache([]*Package{pkg}).StoreAlias()

	build := lookupSummary(t, idx, "build")
	if len(build.ResultFresh) != 1 || build.ResultFresh[0] != freshDeep {
		t.Errorf("build.ResultFresh = %v, want [deep]", build.ResultFresh)
	}
	if build.Allocates == "" {
		t.Errorf("build.Allocates is empty, want an allocation kind")
	}

	rename := lookupSummary(t, idx, "rename")
	if rename.MutFrozen[0] != freshShallow {
		t.Errorf("rename.MutFrozen[0] = %v, want shallow", rename.MutFrozen[0])
	}
	if rename.FrozenParamType[0] != "Node" {
		t.Errorf("rename.FrozenParamType[0] = %q, want Node", rename.FrozenParamType[0])
	}

	cow := lookupSummary(t, idx, "copyOnWrite")
	if len(cow.MutFrozen) != 0 {
		t.Errorf("copyOnWrite.MutFrozen = %v, want none", cow.MutFrozen)
	}
	if len(cow.ResultFresh) != 1 || cow.ResultFresh[0] < freshShallow {
		t.Errorf("copyOnWrite.ResultFresh = %v, want at least shallow", cow.ResultFresh)
	}

	reg := lookupSummary(t, idx, "register")
	if !reg.EscParams[1] {
		t.Errorf("register should publish its second parameter")
	}
	if reg.PurityClass() != "escaping" {
		t.Errorf("register.PurityClass = %q, want escaping", reg.PurityClass())
	}
}

// TestStoreAliasPurityClasses pins the lattice over the purity fixture's
// classes.go.
func TestStoreAliasPurityClasses(t *testing.T) {
	pkg, err := sharedLoader().LoadDir(fixturePath("purity"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	idx := newRunCache([]*Package{pkg}).StoreAlias()
	for name, want := range map[string]string{
		"add":          "pure",
		"readGlobal":   "read-only",
		"bumpGlobal":   "mutating",
		"leak":         "escaping",
		"sendOnly":     "escaping",
		"callsUnknown": "mutating",
	} {
		if got := lookupSummary(t, idx, name).PurityClass(); got != want {
			t.Errorf("%s: purity %q, want %q", name, got, want)
		}
	}
}

// TestAllocChains pins the chain attribution format used by the
// interprocedural hotalloc findings.
func TestAllocChains(t *testing.T) {
	pkg, err := sharedLoader().LoadDir(fixturePath("hotalloc"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	idx := newRunCache([]*Package{pkg}).StoreAlias()
	chains := map[string]string{}
	for fn := range idx.Sums {
		chains[fn.Name()] = idx.AllocChain(fn)
	}
	if got := chains["helperAlloc"]; got != "helperAlloc: make" {
		t.Errorf("helperAlloc chain = %q", got)
	}
	if got := chains["helperDeep"]; got != "helperDeep -> helperAlloc: make" {
		t.Errorf("helperDeep chain = %q", got)
	}
	if got := chains["pureHelper"]; got != "" {
		t.Errorf("pureHelper chain = %q, want empty", got)
	}
}
