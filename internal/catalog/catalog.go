// Package catalog implements the in-memory database: named base relations
// with schemas and column kinds, plus CSV import/export so the CLI tools can
// persist generated workloads. It stands in for the storage layer of the
// PostgreSQL instance Perm was built on.
//
// All catalog state lives in one copy-on-write container, Layer (layer.go):
// an immutable name → entry map behind an atomic pointer, optionally stacked
// on a parent. A Catalog is a Layer of tables — New makes a root, NewOverlay
// a child that shadows its base without ever writing to it — and package
// perm keeps its view definitions in a Layer of the same type. A Snapshot
// pins the current version of every level, so a statement that compiles and
// executes against one Snapshot observes exactly one catalog state whatever
// DDL runs beside it, at its own level or below.
package catalog

import (
	"fmt"
	"slices"

	"perm/internal/rel"
	"perm/internal/schema"
	"perm/internal/types"
)

// Source is the read surface the compiler and executor need from a
// catalog: schemas and kinds for analysis/translation, relations for
// execution. *Catalog and Snapshot both implement it.
type Source interface {
	Relation(name string) (*rel.Relation, error)
	Schema(name string) (schema.Schema, error)
	Kinds(name string) ([]types.Kind, error)
	Has(name string) bool
	Names() []string
}

// table is one relation's catalog entry. Relations are immutable once
// registered: INSERT publishes an appended copy under the same name.
type table struct {
	rel   *rel.Relation
	shape *Shape
}

// Shape is everything a compiled plan depends on in a table: its schema and
// its column kinds, never its rows. A plan compiled against a Shape is valid
// in every snapshot in which the name resolves to an Equal one (see package
// perm's plan cache). A table keeps one Shape pointer for as long as both
// stay what they are — across INSERTs, unless one establishes the kind of a
// column that was all NULL — so that comparison is mostly one of pointers.
type Shape struct {
	Schema schema.Schema
	Kinds  []types.Kind
}

// is reports whether the shape describes exactly this schema and kinds.
func (sh *Shape) is(sch schema.Schema, kinds []types.Kind) bool {
	return slices.Equal(sh.Schema.Attrs, sch.Attrs) && slices.Equal(sh.Kinds, kinds)
}

// Equal reports whether the two shapes describe the same schema and kinds;
// nil, the shape of no table, equals only itself.
func (sh *Shape) Equal(o *Shape) bool {
	return sh == o || sh != nil && o != nil && sh.is(o.Schema, o.Kinds)
}

// Catalog is a thread-safe registry of base relations: one copy-on-write
// Layer of tables. Reads go through a Snapshot and never block; writes
// publish a new version that snapshots already taken do not see.
type Catalog struct {
	tables *Layer[table]
}

// New returns an empty root catalog.
func New() *Catalog { return &Catalog{tables: NewLayer[table](nil)} }

// NewOverlay returns an empty catalog layered over base: it sees base's
// current and future relations, its own writes shadow them, and its drops
// hide them behind tombstones. Sessions hold one, so any number of them
// share one copy of the base data.
func NewOverlay(base *Catalog) *Catalog { return &Catalog{tables: NewLayer(base.tables)} }

// Snapshot is an immutable point-in-time view of a Catalog and of every
// catalog beneath it. It implements Source.
type Snapshot struct {
	tables *State[table]
}

// Snapshot captures the catalog's current state without locking.
func (c *Catalog) Snapshot() Snapshot { return Snapshot{tables: c.tables.Snapshot()} }

// Register loads a relation under name, shadowing any relation of a
// catalog beneath (or replacing its own). It merges the relation's
// duplicate rows into one slot each, once, so scans visit each distinct row
// once. The relation's schema is re-qualified with the relation name so
// that unaliased scans resolve qualified references, and its column kinds
// are inferred once here, so compiling a query never rescans table data.
func (c *Catalog) Register(name string, r *rel.Relation) {
	r.Merge()
	c.RegisterWithKinds(name, r, nil)
}

// RegisterWithKinds is Register with declared column kinds and without the
// merge: it publishes the relation's slots as given. It is the CREATE TABLE
// path, where an empty relation carries types that inference could not
// recover from data, and the INSERT path, which publishes the appended copy
// with its widened kinds. kinds == nil infers from the data. Replacing a
// relation by one of the same schema and kinds keeps the name's Shape.
func (c *Catalog) RegisterWithKinds(name string, r *rel.Relation, kinds []types.Kind) {
	r.Schema = r.Schema.WithQual(name)
	if kinds == nil {
		kinds = r.InferKinds()
	}
	shape := &Shape{Schema: r.Schema, Kinds: kinds}
	if old := c.tables.Snapshot().Get(name); old != nil && old.shape.is(r.Schema, kinds) {
		shape = old.shape
	}
	c.tables.Put(name, &table{rel: r, shape: shape})
}

// Create is RegisterWithKinds for a new name: it fails if name is visible,
// here or in a catalog beneath. The check and the publish are two steps;
// callers that race DDL on one catalog serialise them (package perm's
// statement scope does).
func (c *Catalog) Create(name string, r *rel.Relation, kinds []types.Kind) error {
	if c.Has(name) {
		return fmt.Errorf("catalog: relation %q already exists", name)
	}
	c.RegisterWithKinds(name, r, kinds)
	return nil
}

// Drop removes a relation from the catalog's visibility: its own relation
// is deleted, a relation of a catalog beneath is tombstoned.
func (c *Catalog) Drop(name string) error {
	if !c.tables.Drop(name) {
		return unknown(name)
	}
	return nil
}

// Relation returns the current relation registered under name.
func (c *Catalog) Relation(name string) (*rel.Relation, error) { return c.Snapshot().Relation(name) }

// Schema returns the current schema of a registered relation.
func (c *Catalog) Schema(name string) (schema.Schema, error) { return c.Snapshot().Schema(name) }

// Kinds returns the current column kinds of a registered relation.
func (c *Catalog) Kinds(name string) ([]types.Kind, error) { return c.Snapshot().Kinds(name) }

// Has reports whether name is currently visible.
func (c *Catalog) Has(name string) bool { return c.Snapshot().Has(name) }

// Names returns the currently visible relation names in sorted order.
func (c *Catalog) Names() []string { return c.Snapshot().Names() }

func unknown(name string) error { return fmt.Errorf("catalog: unknown relation %q", name) }

// Relation returns the snapshot's version of name.
func (s Snapshot) Relation(name string) (*rel.Relation, error) {
	if t := s.tables.Get(name); t != nil {
		return t.rel, nil
	}
	return nil, unknown(name)
}

// Schema returns the snapshot's schema for name.
func (s Snapshot) Schema(name string) (schema.Schema, error) {
	if t := s.tables.Get(name); t != nil {
		return t.rel.Schema, nil
	}
	return schema.Schema{}, unknown(name)
}

// Kinds returns the snapshot's per-column value kinds for name, fixed when
// the relation was registered (see rel.Relation.InferKinds). The semantic
// analyzer types queries against these.
func (s Snapshot) Kinds(name string) ([]types.Kind, error) {
	if t := s.tables.Get(name); t != nil {
		return t.shape.Kinds, nil
	}
	return nil, unknown(name)
}

// Shape returns the snapshot's shape of name, nil when name is not visible.
func (s Snapshot) Shape(name string) *Shape {
	if t := s.tables.Get(name); t != nil {
		return t.shape
	}
	return nil
}

// Has reports whether name is visible in the snapshot.
func (s Snapshot) Has(name string) bool { return s.tables.Get(name) != nil }

// Names lists the snapshot's visible relation names, sorted.
func (s Snapshot) Names() []string { return s.tables.Names() }
