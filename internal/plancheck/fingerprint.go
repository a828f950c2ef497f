package plancheck

import (
	"hash/maphash"
	"math"
	"reflect"
)

var fingerprintSeed = maphash.MakeSeed()

type ptrKey struct {
	addr uintptr
	typ  reflect.Type
}

// Fingerprint hashes all memory reachable from v — struct fields exported
// or not, slice and array elements, the dynamic type and value behind an
// interface, the target of a pointer — so that a write anywhere in it
// changes the result. A pointer met again hashes as a back-reference to its
// first visit: shared subtrees are walked once and cycles end. Maps,
// channels and functions, which plans do not hold, hash by identity.
// Fingerprints compare only within one process.
func Fingerprint(v any) uint64 {
	var h maphash.Hash
	h.SetSeed(fingerprintSeed)
	word := func(x uint64) { maphash.WriteComparable(&h, x) }
	seen := map[ptrKey]uint64{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		k := v.Kind()
		word(uint64(k))
		switch {
		case v.CanInt():
			word(uint64(v.Int()))
		case v.CanUint():
			word(v.Uint())
		case v.CanFloat():
			word(math.Float64bits(v.Float()))
		case k == reflect.Bool && v.Bool():
			word(1)
		case k == reflect.Bool, k == reflect.Interface && v.IsNil():
			word(0)
		case k == reflect.String:
			word(uint64(v.Len()))
			h.WriteString(v.String())
		case k == reflect.Pointer && !v.IsNil():
			key := ptrKey{v.Pointer(), v.Type()}
			if at, ok := seen[key]; ok {
				word(at)
				return
			}
			seen[key] = uint64(len(seen) + 1)
			word(math.MaxUint64) // first visit: the target follows
			walk(v.Elem())
		case k == reflect.Interface:
			h.WriteString(v.Elem().Type().String())
			walk(v.Elem())
		case k == reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i))
			}
		case k == reflect.Slice || k == reflect.Array:
			word(uint64(v.Len()))
			for i := range v.Len() {
				walk(v.Index(i))
			}
		case k == reflect.Pointer || k == reflect.Map || k == reflect.Chan || k == reflect.Func || k == reflect.UnsafePointer:
			word(uint64(v.Pointer())) // 0 for a nil pointer
		}
	}
	walk(reflect.ValueOf(v))
	return h.Sum64()
}
