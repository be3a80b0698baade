package cluster

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestDirectoryMatchesReference drives a directory and its key index with
// random interns, probes and admissions, and holds them to a reference kept
// here: a map from key to slot and a sorted slice of the admitted keys. The
// keys are short strings over an alphabet with the \x1f separator, so
// they include the empty key, keys that are prefixes of others and keys
// that differ only past a separator; one step in five probes a key never
// interned. Enough keys are admitted to split chunks.
func TestDirectoryMatchesReference(t *testing.T) {
	const alphabet = "ai1\x1f9s"
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randKey := func() string {
			b := make([]byte, rng.Intn(7))
			for i := range b {
				b[i] = alphabet[rng.Intn(len(alphabet))]
			}
			return string(b)
		}
		pool := []string{""}
		for range 3000 {
			k := randKey()
			if rng.Intn(4) == 0 {
				k = pool[rng.Intn(len(pool))] // a repeat, or a prefix of one
				k = k[:rng.Intn(len(k)+1)]
			}
			pool = append(pool, k)
		}
		absent := make([]string, 300)
		for i := range absent {
			absent[i] = randKey() + "\x00" // never interned: no key has a \x00
		}

		var d tableDir
		slotOf := map[string]int32{}
		var byKey []string // admitted keys, sorted
		var buf []byte
		check := func(step int) {
			t.Helper()
			for k, want := range slotOf {
				if got, ok := d.lookup([]byte(k)); !ok || got != want {
					t.Fatalf("seed %d step %d: lookup(%q) = %d, %v, want %d", seed, step, k, got, ok, want)
				}
				if got := d.name(want); string(got) != k {
					t.Fatalf("seed %d step %d: slot %d names %q, want %q", seed, step, want, got, k)
				}
			}
			var order []string
			for p := d.idx.begin(); d.idx.valid(p); p = d.idx.next(p) {
				order = append(order, string(d.name(d.idx.at(p))))
			}
			if !slices.Equal(order, byKey) {
				t.Fatalf("seed %d step %d: key index order\n%q\nwant\n%q", seed, step, order, byKey)
			}
			for range 40 {
				prefix := pool[rng.Intn(len(pool))]
				prefix = prefix[:rng.Intn(len(prefix)+1)]
				if rng.Intn(2) == 0 {
					prefix += "\x1f"
				}
				var window []string
				p := d.idx.seek(&d, []byte(prefix))
				if first, _ := slices.BinarySearch(byKey, prefix); d.idx.valid(p) != (first < len(byKey)) ||
					first < len(byKey) && string(d.name(d.idx.at(p))) != byKey[first] {
					t.Fatalf("seed %d step %d: seek(%q) is not at the first key >= it", seed, step, prefix)
				}
				for ; d.idx.valid(p) && bytes.HasPrefix(d.key(d.idx.at(p)), []byte(prefix)); p = d.idx.next(p) {
					window = append(window, string(d.name(d.idx.at(p))))
				}
				var want []string
				for _, k := range byKey {
					if strings.HasPrefix(k, prefix) {
						want = append(want, k)
					}
				}
				if !slices.Equal(window, want) {
					t.Fatalf("seed %d step %d: prefix %q window %q, want %q", seed, step, prefix, window, want)
				}
			}
		}

		for step := range 6000 {
			switch r := rng.Intn(10); {
			case r < 5: // intern, from a buffer the caller then reuses
				k := pool[rng.Intn(len(pool))]
				buf = append(buf[:0], k...)
				slot := d.intern(buf)
				clear(buf)
				want, seen := slotOf[k]
				if !seen {
					want = int32(len(slotOf))
					slotOf[k] = want
				}
				if slot != want {
					t.Fatalf("seed %d step %d: intern(%q) = %d, want %d", seed, step, k, slot, want)
				}
			case r < 7: // probe a key never interned
				k := absent[rng.Intn(len(absent))]
				if slot, ok := d.lookup([]byte(k)); ok {
					t.Fatalf("seed %d step %d: lookup(%q) found slot %d, never interned", seed, step, k, slot)
				}
			default: // admit an interned key into the key index, as admit does
				if len(slotOf) == 0 {
					continue
				}
				slot := int32(rng.Intn(len(slotOf)))
				if d.inIdx[slot] {
					continue
				}
				d.inIdx[slot] = true
				d.idx.insert(&d, slot)
				k := string(d.name(slot))
				i, _ := slices.BinarySearch(byKey, k)
				byKey = slices.Insert(byKey, i, k)
			}
			if step%1000 == 999 {
				check(step)
			}
		}
		if len(byKey) < idxChunk {
			t.Fatalf("seed %d: %d keys admitted, too few to split a chunk", seed, len(byKey))
		}
	}
}

// pointerPath returns the path to the first pointer a value of type ty
// holds ("" if none): the collector scans no array of such values.
func pointerPath(ty reflect.Type) string {
	switch ty.Kind() {
	case reflect.Struct:
		for i := range ty.NumField() {
			if p := pointerPath(ty.Field(i).Type); p != "" {
				return "." + ty.Field(i).Name + p
			}
		}
		return ""
	case reflect.Array:
		if ty.Len() > 0 {
			return pointerPath(ty.Elem())
		}
		return ""
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return " (" + ty.String() + ")"
	}
	return ""
}

// TestPerSlotArraysHoldNoPointer: the arrays that grow with a table's slots
// — every slice the directory keeps, the key index's chunk list aside, and
// the lock table's entries — hold no pointer, so the collector neither
// scans nor clears them.
func TestPerSlotArraysHoldNoPointer(t *testing.T) {
	dir := reflect.TypeOf(tableDir{})
	for i := range dir.NumField() {
		f := dir.Field(i)
		if f.Type.Kind() != reflect.Slice {
			continue
		}
		if p := pointerPath(f.Type.Elem()); p != "" {
			t.Errorf("tableDir.%s's elements hold a pointer: %s%s", f.Name, f.Type.Elem(), p)
		}
	}
	if p := pointerPath(reflect.TypeOf(lockState{})); p != "" {
		t.Errorf("lockState holds a pointer: lockState%s", p)
	}
}
