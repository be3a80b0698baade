package engine

import (
	"testing"
	"time"
)

// TestLRU pins the cache type every engine memo is: LRU order under a byte
// bound, the refusal of an entry past the bound on its own, first writer
// wins, take as a checkout, and the counters.
func TestLRU(t *testing.T) {
	c := newLRU[string, *int](3*lruEntryBytes + 30)
	vals := [4]int{0, 1, 2, 3}
	// The counters and gauges: hits, misses, evictions, entries, bytes.
	type lruStats struct {
		hits, misses, evictions int64
		entries, bytes          int
	}
	check := func(name string, want lruStats) {
		t.Helper()
		var got lruStats
		got.hits, got.misses, got.evictions, got.entries, got.bytes = c.stats()
		if got != want {
			t.Fatalf("%s: stats %+v, want %+v", name, got, want)
		}
	}
	for i, k := range []string{"a", "b", "c"} {
		c.put(k, &vals[i], 10)
	}
	check("three fit", lruStats{entries: 3, bytes: 3*lruEntryBytes + 30})
	if v, ok := c.get("a"); !ok || v != &vals[0] {
		t.Fatal("a is not stored")
	}
	c.put("d", &vals[3], 10) // b is the least recently used now
	check("d evicts b", lruStats{hits: 1, evictions: 1, entries: 3, bytes: 3*lruEntryBytes + 30})
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived")
	}
	c.put("a", &vals[1], 10)
	if v, _ := c.get("a"); v != &vals[0] {
		t.Fatal("a second put replaced the first")
	}
	c.put("e", &vals[0], 3*lruEntryBytes+31)
	check("too large alone", lruStats{hits: 2, misses: 1, evictions: 2, entries: 3, bytes: 3*lruEntryBytes + 30})
	if v, ok := c.take("c"); !ok || v != &vals[2] {
		t.Fatal("take did not return c")
	}
	if _, ok := c.take("c"); ok {
		t.Fatal("c is still stored after take")
	}
	check("after take", lruStats{hits: 3, misses: 2, evictions: 2, entries: 2, bytes: 2*lruEntryBytes + 20})
}

// TestReplyStoreAfterEviction: a Reply's Store puts its bytes under the
// key that missed, charged exactly the bytes, the key and lruEntryBytes.
// The first store of a key wins; a store that lands after the key was
// stored and evicted meanwhile stores again.
func TestReplyStoreAfterEviction(t *testing.T) {
	e := New(Config{Workers: 1})
	const entry = answerKeyBytes + lruEntryBytes
	e.answers = newLRU[answerKey, []byte](2*entry + 10)
	miss := func(prog uint64) *Reply {
		t.Helper()
		r := e.lookup(answerKey{prog: prog}, time.Now())
		if r.Bytes != nil {
			t.Fatalf("key %d: a hit on %q, want a miss", prog, r.Bytes)
		}
		return r
	}
	check := func(name string, entries, replyBytes int) {
		t.Helper()
		st := e.Stats()
		if st.CachedAnswers != entries || st.AnswerReplyBytes != replyBytes || st.AnswerBytes != replyBytes+entries*entry {
			t.Fatalf("%s: answers %d, reply bytes %d, answer bytes %d; want %d, %d, %d",
				name, st.CachedAnswers, st.AnswerReplyBytes, st.AnswerBytes, entries, replyBytes, replyBytes+entries*entry)
		}
	}
	late, first := miss(1), miss(1)
	first.Store([]byte("first"))
	late.Store([]byte("late"))
	check("two stores of one key", 1, 5)
	if r := e.lookup(answerKey{prog: 1}, time.Now()); string(r.Bytes) != "first" {
		t.Fatalf("key 1 holds %q, want the first store's", r.Bytes)
	}
	miss(2).Store([]byte("2"))
	miss(3).Store([]byte("3")) // evicts 1
	check("1 evicted", 2, 2)
	late.Store([]byte("late"))
	check("a store after eviction", 2, 5) // evicts 2
	if r := e.lookup(answerKey{prog: 1}, time.Now()); string(r.Bytes) != "late" {
		t.Fatalf("key 1 holds %q, want the late store's", r.Bytes)
	}
}
