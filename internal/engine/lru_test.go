package engine

import "testing"

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
		got.hits, got.misses, got.evictions, got.entries, got.bytes, _ = c.stats(nil)
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
	// A charge added to an entry evicts from the tail: d, then a itself.
	c.swap("a", &vals[0], &vals[1], lruEntryBytes+20)
	check("a grew past d", lruStats{hits: 3, misses: 2, evictions: 3, entries: 1, bytes: 2*lruEntryBytes + 30})
	c.swap("a", &vals[0], &vals[2], lruEntryBytes) // a no longer holds vals[0]
	check("a swap of a value no longer stored", lruStats{hits: 3, misses: 2, evictions: 3, entries: 1, bytes: 2*lruEntryBytes + 30})
	if v, _ := c.get("a"); v != &vals[1] {
		t.Fatal("swap did not replace a's value")
	}
	c.swap("a", &vals[1], &vals[2], 2*lruEntryBytes)
	check("a alone past the bound", lruStats{hits: 4, misses: 2, evictions: 4})
}

// TestReplyFillAfterEviction: a Fill stores only while its entry is the
// one in the memo; one that lands after the entry left stores nothing,
// even once its key is back.
func TestReplyFillAfterEviction(t *testing.T) {
	e := New(Config{Workers: 1})
	e.answers = newLRU[answerKey, *answer](2 * lruEntryBytes)
	put := func(prog uint64) {
		e.answers.put(answerKey{prog: prog}, &answer{key: answerKey{prog: prog}}, 0)
	}
	put(1)
	_, reply := e.getAnswer(answerKey{prog: 1})
	put(2)
	put(3) // evicts 1
	put(1)
	reply.Fill([]byte("late"))
	if a, _ := e.getAnswer(answerKey{prog: 1}); a.reply != nil {
		t.Fatalf("a late Fill stored %q", a.reply)
	}
	if st := e.Stats(); st.AnswerReplyBytes != 0 || st.AnswerBytes != 2*lruEntryBytes {
		t.Fatalf("reply bytes %d, answer bytes %d; want 0 and %d", st.AnswerReplyBytes, st.AnswerBytes, 2*lruEntryBytes)
	}
	_, reply = e.getAnswer(answerKey{prog: 1})
	reply.Fill([]byte("reply"))
	if st := e.Stats(); st.AnswerReplyBytes != 5 || st.AnswerBytes != lruEntryBytes+5 {
		t.Fatalf("reply bytes %d, answer bytes %d; want 5 and %d (the fill evicts 3)", st.AnswerReplyBytes, st.AnswerBytes, lruEntryBytes+5)
	}
}
