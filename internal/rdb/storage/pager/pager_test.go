package pager

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// freshStore checkpoints an empty image and opens it.
func freshStore(t *testing.T, poolPages int) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pages.db")
	if err := WriteCheckpoint(path, 0, nil, func(emit func(Key, []byte) error) error { return nil }); err != nil {
		t.Fatalf("create: %v", err)
	}
	s, err := Open(path, poolPages)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func val(i int, size int) []byte {
	b := bytes.Repeat([]byte{byte(i), byte(i >> 8)}, (size+1)/2)
	return append(b[:size:size], []byte(fmt.Sprintf("|rec=%d", i))...)
}

func TestBTreePutGetScan(t *testing.T) {
	s, _ := freshStore(t, 0)
	tree := s.Tree()

	const n = 5000
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(n)
	want := make(map[uint64][]byte, n)
	for _, i := range perm {
		size := 1 + (i*37)%200
		if i%101 == 0 {
			size = MaxInline + 1 + i // force overflow chains
		}
		v := val(i, size)
		want[uint64(i)] = v
		if err := tree.Put(MakeKey(3, uint64(i)), v); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Point lookups, including across table boundaries. AppendString keeps
	// every value in one builder; each substring must survive the
	// builder's growth.
	var b strings.Builder
	kept := map[int]string{}
	for i := 0; i < n; i += 97 {
		v, ok, err := tree.Get(MakeKey(3, uint64(i)))
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(v, want[uint64(i)]) {
			t.Fatalf("get %d: value mismatch (%d vs %d bytes)", i, len(v), len(want[uint64(i)]))
		}
		start := b.Len()
		if ok, err := tree.AppendString(MakeKey(3, uint64(i)), &b); err != nil || !ok {
			t.Fatalf("append string %d: ok=%v err=%v", i, ok, err)
		}
		kept[i] = b.String()[start:]
	}
	for i, sv := range kept {
		if sv != string(want[uint64(i)]) {
			t.Fatalf("append string %d: the kept substring no longer equals Get's value", i)
		}
	}
	if _, ok, _ := tree.Get(MakeKey(2, 5)); ok {
		t.Fatal("lookup in absent table should miss")
	}
	if _, ok, _ := tree.Get(MakeKey(3, n+1)); ok {
		t.Fatal("absent record should miss")
	}
	before := b.Len()
	if ok, _ := tree.AppendString(MakeKey(3, n+1), &b); ok || b.Len() != before {
		t.Fatal("absent record should miss AppendString and append nothing")
	}
	// Ordered scan covers everything exactly once, ascending.
	lo, hi := TableBounds(3)
	got := 0
	last := int64(-1)
	err := tree.Scan(lo, hi, func(k Key, v []byte) error {
		if int64(k.RecID()) <= last {
			return fmt.Errorf("scan out of order at %d", k.RecID())
		}
		last = int64(k.RecID())
		if !bytes.Equal(v, want[k.RecID()]) {
			return fmt.Errorf("scan value mismatch at %d", k.RecID())
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("scan saw %d records, want %d", got, n)
	}
}

func TestBTreeUpdateAndDelete(t *testing.T) {
	s, _ := freshStore(t, 0)
	tree := s.Tree()
	const n = 1200
	for i := 0; i < n; i++ {
		if err := tree.Put(MakeKey(1, uint64(i)), val(i, 50)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite every third with a larger value (some spill to overflow).
	for i := 0; i < n; i += 3 {
		if err := tree.Put(MakeKey(1, uint64(i)), val(i, 900+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete every fifth.
	for i := 0; i < n; i += 5 {
		ok, err := tree.Delete(MakeKey(1, uint64(i)))
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	if ok, _ := tree.Delete(MakeKey(1, 5)); ok {
		t.Fatal("double delete should report absent")
	}
	for i := 0; i < n; i++ {
		v, ok, err := tree.Get(MakeKey(1, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case i%5 == 0:
			if ok {
				t.Fatalf("deleted %d still present", i)
			}
		case i%3 == 0:
			if !ok || len(v) < 900 {
				t.Fatalf("updated %d: ok=%v len=%d", i, ok, len(v))
			}
		default:
			if !ok || !bytes.Equal(v, val(i, 50)) {
				t.Fatalf("record %d: ok=%v", i, ok)
			}
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	s, path := freshStore(t, 0)
	tree := s.Tree()
	const n = 3000
	for i := 0; i < n; i++ {
		size := 40 + i%300
		if i%77 == 0 {
			size = MaxInline * 3
		}
		if err := tree.Put(MakeKey(9, uint64(i)), val(i, size)); err != nil {
			t.Fatal(err)
		}
	}
	catalog := []byte("schema-blob-" + string(bytes.Repeat([]byte{'x'}, 9000)))
	err := WriteCheckpoint(path, 42, catalog, func(emit func(Key, []byte) error) error {
		return tree.Scan(MinKey, MaxKey, emit)
	})
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	s.Close()

	s2, err := Open(path, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Meta().CheckpointSeq != 42 {
		t.Fatalf("seq=%d want 42", s2.Meta().CheckpointSeq)
	}
	cat, err := s2.Catalog()
	if err != nil || !bytes.Equal(cat, catalog) {
		t.Fatalf("catalog round trip failed: %v (%d vs %d bytes)", err, len(cat), len(catalog))
	}
	got := 0
	err = s2.Tree().Scan(MinKey, MaxKey, func(k Key, v []byte) error {
		want := val(int(k.RecID()), 40+int(k.RecID())%300)
		if k.RecID()%77 == 0 {
			want = val(int(k.RecID()), MaxInline*3)
		}
		if !bytes.Equal(v, want) {
			return fmt.Errorf("record %d mismatch after checkpoint", k.RecID())
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("checkpoint image holds %d records, want %d", got, n)
	}
	// The rewritten image must also accept further mutation.
	if err := s2.Tree().Put(MakeKey(9, n+1), []byte("post-checkpoint")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s2.Tree().Get(MakeKey(9, n+1))
	if err != nil || !ok || string(v) != "post-checkpoint" {
		t.Fatalf("post-checkpoint insert: %q ok=%v err=%v", v, ok, err)
	}
}

func TestCheckpointAtomicReplace(t *testing.T) {
	s, path := freshStore(t, 0)
	tree := s.Tree()
	for i := 0; i < 100; i++ {
		if err := tree.Put(MakeKey(1, uint64(i)), val(i, 60)); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteCheckpoint(path, 7, []byte("cat"), func(emit func(Key, []byte) error) error {
		return tree.Scan(MinKey, MaxKey, emit)
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
	s2, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	count := 0
	s2.Tree().Scan(MinKey, MaxKey, func(Key, []byte) error { count++; return nil })
	if count != 100 {
		t.Fatalf("replaced image has %d records", count)
	}
}

func TestPoolEvictionAndStats(t *testing.T) {
	s, path := freshStore(t, 0)
	tree := s.Tree()
	const n = 20000 // enough pages to exceed a tiny pool
	for i := 0; i < n; i++ {
		if err := tree.Put(MakeKey(1, uint64(i)), val(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteCheckpoint(path, 1, nil, func(emit func(Key, []byte) error) error {
		return tree.Scan(MinKey, MaxKey, emit)
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(path, 16) // 16-page pool vs ~600 leaf pages
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < n; i += 500 {
		if _, ok, err := s2.Tree().Get(MakeKey(1, uint64(i))); !ok || err != nil {
			t.Fatalf("get %d through small pool: ok=%v err=%v", i, ok, err)
		}
	}
	st := s2.PoolStats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions with a 16-page pool: %+v", st)
	}
	if st.Resident > 16+4 { // pinned/dirty slack
		t.Fatalf("pool grew past cap: %+v", st)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected both hits and misses: %+v", st)
	}
	// Repeated hot lookups should now be mostly hits.
	before := s2.PoolStats()
	for i := 0; i < 50; i++ {
		s2.Tree().Get(MakeKey(1, 42))
	}
	after := s2.PoolStats()
	if after.Hits-before.Hits < 50 {
		t.Fatalf("hot lookup not served from pool: %+v -> %+v", before, after)
	}
}

func TestMetaCorruptionDetected(t *testing.T) {
	_, path := freshStore(t, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xFF // inside checkpointSeq, covered by the meta CRC
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 0); err == nil {
		t.Fatal("corrupt meta page should fail to open")
	}
}

func TestKeyOrdering(t *testing.T) {
	ks := []Key{
		MakeKey(0, 0), MakeKey(0, 1), MakeKey(0, ^uint64(0)),
		MakeKey(1, 0), MakeKey(1, 5), MakeKey(2, 0),
	}
	for i := 1; i < len(ks); i++ {
		if !ks[i-1].Less(ks[i]) {
			t.Fatalf("key %d not less than key %d", i-1, i)
		}
	}
	k := MakeKey(7, 1234567890123)
	if k.TableID() != 7 || k.RecID() != 1234567890123 {
		t.Fatalf("round trip: table=%d rec=%d", k.TableID(), k.RecID())
	}
}
