package pager

// Regression coverage for incremental checkpoints under a pool far
// smaller than the tree: relocated frames must keep working in memory
// after the commit (pointer remap applies to the resident frames, not
// just the on-disk copies), and recycled slots must not be shadowed by
// stale resident frames.

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"testing"
)

func TestIncrementalCheckpointSmallPool(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages.db")
	if err := WriteCheckpoint(path, 0, []byte("cat"), func(emit func(Key, []byte) error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 280)
	n := 0
	seq := uint64(0)
	for i := 0; i < 500; i++ {
		binary.LittleEndian.PutUint64(val, uint64(i))
		if err := s.Tree().Put(MakeKey(5, uint64(i)), val); err != nil {
			t.Fatal(err)
		}
		n++
		if n%37 == 0 {
			seq++
			if err := s.IncrementalCheckpoint(seq, []byte("cat")); err != nil {
				t.Fatal(err)
			}
		}
		// count keys live
		cnt := 0
		var prev Key
		var have bool
		err := s.Tree().ScanKeys(minKey, maxKey, func(k Key) error {
			if have && !prev.Less(k) {
				return fmt.Errorf("out of order/dup at i=%d key %x", i, k)
			}
			prev, have = k, true
			cnt++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if cnt != n {
			t.Fatalf("after %d puts (live): scan saw %d keys", n, cnt)
		}
	}
	seq++
	if err := s.IncrementalCheckpoint(seq, []byte("cat")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	cnt := 0
	var prev Key
	var have bool
	err = s2.Tree().ScanKeys(minKey, maxKey, func(k Key) error {
		if have && !prev.Less(k) {
			t.Logf("DUP/out-of-order key table=%d rec=%d", k.TableID(), k.RecID())
		}
		prev, have = k, true
		cnt++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cnt != n {
		t.Fatalf("after reopen: scan saw %d keys, want %d", cnt, n)
	}
}
