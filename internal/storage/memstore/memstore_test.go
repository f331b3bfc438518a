package memstore

import (
	"bytes"
	"testing"
)

func readT(t *testing.T, s *Store, id, off uint64, n int) []byte {
	t.Helper()
	p := make([]byte, n)
	if err := s.ReadAt(id, off, p); err != nil {
		t.Fatalf("ReadAt(%d, %d, %d): %v", id, off, n, err)
	}
	return p
}

func TestWriteReadTruncate(t *testing.T) {
	s := New()
	if err := s.WriteAt(1, 4, []byte("hello"), true, 0); err != nil {
		t.Fatal(err)
	}
	// The gap before the write zero-fills.
	if got := readT(t, s, 1, 0, 9); !bytes.Equal(got, append(make([]byte, 4), "hello"...)) {
		t.Fatalf("read = %q", got)
	}
	if err := s.Truncate(1, 6); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadAt(1, 0, make([]byte, 9)); err == nil {
		t.Fatal("read beyond truncated extent succeeded")
	}
	if err := s.Truncate(1, 8); err != nil {
		t.Fatal(err)
	}
	// Growing truncate zero-fills too.
	if got := readT(t, s, 1, 4, 4); !bytes.Equal(got, []byte{'h', 'e', 0, 0}) {
		t.Fatalf("after grow: read = %q", got)
	}
	if err := s.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadAt(1, 0, make([]byte, 1)); err == nil {
		t.Fatal("read of removed id succeeded")
	}
}
