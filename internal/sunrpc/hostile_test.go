package sunrpc

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// allocBytes reports the bytes the process allocated while f ran.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// headerOnly is a record header declaring MaxRecord bytes with none of
// them following — what a peer sends to make a reader reserve memory.
func headerOnly() []byte {
	return binary.BigEndian.AppendUint32(nil, MaxRecord|0x80000000)
}

// TestReadRecordHeaderOnly: sfsro replicas read records from any TCP
// peer, so a 4-byte header must not cost the memory it declares.
func TestReadRecordHeaderOnly(t *testing.T) {
	in := headerOnly()
	var err error
	n := allocBytes(func() { _, err = ReadRecord(bytes.NewReader(in)) })
	if err == nil {
		t.Error("header-only record accepted")
	}
	if n >= 1<<20 {
		t.Errorf("ReadRecord allocated %d bytes for a %d-byte header", n, len(in))
	}
}

// FuzzReadRecord drives record-marking reassembly with arbitrary
// bytes. Invariants: no panic; an accepted record, re-framed with the
// input's own fragment sizes, reproduces the bytes read; allocation
// stays within firstChunk plus a small multiple of the input (and a
// little for the pooled header scratch, the reader and error values).
func FuzzReadRecord(f *testing.F) {
	var one, two bytes.Buffer
	writeRecord(&one, []byte("one fragment")) //nolint:errcheck
	two.Write([]byte{0x00, 0x00, 0x00, 0x03, 'a', 'b', 'c'})
	two.Write([]byte{0x80, 0x00, 0x00, 0x02, 'd', 'e'})
	f.Add(one.Bytes())
	f.Add(two.Bytes())
	f.Add(headerOnly())
	f.Fuzz(func(t *testing.T, in []byte) {
		var rec []byte
		var err error
		n := allocBytes(func() { rec, err = ReadRecord(bytes.NewReader(in)) })
		if limit := uint64(firstChunk + 16<<10 + 8*len(in)); n > limit {
			t.Fatalf("ReadRecord allocated %d bytes for %d input bytes (limit %d)", n, len(in), limit)
		}
		if err != nil {
			return
		}
		var re []byte
		rest := rec
		for off := 0; ; {
			h := binary.BigEndian.Uint32(in[off:])
			size := int(h & 0x7fffffff)
			if size > len(rest) {
				t.Fatalf("record of %d bytes is short of its fragments", len(rec))
			}
			re = binary.BigEndian.AppendUint32(re, h)
			re = append(re, rest[:size]...)
			rest = rest[size:]
			off += 4 + size
			if h&0x80000000 != 0 {
				break
			}
		}
		if len(rest) != 0 || !bytes.Equal(re, in[:len(re)]) {
			t.Fatalf("record %x re-frames to %x, input was %x", rec, re, in)
		}
	})
}
