package secchan

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/crypto/arc4"
	"repro/internal/crypto/sha1mac"
	"repro/internal/xdr"
)

// allocBytes reports the bytes the process allocated while f ran.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// frame wraps payload in one last-fragment record header.
func frame(payload []byte) []byte {
	rec := binary.BigEndian.AppendUint32(nil, uint32(len(payload))|0x80000000)
	return append(rec, payload...)
}

// amplifiedConnect is a 72-byte SFS_CONNECT whose Extensions count
// claims 0x00FFFFFF strings: 256 MB of string headers if the decoder
// sized the slice from the count alone.
func amplifiedConnect(t testing.TB) []byte {
	t.Helper()
	msg, err := xdr.Marshal(ConnectRequest{
		Tag: "SFS_CONNECT", Service: 1, Version: 1,
		Location: "files.example.com", Extensions: []string{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(msg) != 72 {
		t.Fatalf("connect message is %d bytes, want 72", len(msg))
	}
	binary.BigEndian.PutUint32(msg[len(msg)-4:], 0x00FFFFFF)
	return frame(msg)
}

// TestConnectCountAmplification: the master decodes the clear-text
// hello of any TCP peer before key exchange, so a small hello must
// cost small memory whatever element count it declares.
func TestConnectCountAmplification(t *testing.T) {
	in := amplifiedConnect(t)
	readers := map[string]func() error{
		"ReadConnect": func() error { _, err := ReadConnect(bytes.NewReader(in)); return err },
		"ReadHello":   func() error { _, err := ReadHello(bytes.NewReader(in)); return err },
	}
	for name, read := range readers {
		var err error
		n := allocBytes(func() { err = read() })
		if err == nil {
			t.Errorf("%s accepted a %d-byte hello claiming 16M extensions", name, len(in))
		}
		if n >= 1<<20 {
			t.Errorf("%s allocated %d bytes for a %d-byte hello", name, n, len(in))
		}
	}
}

// readOnly is a transport that serves fixed bytes and discards writes.
type readOnly struct{ *bytes.Reader }

func (readOnly) Write(p []byte) (int, error) { return len(p), nil }
func (readOnly) Close() error                { return nil }

// TestSealedHeaderOnly: a sealed record's length is only authenticated
// by the MAC at its end, so a peer holding the session keys (or a
// corrupted stream) can declare MaxRecord and send nothing more. The
// channel must not reserve the declared size before the bytes arrive.
func TestSealedHeaderOnly(t *testing.T) {
	keyCS, keySC := bytes.Repeat([]byte{1}, 20), bytes.Repeat([]byte{2}, 20)
	hdr := binary.BigEndian.AppendUint32(nil, MaxRecord)
	raw := readOnly{bytes.NewReader(hdr)}
	c, err := newConn(raw, keyCS, keySC, false)
	if err != nil {
		t.Fatal(err)
	}
	// Seal the header the way the client's send side would: MAC key
	// first, then the length under the keystream when encrypting. hdr
	// backs the transport's reader, so sealing it in place seals what
	// the channel reads.
	ks, err := arc4.New(keyCS)
	if err != nil {
		t.Fatal(err)
	}
	ks.Skip(sha1mac.KeySize)
	if c.encrypt {
		ks.XORKeyStream(hdr, hdr)
	}
	n := allocBytes(func() { _, err = c.Read(make([]byte, 1)) })
	if err == nil {
		t.Error("header-only sealed record accepted")
	}
	if n >= 1<<20 {
		t.Errorf("sealed header claiming %d bytes cost %d bytes", MaxRecord, n)
	}
}

// FuzzReadHello drives the master's first read of a connection — an
// SFS_CONNECT or SFS_RESUME hello from an unauthenticated peer.
// Invariants: no panic; an accepted hello re-encodes to the record's
// exact payload; allocation stays within the record reader's first
// chunk plus a small multiple of the input.
func FuzzReadHello(f *testing.F) {
	connect, err := xdr.Marshal(ConnectRequest{
		Tag: "SFS_CONNECT", Service: 1, Version: 1,
		Location: "files.example.com", Extensions: []string{"ext"},
	})
	if err != nil {
		f.Fatal(err)
	}
	resume, err := xdr.Marshal(ResumeRequest{
		Tag: "SFS_RESUME", Service: 1, Version: 1,
		Location: "files.example.com", Extensions: []string{},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame(connect))
	f.Add(frame(resume))
	f.Add(amplifiedConnect(f))
	f.Fuzz(func(t *testing.T, in []byte) {
		var h *Hello
		var err error
		n := allocBytes(func() { h, err = ReadHello(bytes.NewReader(in)) })
		if limit := uint64(128<<10 + 32*len(in)); n > limit {
			t.Fatalf("ReadHello allocated %d bytes for %d input bytes (limit %d)", n, len(in), limit)
		}
		if err != nil {
			return
		}
		m, err := readRecordPooled(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("ReadHello accepted a record readRecordPooled rejects: %v", err)
		}
		defer putMsgBuf(m)
		var v interface{}
		if h.Connect != nil {
			v = *h.Connect
		} else {
			v = *h.Resume
		}
		re, err := xdr.Marshal(v)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", v, err)
		}
		if !bytes.Equal(re, m.b) {
			t.Fatalf("hello re-encodes to %x, record payload was %x", re, m.b)
		}
	})
}
