package sunrpc

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/xdr"
)

// sink is an io.Writer that discards while defeating dead-code
// elimination of the framed bytes.
type sink struct{ n int }

func (s *sink) Write(p []byte) (int, error) { s.n += len(p); return len(p), nil }

// BenchmarkWriteRecord measures framing one NFS-READ-sized payload
// through WriteRecordEncoder's flat path — the per-message allocation
// cost of the record-marking layer.
func BenchmarkWriteRecord(b *testing.B) {
	payload := make([]byte, 8192)
	e := &xdr.Encoder{}
	e.PutFixedOpaque(payload)
	w := &sink{}
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteRecordEncoder(w, e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadRecord measures reassembling one framed record. The
// returned record is caller-owned, so exactly one allocation per
// record is inherent; the baseline paid two plus a copy.
func BenchmarkReadRecord(b *testing.B) {
	payload := make([]byte, 8192)
	var framed bytes.Buffer
	if err := writeRecord(&framed, payload); err != nil {
		b.Fatal(err)
	}
	raw := framed.Bytes()
	r := bytes.NewReader(raw)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(raw)
		rec, err := ReadRecord(r)
		if err != nil {
			b.Fatal(err)
		}
		if len(rec) != len(payload) {
			b.Fatalf("got %d bytes", len(rec))
		}
	}
}

// BenchmarkRoundTrip measures a full in-process call through the
// client and server: encode, frame, dispatch, reply, decode.
func BenchmarkRoundTrip(b *testing.B) {
	srv := NewServer()
	srv.Register(7, 1, func(proc uint32, cred OpaqueAuth, args *xdr.Decoder) (interface{}, error) {
		var in []byte
		if err := args.Decode(&in); err != nil {
			return nil, ErrGarbageArgs
		}
		return in, nil
	})
	c1, c2 := net.Pipe()
	go srv.ServeConn(c2) //nolint:errcheck
	cl := NewClient(c1)
	defer cl.Close()
	payload := make([]byte, 8192)
	var res []byte
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Call(7, 1, 1, NoAuth(), payload, &res); err != nil {
			b.Fatal(err)
		}
	}
}
