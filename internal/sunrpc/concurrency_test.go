package sunrpc

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/xdr"
)

// callRecord hand-rolls one framed call so tests can watch raw reply
// ordering on the wire, below the XID-matching of Client.
func callRecord(t *testing.T, xid, proc uint32) []byte {
	t.Helper()
	e := &xdr.Encoder{}
	e.PutUint32(xid)
	e.PutUint32(msgCall)
	if err := e.Encode(callHeader{
		RPCVers: RPCVersion,
		Prog:    testProg,
		Vers:    testVers,
		Proc:    proc,
		Cred:    NoAuth(),
		Verf:    NoAuth(),
	}); err != nil {
		t.Fatal(err)
	}
	return e.Bytes()
}

// gateServer registers a handler where proc 10 blocks until gate is
// closed and proc 11 returns immediately.
func gateServer(t *testing.T) (*Server, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	srv := NewServer()
	srv.Register(testProg, testVers, func(proc uint32, cred OpaqueAuth, args *xdr.Decoder) (interface{}, error) {
		switch proc {
		case 10:
			<-gate
			return uint32(10), nil
		case 11:
			return uint32(11), nil
		}
		return nil, ErrProcUnavail
	})
	return srv, gate
}

func replyXID(t *testing.T, conn net.Conn) uint32 {
	t.Helper()
	rec, err := ReadRecord(conn)
	if err != nil {
		t.Fatal(err)
	}
	return binary.BigEndian.Uint32(rec)
}

// TestOutOfOrderReplies: with concurrent dispatch, a fast call issued
// after a stalled one overtakes it on the wire — XIDs disambiguate.
func TestOutOfOrderReplies(t *testing.T) {
	srv, gate := gateServer(t)
	c1, c2 := net.Pipe()
	defer c1.Close()
	go srv.ServeConn(c2)                                          //nolint:errcheck
	if err := writeRecord(c1, callRecord(t, 1, 10)); err != nil { // stalls
		t.Fatal(err)
	}
	if err := writeRecord(c1, callRecord(t, 2, 11)); err != nil { // fast
		t.Fatal(err)
	}
	if xid := replyXID(t, c1); xid != 2 {
		t.Fatalf("first reply xid = %d, want the fast call (2)", xid)
	}
	close(gate)
	if xid := replyXID(t, c1); xid != 1 {
		t.Fatalf("second reply xid = %d, want the stalled call (1)", xid)
	}
}

// TestServeConnContract: ServeConn returns only after every in-flight
// handler has finished (its reply still reaches a half-closed peer),
// returns nil on EOF, closes the connection, and counts every record
// it discards — short records and stray replies — in Dropped.
func TestServeConnContract(t *testing.T) {
	srv, gate := gateServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			served <- err
			return
		}
		served <- srv.ServeConn(c)
	}()
	cl, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stray := make([]byte, 8) // xid 0, msgReply: a reply nobody asked for
	binary.BigEndian.PutUint32(stray[4:], msgReply)
	for _, rec := range [][]byte{callRecord(t, 1, 10), {1, 2, 3}, stray} {
		if err := writeRecord(cl, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		t.Fatalf("ServeConn returned %v with a handler still running", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeConn on EOF = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return after its last handler finished")
	}
	if xid := replyXID(t, cl); xid != 1 {
		t.Fatalf("reply xid = %d, want 1", xid)
	}
	if _, err := ReadRecord(cl); !errors.Is(err, io.EOF) {
		t.Fatalf("read after ServeConn returned: %v, want EOF (conn closed)", err)
	}
	if n := srv.Metrics().Dropped.Load(); n != 2 {
		t.Fatalf("Dropped = %d, want 2 (short record + stray reply)", n)
	}
}

// TestUnencodableReplyFailsCaller: when a handler's result cannot be
// encoded, the server ends the connection, so the caller gets an
// error instead of waiting forever — on a ServeConn server and on a
// NewPeer duplex server alike.
func TestUnencodableReplyFailsCaller(t *testing.T) {
	serve := map[string]func(*testing.T, *Server, net.Conn) <-chan error{
		"ServeConn": func(_ *testing.T, srv *Server, c net.Conn) <-chan error {
			done := make(chan error, 1)
			go func() { done <- srv.ServeConn(c) }()
			return done
		},
		"NewPeer": func(t *testing.T, srv *Server, c net.Conn) <-chan error {
			p := NewPeer(c, srv)
			t.Cleanup(func() { p.Close() })
			return nil
		},
	}
	for name, start := range serve {
		t.Run(name, func(t *testing.T) {
			srv := NewServer()
			srv.Register(testProg, testVers, func(uint32, OpaqueAuth, *xdr.Decoder) (interface{}, error) {
				return make(chan int), nil // xdr has no encoding for a channel
			})
			c1, c2 := net.Pipe()
			done := start(t, srv, c2)
			cl := NewClient(c1)
			defer cl.Close()
			called := make(chan error, 1)
			go func() { called <- cl.Call(testProg, testVers, 1, NoAuth(), nil, nil) }()
			select {
			case err := <-called:
				if err == nil {
					t.Fatal("call with an unencodable reply succeeded")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("caller hung on an unencodable reply")
			}
			if done != nil {
				if err := <-done; err == nil {
					t.Fatal("ServeConn returned nil after an encode failure")
				}
			}
			if n := srv.Metrics().Errors.Load(); n != 1 {
				t.Fatalf("Errors = %d, want 1", n)
			}
		})
	}
}

// TestConcurrentCallsOneClient issues many concurrent calls through
// one Client over one connection; every reply must match its call.
func TestConcurrentCallsOneClient(t *testing.T) {
	cl, _ := newTestPair(t)
	const n = 64
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			var res echoRes
			err := cl.Call(testProg, testVers, 1, NoAuth(), echoArgs{N: uint32(i), Msg: "m"}, &res)
			if err == nil && res.N != uint32(i)+1 {
				err = errReplyMismatch{want: uint32(i) + 1, got: res.N}
			}
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

type errReplyMismatch struct{ want, got uint32 }

func (e errReplyMismatch) Error() string {
	return "reply mismatch"
}
