package main

// Forwarding wrappers for the traced run. Each one times calls into
// the layer below and forwards every optional interface the wrapped
// value implements, because the layers above pick code paths by type
// assertion: a store wrapper that hid storage.ClockedStore would send
// vfs down its unclocked path, one that hid storage.Checkpointer would
// switch background checkpoints off. The untraced runs use the store
// and connections unwrapped.

import (
	"net"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/sunrpc"
)

// tracedStore forwards to a disk store, recording a span per call.
type tracedStore struct {
	s   *diskstore.Store
	rec *recorder
	// corrupt flips one bit of every ReadAt result; the self-test
	// sets it to prove the benchmark catches wrong data.
	corrupt atomic.Bool
}

var (
	_ storage.MetadataStore  = (*tracedStore)(nil)
	_ storage.BlockStore     = (*tracedStore)(nil)
	_ storage.Replayer       = (*tracedStore)(nil)
	_ storage.Watermarker    = (*tracedStore)(nil)
	_ storage.Checkpointer   = (*tracedStore)(nil)
	_ storage.ClockedStore   = (*tracedStore)(nil)
	_ storage.StatsReporter  = (*tracedStore)(nil)
	_ storage.Epocher        = (*tracedStore)(nil)
	_ storage.CrashRestarter = (*tracedStore)(nil)
)

func (t *tracedStore) LogMeta(rec *storage.MetaRecord) error {
	return t.rec.timed("store.logmeta", nil, func() error { return t.s.LogMeta(rec) })
}

func (t *tracedStore) Close() error { return t.s.Close() }

func (t *tracedStore) ReadAt(id, off uint64, p []byte) error {
	err := t.rec.timed("store.readat", nil, func() error { return t.s.ReadAt(id, off, p) })
	if t.corrupt.Load() && err == nil && len(p) > 0 {
		p[len(p)/2] ^= 0x01
	}
	return err
}

func (t *tracedStore) WriteAt(id, off uint64, data []byte, stable bool, tm int64) error {
	return t.rec.timed("store.writeat", nil, func() error { return t.s.WriteAt(id, off, data, stable, tm) })
}

func (t *tracedStore) Truncate(id, size uint64) error {
	return t.rec.timed("store.truncate", nil, func() error { return t.s.Truncate(id, size) })
}

func (t *tracedStore) Commit(id uint64) error {
	return t.rec.timed("store.commit", nil, func() error { return t.s.Commit(id) })
}

func (t *tracedStore) Remove(id uint64) error {
	return t.rec.timed("store.remove", nil, func() error { return t.s.Remove(id) })
}

func (t *tracedStore) Replay(apply func(storage.Record) error) (storage.ReplayStats, error) {
	return t.s.Replay(apply)
}

func (t *tracedStore) Watermarks() (nextID, nextCookie uint64) { return t.s.Watermarks() }

func (t *tracedStore) Checkpoint(nextID, nextCookie uint64, snapshot func(emit func(*storage.NodeRecord) error) error) (storage.CheckpointStats, error) {
	var st storage.CheckpointStats
	err := t.rec.timed("store.checkpoint", nil, func() error {
		var err error
		st, err = t.s.Checkpoint(nextID, nextCookie, snapshot)
		return err
	})
	return st, err
}

func (t *tracedStore) WALSizeBytes() uint64 { return t.s.WALSizeBytes() }

func (t *tracedStore) WriteAtClocked(id, off uint64, data []byte, stable bool, tm int64, clk *stats.StageClock) error {
	return t.rec.timed("store.writeat", nil, func() error { return t.s.WriteAtClocked(id, off, data, stable, tm, clk) })
}

func (t *tracedStore) CommitClocked(id uint64, clk *stats.StageClock) error {
	return t.rec.timed("store.commit", nil, func() error { return t.s.CommitClocked(id, clk) })
}

func (t *tracedStore) StorageStats() *storage.Stats { return t.s.StorageStats() }
func (t *tracedStore) Epoch() uint64                { return t.s.Epoch() }
func (t *tracedStore) CrashRestart() error          { return t.s.CrashRestart() }

// wireStats totals what the traced connections carried.
type wireStats struct {
	bytes  atomic.Uint64 // bytes written, both ends
	writes atomic.Uint64 // Write calls, both ends
	busyNS atomic.Int64  // time inside Write
}

// tracedConn times and counts writes on one end of a connection.
type tracedConn struct {
	net.Conn
	rec *recorder
	ws  *wireStats
}

func (c *tracedConn) Write(p []byte) (int, error) {
	sp := c.rec.start("wire.write", nil)
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.ws.busyNS.Add(int64(time.Since(t0)))
	c.rec.end(sp)
	c.ws.writes.Add(1)
	c.ws.bytes.Add(uint64(n))
	return n, err
}

// tracedSegConn additionally forwards vectored writes when the
// wrapped transport offers them, so the secure channel keeps its
// zero-copy path.
type tracedSegConn struct {
	*tracedConn
	sw sunrpc.SegmentWriter
}

func (c *tracedSegConn) WriteSegments(segs [][]byte) (int, int, error) {
	sp := c.rec.start("wire.write", nil)
	t0 := time.Now()
	n, copied, err := c.sw.WriteSegments(segs)
	c.ws.busyNS.Add(int64(time.Since(t0)))
	c.rec.end(sp)
	c.ws.writes.Add(1)
	c.ws.bytes.Add(uint64(n))
	return n, copied, err
}

func wrapConn(c net.Conn, rec *recorder, ws *wireStats) net.Conn {
	tc := &tracedConn{Conn: c, rec: rec, ws: ws}
	if sw, ok := c.(sunrpc.SegmentWriter); ok {
		return &tracedSegConn{tracedConn: tc, sw: sw}
	}
	return tc
}

// tracedListener wraps every accepted connection.
type tracedListener struct {
	net.Listener
	rec *recorder
	ws  *wireStats
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return wrapConn(c, l.rec, l.ws), nil
}
