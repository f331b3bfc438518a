package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/client"
)

// bulkSize sizes bulk-rw: the file is 8× the server's hot budget and
// larger than the client's default 8 MiB data cache, so both caches
// are streamed past.
type bulkSize struct {
	fileBytes int
	hotBytes  uint64
	ckptBytes uint64
}

var (
	bulkFull = bulkSize{fileBytes: 64 << 20, hotBytes: 8 << 20, ckptBytes: 24 << 20}
	// The smoke file still exceeds the client cache, so its reads reach
	// the server.
	bulkSmoke = bulkSize{fileBytes: 12 << 20, hotBytes: 1536 << 10, ckptBytes: 4 << 20}
)

// runBulk writes a large file sequentially in 8 KB calls, Syncs it,
// reads it back sequentially verifying every byte, and removes it —
// whole cycles until the window has passed.
func runBulk(ph phase) (*outcome, error) {
	size := bulkFull
	if ph.rc.smoke {
		size = bulkSmoke
	}
	var d *deployment
	var cl *client.Client
	setup, err := measureSetup(ph.setups, func(i int) (func() error, error) {
		var cls []*client.Client
		var err error
		if d, cls, err = setupFileStack(ph, i, size.hotBytes, size.ckptBytes, 1); err != nil {
			return nil, err
		}
		cl = cls[0]
		return d.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer d.close()
	u := d.users[0]
	rec := ph.rec
	if rec != nil {
		if err := probe(d, u); err != nil {
			return nil, err
		}
	}
	dir := d.root() + "/bulk"
	if err := cl.Mkdir(u.name, dir, 0o755); err != nil {
		return nil, err
	}

	o := newOutcome()
	// Every 8 KB call and Sync, as the application sees it: writes and
	// the Sync that commits them, and reads.
	var writeCalls, readCalls samples
	var writeMBps, readMBps []float64
	var genGap samples
	buf := make([]byte, blockBytes)
	want := make([]byte, blockBytes)
	var written, read float64
	win := openWindow(d, cl)
	deadline := win.t0.Add(ph.dur)
	// Each cycle is one sub-window of the end-to-end figures.
	var bounds []time.Time
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		bounds = append(bounds, time.Now())
		key := contentKey(ph.rc.seed, uint64(cycle), 0)
		path := fmt.Sprintf("%s/f%d", dir, cycle)
		f, err := cl.Create(u.name, path, 0o644)
		o.attempted++
		if err != nil {
			o.fail(err)
			continue
		}
		// Write phase: user bytes over the time until COMMIT is acked.
		t0 := time.Now()
		last := t0
		ok := true
		for off := 0; off < size.fileBytes; off += blockBytes {
			fillAt(buf, key, uint64(off))
			sp := rec.start("op.write", nil)
			start := time.Now()
			genGap.add(start.Sub(last))
			err := rec.timed("client.writeat", sp, func() error {
				_, err := f.WriteAt(buf, uint64(off))
				return err
			})
			last = time.Now()
			rec.end(sp)
			writeCalls.add(last.Sub(start))
			o.attempted++
			if err != nil {
				o.fail(err)
				ok = false
				break
			}
		}
		if ok {
			sp := rec.start("op.sync", nil)
			start := time.Now()
			err := rec.timed("client.sync", sp, f.Sync)
			last = time.Now()
			rec.end(sp)
			writeCalls.add(last.Sub(start))
			o.attempted++
			if err != nil {
				o.fail(err)
				ok = false
			}
		}
		f.Close()
		if !ok {
			continue
		}
		writeMBps = append(writeMBps, float64(size.fileBytes)/1e6/last.Sub(t0).Seconds())
		written += float64(size.fileBytes)

		// Read phase: sequential 8 KB reads, every byte verified.
		if f, err = cl.Open(u.name, path); err != nil {
			o.attempted++
			o.fail(err)
			continue
		}
		t0 = time.Now()
		last = t0
		for off := 0; off < size.fileBytes; off += blockBytes {
			sp := rec.start("op.read", nil)
			start := time.Now()
			genGap.add(start.Sub(last))
			var n int
			err := rec.timed("client.readat", sp, func() error {
				var err error
				n, err = f.ReadAt(buf, uint64(off))
				return err
			})
			end := time.Now()
			readCalls.add(end.Sub(start))
			o.attempted++
			if err == nil {
				fillAt(want, key, uint64(off))
				if n != blockBytes || !bytes.Equal(buf, want) {
					err = fmt.Errorf("%s at %d: %w", path, off, errWrongData)
				}
			}
			rec.end(sp)
			last = time.Now()
			if err != nil {
				o.fail(err)
				ok = false
				break
			}
		}
		f.Close()
		if ok {
			readMBps = append(readMBps, float64(size.fileBytes)/1e6/last.Sub(t0).Seconds())
			read += float64(size.fileBytes)
		}
		o.attempted++
		if err := cl.Remove(u.name, path); err != nil {
			o.fail(err)
		}
	}
	bounds = append(bounds, time.Now())
	b := win.close()

	endToEnd(o, setup, bounds, win, []*samples{&writeCalls}, []*samples{&readCalls})
	all := merged(&writeCalls, &readCalls)
	o.detail["write_MBps"] = stat{Value: medianFloat(writeMBps), Unit: "MB/s", N: len(writeMBps)}
	o.detail["read_MBps"] = stat{Value: medianFloat(readMBps), Unit: "MB/s", N: len(readMBps)}
	if rec != nil {
		o.layers = layerMetrics(rec, win.a, b, work{
			ops: len(all), userWritten: written, userRead: read,
			genLate: merged(&genGap),
		})
	}
	return o, nil
}
