package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/storage/diskstore"
)

// smallSize sizes small-files. The dataset — each client's own files,
// the shared directory's stable files and both clients' files there —
// fits both the server's hot budget and each client's data cache.
type smallSize struct {
	ownSlots     int // file slots in each client's own directory
	sharedStable int // files in the shared directory nobody removes
	sharedSlots  int // file slots per client in the shared directory
	ckptBytes    uint64
}

var (
	smallFull  = smallSize{ownSlots: 900, sharedStable: 200, sharedSlots: 100, ckptBytes: 4 << 20}
	smallSmoke = smallSize{ownSlots: 40, sharedStable: 10, sharedSlots: 10, ckptBytes: 256 << 10}
)

const (
	smallClients = 2   // closed-loop client daemons, one per core
	slotFill     = 0.9 // share of slots holding a file after prefill
	minFile      = 1 << 10
	maxFile      = 16 << 10
)

// The op mix, as cumulative shares. Creates and removes balance, so the
// file count stays steady.
const (
	pCreate  = 0.15
	pRemove  = 0.30
	pRead    = 0.70
	pStat    = 0.95 // the rest are readdirs
	pShared  = 0.2  // share of ops aimed at the shared directory
	zipfSkew = 1.1  // popularity skew of reads and stats
)

// smallClasses are the kinds of operation the mix issues.
var smallClasses = []string{"write", "read", "stat", "readdir", "remove"}

// fileModel is what the generator knows a file holds.
type fileModel struct {
	key  uint64
	size int
}

// slotDir is a set of file slots in one directory that one client
// alone creates and removes.
type slotDir struct {
	dir, prefix string
	files       []*fileModel // nil: empty slot
	id0         uint64       // content id of slot 0
	version     uint64
}

func (s *slotDir) path(i int) string { return fmt.Sprintf("%s/%s%d", s.dir, s.prefix, i) }

func (s *slotDir) occupied() int {
	n := 0
	for _, f := range s.files {
		if f != nil {
			n++
		}
	}
	return n
}

// pick returns a random slot that is occupied (or empty); there must
// be one.
func (s *slotDir) pick(r *rng, occupied bool) int {
	for {
		if i := r.intn(len(s.files)); (s.files[i] != nil) == occupied {
			return i
		}
	}
}

// nearest returns the first occupied slot at or after i.
func (s *slotDir) nearest(i int) int {
	for s.files[i%len(s.files)] == nil {
		i++
	}
	return i % len(s.files)
}

func (s *slotDir) names() []string {
	var out []string
	for i, f := range s.files {
		if f != nil {
			out = append(out, fmt.Sprintf("%s%d", s.prefix, i))
		}
	}
	return out
}

// newContent makes a fresh version's model: a log-uniform size in
// 1–16 KB, drawn from the content key.
func (s *slotDir) newContent(seed int64, i int) *fileModel {
	s.version++
	key := contentKey(seed, s.id0+uint64(i), s.version)
	f := float64(splitmix(key)>>11) / (1 << 53)
	return &fileModel{key: key, size: int(minFile * math.Pow(maxFile/minFile, f))}
}

func (f *fileModel) data() []byte {
	p := make([]byte, f.size)
	fill(p, f.key)
	return p
}

// smallClient is one closed-loop client daemon and its model.
type smallClient struct {
	cl      *client.Client
	user    string
	own     *slotDir
	shared  *slotDir // this client's slots in the shared directory
	stable  *slotDir // the shared stable files (read-only after prefill)
	r       *rng
	zipf    *rand.Zipf // over own slots
	zipfS   *rand.Zipf // over stable files
	classes map[string]*samples
	genGap  samples
	ops     int
	// written and read are the payload bytes of completed writes and
	// verified reads in the window.
	writtenBytes, readBytes float64
}

// runSmall runs two closed-loop clients over a seeded op mix until
// the window has passed.
func runSmall(ph phase) (*outcome, error) {
	size := smallFull
	if ph.rc.smoke {
		size = smallSmoke
	}
	var d *deployment
	var cls []*client.Client
	setup, err := measureSetup(ph.setups, func(i int) (func() error, error) {
		var err error
		d, cls, err = setupFileStack(ph, i, diskstore.DefaultHotBytes, size.ckptBytes, smallClients)
		if err != nil {
			return nil, err
		}
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

	root := d.root()
	stable := &slotDir{dir: root + "/shared", prefix: "s", files: make([]*fileModel, size.sharedStable), id0: 1 << 40}
	if err := cls[0].Mkdir(u.name, stable.dir, 0o755); err != nil {
		return nil, err
	}
	for i := range stable.files {
		f := stable.newContent(ph.rc.seed, i)
		if err := writeFile(nil, nil, cls[0], u.name, stable.path(i), f.data()); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
		stable.files[i] = f
	}
	scs := make([]*smallClient, len(cls))
	for c, cl := range cls {
		own := &slotDir{dir: fmt.Sprintf("%s/c%d", root, c), prefix: "f", files: make([]*fileModel, size.ownSlots), id0: uint64(c+1) << 32}
		mine := &slotDir{dir: stable.dir, prefix: fmt.Sprintf("c%d-", c), files: make([]*fileModel, size.sharedSlots), id0: uint64(c+1)<<32 + 1<<24}
		zr := rand.New(rand.NewSource(ph.rc.seed*31 + int64(c)))
		scs[c] = &smallClient{
			cl: cl, user: u.name, own: own, shared: mine, stable: stable,
			r:       newRNG(ph.rc.seed, uint64(c)),
			zipf:    rand.NewZipf(zr, zipfSkew, 1, uint64(size.ownSlots-1)),
			zipfS:   rand.NewZipf(zr, zipfSkew, 1, uint64(size.sharedStable-1)),
			classes: map[string]*samples{},
		}
		for _, name := range smallClasses {
			scs[c].classes[name] = &samples{}
		}
	}
	// Prefill and warm: each client fills its slots, then reads its
	// dataset once so its caches hold it before the window opens.
	if err := eachClient(scs, func(sc *smallClient) error { return sc.prefill(ph.rc.seed) }); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}

	o := newOutcome()
	var mu sync.Mutex
	win := openWindow(d, cls...)
	deadline := win.t0.Add(ph.dur)
	_ = eachClient(scs, func(sc *smallClient) error {
		local := newOutcome()
		sc.loop(ph.rc.seed, rec, deadline, local)
		mu.Lock()
		o.attempted += local.attempted
		o.failed += local.failed
		o.wrong += local.wrong
		if o.firstErr == nil {
			o.firstErr = local.firstErr
		}
		mu.Unlock()
		return nil
	})
	b := win.close()

	byClass := map[string][]*samples{}
	ops := 0
	for _, sc := range scs {
		for name, s := range sc.classes {
			byClass[name] = append(byClass[name], s)
		}
		ops += sc.ops
	}
	var classes [][]*samples
	for _, name := range smallClasses {
		classes = append(classes, byClass[name])
	}
	endToEnd(o, setup, evenBounds(win.t0, ph.dur, time.Second), win, classes...)
	writes, reads := byClass["write"], byClass["read"]
	o.detail["ops_per_s"] = o.whole["ops_per_s"]
	o.detail["write_p50_us"] = quantileStat(merged(writes...), 0.5, "us")
	o.detail["read_p50_us"] = quantileStat(merged(reads...), 0.5, "us")
	o.detail["p99_us"] = o.whole["p99_us"]
	if rec != nil {
		var gaps []*samples
		var written, read float64
		for _, sc := range scs {
			gaps = append(gaps, &sc.genGap)
			written += sc.writtenBytes
			read += sc.readBytes
		}
		o.layers = layerMetrics(rec, win.a, b, work{ops: ops, userWritten: written, userRead: read, genLate: merged(gaps...)})
	}
	return o, nil
}

// eachClient runs f on every client concurrently and returns the
// first error.
func eachClient(scs []*smallClient, f func(*smallClient) error) error {
	errs := make([]error, len(scs))
	var wg sync.WaitGroup
	for i, sc := range scs {
		wg.Add(1)
		go func(i int, sc *smallClient) {
			defer wg.Done()
			errs[i] = f(sc)
		}(i, sc)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (sc *smallClient) prefill(seed int64) error {
	if err := sc.cl.Mkdir(sc.user, sc.own.dir, 0o755); err != nil {
		return err
	}
	for _, s := range []*slotDir{sc.own, sc.shared} {
		for i := range s.files {
			if sc.r.float() >= slotFill {
				continue
			}
			f := s.newContent(seed, i)
			if err := writeFile(nil, nil, sc.cl, sc.user, s.path(i), f.data()); err != nil {
				return err
			}
			s.files[i] = f
		}
	}
	for _, s := range []*slotDir{sc.own, sc.stable} {
		for i, f := range s.files {
			if f != nil {
				if err := sc.read(nil, nil, s.path(i), f.data()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// loop issues ops back to back until deadline.
func (sc *smallClient) loop(seed int64, rec *recorder, deadline time.Time, o *outcome) {
	last := time.Now()
	for time.Now().Before(deadline) {
		u := sc.r.float()
		dir := sc.own
		if sc.r.float() < pShared {
			dir = sc.shared
		}
		// A full directory takes a remove instead of a create, an empty
		// one the reverse, so the slot picks below always succeed.
		if n := dir.occupied(); u < pCreate && n == len(dir.files) {
			u = pCreate
		} else if u >= pCreate && u < pRemove && n == 0 {
			u = 0
		}
		var class string
		var op func(sp *span) error
		switch {
		case u < pCreate:
			class = "write"
			i := dir.pick(sc.r, false)
			f := dir.newContent(seed, i)
			data := f.data()
			op = func(sp *span) error {
				err := writeFile(rec, sp, sc.cl, sc.user, dir.path(i), data)
				if err == nil {
					dir.files[i] = f
					sc.writtenBytes += float64(len(data))
				}
				return err
			}
		case u < pRemove:
			class = "remove"
			i := dir.pick(sc.r, true)
			op = func(sp *span) error {
				err := rec.timed("client.remove", sp, func() error { return sc.cl.Remove(sc.user, dir.path(i)) })
				if err == nil {
					dir.files[i] = nil
				}
				return err
			}
		case u < pStat:
			s, i := sc.own, sc.own.nearest(int(sc.zipf.Uint64()))
			if dir != sc.own {
				s, i = sc.stable, int(sc.zipfS.Uint64())
			}
			if u < pRead {
				class = "read"
				want := s.files[i].data()
				op = func(sp *span) error {
					err := sc.read(rec, sp, s.path(i), want)
					if err == nil {
						sc.readBytes += float64(len(want))
					}
					return err
				}
			} else {
				class = "stat"
				op = func(sp *span) error { return sc.stat(rec, sp, s, i) }
			}
		default:
			class = "readdir"
			op = func(sp *span) error { return sc.readdir(rec, sp, dir) }
		}
		sp := rec.start("op."+class, nil)
		start := time.Now()
		sc.genGap.add(start.Sub(last))
		err := op(sp)
		last = time.Now()
		rec.end(sp)
		sc.classes[class].add(last.Sub(start))
		o.attempted++
		sc.ops++
		if err != nil {
			o.fail(fmt.Errorf("%s: %w", class, err))
		}
	}
}

// read is the whole-file read, checked byte for byte.
func (sc *smallClient) read(rec *recorder, sp *span, path string, want []byte) error {
	var got []byte
	if err := rec.timed("client.readfile", sp, func() error {
		var err error
		got, err = sc.cl.ReadFile(sc.user, path)
		return err
	}); err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: read %d bytes, want %d: %w", path, len(got), len(want), errWrongData)
	}
	return nil
}

func (sc *smallClient) stat(rec *recorder, sp *span, s *slotDir, i int) error {
	var size uint64
	if err := rec.timed("client.stat", sp, func() error {
		attr, err := sc.cl.Stat(sc.user, s.path(i))
		size = attr.Size
		return err
	}); err != nil {
		return err
	}
	if size != uint64(s.files[i].size) {
		return fmt.Errorf("%s: size %d, want %d: %w", s.path(i), size, s.files[i].size, errWrongData)
	}
	return nil
}

// readdir lists dir and checks it: exactly the model's names for a
// client's own directory; for the shared directory, which the other
// client changes concurrently, at least the stable files and this
// client's own.
func (sc *smallClient) readdir(rec *recorder, sp *span, dir *slotDir) error {
	var names []string
	if err := rec.timed("client.readdir", sp, func() error {
		ents, err := sc.cl.ReadDir(sc.user, dir.dir)
		for _, e := range ents {
			if e.Name != "." && e.Name != ".." {
				names = append(names, e.Name)
			}
		}
		return err
	}); err != nil {
		return err
	}
	want := dir.names()
	if dir == sc.own {
		sort.Strings(names)
		sort.Strings(want)
		if strings.Join(names, "/") != strings.Join(want, "/") {
			return fmt.Errorf("%s: %d entries, want %d: %w", dir.dir, len(names), len(want), errWrongData)
		}
		return nil
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, n := range append(want, sc.stable.names()...) {
		if !have[n] {
			return fmt.Errorf("%s: missing %s: %w", dir.dir, n, errWrongData)
		}
	}
	return nil
}
