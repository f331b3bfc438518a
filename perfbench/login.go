package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage/diskstore"
)

// loginSize sizes login-storm: the simulated client machines, the
// users they log in as, and the arrival rate.
type loginSize struct {
	machines int
	users    int
	rate     float64 // session arrivals per second
}

var (
	loginFull  = loginSize{machines: 16, users: 4, rate: loginRate}
	loginSmoke = loginSize{machines: 3, users: 2, rate: 50}
)

const (
	// loginRate is about a fifth of the session capacity this mix
	// reaches on an idle 2-core host (about 1400 sessions/s). Half
	// of it left no headroom for CPU steal on a shared host: with a
	// quarter of the CPU stolen, the open loop's queue grew without
	// bound.
	loginRate = 300.0
	pAnon     = 0.2 // anonymous bare mounts
	pFresh    = 0.1 // authenticated sessions from a client with no ticket
)

type sessionKind int

const (
	sessionResumed sessionKind = iota
	sessionFull
	sessionAnon
)

// arrival is one scheduled session, at its offset from the start.
type arrival struct {
	at      time.Duration
	machine int
	kind    sessionKind
}

// runLogin runs an open loop of sessions at a fixed Poisson arrival
// rate, at most one per core in flight, each timed from its scheduled
// arrival.
func runLogin(ph phase) (*outcome, error) {
	size := loginFull
	if ph.rc.smoke {
		size = loginSmoke
	}
	var d *deployment
	var sims []*simClient
	setup, err := measureSetup(ph.setups, func(i int) (func() error, error) {
		var err error
		d, err = deploy(deployConfig{
			dir: storeDir(ph, i), hotBytes: diskstore.DefaultHotBytes, ckptBytes: 64 << 20,
			users: size.users, rec: ph.rec,
		})
		if err != nil {
			return nil, err
		}
		sims = sims[:0]
		for m := 0; m < size.machines; m++ {
			sc, err := newSimClient(fmt.Sprintf("m%d", m), d.users[m%size.users])
			if err != nil {
				d.close()
				return nil, err
			}
			sims = append(sims, sc)
		}
		if err := d.connect(sims[0], true, nil); err != nil {
			d.close()
			return nil, fmt.Errorf("first login: %w", err)
		}
		return d.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer d.close()
	rec := ph.rec
	if rec != nil {
		if err := probe(d, d.users[0]); err != nil {
			return nil, err
		}
	}
	// Every machine logs in once before the window, so each holds a
	// ticket when the storm starts.
	for _, sc := range sims[1:] {
		if err := d.connect(sc, true, nil); err != nil {
			return nil, fmt.Errorf("warm-up login: %w", err)
		}
	}

	// The arrival schedule is drawn up front; each worker takes the
	// next arrival when it is free, sleeping until it is due, so no
	// separate generator goroutine competes for the cores. At most one
	// session per core is in flight.
	r := newRNG(ph.rc.seed, 1<<20)
	var sched []arrival
	for at := time.Duration(0); ; {
		at += time.Duration(-math.Log(1-r.float()) / size.rate * float64(time.Second))
		if at >= ph.dur {
			break
		}
		a := arrival{at: at, machine: r.intn(size.machines), kind: sessionResumed}
		switch u := r.float(); {
		case u < pAnon:
			a.kind = sessionAnon
		case u < pAnon+pFresh:
			a.kind = sessionFull
		}
		sched = append(sched, a)
	}
	lat := map[sessionKind]*samples{sessionResumed: {}, sessionFull: {}, sessionAnon: {}}
	var late samples
	var next atomic.Int64
	o := newOutcome()
	var mu sync.Mutex

	win := openWindow(d)
	start := win.t0
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				due := start.Add(a.at)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					late.add(time.Since(due))
				}
				sc := sims[a.machine]
				sc.mu.Lock()
				kind := a.kind
				if kind == sessionFull {
					sc.ticket = nil
				} else if kind == sessionResumed && sc.ticket == nil {
					kind = sessionFull // the last session failed
				}
				sp := rec.start("op.session", nil)
				var err error
				if kind == sessionAnon {
					// A bare mount that closes and reconnects at once,
					// with no settling time, as an automounter does.
					if err = d.connect(sc, false, sp); err == nil {
						err = d.connect(sc, false, sp)
					}
				} else {
					err = d.connect(sc, true, sp)
				}
				rec.end(sp)
				sc.mu.Unlock()
				lat[kind].add(time.Since(due))
				mu.Lock()
				o.attempted++
				if err != nil {
					o.fail(err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	b := win.close()

	endToEnd(o, setup, evenBounds(start, ph.dur, time.Second), win, []*samples{lat[sessionResumed]}, []*samples{lat[sessionFull]}, []*samples{lat[sessionAnon]})
	all := merged(lat[sessionResumed], lat[sessionFull], lat[sessionAnon])
	o.detail["login_resume_p50_ms"] = quantileStat(merged(lat[sessionResumed]), 0.5, "ms")
	o.detail["login_full_p50_ms"] = quantileStat(merged(lat[sessionFull]), 0.5, "ms")
	o.detail["login_p99_ms"] = quantileStat(all, 0.99, "ms")
	if rec != nil {
		o.layers = layerMetrics(rec, win.a, b, work{ops: len(all), genLate: merged(&late)})
	}
	return o, nil
}
