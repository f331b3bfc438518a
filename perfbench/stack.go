package main

// The deployment under test, composed from the daemons' public
// functions the way cmd/sfssd and cmd/sfscd compose them: a disk store
// behind the vfs with background checkpoints, a server master with
// sfssd's default admission policy and an auth server, listening on
// raw loopback TCP, and client daemons with sfscd's defaults. Nothing
// is shaped and encryption stays on. Only two deployment sizes differ
// from the shipped defaults, per workload: the pager hot budget and
// the checkpoint threshold.

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/authserv"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/vfs"
)

const (
	// keySeed derives every key pair. It is fixed and separate from
	// the workload seed, so set-up cost does not move with the seed.
	keySeed = "perfbench-keys-v1"
	// serverKeyBits and userKeyBits are sfskey's default modulus;
	// client temporary keys keep sfscd's default (768 bits).
	serverKeyBits = 1024
	userKeyBits   = 1024
	location      = "files.example.com"
	// traceRing is sfssd's and sfscd's default -trace-ring.
	traceRing = 256
)

// deployConfig sizes one deployment.
type deployConfig struct {
	dir       string // store directory, created fresh
	hotBytes  uint64 // pager hot budget
	ckptBytes uint64 // WAL bytes that trigger a background checkpoint
	users     int    // registered users with key pairs
	rec       *recorder
	corrupt   bool // self-test only: corrupt store reads in the window
}

// user is a registered user: name, uid and key pair.
type user struct {
	name string
	uid  uint32
	key  *rabin.PrivateKey
}

// deployment is a running server side.
type deployment struct {
	cfg      deployConfig
	store    *diskstore.Store
	traced   *tracedStore // nil when untraced
	fs       *vfs.FS
	stopCkpt func()
	master   *server.Server
	ln       net.Listener
	served   chan struct{} // closed when the accept loop has returned
	path     core.Path
	users    []user
	ws       wireStats

	// cliStages sums the client-side stage spans of traced sessions
	// that have closed (live client daemons report their own).
	cliMu     sync.Mutex
	cliStages map[string]float64
	// daemonConns are the client daemons' transports, closed at
	// teardown (a client daemon keeps its mounts until it exits).
	daemonConns []net.Conn
}

func deploy(cfg deployConfig) (*deployment, error) {
	if err := os.MkdirAll(cfg.dir, 0o700); err != nil {
		return nil, err
	}
	ds, err := diskstore.Open(cfg.dir, diskstore.Options{HotBytes: cfg.hotBytes})
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	d := &deployment{cfg: cfg, store: ds, cliStages: map[string]float64{}}
	var meta storage.MetadataStore = ds
	var blocks storage.BlockStore = ds
	if cfg.rec != nil {
		d.traced = &tracedStore{s: ds, rec: cfg.rec}
		meta, blocks = d.traced, d.traced
	}
	if d.fs, err = vfs.NewWithStores(meta, blocks); err != nil {
		ds.Close()
		return nil, err
	}
	d.stopCkpt = d.fs.StartAutoCheckpoint(cfg.ckptBytes, 0)

	rng := prng.NewSeeded([]byte(keySeed))
	key, err := rabin.GenerateKey(rng, serverKeyBits)
	if err != nil {
		d.closeStore()
		return nil, err
	}
	d.path = core.MakePath(location, key.PublicKey.Bytes())
	auth := authserv.New(d.path.String(), rng)
	db := authserv.NewDB("local", true)
	auth.AddDB(db)
	for i := 0; i < cfg.users; i++ {
		u := user{name: fmt.Sprintf("user%d", i), uid: uint32(i)}
		if u.key, err = rabin.GenerateKey(rng, userKeyBits); err != nil {
			d.closeStore()
			return nil, err
		}
		if err := auth.Register(db, u.name, u.uid, []uint32{u.uid}, authserv.RegisterOptions{PrivateKey: u.key}); err != nil {
			d.closeStore()
			return nil, err
		}
		d.users = append(d.users, u)
	}

	d.master = server.New(rng)
	// sfssd's flag defaults.
	d.master.SetHandshakePolicy(server.HandshakePolicy{
		Timeout: 5 * time.Second, ResumeCacheBytes: 1 << 20, ResumeTTL: time.Hour,
	})
	srv := server.ServedConfig{Location: location, Key: key, FS: d.fs, Auth: auth, LeaseMS: 60000}
	if cfg.rec != nil {
		srv.TraceSpans = traceRing
	}
	if _, err := d.master.Serve(srv); err != nil {
		d.closeStore()
		return nil, err
	}
	if d.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		d.closeStore()
		return nil, err
	}
	ln := d.ln
	if cfg.rec != nil {
		ln = &tracedListener{Listener: d.ln, rec: cfg.rec, ws: &d.ws}
	}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		_ = d.master.ListenAndServe(ln) // returns when close shuts the listener
	}()
	return d, nil
}

// dial opens a raw transport to the server, traced when the run is.
func (d *deployment) dial() (net.Conn, error) {
	c, err := net.Dial("tcp", d.ln.Addr().String())
	if err != nil || d.cfg.rec == nil {
		return c, err
	}
	return wrapConn(c, d.cfg.rec, &d.ws), nil
}

// newClient starts one client daemon (sfscd defaults) whose agent
// holds u's key. seed names its deterministic RNG.
func (d *deployment) newClient(seed string, u user) (*client.Client, error) {
	cfg := client.Config{
		Dial: func(string) (net.Conn, error) {
			c, err := d.dial()
			if err == nil {
				d.cliMu.Lock()
				d.daemonConns = append(d.daemonConns, c)
				d.cliMu.Unlock()
			}
			return c, err
		},
		RNG:             prng.NewSeeded([]byte(keySeed + "/" + seed)),
		EnhancedCaching: true,
	}
	if d.cfg.rec != nil {
		cfg.TraceSpans = traceRing
	}
	cl, err := client.New(cfg)
	if err != nil {
		return nil, err
	}
	a := agent.New(u.name, prng.NewSeeded([]byte(keySeed+"/agent/"+seed)))
	a.AddKey(u.key)
	cl.RegisterAgent(u.name, a)
	return cl, nil
}

// root is the self-certifying pathname of the served file system.
func (d *deployment) root() string { return d.path.String() }

// noteSession folds a closed traced session's client stage sums in.
func (d *deployment) noteSession(st *stats.StageSetSnapshot) {
	if st == nil {
		return
	}
	d.cliMu.Lock()
	addStages(d.cliStages, *st)
	d.cliMu.Unlock()
}

// close stops the accept loop, the checkpointer and the store, and
// removes the store directory. Clients must be closed first.
func (d *deployment) close() error {
	d.cliMu.Lock()
	for _, c := range d.daemonConns {
		c.Close()
	}
	d.cliMu.Unlock()
	d.ln.Close()
	<-d.served
	return d.closeStore()
}

func (d *deployment) closeStore() error {
	if d.stopCkpt != nil {
		d.stopCkpt()
	}
	err := d.store.Close()
	if rerr := os.RemoveAll(d.cfg.dir); err == nil {
		err = rerr
	}
	return err
}
