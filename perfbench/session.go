package main

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/agent"
	"repro/internal/client"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/nfs"
	"repro/internal/secchan"
	"repro/internal/sfsrpc"
	"repro/internal/sunrpc"
)

// errWrongData marks an operation whose output was wrong, as opposed
// to one that failed: the run is then not correct.
var errWrongData = errors.New("wrong data")

// simClient is one simulated client machine: its temporary key (a
// client daemon keeps one for an hour), its user's agent, and the
// resumption ticket its last session minted. mu keeps one session per
// machine at a time, since each session consumes the previous ticket.
type simClient struct {
	mu      sync.Mutex
	user    user
	tempKey *rabin.PrivateKey
	rng     *prng.Generator
	agent   *agent.Agent
	ticket  *secchan.ResumeTicket
}

// tempKeyBits is sfscd's default temporary key size.
const tempKeyBits = 768

func newSimClient(name string, u user) (*simClient, error) {
	rng := prng.NewSeeded([]byte(keySeed + "/sim/" + name))
	k, err := rabin.GenerateKey(rng, tempKeyBits)
	if err != nil {
		return nil, err
	}
	a := agent.New(u.name, prng.NewSeeded([]byte(keySeed+"/sim-agent/"+name)))
	a.AddKey(u.key)
	return &simClient{user: u, tempKey: k, rng: rng, agent: a}, nil
}

// connect runs one connection the way a client daemon mounts: dial,
// negotiate (resuming when c holds a ticket), log in through the
// agent and the LOGIN RPC when login is set, mount and GETATTR the
// root, and close. The caller holds c.mu.
func (d *deployment) connect(c *simClient, login bool, parent *span) error {
	rec := d.cfg.rec
	conn, err := d.dial()
	if err != nil {
		return err
	}
	name := "secchan.handshake_full"
	if c.ticket != nil {
		name = "secchan.handshake_resume"
	}
	sp := rec.start(name, parent)
	sec, info, _, err := secchan.ClientHandshakeResume(conn, secchan.ServiceFile, d.path, c.tempKey, c.rng, c.ticket)
	rec.end(sp)
	if err != nil {
		conn.Close()
		c.ticket = nil
		return fmt.Errorf("handshake: %w", err)
	}
	c.ticket = info.Ticket
	cfg := nfs.ClientConfig{UseLeases: true, AccessCache: true}
	if rec != nil {
		cfg.TraceSpans = traceRing
	}
	nc := nfs.Dial(sec, cfg)
	defer func() {
		d.noteSession(nc.StageSnapshot())
		nc.Close()
	}()
	view := nc
	if login {
		ai := sfsrpc.NewAuthInfo(info.Location, info.HostID, info.SessionID)
		var msg []byte
		ok := false
		_ = rec.timed("agent.authenticate", parent, func() error {
			msg, ok = c.agent.Authenticate(ai, 1, "sfscd:"+c.user.name, 0)
			return nil
		})
		if !ok {
			return errors.New("agent declined to authenticate")
		}
		var res sfsrpc.LoginRes
		if err := rec.timed("authserv.login_rpc", parent, func() error {
			return nc.Call(sfsrpc.AuthProgram, sfsrpc.Version, sfsrpc.ProcLogin,
				sfsrpc.LoginArgs{SeqNo: 1, AuthMsg: msg}, &res)
		}); err != nil {
			return fmt.Errorf("login: %w", err)
		}
		if res.Status != sfsrpc.LoginOK {
			return fmt.Errorf("login refused with status %d", res.Status)
		}
		no := res.AuthNo
		view = nc.WithAuth(c.user.name, func() sunrpc.OpaqueAuth { return sunrpc.SFSAuth(no) })
	}
	var root nfs.FH
	if err := rec.timed("nfs.mountroot", parent, func() error {
		var err error
		root, _, err = view.MountRoot()
		return err
	}); err != nil {
		return fmt.Errorf("mount: %w", err)
	}
	var attr nfs.Fattr
	if err := rec.timed("nfs.getattr", parent, func() error {
		var err error
		attr, err = view.GetAttr(root)
		return err
	}); err != nil {
		return fmt.Errorf("getattr: %w", err)
	}
	if attr.Type != nfs.TypeDir {
		return fmt.Errorf("root has type %d: %w", attr.Type, errWrongData)
	}
	return nil
}

// probe passes once through every layer the traced run times — a
// full and a resumed login, a file write, sync and read, and a
// checkpoint — so each per-layer timing has samples on every
// workload. It runs before the measured window, in the traced run only.
func probe(d *deployment, u user) error {
	rec := d.cfg.rec
	root := rec.start("op.probe", nil)
	defer rec.end(root)
	sc, err := newSimClient("probe", u)
	if err != nil {
		return err
	}
	sc.mu.Lock()
	for i := 0; i < 2; i++ {
		if err := d.connect(sc, true, root); err != nil {
			sc.mu.Unlock()
			return fmt.Errorf("probe login: %w", err)
		}
	}
	sc.mu.Unlock()
	cl, err := d.newClient("probe", u)
	if err != nil {
		return err
	}
	path := d.root() + "/probe"
	data := make([]byte, 3*blockBytes)
	fill(data, contentKey(0, 0xfeed, 0))
	if err := writeFile(rec, root, cl, u.name, path, data); err != nil {
		return fmt.Errorf("probe write: %w", err)
	}
	got := make([]byte, len(data))
	f, err := cl.Open(u.name, path)
	if err != nil {
		return err
	}
	for off := 0; off < len(got); off += blockBytes {
		if err := rec.timed("client.readat", root, func() error {
			_, err := f.ReadAt(got[off:off+blockBytes], uint64(off))
			return err
		}); err != nil {
			f.Close()
			return fmt.Errorf("probe read: %w", err)
		}
	}
	f.Close()
	if string(got) != string(data) {
		return fmt.Errorf("probe read back: %w", errWrongData)
	}
	if err := cl.Remove(u.name, path); err != nil {
		return err
	}
	if _, err := d.fs.Checkpoint(); err != nil {
		return fmt.Errorf("probe checkpoint: %w", err)
	}
	return nil
}

// writeFile is the create+write+COMMIT operation: create, one
// WriteAt of the whole content, Sync, Close.
func writeFile(rec *recorder, parent *span, cl *client.Client, userName, path string, data []byte) error {
	var f *client.File
	if err := rec.timed("client.create", parent, func() error {
		var err error
		f, err = cl.Create(userName, path, 0o644)
		return err
	}); err != nil {
		return err
	}
	err := rec.timed("client.writeat", parent, func() error {
		_, err := f.WriteAt(data, 0)
		return err
	})
	if err == nil {
		err = rec.timed("client.sync", parent, f.Sync)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
